"""Per-algebra obstruction pipelines, certificates, and report assembly.

The proving mechanism is always an exact polynomial identity (zero diagonal,
vanishing or witnessed-nonnegative quartic invariant, null direction, sign
product, gauge normalization).  Randomized falsification is quarantined in
`sampled_no_su3` certificates, which are explicitly non-proving: they back
the case analyses the source carries out in prose and this artifact cites.

Every certificate is proved on a `StageContext`: a catalog entry, or one
of its branches, after the strong-unimodularity substitutions of its
stage.  The entry owns the algebra, the derivation family and the gauge
families it ships, each built and proved once; the context substitutes
into them, solves Der where no family is shipped, builds on first use the
other objects a check reads (psi = d alpha, omega = d beta - D* alpha, K,
lambda, h and the trace conditions), and gives each certificate its name,
assumptions and context fields.  Each certificate kind has one verifier,
called as `verifier(context, inputs)`, and `VERIFIERS` maps every kind to
it; a new kind is one more entry of that table.  Discovery and
`recheck_certificate` take each context from the plan in one way: the
entry or branch as shipped for a zero diagonal, a trace obstruction or a
first-stage lambda certificate, else after its strong-unimodularity
substitutions.  A verifier reads its plan step from the context
(`StageContext.step`) and witnesses from the entry, and the gauge verifier
solves its own linear system.  The only stored inputs left are a sampling
certificate's trials and seed, which --samples and --seed set; no report
text is parsed.  Recheck runs the verifier on the stored data and
compares the whole certificate, assumptions included, so every other
stored field, a gauge certificate's solved gauge and determinant among
them, can only match the plan.  One rule, `derive_outcome`, reads an
entry's outcome off its plan and certificates, in discovery and in
recheck, which compares it with the stored outcome.
"""

from __future__ import annotations

import enum
import random
import time
from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import numeric
from .catalog import Atom, AlgebraEntry
from .derivations import (
    DerivationFamily,
    StrongUnimodularity,
    dstar_action,
    solve_derivations,
    strongly_unimodular_constraints,
)
from .errors import (
    MALFORMED,
    AtomUnsatisfiableAfterBudget,
    G2CertError,
    IdentityFailure,
    IdentityMismatch,
    NotIdenticallyZero,
    WitnessMismatch,
)
from .forms import (
    KForm,
    form_value,
    generic_one_form,
    generic_two_form,
    pullback,
)
from .hitchin import Bilinear, KOperator, b_phi, h_form, k_psi
from .lie import LieAlgebra, ce_differential
from .numeric import PairSampler
from .poly import Polynomial, check_nonneg_witness, solve_linear, substitute_cramer


class CertKind(str, enum.Enum):
    ZERO_DIAGONAL = "zero_diagonal"
    LAMBDA_ZERO = "lambda_identically_zero"
    LAMBDA_NONNEG = "lambda_nonnegative"
    NULL_DIRECTION = "null_direction"
    SIGN_PRODUCT = "sign_product"
    GAUGE_NULL = "gauge_null"
    SAMPLED_NO_SU3 = "sampled_no_su3"
    # not part of the original vocabulary: records that the trace conditions
    # of strong unimodularity are unsatisfiable for every parameter value
    TRACE_OBSTRUCTION = "trace_obstruction"


class Certificate:
    __slots__ = ("kind", "algebra", "assumptions", "data", "verified")

    def __init__(self, kind: CertKind, algebra: str, assumptions: Optional[list] = None,
                 data: Optional[dict] = None, verified: bool = False):
        self.kind = kind
        self.algebra = algebra
        self.assumptions = [] if assumptions is None else assumptions
        self.data = {} if data is None else data
        self.verified = verified

    def to_json(self):
        return {
            "kind": self.kind.value,
            "algebra": self.algebra,
            "assumptions": list(self.assumptions),
            "data": self.data,
            "verified": self.verified,
        }

    @staticmethod
    def from_json(node) -> "Certificate":
        """The certificate of a report node; raises KeyError for a missing
        kind or algebra and ValueError for an unknown kind or a field of
        the wrong JSON type (1 is not a verdict, a list of pairs not data)."""
        cert = Certificate(
            kind=CertKind(node["kind"]),
            algebra=node["algebra"],
            assumptions=node.get("assumptions", []),
            data=node.get("data", {}),
            verified=node.get("verified", False),
        )
        for name, json_type in (("algebra", str), ("assumptions", list), ("data", dict)):
            if not isinstance(getattr(cert, name), json_type):
                raise ValueError(f"certificate field {name!r} is not a JSON {json_type.__name__}")
        if type(cert.verified) is not bool:
            raise ValueError("certificate field 'verified' is not true or false")
        return cert


class Outcome(str, enum.Enum):
    # an entry's outcome is the last in this order of its branches' outcomes
    OBSTRUCTED = "obstructed"
    OBSTRUCTED_CITED = "obstructed-modulo-cited-prose"
    NO_SU_EXTENSION = "no-strongly-unimodular-extension"
    CITED_PROSE_SAMPLED = "cited-prose-sampled"
    LATTICE_OUT_OF_SCOPE = "lattice-out-of-scope"
    DATA_NOT_SHIPPED = "data-not-shipped"
    INCONCLUSIVE = "inconclusive"


class EntryResult:
    __slots__ = ("name", "outcome", "certificates", "notes", "seconds", "samples")

    def __init__(self, name: str, outcome: Outcome, certificates: Optional[list] = None,
                 notes: Optional[list] = None, seconds: float = 0.0,
                 samples: Optional[dict] = None):
        self.name = name
        self.outcome = outcome
        self.certificates = [] if certificates is None else certificates
        self.notes = [] if notes is None else notes
        self.seconds = seconds
        self.samples = {} if samples is None else samples

    def ok(self) -> bool:
        return self.outcome is not Outcome.INCONCLUSIVE and all(
            c.verified for c in self.certificates
        )

    def to_json(self, include_timing: bool = True):
        node = {
            "name": self.name,
            "outcome": self.outcome.value,
            "notes": list(self.notes),
            "certificates": [c.to_json() for c in self.certificates],
        }
        if self.samples:
            node["samples"] = self.samples
        if include_timing:
            node["seconds"] = round(self.seconds, 3)
        return node


# -- stage contexts ----------------------------------------------------------


def _substitute_atoms(atoms, subs) -> list:
    """The atoms after `subs`, dropping those that become constant."""
    out = []
    for atom in atoms:
        poly = atom.poly.substitute(subs)
        if not poly.is_constant():
            out.append(Atom(atom.op, poly))
    return out


def generic_su3_candidate(algebra: LieAlgebra, family: DerivationFamily) -> KForm:
    """The generic candidate 2-form omega = d beta - D* alpha of an extension
    by the derivation family, with symbolic coefficients beta_i and
    alpha_ij; it pairs with psi = d alpha (`StageContext.psi`)."""
    alpha = generic_two_form(algebra.dim, "alpha")
    beta = generic_one_form(algebra.dim, "beta")
    return ce_differential(algebra, beta) - dstar_action(family, alpha)


class StageContext:
    """What a certificate is proved on: a catalog entry, or its named
    branch, after solved strong-unimodularity substitutions.

    A context is keyed by (entry, branch_name, derivation_subs, fam_subs);
    `unsolved` holds the family equations that no substitution solved,
    which stay assumptions.  The algebra, the shipped family and the gauge
    families are the entry's, after the context's substitutions; every
    other attribute is built on first use, so a stage builds only what it
    reads.  The lambda stage never builds a derivation family, which an
    entry with free family parameters and no shipped family cannot build
    (solve_derivations raises NonNumericEntries), and an unknown branch
    name raises G2CertError when the branch is first read.
    """

    def __init__(self, entry: AlgebraEntry, branch_name: Optional[str] = None,
                 derivation_subs: Optional[dict] = None, fam_subs: Optional[dict] = None,
                 unsolved: tuple = ()):
        self.entry = entry
        self.branch_name = branch_name
        self.derivation_subs = {} if derivation_subs is None else derivation_subs
        self.fam_subs = {} if fam_subs is None else fam_subs
        self.unsolved = unsolved

    @property
    def name(self) -> str:
        if self.branch_name is None:
            return self.entry.name
        return f"{self.entry.name} [{self.branch_name}]"

    @property
    def steps(self) -> list:
        """The plan steps of the entry (branches excepted) or of the branch."""
        return self.entry.steps(self.branch_name)

    def step(self, kind: str) -> dict:
        """The plan step of `kind` of the context (`AlgebraEntry.step`)."""
        return self.entry.step(kind, self.branch_name)

    @cached_property
    def algebra(self) -> LieAlgebra:
        """The algebra of the entry or of the branch, after fam_subs."""
        algebra = self.entry.build_algebra(self.branch_name)
        return algebra.substitute(self.fam_subs) if self.fam_subs else algebra

    @cached_property
    def shipped_family(self) -> DerivationFamily:
        """The derivation family before any substitution: the entry's, else
        Der of the algebra of the entry or of the branch, solved."""
        family = self.entry.build_family(self.branch_name)
        if family is None:
            family = solve_derivations(self.entry.build_algebra(self.branch_name))
        return family

    @cached_property
    def family(self) -> DerivationFamily:
        """The derivation family after derivation_subs, then fam_subs."""
        return self._specialized(self.shipped_family.substitute(self.derivation_subs))

    def _specialized(self, family: DerivationFamily) -> DerivationFamily:
        """A family of the entry or of the branch, after fam_subs."""
        if not self.fam_subs:
            return family
        return DerivationFamily(
            self.algebra,
            [[e.substitute(self.fam_subs) for e in row] for row in family.matrix],
            family.params,
        )

    @cached_property
    def atoms(self) -> list:
        """The domain atoms of the entry and the branch, after fam_subs."""
        atoms = list(self.entry.atoms)
        if self.branch_name is not None:
            atoms = _substitute_atoms(atoms, self.entry.branch_subs(self.branch_name))
            atoms += self.entry.branch_atoms(self.branch_name)
        return _substitute_atoms(atoms, self.fam_subs) if self.fam_subs else atoms

    @cached_property
    def assumptions(self) -> list:
        """The entry's atoms, the branch's values and atoms, the
        substitutions and the unsolved family equations, as text."""
        out = [str(a) for a in self.entry.atoms]
        out += [f"{k} = {v}" for k, v in self.entry.branch_subs(self.branch_name).items()]
        out += [str(a) for a in self.entry.branch_atoms(self.branch_name)]
        out += [f"{k} = {v}" for k, v in sorted(self.derivation_subs.items())]
        out += [f"{k} = {v}" for k, v in sorted(self.fam_subs.items())]
        return out + [f"{e} = 0" for e in self.unsolved]

    @cached_property
    def psi(self) -> KForm:
        """The generic exact 3-form d alpha (the phi of a 7-dimensional
        algebra)."""
        return ce_differential(self.algebra, generic_two_form(self.algebra.dim, "alpha"))

    @cached_property
    def k(self) -> KOperator:
        """K_psi of the generic psi."""
        return k_psi(self.psi)

    @property
    def lam(self) -> Polynomial:
        """The quartic invariant lambda(psi) = tr(K^2) / 6."""
        return self.k.lam

    @cached_property
    def omega(self) -> KForm:
        """The generic candidate 2-form of the family (`generic_su3_candidate`)."""
        return generic_su3_candidate(self.algebra, self.family)

    @cached_property
    def h(self) -> Bilinear:
        """h = omega(., K .) of the generic pair; an entry is computed when
        a check first reads it."""
        return h_form(self.omega, self.k)

    @cached_property
    def su(self) -> StrongUnimodularity:
        """The strong-unimodularity trace conditions of the context;
        G2CertError for an entry that ships no nilradical (validation allows
        that only with an empty plan)."""
        if self.entry.nilradical is None:
            raise G2CertError(f"{self.name}: no nilradical shipped for the trace conditions")
        return strongly_unimodular_constraints(self.algebra, self.family, self.entry.nilradical)

    def constrained(self, derivation_subs, fam_subs, unsolved=()) -> "StageContext":
        """This context after further substitutions.  The new context keeps
        what this one has built that they leave unchanged: the shipped
        family, and, when no family value is fixed, the algebra, the atoms,
        psi and K."""
        context = StageContext(
            self.entry,
            self.branch_name,
            {**self.derivation_subs, **derivation_subs},
            {**self.fam_subs, **fam_subs},
            self.unsolved + tuple(unsolved),
        )
        shared = ("shipped_family",)
        if not fam_subs:
            shared += ("algebra", "atoms", "psi", "k")
        for name in shared:
            if name in self.__dict__:
                context.__dict__[name] = self.__dict__[name]
        return context

    @cached_property
    def gauge_system(self) -> GaugeSystem:
        """The gauge system of psi for the gauge step of the context: the
        entry's gauge family S of the step, after fam_subs."""
        s_family = self._specialized(self.entry.build_gauge_family(self.branch_name))
        return gauge_system(self.psi, s_family, self.step("gauge")["targets"])

    def certificate(self, kind: CertKind, data: dict, extra_assumptions=()) -> Certificate:
        """A verified SU(3)-stage certificate on this context: its name, its
        assumptions followed by `extra_assumptions`, and `data` followed by
        the context fields."""
        return Certificate(
            kind,
            self.name,
            assumptions=self.assumptions + list(extra_assumptions),
            data={**data, **self.certificate_data()},
            verified=True,
        )

    def certificate_data(self) -> dict:
        """The context fields every SU(3)-stage certificate stores."""
        return {
            "branch": self.branch_name,
            "fam_subs": {k: str(v) for k, v in sorted(self.fam_subs.items())},
            "derivation_subs": {k: str(v) for k, v in sorted(self.derivation_subs.items())},
        }


def _solved_family_substitutions(family_equations):
    """Solve each single-variable linear family equation (e.g. l + 1 -> l = -1).

    An equation in a variable already solved stays unsolved, so that it is
    kept as an assumption."""
    subs = {}
    unsolved = []
    for eq in family_equations:
        parts = eq.collect(eq.variables())
        const = parts.pop((), Polynomial.zero())
        if len(parts) == 1:
            ((mono, coeff),) = parts.items()
            if len(mono) == 1 and mono[0][1] == 1 and mono[0][0] not in subs:
                subs[mono[0][0]] = -const.constant_value() / coeff.constant_value()
                continue
        unsolved.append(eq)
    return subs, unsolved


def strongly_unimodular_context(base: StageContext) -> StageContext:
    """`base` after its solved strong-unimodularity substitutions: the
    context of the SU(3) stage and of the second lambda stage."""
    fam_subs, unsolved = _solved_family_substitutions(base.su.family_equations)
    return base.constrained(base.su.derivation_subs, fam_subs, unsolved)


def lambda_witness(context: StageContext) -> Optional[list]:
    """The shipped lambda witness tree where it applies, else None.  An
    entry whose `su_expected` lists family conditions ships a witness that
    holds only after their substitution, so not on a context without
    fam_subs (the entry as shipped: the first lambda stage)."""
    _, family, _ = context.entry.su_expectations() or ({}, [], [])
    if family and not context.fam_subs:
        return None
    return context.entry.witnesses.get("lambda")


# -- certificates ----------------------------------------------------------


def _check_null_diagonal(form, indices) -> None:
    """Raise unless `indices` is nonempty and form(e_i, e_i) = 0 identically
    for each of them."""
    if not indices:
        raise G2CertError("a diagonal certificate needs at least one index")
    for i in indices:
        residual = form.entry(i, i)
        if not residual.is_zero():
            raise NotIdenticallyZero(residual)


def certify_zero_diagonal(context: StageContext, inputs=None) -> Certificate:
    """Verifies b_phi(e_i, e_i) = 0 identically for the generic exact
    phi = d alpha of a 7-dimensional context, for each index of its
    zero_diagonal step."""
    indices = context.step("zero_diagonal")["indices"]
    _check_null_diagonal(b_phi(context.psi), indices)
    return Certificate(
        CertKind.ZERO_DIAGONAL,
        context.name,
        assumptions=list(context.assumptions),
        data={"indices": list(indices)},
        verified=True,
    )


def certify_lambda(context: StageContext, inputs=None) -> Certificate:
    """A `lambda_identically_zero` certificate when lambda of the context
    vanishes identically, else a `lambda_nonnegative` one checked against
    the expansion of the shipped witness where it applies
    (`lambda_witness`); raises when neither holds.

    On the entry as shipped the identity holds for every parameter value,
    so the certificate assumes nothing; after family substitutions (the
    second lambda stage) it carries the context's assumptions.
    """
    lam = context.lam
    witness = lambda_witness(context)
    data = {"fam_subs": context.certificate_data()["fam_subs"]}
    if lam.is_zero():
        kind = CertKind.LAMBDA_ZERO
    elif witness is None:
        raise NotIdenticallyZero(lam)
    else:
        try:
            check_nonneg_witness(lam, context.entry.witness("lambda"))
        except G2CertError as exc:
            raise WitnessMismatch(f"{context.name}: {exc}") from exc
        kind = CertKind.LAMBDA_NONNEG
        data["witness"] = witness
        data["lambda"] = str(lam)
    assumptions = list(context.assumptions) if context.fam_subs else []
    return Certificate(kind, context.name, assumptions=assumptions, data=data, verified=True)


def certify_lambda_sign(context: StageContext, rng: random.Random):
    """The lambda certificate of the context (`certify_lambda`), or None
    plus a sample with lambda < 0, drawn from `rng`, when no obstruction
    exists at this stage: lambda is not zero and no witness applies."""
    lam = context.lam
    if lam.is_zero() or lambda_witness(context) is not None:
        return certify_lambda(context), None
    sample = _lambda_negative_sample(lam, context.atoms, rng)
    if sample is None:
        raise G2CertError(
            f"{context.name}: lambda is not identically zero, no witness is shipped, "
            "and no negative sample was found"
        )
    return None, sample


# Draws tried for a sample with lambda < 0 before the lambda stage gives up.
LAMBDA_SAMPLE_BUDGET = 4000


def _lambda_negative_sample(lam: Polynomial, atoms, rng: random.Random):
    variables = sorted(lam.variables())
    fam_vars = [v for v in variables if v.startswith("fam_")]
    getrandbits = rng.getrandbits
    for _ in range(LAMBDA_SAMPLE_BUDGET):
        assignment = {v: Fraction(*numeric.sample_fraction(getrandbits)) for v in fam_vars}
        if not all(a.holds(assignment) for a in atoms if a.poly.variables() <= set(fam_vars)):
            continue
        for v in variables:
            if v not in assignment:
                assignment[v] = Fraction(numeric.uniform_int(getrandbits, -9, 9))
        if lam.evaluate(assignment) < 0:
            return {k: str(v) for k, v in sorted(assignment.items())}
    return None


def certify_null_direction(context: StageContext, inputs=None) -> Certificate:
    """Verifies h(e_i, e_i) = 0 identically for each index of the
    null_direction step of the context."""
    indices = context.step("null_direction")["indices"]
    _check_null_diagonal(context.h, indices)
    return context.certificate(
        CertKind.NULL_DIRECTION,
        {"indices": list(indices), "statement": "h(e_i, e_i) = 0 identically"},
    )


def certify_sign_product(context: StageContext, inputs=None) -> Certificate:
    """Verifies h_ii * h_jj + expansion(witness) = 0 identically for the
    pair (i, j) and the shipped witness that the sign_product step of the
    context names.

    The product of the two diagonal entries is minus a nonnegative
    polynomial, so h (hence the metric, wherever lambda < 0) is never
    definite.
    """
    step = context.step("sign_product")
    i, j = step["pair"]
    h = context.h
    residual = h.entry(i, i) * h.entry(j, j) + context.entry.witness(step["witness"])
    if not residual.is_zero():
        raise IdentityMismatch(residual)
    return context.certificate(
        CertKind.SIGN_PRODUCT,
        {"pair": [i, j], "witness": context.entry.witnesses[step["witness"]]},
        ["lambda < 0 on the candidate locus"],
    )


def certify_trace_obstruction(context: StageContext, inputs=None) -> Certificate:
    """The strong-unimodularity trace conditions of the context contain a
    nonzero constant, so no extension of it is strongly unimodular.  It
    reads no inputs: the constants and traces are recomputed from the
    context."""
    su = context.su
    if not su.constant_obstructions:
        raise IdentityFailure(f"{context.name}: no trace condition is a nonzero constant")
    return Certificate(
        CertKind.TRACE_OBSTRUCTION,
        context.name,
        assumptions=list(context.assumptions),
        data={
            "branch": context.branch_name,
            "constants": [str(c) for c in su.constant_obstructions],
            "traces": [
                {"operator": op, "level": lvl, "trace": str(tr)}
                for op, lvl, tr in su.raw_traces
            ],
        },
        verified=True,
    )


# -- gauge transport --------------------------------------------------------


def _exp_nilpotent(matrix, dim: int):
    """exp(S) for a nilpotent polynomial matrix S: the partial sum of the
    terms S^k / k! before the first that vanishes (k <= dim)."""
    term = [[Polynomial.const(int(i == j)) for j in range(dim)] for i in range(dim)]
    terms = [term]
    for k in range(1, dim + 1):
        term = [
            [Polynomial.sum(term[i][l] * matrix[l][j] for l in range(dim)) * Fraction(1, k)
             for j in range(dim)]
            for i in range(dim)
        ]
        if not any(e for row in term for e in row):
            return [[Polynomial.sum(t[i][j] for t in terms) for j in range(dim)] for i in range(dim)]
        terms.append(term)
    raise IdentityFailure("gauge matrix is not nilpotent")


def _affine_system(form3: KForm, targets, svars):
    rows, rhs = [], []
    names = set(svars)
    linear = {((sv, 1),) for sv in svars}
    for t in targets:
        parts = form3.coefficient(tuple(t)).collect(names)
        const = parts.pop((), Polynomial.zero())
        if not parts.keys() <= linear:
            raise IdentityFailure(f"target coefficient {t} is not affine in the gauge parameters")
        rows.append([parts.get(((sv, 1),), Polynomial.zero()) for sv in svars])
        rhs.append(-const)
    return rows, rhs


class GaugeSystem:
    """The affine system in the gauge parameters of a derivation family S
    whose solution kills the target coefficients of F*psi, F = exp(S)."""

    def __init__(self, s_family: DerivationFamily, targets: list, F: list, f_psi: KForm,
                 rows: list, rhs: list):
        self.s_family = s_family
        self.targets = targets
        self.F = F
        self.f_psi = f_psi
        self.rows = rows
        self.rhs = rhs

    @cached_property
    def solved(self) -> tuple:
        """(det, numerators), the Cramer solution s_k = numerators[k] / det
        (`solve_linear`; SingularSymbolicSystem when det vanishes
        identically)."""
        return solve_linear(self.rows, self.rhs)


def gauge_system(psi: KForm, s_family: DerivationFamily, targets) -> GaugeSystem:
    """Pull psi back by exp(S) for a derivation family S that is already
    proved (`AlgebraEntry.build_gauge_family`) and set up the system for
    the target coefficients."""
    F = _exp_nilpotent(s_family.matrix, s_family.algebra.dim)
    f_psi = pullback(F, psi)
    rows, rhs = _affine_system(f_psi, targets, list(s_family.params))
    return GaugeSystem(s_family, [tuple(t) for t in targets], F, f_psi, rows, rhs)


def gauge_transport(context: StageContext, inputs=None) -> Certificate:
    """Normalize (omega, psi) by F = exp(S) for the gauge step of the
    context and certify its null pair at the gauge s_k = N_k / det that
    kills the step's target coefficients of F*psi (`GaugeSystem.solved`).

    Verifies, as identities after clearing denominators: the killed
    coefficients vanish, the surviving ones are polynomial, F*omega(pair)
    = 0, and K_{F*psi}(e_i) lies in span(e_i, e_j), with the K-column and
    the determinant the step expects (`expect_k`, `expect_det_multiple_of`).
    det(exp S) = 1 for nilpotent S, so lambda is preserved on the nose,
    which is also checked.  It reads no inputs: the solved gauge and det
    that a certificate stores are outputs, which recheck compares.
    """
    step = context.step("gauge")
    expect_k, expect_det = context.entry.gauge_expectations(context.branch_name)
    system = context.gauge_system
    s_family, targets, F, f_psi = system.s_family, system.targets, system.F, system.f_psi
    svars = list(s_family.params)
    det, numerators = system.solved

    # (0) the normalized 3-form is polynomial: killed coefficients vanish and
    # the surviving ones must not involve the gauge parameters
    psi_bar_coeffs = {}
    target_masks = {sum(1 << (i - 1) for i in t) for t in targets}
    for mask, coeff in f_psi.coeffs.items():
        num, power = substitute_cramer(coeff, svars, numerators, det)
        if mask in target_masks:
            if not num.is_zero():
                raise IdentityFailure("a target coefficient survives the solved gauge")
            continue
        if num.is_zero():
            continue
        if power:
            quotient = num.divide_exact(det ** power)
            if quotient is None:
                raise IdentityFailure("a surviving coefficient is not polynomial after the gauge")
            num = quotient
        psi_bar_coeffs[mask] = num
    psi_bar = KForm(6, 3, psi_bar_coeffs)

    # (a) F*omega vanishes on the pair, identically after clearing denominators
    i, j = step["pair"]
    f_omega_pair = form_value(pullback(F, context.omega), i, j)
    pair_num, _ = substitute_cramer(f_omega_pair, svars, numerators, det)
    if not pair_num.is_zero():
        raise IdentityFailure(f"F*omega(e_{i}, e_{j}) does not vanish at the solved gauge")

    # (b) the K-column of the pair index lies in span(e_i, e_j)
    k_bar = k_psi(psi_bar)
    column = k_bar.column(i)
    for l in range(1, 7):
        if l in (i, j):
            continue
        if not column[l - 1].is_zero():
            raise IdentityFailure(f"K(e_{i}) leaves span(e_{i}, e_{j})")
    for l, expected in expect_k.items():
        if column[l - 1] != expected:
            raise IdentityMismatch(column[l - 1] - expected)

    # lambda is a gauge invariant here: det(exp S) = 1
    if k_bar.lam != context.lam:
        raise IdentityFailure("lambda changed under a unimodular gauge")

    data = {
        "targets": [list(t) for t in targets],
        "pair": [i, j],
        "s_params": svars,
        "s_matrix": [[str(e) for e in row] for row in s_family.matrix],
        "solved_gauge": dict(zip(svars, map(str, numerators))),
        "branch_condition": str(det),
        "k_column": {str(l): str(column[l - 1]) for l in (i, j)},
    }
    if expect_det is not None:
        ratio = _constant_family_ratio(det, expect_det)
        if ratio is None:
            raise IdentityMismatch(det)
        data["det_multiple"] = ratio
    return context.certificate(
        CertKind.GAUGE_NULL, data, ["branch condition != 0 (stored determinant)"]
    )


def _constant_family_ratio(det: Polynomial, target: Polynomial):
    """det = r(fam) * target for a nonzero rational function r of the family
    parameters only; returns r rendered as "(num) / (den)", or as num alone
    when den is 1, with den scaled by its normal_scale; else None."""
    names = {v for v in det.variables() | target.variables() if not v.startswith("fam_")}
    pd, pt = det.collect(names), target.collect(names)
    if set(pd) != set(pt):
        return None
    key = min(pd)
    cd, ct = pd[key], pt[key]
    if det * ct != target * cd:
        return None
    scale = 1 / ct.normal_scale()
    num, den = cd * scale, ct * scale
    return str(num) if den == 1 else f"({num}) / ({den})"


# -- randomized falsification ----------------------------------------------

# Draw attempts allowed per requested trial (at least 1000 in all).
REJECT_BUDGET_FACTOR = 200

# The most trials a sampling certificate may ask for, so that a stored
# count cannot make recheck run for as long as it likes.  The shipped plans
# ask for at most 800; a trial takes 0.03 to 0.12 ms on a 2-core x86 host,
# so this many take at most about 1.2 s.
MAX_TRIALS = 10_000


def sample_falsify(context: StageContext, inputs) -> Certificate:
    """Run su3_passes_int on inputs["trials"] exact candidates drawn from
    inputs["seed"] on the context and the slice of its prose_sample step,
    which also gives the reason; record zero passes.

    Non-proving by construction.  A trial is one candidate that satisfies
    the domain atoms, lambda < 0, and omega^3 != 0; drawing attempts are
    capped at REJECT_BUDGET_FACTOR * trials.  A count below 0 or above
    MAX_TRIALS is an error raised before any draw, so a certificate that
    stores one does not recheck.  Its one assumption says that it is
    NON-PROVING.
    """
    step = context.step("prose_sample")
    trials = inputs["trials"]
    if not 0 <= trials <= MAX_TRIALS:
        raise G2CertError(
            f"{context.name}: the number of trials must lie in 0..{MAX_TRIALS}, got {trials}"
        )
    sampler = PairSampler(context, random.Random(inputs["seed"]))
    passes = 0
    done = 0
    attempts = 0
    budget = max(trials * REJECT_BUDGET_FACTOR, 1000)
    while done < trials:
        attempts += 1
        if attempts > budget:
            raise AtomUnsatisfiableAfterBudget(
                f"{context.name}: only {done}/{trials} candidates found in {budget} attempts"
            )
        drawn = sampler.draw()
        if drawn is None:
            continue
        omega, psi = drawn
        done += 1
        if numeric.su3_passes_int(omega, psi):
            passes += 1
    return Certificate(
        CertKind.SAMPLED_NO_SU3,
        context.name,
        assumptions=["NON-PROVING: randomized falsification only"],
        data={
            "trials": trials,
            "seed": inputs["seed"],
            "passes": passes,
            "attempts": attempts,
            "slice": step.get("slice"),
            "reason": step.get("reason", "case analysis cited from the source"),
            **context.certificate_data(),
        },
        verified=(passes == 0),
    )


# -- the per-entry pipeline --------------------------------------------------


def _check_su_expected(entry_name, su, expected):
    """Raise unless the trace conditions are the entry's parsed `su_expected`
    (`AlgebraEntry.su_expectations`); None expects nothing."""
    if expected is None:
        return
    subs, family, constants = expected
    got = (su.derivation_subs, sorted(map(str, su.family_equations)), su.constant_obstructions)
    if got != (subs, sorted(map(str, family)), constants):
        raise G2CertError(f"{entry_name}: the trace conditions drifted from su_expected: {got}")


class PipelineOptions:
    __slots__ = ("trials_override", "seed_override")

    def __init__(self, trials_override: Optional[int] = None,
                 seed_override: Optional[int] = None):
        self.trials_override = trials_override
        self.seed_override = seed_override


def run_pipeline(entry: AlgebraEntry, options: Optional[PipelineOptions] = None) -> EntryResult:
    """The certificates and notes of the entry's plan, and their outcome."""
    options = options or PipelineOptions()
    start = time.monotonic()
    result = EntryResult(entry.name, Outcome.INCONCLUSIVE)
    context = StageContext(entry)
    if entry.stub:
        result.notes.append(entry.notes or "structure equations not shipped")
    elif entry.dim == 7:
        for step in entry.plan:
            if step["kind"] == "zero_diagonal":
                result.certificates.append(certify_zero_diagonal(context))
            elif step["kind"] == "lattice_out_of_scope":
                result.notes.append(
                    "lattice obstruction - out of scope, see the cited source argument"
                )
    else:
        # dimension 6: the lambda stage on the entry as shipped, then the
        # SU(3) stage on each branch, or on the entry when it has none
        rng = random.Random(options.seed_override if options.seed_override is not None else 7)
        cert, negative_sample = certify_lambda_sign(context, rng)
        if cert is not None:
            result.certificates.append(cert)
        else:
            result.samples["lambda_negative_sample"] = negative_sample
            for base in [StageContext(entry, name) for name in entry.branch_names()] or [context]:
                _run_su3_stage(base, options, result)
    result.outcome = derive_outcome(entry, result.certificates)
    result.seconds = time.monotonic() - start
    return result


# -- the SU(3) stage ---------------------------------------------------------


def _run_su3_stage(base: StageContext, options: PipelineOptions, result: EntryResult) -> None:
    name = base.name
    su = base.su
    if base.branch_name is None:
        _check_su_expected(name, su, base.entry.su_expectations())

    if su.constant_obstructions:
        cert = certify_trace_obstruction(base, {})
        result.certificates.append(cert)
        result.notes.append(
            f"{name}: the strong-unimodularity trace conditions contain nonzero "
            f"constants {cert.data['constants']}; no extension of this algebra is "
            "strongly unimodular (conclusion outside the source's certificate forms)"
        )
        if any(s.get("kind") == "trace_obstruction" for s in base.steps):
            return

    context = strongly_unimodular_context(base)
    if context.fam_subs:
        # second lambda stage on the constrained structure
        cert, _ = certify_lambda_sign(context, random.Random(11))
        if cert is not None:
            result.certificates.append(cert)
            return

    for step in context.steps:
        kind = step.get("kind")
        if kind == "null_direction":
            result.certificates.append(certify_null_direction(context))
        elif kind == "sign_product":
            result.certificates.append(certify_sign_product(context))
        elif kind == "gauge":
            result.certificates.append(gauge_transport(context))
        elif kind == "prose_sample" and options.trials_override == 0:
            result.notes.append(f"{name}: sampling skipped by options")
        elif kind == "prose_sample":
            trials, seed = options.trials_override, options.seed_override
            cert = sample_falsify(context, {
                "trials": step.get("trials", 500) if trials is None else trials,
                "seed": step.get("seed", 20260811) if seed is None else seed,
            })
            result.certificates.append(cert)
            data = cert.data
            result.notes.append(
                f"{name}: {data['reason']}; {data['trials']} exact samples, {data['passes']} SU(3) passes"
            )


# -- outcomes -----------------------------------------------------------------


def _branch_outcome(kinds, steps) -> Outcome:
    """The outcome of an entry or a branch with these certificate kinds and
    plan step kinds."""
    if CertKind.TRACE_OBSTRUCTION in kinds and "trace_obstruction" in steps:
        return Outcome.NO_SU_EXTENSION
    if kinds & {CertKind.LAMBDA_ZERO, CertKind.LAMBDA_NONNEG}:
        return Outcome.OBSTRUCTED
    cited = "prose_sample" in steps
    if kinds & {CertKind.NULL_DIRECTION, CertKind.SIGN_PRODUCT, CertKind.GAUGE_NULL}:
        return Outcome.OBSTRUCTED_CITED if cited else Outcome.OBSTRUCTED
    return Outcome.CITED_PROSE_SAMPLED if cited else Outcome.INCONCLUSIVE


def derive_outcome(entry: AlgebraEntry, certificates) -> Outcome:
    """The outcome that the entry's plan and these certificates support.
    A prose_sample step counts from the plan: a run with no trials stores
    no sampling certificate."""
    if entry.stub:
        return Outcome.DATA_NOT_SHIPPED
    if any(step.get("kind") == "lattice_out_of_scope" for step in entry.plan):
        return Outcome.LATTICE_OUT_OF_SCOPE
    have = {(cert.algebra, cert.kind) for cert in certificates}
    shipped = {CertKind.ZERO_DIAGONAL, CertKind.LAMBDA_ZERO, CertKind.LAMBDA_NONNEG}
    if any((entry.name, kind) in have for kind in shipped):
        return Outcome.OBSTRUCTED
    outcomes = []
    for context in [StageContext(entry, n) for n in entry.branch_names()] or [StageContext(entry)]:
        kinds = {kind for algebra, kind in have if algebra == context.name}
        outcomes.append(_branch_outcome(kinds, {step.get("kind") for step in context.steps}))
    return max(outcomes, key=list(Outcome).index)


# -- reports ------------------------------------------------------------------

REPORT_SCHEMA = "g2cert-report/1"


class Report:
    __slots__ = ("results",)

    def __init__(self, results: list):
        self.results = results

    def verified_all(self) -> bool:
        return all(r.ok() for r in self.results)

    def to_json(self, include_timing: bool = True):
        return {
            "schema": REPORT_SCHEMA,
            "verified_all": self.verified_all(),
            "results": [r.to_json(include_timing) for r in self.results],
        }

    def to_markdown(self) -> str:
        lines = ["# g2cert obstruction report", ""]
        lines.append(f"All attempted certificates verify: **{self.verified_all()}**")
        lines.append("")
        lines.append("| algebra | outcome | certificates |")
        lines.append("|---|---|---|")
        for r in self.results:
            kinds = ", ".join(c.kind.value + ("" if c.verified else " (FAILED)") for c in r.certificates) or "-"
            lines.append(f"| {r.name} | {r.outcome.value} | {kinds} |")
        lines.append("")
        for r in self.results:
            if r.notes:
                lines.append(f"## {r.name}")
                for note in r.notes:
                    lines.append(f"- {note}")
                lines.append("")
        return "\n".join(lines)


def run_all(entries, options: Optional[PipelineOptions] = None) -> Report:
    options = options or PipelineOptions()
    return Report([run_pipeline(e, options) for e in entries])


# -- certificate rechecking ---------------------------------------------------


def _branch_name(entry: AlgebraEntry, cert_algebra: str) -> Optional[str]:
    """The branch a certificate was produced on, read from its algebra name
    (`<entry>` or `<entry> [<branch>]`)."""
    if cert_algebra == entry.name:
        return None
    prefix = f"{entry.name} ["
    if cert_algebra.startswith(prefix) and cert_algebra.endswith("]"):
        return cert_algebra[len(prefix):-1]
    raise G2CertError(f"certificate for {cert_algebra!r} does not belong to {entry.name}")


# Proved on the entry or branch as shipped, as is a lambda certificate with
# no fam_subs; other kinds after the strong-unimodularity substitutions.
_SHIPPED_STAGE = {CertKind.ZERO_DIAGONAL, CertKind.TRACE_OBSTRUCTION}
_LAMBDA_KINDS = {CertKind.LAMBDA_ZERO, CertKind.LAMBDA_NONNEG}


def recheck_certificate(entry: AlgebraEntry, cert: Certificate) -> bool:
    """Re-verify a stored certificate against the catalog entry: the
    verifier of its kind (VERIFIERS) runs on the stored data and on the
    context the plan gives, as in `run_pipeline`, and the rebuilt
    certificate must equal the stored one.  Stored data that fails to
    parse, names a branch the entry lacks, or fails to verify means False.
    """
    data = cert.data
    try:
        context = StageContext(entry, _branch_name(entry, cert.algebra))
        lambda_stage_one = cert.kind in _LAMBDA_KINDS and not data.get("fam_subs")
        if cert.kind not in _SHIPPED_STAGE and not lambda_stage_one:
            context = strongly_unimodular_context(context)
        rebuilt = VERIFIERS[cert.kind](context, data)
    except MALFORMED:
        return False
    return rebuilt.to_json() == cert.to_json()


# The verifier of each certificate kind, called as verifier(context, inputs):
# discovery passes the options it has, recheck the stored data, of which
# only a sampling certificate's trials and seed are read.
VERIFIERS = {
    CertKind.ZERO_DIAGONAL: certify_zero_diagonal,
    CertKind.LAMBDA_ZERO: certify_lambda,
    CertKind.LAMBDA_NONNEG: certify_lambda,
    CertKind.NULL_DIRECTION: certify_null_direction,
    CertKind.SIGN_PRODUCT: certify_sign_product,
    CertKind.GAUGE_NULL: gauge_transport,
    CertKind.SAMPLED_NO_SU3: sample_falsify,
    CertKind.TRACE_OBSTRUCTION: certify_trace_obstruction,
}


def _is_result_node(node) -> bool:
    return (
        isinstance(node, dict)
        and isinstance(node.get("name"), str)
        and isinstance(node.get("certificates"), list)
        and all(isinstance(cert, dict) for cert in node["certificates"])
    )


def recheck_report(report_json: dict, entries) -> list:
    """Re-verify every certificate in a serialized report; returns, per
    result, a list of booleans in certificate order and the outcome that
    its certificates that recheck support, or None if it is the stored one.

    A document that is not a report (another schema, or a result without a
    name or a list of certificate objects) raises G2CertError."""
    schema = report_json.get("schema") if isinstance(report_json, dict) else None
    if schema != REPORT_SCHEMA:
        raise G2CertError(f"not a {REPORT_SCHEMA} report (schema {schema!r})")
    results = report_json.get("results")
    if not isinstance(results, list) or not all(map(_is_result_node, results)):
        raise G2CertError("malformed report: each result needs a name and a list of certificates")
    by_name = {e.name: e for e in entries}
    verdicts = []
    for node in results:
        entry = by_name.get(node["name"])
        row, rechecked = [], []
        for cert_node in node["certificates"]:
            try:
                cert = Certificate.from_json(cert_node)
            except (KeyError, ValueError):  # a missing field or an unknown kind
                row.append(False)
                continue
            row.append(bool(entry) and recheck_certificate(entry, cert))
            if row[-1]:
                rechecked.append(cert)
        derived = derive_outcome(entry, rechecked) if entry else Outcome.INCONCLUSIVE
        verdicts.append((row, None if node.get("outcome") == derived.value else derived))
    return verdicts


# -- negative control ----------------------------------------------------------


def standard_su3_pair():
    """The reference pair omega = e12 + e34 + e56, psi = Re((e1+ie2)^(e3+ie4)^(e5+ie6))."""
    omega = KForm.from_terms(6, 2, {(1, 2): 1, (3, 4): 1, (5, 6): 1})
    psi = (
        KForm.basis(6, (1, 3, 5))
        - KForm.basis(6, (1, 4, 6))
        - KForm.basis(6, (2, 3, 6))
        - KForm.basis(6, (2, 4, 5))
    )
    return omega, psi


def negative_control(trials: int = 50, seed: int = 1) -> int:
    """Feed the falsifier's SU(3) predicate pairs pulled back from the
    standard SU(3) pair; it must find passes, proving it is not vacuously
    rejecting."""
    rng = random.Random(seed)
    omega0, psi0 = standard_su3_pair()
    passes = 0
    for _ in range(trials):
        diag = [Fraction(rng.choice([x for x in range(-5, 6) if x != 0])) for _ in range(6)]
        matrix = [[Polynomial.const(diag[i] if i == j else 0) for j in range(6)] for i in range(6)]
        omega = numeric.eval_form_int(pullback(matrix, omega0), {})
        psi = numeric.eval_form_int(pullback(matrix, psi0), {})
        if numeric.su3_passes_int(omega, psi):
            passes += 1
    return passes
