"""Per-algebra obstruction pipelines, certificates, and report assembly.

The proving mechanism is always an exact polynomial identity (zero diagonal,
vanishing or witnessed-nonnegative quartic invariant, null direction, sign
product, gauge normalization).  Randomized falsification is quarantined in
SampledNoSU3 certificates, which are explicitly non-proving: they back the
case analyses the source carries out in prose and this artifact cites.

Every certificate is re-checkable from its stored data alone; recheck()
never repeats a discovery search (gauge certificates store the solved gauge
values, sampling certificates store their seed).
"""

from __future__ import annotations

import enum
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Optional

from . import numeric
from .catalog import Atom, AlgebraEntry
from .derivations import (
    DerivationFamily,
    ExtensionSpec,
    dstar_action,
    solve_derivations,
    strongly_unimodular_constraints,
    verify_derivation,
)
from .errors import (
    AtomUnsatisfiableAfterBudget,
    G2CertError,
    IdentityFailure,
    IdentityMismatch,
    NotIdenticallyZero,
    WitnessMismatch,
)
from .exprs import parse_polynomial
from .forms import (
    KForm,
    VectorExpr,
    form_value,
    generic_one_form,
    generic_two_form,
    pullback,
    top_coefficient,
    wedge,
)
from .hitchin import b_phi, h_form, k_psi, su3_check, SU3Verdict
from .lie import LieAlgebra, Subspace, ce_differential
from .poly import (
    NonNegWitness,
    Polynomial,
    RationalFunction,
    check_nonneg_witness,
    solve_linear,
    substitute_cramer,
)


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


PROVING_KINDS = frozenset(CertKind) - {CertKind.SAMPLED_NO_SU3}


@dataclass
class Certificate:
    kind: CertKind
    algebra: str
    assumptions: list = field(default_factory=list)
    data: dict = field(default_factory=dict)
    verified: bool = False

    def proving(self) -> bool:
        return self.verified and self.kind in PROVING_KINDS

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
        return Certificate(
            kind=CertKind(node["kind"]),
            algebra=node["algebra"],
            assumptions=list(node.get("assumptions", [])),
            data=dict(node.get("data", {})),
            verified=node.get("verified", False),
        )


class Outcome(str, enum.Enum):
    OBSTRUCTED = "obstructed"
    OBSTRUCTED_CITED = "obstructed-modulo-cited-prose"
    CITED_PROSE_SAMPLED = "cited-prose-sampled"
    NO_SU_EXTENSION = "no-strongly-unimodular-extension"
    LATTICE_OUT_OF_SCOPE = "lattice-out-of-scope"
    DATA_NOT_SHIPPED = "data-not-shipped"
    INCONCLUSIVE = "inconclusive"


TERMINAL_OK = {
    Outcome.OBSTRUCTED,
    Outcome.OBSTRUCTED_CITED,
    Outcome.CITED_PROSE_SAMPLED,
    Outcome.NO_SU_EXTENSION,
    Outcome.LATTICE_OUT_OF_SCOPE,
    Outcome.DATA_NOT_SHIPPED,
}


@dataclass
class EntryResult:
    name: str
    outcome: Outcome
    certificates: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    seconds: float = 0.0
    samples: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return self.outcome in TERMINAL_OK and all(c.verified for c in self.certificates)

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


# -- generic candidates ---------------------------------------------------


def generic_exact_g2(algebra: LieAlgebra):
    """(phi, b_phi(phi)) for the generic exact phi = d(sum alpha_ij e^ij)."""
    alpha = generic_two_form(algebra.dim, "alpha")
    phi = ce_differential(algebra, alpha)
    return phi, b_phi(phi)


@dataclass
class SU3Candidate:
    """Generic pair (omega, psi) of an extension, with its invariants."""

    algebra: LieAlgebra
    derivation: DerivationFamily
    omega: KForm
    psi: KForm
    k: object
    lam: Polynomial
    h: object


def generic_su3_candidate(algebra: LieAlgebra, derivation: DerivationFamily) -> SU3Candidate:
    """omega = d beta - D* alpha and psi = d alpha with symbolic coefficients."""
    alpha = generic_two_form(6, "alpha")
    beta = generic_one_form(6, "beta")
    psi = ce_differential(algebra, alpha)
    omega = ce_differential(algebra, beta) - dstar_action(derivation, alpha)
    k = k_psi(psi)
    return SU3Candidate(algebra, derivation, omega, psi, k, k.lam, h_form(omega, k))


# -- certificates ----------------------------------------------------------


def certify_zero_diagonal(entry: AlgebraEntry, indices) -> Certificate:
    algebra = entry.build_algebra()
    _, b = generic_exact_g2(algebra)
    for i in indices:
        residual = b.entry(i, i)
        if not residual.is_zero():
            raise NotIdenticallyZero(residual)
    return Certificate(
        CertKind.ZERO_DIAGONAL,
        entry.name,
        assumptions=[str(a) for a in entry.atoms],
        data={"indices": list(indices)},
        verified=True,
    )


def certify_lambda_sign(
    algebra: LieAlgebra,
    witness: Optional[NonNegWitness],
    entry_name: str,
    atoms=(),
    assumptions=(),
    rng: Optional[random.Random] = None,
    witness_json=None,
    fam_subs=None,
):
    """LambdaIdenticallyZero / LambdaNonNegative certificate, or None plus a
    sample with lambda < 0 when no obstruction exists at this stage."""
    lam = k_psi(ce_differential(algebra, generic_two_form(6, "alpha"))).lam
    if lam.is_zero():
        return (
            Certificate(
                CertKind.LAMBDA_ZERO,
                entry_name,
                assumptions=list(assumptions),
                data={"fam_subs": dict(fam_subs or {})},
                verified=True,
            ),
            None,
        )
    if witness is not None:
        try:
            check_nonneg_witness(lam, witness)
        except G2CertError as exc:
            raise WitnessMismatch(f"{entry_name}: {exc}") from exc
        return (
            Certificate(
                CertKind.LAMBDA_NONNEG,
                entry_name,
                assumptions=list(assumptions),
                data={"witness": witness_json, "lambda": str(lam), "fam_subs": dict(fam_subs or {})},
                verified=True,
            ),
            None,
        )
    rng = rng or random.Random(0)
    sample = _lambda_negative_sample(lam, atoms, rng)
    if sample is None:
        raise G2CertError(
            f"{entry_name}: lambda is not identically zero, no witness is shipped, "
            "and no negative sample was found"
        )
    return None, sample


def _lambda_negative_sample(lam: Polynomial, atoms, rng: random.Random, budget: int = 4000):
    variables = sorted(lam.variables())
    fam_vars = [v for v in variables if v.startswith("fam_")]
    for _ in range(budget):
        assignment = {}
        ok = True
        for v in fam_vars:
            assignment[v] = _sample_fraction(rng)
        for atom in atoms:
            if not set(atom.poly.variables()) <= set(assignment):
                continue
            if not atom.holds(assignment):
                ok = False
                break
        if not ok:
            continue
        for v in variables:
            if v not in assignment:
                assignment[v] = Fraction(rng.randint(-9, 9))
        if lam.evaluate(assignment) < 0:
            return {k: str(v) for k, v in sorted(assignment.items())}
    return None


def certify_null_direction(
    candidate: SU3Candidate, indices, entry_name: str, assumptions=(), context=None
) -> Certificate:
    for i in indices:
        residual = candidate.h.entry(i, i)
        if not residual.is_zero():
            raise NotIdenticallyZero(residual)
    data = {"indices": list(indices), "statement": "h(e_i, e_i) = 0 identically"}
    data.update(context or {})
    return Certificate(
        CertKind.NULL_DIRECTION,
        entry_name,
        assumptions=list(assumptions),
        data=data,
        verified=True,
    )


def certify_sign_product(
    candidate: SU3Candidate, i: int, j: int, witness: NonNegWitness, entry_name: str,
    assumptions=(), witness_json=None, context=None,
) -> Certificate:
    """Verifies h_ii * h_jj + expansion(witness) = 0 identically.

    The product of the two diagonal entries is minus a nonnegative
    polynomial, so h (hence the metric, wherever lambda < 0) is never
    definite.
    """
    residual = candidate.h.entry(i, i) * candidate.h.entry(j, j) + witness.expand()
    if not residual.is_zero():
        raise IdentityMismatch(residual)
    data = {"pair": [i, j], "witness": witness_json}
    data.update(context or {})
    return Certificate(
        CertKind.SIGN_PRODUCT,
        entry_name,
        assumptions=list(assumptions) + ["lambda < 0 on the candidate locus"],
        data=data,
        verified=True,
    )


# -- gauge transport --------------------------------------------------------


def _exp_nilpotent(matrix, dim: int):
    """exp(S) for a nilpotent polynomial matrix (finite sum)."""
    result = [
        [Polynomial.const(1 if i == j else 0) for j in range(dim)] for i in range(dim)
    ]
    power = [
        [Polynomial.const(1 if i == j else 0) for j in range(dim)] for i in range(dim)
    ]
    factorial = 1
    for k in range(1, dim + 1):
        power = [
            [
                sum((power[i][l] * matrix[l][j] for l in range(dim)), Polynomial.zero())
                for j in range(dim)
            ]
            for i in range(dim)
        ]
        if all(e.is_zero() for row in power for e in row):
            return result
        factorial *= k
        inv = Fraction(1, factorial)
        for i in range(dim):
            for j in range(dim):
                result[i][j] = result[i][j] + power[i][j] * inv
    raise IdentityFailure("gauge matrix is not nilpotent")


def _affine_system(form3: KForm, targets, svars):
    rows, rhs = [], []
    zero_subs = {sv: 0 for sv in svars}
    for t in targets:
        c = form3.coefficient(tuple(t))
        const = c.substitute(zero_subs)
        row = [
            c.substitute({sv2: (1 if sv2 == sv else 0) for sv2 in svars}) - const
            for sv in svars
        ]
        rebuilt = const
        for sv, r in zip(svars, row):
            rebuilt = rebuilt + r * Polynomial.var(sv)
        if rebuilt != c:
            raise IdentityFailure(f"target coefficient {t} is not affine in the gauge parameters")
        rows.append(row)
        rhs.append(-const)
    return rows, rhs


def gauge_transport(
    candidate: SU3Candidate,
    s_family: DerivationFamily,
    targets,
    pair,
    entry_name: str,
    assumptions=(),
    expect_k: Optional[dict] = None,
    expect_det_multiple_of: Optional[Polynomial] = None,
    context=None,
) -> Certificate:
    """Normalize (omega, psi) by F = exp(S) and certify the null pair.

    Solves the linear system that kills the target coefficients of F*psi,
    substitutes the solved gauge, and verifies, as identities after clearing
    denominators: the killed coefficients vanish, F*omega(pair) = 0, and
    K_{F*psi}(e_i) lies in span(e_i, e_j).  det(exp S) = 1 for nilpotent S,
    so lambda is preserved on the nose, which is also checked.
    """
    algebra = candidate.algebra
    verify_derivation(algebra, s_family)
    F = _exp_nilpotent(s_family.matrix, algebra.dim)
    f_psi = pullback(F, candidate.psi)
    svars = list(s_family.params)
    rows, rhs = _affine_system(f_psi, targets, svars)
    solved = solve_linear(rows, rhs)  # raises SingularSymbolicSystem when det = 0
    det = solved.determinant
    numerators = solved.numerators

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
    i, j = pair
    f_omega_pair = form_value(pullback(F, candidate.omega), i, j)
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
    if expect_k is not None:
        for key, expr in expect_k.items():
            expected = parse_polynomial(expr)
            if column[int(key) - 1] != expected:
                raise IdentityMismatch(column[int(key) - 1] - expected)

    # lambda is a gauge invariant here: det(exp S) = 1
    if k_bar.lam != candidate.lam:
        raise IdentityFailure("lambda changed under a unimodular gauge")

    data = {
        "targets": [list(t) for t in targets],
        "pair": [i, j],
        "s_params": svars,
        "s_matrix": [[str(e) for e in row] for row in s_family.matrix],
        "solved_gauge": {
            sv: str(num) for sv, num in zip(svars, numerators)
        },
        "branch_condition": str(det),
        "k_column": {str(l): str(column[l - 1]) for l in (i, j)},
    }
    if expect_det_multiple_of is not None:
        ratio = _constant_family_ratio(det, expect_det_multiple_of)
        if ratio is None:
            raise IdentityMismatch(det)
        data["det_multiple"] = str(ratio)
    data.update(context or {})
    return Certificate(
        CertKind.GAUGE_NULL,
        entry_name,
        assumptions=list(assumptions) + ["branch condition != 0 (stored determinant)"],
        data=data,
        verified=True,
    )


def _constant_family_ratio(det: Polynomial, target: Polynomial):
    """det = r(fam) * target for a nonzero rational function r of the family
    parameters only; returns r as a RationalFunction, else None."""

    def profile(poly):
        prof = {}
        for mono, c in poly.terms.items():
            akey = tuple((v, e) for v, e in mono if not v.startswith("fam_"))
            fkey = tuple((v, e) for v, e in mono if v.startswith("fam_"))
            prof.setdefault(akey, {})[fkey] = c
        return prof

    pd, pt = profile(det), profile(target)
    if set(pd) != set(pt):
        return None
    key = sorted(pd)[0]
    cd = Polynomial(dict(pd[key]))
    ct = Polynomial(dict(pt[key]))
    if cd.is_zero() or ct.is_zero():
        return None
    if det * ct != target * cd:
        return None
    return RationalFunction(cd, ct)


# -- randomized falsification ----------------------------------------------


def _sample_fraction(rng: random.Random) -> Fraction:
    """A rational with numerator and denominator bounded by 1000."""
    num = rng.randint(-1000, 1000)
    den = rng.randint(1, 12)
    return Fraction(num, den)


def _sample_atoms(atoms, variables, rng: random.Random, budget: int = 2000):
    for _ in range(budget):
        assignment = {v: _sample_fraction(rng) for v in variables}
        if all(a.holds(assignment) for a in atoms):
            return assignment
    raise AtomUnsatisfiableAfterBudget(f"no sample satisfied {[str(a) for a in atoms]}")


def _fraction_sqrt(value: Fraction):
    if value < 0:
        return None
    num_root = isqrt(value.numerator)
    den_root = isqrt(value.denominator)
    if num_root * num_root != value.numerator or den_root * den_root != value.denominator:
        return None
    return Fraction(num_root, den_root)


class PairSampler:
    """Draws exact rational candidate pairs (omega, psi) for one entry."""

    def __init__(self, algebra, derivation, atoms, rng, slice_name=None, det_in_alpha14=None):
        self.algebra = algebra
        self.derivation = derivation
        self.atoms = list(atoms)
        self.rng = rng
        self.slice_name = slice_name
        self.det_in_alpha14 = det_in_alpha14
        alpha = generic_two_form(6, "alpha")
        beta = generic_one_form(6, "beta")
        self.psi_sym = ce_differential(algebra, alpha)
        self.omega_sym = ce_differential(algebra, beta) - dstar_action(derivation, alpha)
        self.variables = sorted(
            self.psi_sym.variables() | self.omega_sym.variables()
        )
        self.fam_vars = [v for v in self.variables if v.startswith("fam_")]
        self.free_vars = [v for v in self.variables if not v.startswith("fam_")]

    def _draw_assignment(self):
        assignment = {}
        if self.fam_vars or self.atoms:
            assignment.update(_sample_atoms(self.atoms, self.fam_vars, self.rng))
        for v in self.free_vars:
            assignment[v] = Fraction(self.rng.randint(-20, 20))
        if self.slice_name == "t2_zero":
            if not self._apply_t2_slice(assignment):
                return None
        return assignment

    def _apply_t2_slice(self, assignment) -> bool:
        """Move the sample onto the zero locus of the gauge determinant.

        The determinant is quadratic in alpha_14; rejection sampling cannot
        hit its zero set, so alpha_34 is chosen to make the discriminant a
        perfect square and alpha_14 is set to a rational root.
        """
        a = assignment["fam_a"]
        b = assignment["fam_b"]
        a12 = assignment["alpha_12"]
        a13 = assignment["alpha_13"]
        a24 = assignment["alpha_24"]
        if a == b or a12 == 0 or a13 == 0 or a24 == 0 or assignment["alpha_23"] == 0:
            return False
        k = Fraction(self.rng.randint(1, 5))
        p_val = a * (b + 1) * a13 * a24
        if p_val == 0:
            return False
        assignment["alpha_34"] = k * k * p_val / ((a - b) * a12)
        quad = self.det_in_alpha14
        zero = {**assignment, "alpha_14": Fraction(0)}
        one = {**assignment, "alpha_14": Fraction(1)}
        minus = {**assignment, "alpha_14": Fraction(-1)}
        c0 = quad.evaluate(zero)
        c_plus = quad.evaluate(one)
        c_minus = quad.evaluate(minus)
        A = (c_plus + c_minus - 2 * c0) / 2
        B = (c_plus - c_minus) / 2
        if A == 0:
            return False
        disc = B * B - 4 * A * c0
        root = _fraction_sqrt(disc)
        if root is None:
            return False
        assignment["alpha_14"] = (-B + root) / (2 * A)
        return quad.evaluate(assignment) == 0

    def draw(self):
        """One candidate (omega, psi) as integer forms, or None (rejected)."""
        assignment = self._draw_assignment()
        if assignment is None:
            return None
        omega = numeric.eval_form_int(self.omega_sym, assignment)
        psi = numeric.eval_form_int(self.psi_sym, assignment)
        if not numeric.candidate_conditions_int(omega, psi):
            return None
        return omega, psi


def sample_falsify(
    entry_name: str,
    sampler: PairSampler,
    trials: int,
    seed: int,
    reason: str = "",
    reject_budget_factor: int = 200,
) -> Certificate:
    """Run su3_check on `trials` exact candidates; record zero passes.

    Non-proving by construction.  A trial is one candidate that satisfies
    the domain atoms, lambda < 0, and omega^3 != 0; drawing attempts are
    capped at reject_budget_factor * trials.
    """
    sampler.rng.seed(seed)
    passes = 0
    done = 0
    attempts = 0
    budget = max(trials * reject_budget_factor, 1000)
    while done < trials:
        attempts += 1
        if attempts > budget:
            raise AtomUnsatisfiableAfterBudget(
                f"{entry_name}: only {done}/{trials} candidates found in {budget} attempts"
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
        entry_name,
        assumptions=["NON-PROVING: randomized falsification only"],
        data={
            "trials": trials,
            "seed": seed,
            "passes": passes,
            "attempts": attempts,
            "slice": sampler.slice_name,
            "reason": reason,
        },
        verified=(passes == 0),
    )


# -- the per-entry pipeline --------------------------------------------------


def _solved_family_substitutions(family_equations):
    """Solve each single-variable linear family equation (e.g. l + 1 -> l = -1)."""
    subs = {}
    unsolved = []
    for eq in family_equations:
        variables = sorted(eq.variables())
        if len(variables) == 1 and eq.degree_in(variables[0]) == 1:
            v = variables[0]
            const = eq.substitute({v: 0})
            coeff = eq.substitute({v: 1}) - const
            subs[v] = -const.constant_value() / coeff.constant_value()
        else:
            unsolved.append(eq)
    return subs, unsolved


def _check_su_expected(entry_name, su, expected):
    if expected is None:
        return
    got_subs = {k: str(v) for k, v in su.derivation_subs.items()}
    want_subs = {k: str(parse_polynomial(v)) for k, v in expected.get("subs", {}).items()}
    if got_subs != want_subs:
        raise G2CertError(f"{entry_name}: strong-unimodularity substitutions drifted: {got_subs}")
    got_family = sorted(str(e) for e in su.family_equations)
    want_family = sorted(str(parse_polynomial(e)) for e in expected.get("family", []))
    if got_family != want_family:
        raise G2CertError(f"{entry_name}: family trace conditions drifted: {got_family}")
    got_constants = [str(c) for c in su.constant_obstructions]
    want_constants = sorted(expected.get("constants", []), key=Fraction)
    if got_constants != [str(Fraction(c)) for c in want_constants]:
        raise G2CertError(f"{entry_name}: constant trace obstructions drifted: {got_constants}")


@dataclass
class PipelineOptions:
    trials_override: Optional[int] = None
    seed_override: Optional[int] = None
    skip_sampling: bool = False


def run_pipeline(entry: AlgebraEntry, options: Optional[PipelineOptions] = None) -> EntryResult:
    options = options or PipelineOptions()
    start = time.monotonic()
    result = _run_pipeline_inner(entry, options)
    result.seconds = time.monotonic() - start
    return result


def _run_pipeline_inner(entry: AlgebraEntry, options: PipelineOptions) -> EntryResult:
    result = EntryResult(entry.name, Outcome.INCONCLUSIVE)
    if entry.stub:
        result.outcome = Outcome.DATA_NOT_SHIPPED
        result.notes.append(entry.notes or "structure equations not shipped")
        return result

    algebra = entry.build_algebra()

    if entry.dim == 7:
        for step in entry.plan:
            if step["kind"] == "zero_diagonal":
                result.certificates.append(certify_zero_diagonal(entry, step["indices"]))
                result.outcome = Outcome.OBSTRUCTED
            elif step["kind"] == "lattice_out_of_scope":
                result.outcome = Outcome.LATTICE_OUT_OF_SCOPE
                result.notes.append(
                    "lattice obstruction - out of scope, see the cited source argument"
                )
        return result

    # dimension 6: lambda stage on the entry as shipped
    rng = random.Random(options.seed_override if options.seed_override is not None else 7)
    cert, negative_sample = certify_lambda_sign(
        algebra,
        entry.witness("lambda") if not _needs_su_first(entry) else None,
        entry.name,
        atoms=entry.atoms,
        rng=rng,
        witness_json=entry.witnesses.get("lambda"),
    )
    if cert is not None:
        result.certificates.append(cert)
        result.outcome = Outcome.OBSTRUCTED
        return result
    result.samples["lambda_negative_sample"] = negative_sample

    branches = [s for s in entry.plan if s.get("kind") == "branch"]
    if branches:
        branch_results = []
        for branch in branches:
            branch_results.append(_run_su3_stage(entry, branch, options, result))
        result.outcome = _combine_outcomes(branch_results)
        return result
    outcome = _run_su3_stage(entry, None, options, result)
    result.outcome = outcome
    return result


def _needs_su_first(entry: AlgebraEntry) -> bool:
    """True when the lambda witness only applies after the strong-unimodularity
    family conditions are substituted (the witness is checked at stage two)."""
    expected = entry.su_expected or {}
    return bool(expected.get("family"))


def _combine_outcomes(outcomes) -> Outcome:
    order = [
        Outcome.INCONCLUSIVE,
        Outcome.CITED_PROSE_SAMPLED,
        Outcome.NO_SU_EXTENSION,
        Outcome.OBSTRUCTED_CITED,
        Outcome.OBSTRUCTED,
    ]
    worst = Outcome.OBSTRUCTED
    for o in outcomes:
        if order.index(o) < order.index(worst):
            worst = o
    return worst



def _branch_family(algebra, family_node, branch_subs) -> DerivationFamily:
    """Parse a branch derivation family against the branch-substituted
    algebra (the Leibniz identity only holds after the substitution)."""
    matrix = [
        [parse_polynomial(cell).substitute(branch_subs) for cell in row]
        for row in family_node["matrix"]
    ]
    family = DerivationFamily(algebra, matrix, tuple(family_node["params"]))
    verify_derivation(algebra, family)
    return family


def _run_su3_stage(entry, branch, options: PipelineOptions, result: EntryResult) -> Outcome:
    name = entry.name if branch is None else f"{entry.name} [{branch['name']}]"
    assumptions = [str(a) for a in entry.atoms]
    if branch is not None:
        algebra = entry.branch_algebra(branch)
        branch_subs = {k: Fraction(v) for k, v in branch.get("subs", {}).items()}
        atoms = [
            Atom(a.op, a.poly.substitute(branch_subs))
            for a in entry.atoms
            if not a.poly.substitute(branch_subs).is_constant()
        ] + [Atom.from_json(a) for a in branch.get("atoms", [])]
        assumptions += [f"{k} = {v}" for k, v in branch.get("subs", {}).items()]
        assumptions += [str(Atom.from_json(a)) for a in branch.get("atoms", [])]
        steps = branch.get("steps", [])
        family_node = branch.get("derivation_family")
        family = _branch_family(algebra, family_node, branch_subs) if family_node else None
    else:
        algebra = entry.build_algebra()
        atoms = list(entry.atoms)
        steps = [s for s in entry.plan if s.get("kind") != "branch"]
        family = entry.build_derivation_family()

    if family is None:
        family = solve_derivations(algebra)

    # strong unimodularity on the base nilradical
    nil = Subspace.from_indices(algebra, entry.nilradical)
    su = strongly_unimodular_constraints(ExtensionSpec(algebra, family), nil)
    if branch is None:
        _check_su_expected(entry.name, su, entry.su_expected)
    constrained = family.substitute(su.derivation_subs)
    fam_solution, unsolved = _solved_family_substitutions(su.family_equations)
    su_assumptions = assumptions + [
        f"{k} = {v}" for k, v in sorted(su.derivation_subs.items(), key=lambda kv: kv[0])
    ] + [f"{k} = {v}" for k, v in sorted(fam_solution.items())]
    if unsolved:
        su_assumptions += [f"{e} = 0" for e in unsolved]

    if su.constant_obstructions:
        cert = Certificate(
            CertKind.TRACE_OBSTRUCTION,
            name,
            assumptions=assumptions,
            data={
                "branch": branch["name"] if branch is not None else None,
                "constants": [str(c) for c in su.constant_obstructions],
                "traces": [
                    {"operator": op, "level": lvl, "trace": str(tr)}
                    for op, lvl, tr in su.raw_traces
                ],
            },
            verified=True,
        )
        result.certificates.append(cert)
        result.notes.append(
            f"{name}: the strong-unimodularity trace conditions contain nonzero "
            f"constants {cert.data['constants']}; no extension of this algebra is "
            "strongly unimodular (conclusion outside the source's certificate forms)"
        )
        if any(s.get("kind") == "trace_obstruction" for s in steps):
            return Outcome.NO_SU_EXTENSION

    context = {
        "branch": branch["name"] if branch is not None else None,
        "fam_subs": {k: str(v) for k, v in sorted(fam_solution.items())},
        "derivation_subs": {k: str(v) for k, v in sorted(su.derivation_subs.items())},
    }
    if fam_solution:
        algebra = LieAlgebra(
            6, [d.substitute(fam_solution) for d in algebra.differentials], name=algebra.name
        )
        constrained = DerivationFamily(
            algebra,
            [[e.substitute(fam_solution) for e in row] for row in constrained.matrix],
            constrained.params,
        )
        atoms = [
            Atom(a.op, a.poly.substitute(fam_solution))
            for a in atoms
            if not a.poly.substitute(fam_solution).is_constant()
        ]
        # second lambda stage on the constrained structure
        cert, negative_sample = certify_lambda_sign(
            algebra,
            entry.witness("lambda"),
            name,
            atoms=atoms,
            assumptions=su_assumptions,
            rng=random.Random(11),
            witness_json=entry.witnesses.get("lambda"),
            fam_subs=context["fam_subs"],
        )
        if cert is not None:
            result.certificates.append(cert)
            return Outcome.OBSTRUCTED

    candidate = generic_su3_candidate(algebra, constrained)

    proved = False
    sampled = False
    for step in steps:
        kind = step.get("kind")
        if kind == "null_direction":
            result.certificates.append(
                certify_null_direction(candidate, step["indices"], name, su_assumptions, context)
            )
            proved = True
        elif kind == "sign_product":
            witness = entry.witness(step["witness"])
            result.certificates.append(
                certify_sign_product(
                    candidate,
                    step["pair"][0],
                    step["pair"][1],
                    witness,
                    name,
                    su_assumptions,
                    witness_json=entry.witnesses.get(step["witness"]),
                    context=context,
                )
            )
            proved = True
        elif kind == "gauge":
            s_family = DerivationFamily(
                algebra,
                [[parse_polynomial(c) for c in row] for row in step["s_matrix"]],
                tuple(step["s_params"]),
            )
            expect_det = step.get("expect_det_multiple_of")
            result.certificates.append(
                gauge_transport(
                    candidate,
                    s_family,
                    [tuple(t) for t in step["targets"]],
                    tuple(step["pair"]),
                    name,
                    su_assumptions,
                    expect_k=step.get("expect_k"),
                    expect_det_multiple_of=parse_polynomial(expect_det) if expect_det else None,
                    context=context,
                )
            )
            proved = True
        elif kind == "prose_sample":
            if options.skip_sampling:
                result.notes.append(f"{name}: sampling skipped by options")
                sampled = True
                continue
            trials = options.trials_override
            if trials is None:
                trials = step.get("trials", 500)
            seed = options.seed_override
            if seed is None:
                seed = step.get("seed", 20260811)
            slice_name = step.get("slice")
            det_quad = None
            if slice_name == "t2_zero":
                det_quad = _gauge_determinant_for_slice(entry, branch)
            sampler = PairSampler(
                algebra, constrained, atoms, random.Random(seed),
                slice_name=slice_name, det_in_alpha14=det_quad,
            )
            cert = sample_falsify(name, sampler, trials, seed, reason=step.get("reason", ""))
            cert.data.update(context)
            result.certificates.append(cert)
            result.notes.append(
                f"{name}: {step.get('reason', 'case analysis cited from the source')}; "
                f"{cert.data['trials']} exact samples, {cert.data['passes']} SU(3) passes"
            )
            sampled = True
        elif kind == "trace_obstruction":
            pass  # handled above
        else:
            raise G2CertError(f"{name}: unknown plan step {kind!r}")

    if proved and sampled:
        return Outcome.OBSTRUCTED_CITED
    if proved:
        return Outcome.OBSTRUCTED
    if sampled:
        return Outcome.CITED_PROSE_SAMPLED
    return Outcome.INCONCLUSIVE


def _gauge_determinant_for_slice(entry, branch) -> Polynomial:
    """The gauge determinant of the branch, as a polynomial (quadratic in
    alpha_14), used to parametrize the singular slice."""
    algebra = entry.branch_algebra(branch) if branch else entry.build_algebra()
    gauge_step = next(s for s in branch.get("steps", []) if s.get("kind") == "gauge")
    s_family = DerivationFamily(
        algebra,
        [[parse_polynomial(c) for c in row] for row in gauge_step["s_matrix"]],
        tuple(gauge_step["s_params"]),
    )
    psi = ce_differential(algebra, generic_two_form(6, "alpha"))
    F = _exp_nilpotent(s_family.matrix, 6)
    f_psi = pullback(F, psi)
    rows, rhs = _affine_system(f_psi, [tuple(t) for t in gauge_step["targets"]], list(s_family.params))
    from .poly import poly_matrix_det

    return poly_matrix_det(rows)


# -- reports ------------------------------------------------------------------

REPORT_SCHEMA = "g2cert-report/1"


@dataclass
class Report:
    results: list

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


def run_all(entries, options: Optional[PipelineOptions] = None, threads: int = 1) -> Report:
    options = options or PipelineOptions()
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda e: run_pipeline(e, options), entries))
    else:
        results = [run_pipeline(e, options) for e in entries]
    return Report(results)


# -- certificate rechecking ---------------------------------------------------


def _context_algebra_and_family(entry: AlgebraEntry, data: dict):
    """Rebuild the constrained algebra and derivation family a certificate
    was produced on, from its stored context (no constraint re-solving)."""
    branch_name = data.get("branch")
    branch = None
    if branch_name is not None:
        branch = next(
            s for s in entry.plan if s.get("kind") == "branch" and s.get("name") == branch_name
        )
        algebra = entry.branch_algebra(branch)
        branch_subs = {k: Fraction(v) for k, v in branch.get("subs", {}).items()}
        family = entry.build_derivation_family(branch.get("derivation_family"))
        if family is not None:
            family = DerivationFamily(
                algebra,
                [[e.substitute(branch_subs) for e in row] for row in family.matrix],
                family.params,
            )
    else:
        algebra = entry.build_algebra()
        family = entry.build_derivation_family()
    if family is None:
        family = solve_derivations(algebra)
    deriv_subs = {k: parse_polynomial(v) for k, v in data.get("derivation_subs", {}).items()}
    fam_subs = {k: Fraction(v) for k, v in data.get("fam_subs", {}).items()}
    family = family.substitute(deriv_subs)
    if fam_subs:
        algebra = LieAlgebra(
            algebra.dim,
            [d.substitute(fam_subs) for d in algebra.differentials],
            name=algebra.name,
        )
        family = DerivationFamily(
            algebra,
            [[e.substitute(fam_subs) for e in row] for row in family.matrix],
            family.params,
        )
    return algebra, family, branch


def recheck_certificate(entry: AlgebraEntry, cert: Certificate) -> bool:
    """Re-verify a stored certificate from its stored data alone.

    Gauge certificates re-substitute their stored solved gauge instead of
    re-running solve_linear; sampling certificates replay their stored seed.
    """
    data = cert.data
    kind = cert.kind
    if kind == CertKind.ZERO_DIAGONAL:
        algebra = entry.build_algebra()
        _, b = generic_exact_g2(algebra)
        return all(b.entry(i, i).is_zero() for i in data["indices"])

    if kind in (CertKind.LAMBDA_ZERO, CertKind.LAMBDA_NONNEG):
        fam_subs = {k: Fraction(v) for k, v in data.get("fam_subs", {}).items()}
        algebra = entry.build_algebra()
        if fam_subs:
            algebra = LieAlgebra(
                algebra.dim, [d.substitute(fam_subs) for d in algebra.differentials]
            )
        lam = k_psi(ce_differential(algebra, generic_two_form(6, "alpha"))).lam
        if kind == CertKind.LAMBDA_ZERO:
            return lam.is_zero()
        witness = NonNegWitness.from_json(data["witness"])
        return witness.expand() == lam and str(lam) == data["lambda"]

    if kind == CertKind.TRACE_OBSTRUCTION:
        branch_name = data.get("branch")
        if branch_name is None:
            algebra = entry.build_algebra()
            family = entry.build_derivation_family() or solve_derivations(algebra)
        else:
            algebra, family, _ = _context_algebra_and_family(
                entry, {"branch": branch_name}
            )
        su = strongly_unimodular_constraints(
            ExtensionSpec(algebra, family), Subspace.from_indices(algebra, entry.nilradical)
        )
        return [str(c) for c in su.constant_obstructions] == data["constants"]

    if kind in (CertKind.NULL_DIRECTION, CertKind.SIGN_PRODUCT):
        algebra, family, _ = _context_algebra_and_family(entry, data)
        candidate = generic_su3_candidate(algebra, family)
        if kind == CertKind.NULL_DIRECTION:
            return all(candidate.h.entry(i, i).is_zero() for i in data["indices"])
        i, j = data["pair"]
        witness = NonNegWitness.from_json(data["witness"])
        product = candidate.h.entry(i, i) * candidate.h.entry(j, j)
        return (product + witness.expand()).is_zero()

    if kind == CertKind.GAUGE_NULL:
        algebra, family, _ = _context_algebra_and_family(entry, data)
        candidate = generic_su3_candidate(algebra, family)
        s_matrix = [[parse_polynomial(c) for c in row] for row in data["s_matrix"]]
        F = _exp_nilpotent(s_matrix, algebra.dim)
        svars = list(data["s_params"])
        det = parse_polynomial(data["branch_condition"])
        numerators = [parse_polynomial(data["solved_gauge"][sv]) for sv in svars]
        f_psi = pullback(F, candidate.psi)
        target_masks = {sum(1 << (i - 1) for i in t) for t in data["targets"]}
        psi_bar_coeffs = {}
        for mask, coeff in f_psi.coeffs.items():
            num, power = substitute_cramer(coeff, svars, numerators, det)
            if mask in target_masks:
                if not num.is_zero():
                    return False
                continue
            if num.is_zero():
                continue
            if power:
                num = num.divide_exact(det ** power)
                if num is None:
                    return False
            psi_bar_coeffs[mask] = num
        i, j = data["pair"]
        pair_num, _ = substitute_cramer(
            form_value(pullback(F, candidate.omega), i, j), svars, numerators, det
        )
        if not pair_num.is_zero():
            return False
        k_bar = k_psi(KForm(6, 3, psi_bar_coeffs))
        column = k_bar.column(i)
        for l in range(1, 7):
            if l not in (i, j) and not column[l - 1].is_zero():
                return False
        for key, expr in data["k_column"].items():
            if str(column[int(key) - 1]) != expr:
                return False
        return k_bar.lam == candidate.lam

    if kind == CertKind.SAMPLED_NO_SU3:
        algebra, family, branch = _context_algebra_and_family(entry, data)
        atoms = _atoms_in_context(entry, branch, data)
        det_quad = None
        if data.get("slice") == "t2_zero":
            det_quad = _gauge_determinant_for_slice(entry, branch)
        sampler = PairSampler(
            algebra,
            family,
            atoms,
            random.Random(data["seed"]),
            slice_name=data.get("slice"),
            det_in_alpha14=det_quad,
        )
        fresh = sample_falsify(
            cert.algebra, sampler, data["trials"], data["seed"], reason=data.get("reason", "")
        )
        return fresh.data["passes"] == data["passes"] and fresh.verified == cert.verified

    return False


def _atoms_in_context(entry: AlgebraEntry, branch, data: dict):
    atoms = list(entry.atoms)
    if branch is not None:
        branch_subs = {k: Fraction(v) for k, v in branch.get("subs", {}).items()}
        atoms = [
            Atom(a.op, a.poly.substitute(branch_subs))
            for a in entry.atoms
            if not a.poly.substitute(branch_subs).is_constant()
        ] + [Atom.from_json(a) for a in branch.get("atoms", [])]
    fam_subs = {k: Fraction(v) for k, v in data.get("fam_subs", {}).items()}
    if fam_subs:
        atoms = [
            Atom(a.op, a.poly.substitute(fam_subs))
            for a in atoms
            if not a.poly.substitute(fam_subs).is_constant()
        ]
    return atoms


def recheck_report(report_json: dict, entries) -> dict:
    """Re-verify every certificate in a serialized report; returns a map
    name -> list of booleans, in certificate order."""
    by_name = {e.name: e for e in entries}
    verdicts = {}
    for node in report_json["results"]:
        entry = by_name.get(node["name"])
        row = []
        for cert_node in node["certificates"]:
            cert = Certificate.from_json(cert_node)
            row.append(bool(entry) and recheck_certificate(entry, cert))
        verdicts[node["name"]] = row
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
    """Feed the falsifier pairs pulled back from the standard SU(3) pair; the
    checker must find passes, proving it is not vacuously rejecting."""
    rng = random.Random(seed)
    omega0, psi0 = standard_su3_pair()
    passes = 0
    for _ in range(trials):
        diag = [Fraction(rng.choice([x for x in range(-5, 6) if x != 0])) for _ in range(6)]
        matrix = [[Polynomial.const(diag[i] if i == j else 0) for j in range(6)] for i in range(6)]
        omega = pullback(matrix, omega0)
        psi = pullback(matrix, psi0)
        if su3_check(omega, psi) == SU3Verdict.PASSES:
            passes += 1
    return passes
