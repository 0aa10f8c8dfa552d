"""Derivation spaces, the D* action, extensions, strong unimodularity."""

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import P, algebra_of, fam
from oracles import (
    apply_matrix,
    as_polynomial,
    basis_form,
    basis_vectors,
    extension_algebra,
    oracle_bracket,
    oracle_leibniz,
    quotient_trace,
)
from g2cert import linalg
from g2cert.catalog import BUILTIN_DATASETS, load_any, load_builtin
from g2cert.certify import StageContext
from g2cert.derivations import (
    DerivationFamily,
    dstar_action,
    solve_derivations,
    strongly_unimodular_constraints,
    verify_derivation,
)
from g2cert.errors import (
    JacobiFailure,
    LeibnizViolation,
    NilradicalNotInvariant,
    NonNumericEntries,
)
from g2cert.forms import KForm, generic_one_form, generic_two_form, wedge
from g2cert.lie import adjoint, ce_differential, descending_central_series
from g2cert.poly import Polynomial

G530 = "(-e24 - 2/3*e15, -e34 + 1/3*e25, 4/3*e35, -e45, 0, 0)"
G3434 = "(-e13, e23, 0, -e46, e56, 0)"


def family(text_rows, params, algebra):
    matrix = [[fam(c) if isinstance(c, str) else Polynomial.const(c) for c in row] for row in text_rows]
    fam_ = DerivationFamily(matrix, tuple(params))
    verify_derivation(algebra, fam_)
    return fam_


def span_rows(fam_, params, subs=None):
    rows = []
    n = len(fam_.matrix)
    for p in params:
        point = {q: (1 if q == p else 0) for q in params}
        if subs:
            point.update(subs)
        rows.append(
            [fam_.matrix[i][j].substitute(point).constant_value() for i in range(n) for j in range(n)]
        )
    return rows


PRINTED_G530 = [
    ["a_1", "a_2", 0, "a_3", "a_4", 0],
    [0, "a_5", "a_2", "a_6", "-1/3*a_3", 0],
    [0, 0, "2*a_5 - a_1", 0, "-4/3*a_6", 0],
    [0, 0, 0, "a_1 - a_5", "-a_2", 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, "a_7", "a_8"],
]


class TestSolveDerivations:
    def test_abelian_full_matrix_space(self):
        L = algebra_of("(0, 0, 0)")
        fam_ = solve_derivations(L)
        assert len(fam_.params) == 9

    def test_g530_eight_parameter_family(self):
        L = algebra_of(G530)
        solved = solve_derivations(L)
        assert len(solved.params) == 8
        printed = family(PRINTED_G530, [f"a_{i}" for i in range(1, 9)], L)
        # the RREF of a row set is unique, so equal RREFs mean equal spans
        assert linalg.rref(span_rows(solved, solved.params), 36) == linalg.rref(
            span_rows(printed, printed.params), 36
        )

    def test_symbolic_constants_rejected_without_generic(self):
        L = algebra_of("(-e16 - e35, -l*e26 - e45, (1+2*l)*e36, (2+l)*e46, (-2-2*l)*e56, 0)")
        with pytest.raises(NonNumericEntries):
            solve_derivations(L)


class TestVerifyDerivation:
    def test_zero_derivation(self):
        L = algebra_of(G3434)
        zero = DerivationFamily([[Polynomial.zero()] * 6 for _ in range(6)])
        assert verify_derivation(L, zero)

    def test_ad_e7_restricted_to_the_radical(self):
        # the almost abelian radical R x_D R^3 with D = diag(-1, -1, 2):
        # D is ad of the extra generator, hence a derivation of R^3 and of
        # the whole radical
        r3 = algebra_of("(0, 0, 0)")
        D = DerivationFamily(
            [
                [Polynomial.const(-1), Polynomial.zero(), Polynomial.zero()],
                [Polynomial.zero(), Polynomial.const(-1), Polynomial.zero()],
                [Polynomial.zero(), Polynomial.zero(), Polynomial.const(2)],
            ],
        )
        assert verify_derivation(r3, D)
        radical = algebra_of("(e14, e24, -2*e34, 0)")
        ad4 = DerivationFamily(adjoint(radical)[3])
        assert verify_derivation(radical, ad4)

    def test_identity_violates_leibniz_on_nonabelian(self):
        L = algebra_of(G3434)
        ident = DerivationFamily(
            [[Polynomial.const(1 if i == j else 0) for j in range(6)] for i in range(6)]
        )
        with pytest.raises(LeibnizViolation) as err:
            verify_derivation(L, ident)
        assert not err.value.residual.is_zero()


class TestDStarAction:
    def test_identity_on_two_form_doubles(self):
        L = algebra_of("(0, 0, 0, 0, 0, 0)")
        ident = DerivationFamily(
            [[Polynomial.const(1 if i == j else 0) for j in range(6)] for i in range(6)]
        )
        alpha = generic_two_form(6, "alpha")
        assert dstar_action(ident, alpha) == 2 * alpha

    def test_diagonal_weights_add(self):
        L = algebra_of("(0, 0, 0, 0, 0, 0)")
        diag = DerivationFamily(
            [[Polynomial.const((i + 1) if i == j else 0) for j in range(6)] for i in range(6)],
        )
        f = basis_form(6, (2, 5))
        assert dstar_action(diag, f) == (2 + 5) * f

    def test_printed_e12_coefficient_on_double_g34(self):
        L = algebra_of(G3434)
        printed = family(
            [
                ["a_1", 0, "a_2", 0, 0, 0],
                [0, "a_3", "a_4", 0, 0, 0],
                [0, 0, 0, 0, 0, 0],
                [0, 0, 0, "a_5", 0, "a_6"],
                [0, 0, 0, 0, "-a_5 - a_3 - a_1", "a_8"],
                [0, 0, 0, 0, 0, 0],
            ],
            ["a_1", "a_2", "a_3", "a_4", "a_5", "a_6", "a_8"],
            L,
        )
        alpha = generic_two_form(6, "alpha")
        minus_dstar = -1 * dstar_action(printed, alpha)
        assert minus_dstar.coefficient((1, 2)) == P("-alpha_12*(a_1 + a_3)")


class TestStrongUnimodularity:
    def test_g530_constraints(self):
        L = algebra_of(G530)
        printed = family(PRINTED_G530, [f"a_{i}" for i in range(1, 9)], L)
        su = strongly_unimodular_constraints(L, printed, [1, 2, 3, 4, 6])
        assert {k: str(v) for k, v in su.derivation_subs.items()} == {
            "a_1": "0",
            "a_5": "0",
            "a_8": "0",
        }
        assert su.family_equations == []
        # the source stops at the parameter conditions; the ad_e5 traces on
        # the nilradical quotients are the nonzero constants -2/3 and 1/3
        assert su.constant_obstructions == [Fraction(-2, 3), Fraction(1, 3)]

    def test_g670_constraints(self):
        L = algebra_of(
            "(e26 - p*e16 - e35, -e16 - p*e26 - e45, 3*p*e36 + e46, 3*p*e46 - e36, -4*p*e56, 0)"
        )
        printed = family(
            [
                ["a_1", "a_2", "a_3", 0, "a_4", "a_5"],
                ["-a_2", "a_1", 0, "a_3", "a_6", "a_7"],
                [0, 0, "a_8", "a_2", 0, "-3*p*a_4 - a_6"],
                [0, 0, "-a_2", "a_8", 0, "-3*p*a_6 + a_4"],
                [0, 0, 0, 0, "-a_8 + a_1", "-4*p*a_3"],
                [0, 0, 0, 0, 0, 0],
            ],
            [f"a_{i}" for i in range(1, 9)],
            L,
        )
        su = strongly_unimodular_constraints(L, printed, [1, 2, 3, 4, 5])
        assert {k: str(v) for k, v in su.derivation_subs.items()} == {"a_1": "0", "a_8": "0"}
        # the family condition is 2p = 0, stored content-normalized
        assert len(su.family_equations) == 1
        assert su.family_equations[0] == fam("p")
        assert su.constant_obstructions == []

    def test_g654_family_condition(self):
        L = algebra_of("(-e16 - e35, -l*e26 - e45, (1+2*l)*e36, (2+l)*e46, (-2-2*l)*e56, 0)")
        printed = family(
            [
                ["a_1", 0, "a_2", 0, "a_3", "a_4"],
                [0, "-a_1", 0, "a_2", "a_6", "a_7"],
                [0, 0, "a_1", 0, 0, "a_3*(-1 - 2*l)"],
                [0, 0, 0, "-a_1", 0, "a_6*(-2 - l)"],
                [0, 0, 0, 0, 0, "a_2*(-2 - 2*l)"],
                [0, 0, 0, 0, 0, 0],
            ],
            ["a_1", "a_2", "a_3", "a_4", "a_6", "a_7"],
            L,
        )
        su = strongly_unimodular_constraints(L, printed, [1, 2, 3, 4, 5])
        assert su.derivation_subs == {}
        assert su.family_equations == [fam("l + 1")]

    def test_derivation_moving_the_nilradical_raises(self):
        # span(e1) is a nilpotent ideal of the abelian R^2, and the
        # derivation e1 -> a_1 e2 moves it
        L = algebra_of("(0, 0)")
        D = family([[0, 0], ["a_1", 0]], ["a_1"], L)
        with pytest.raises(NilradicalNotInvariant):
            strongly_unimodular_constraints(L, D, [1])

    def test_subspace_that_is_not_an_ideal_raises(self):
        # span(e1) of the Heisenberg algebra, [e1, e2] = e3, is not an ideal:
        # the trace of ad_e2 on it meets [e2, e1] = -e3
        L = algebra_of("(0, 0, -e12)")
        D = family([[0, 0, 0]] * 3, [], L)
        with pytest.raises(NilradicalNotInvariant):
            strongly_unimodular_constraints(L, D, [1])

    def test_one_rref_per_series_term_and_one_for_the_derivation_rows(self, monkeypatch):
        L = algebra_of(G530)
        printed = family(PRINTED_G530, [f"a_{i}" for i in range(1, 9)], L)
        series = descending_central_series(L, [1, 2, 3, 4, 6])
        calls = []
        rref = linalg.rref

        def counting_rref(rows, ncols):
            calls.append(ncols)
            return rref(rows, ncols)

        monkeypatch.setattr(linalg, "rref", counting_rref)
        su = strongly_unimodular_constraints(L, printed, [1, 2, 3, 4, 6])
        assert su.derivation_subs
        # the nilradical and each later series term over the 6 coordinates,
        # then the derivation rows over a_1, a_5 and a_8, the parameters the
        # traces involve
        assert calls == [6] * len(series) + [3]


def su_contexts():
    """Every shipped dimension-6 context with a derivation family: the
    branches of an entry that has them, else the entry.  A parametrized
    algebra with no shipped family has none; the lambda stage obstructs it."""
    for dataset in BUILTIN_DATASETS:
        for entry in load_builtin(dataset):
            if entry.stub or entry.dim != 6:
                continue
            names = entry.branch_names() or [None]
            for name in names:
                context = StageContext(entry, name)
                try:
                    context.family
                except NonNumericEntries:
                    continue
                yield context


def test_raw_traces_match_per_generator_elimination_on_every_shipped_context():
    # the series terms are over Q; the oracle eliminates over Q(params), and
    # each trace it finds is a polynomial
    checked = 0
    for context in su_contexts():
        base, D = context.algebra, context.family
        n = base.dim
        series = descending_central_series(base, context.entry.nilradical)
        operators = [("D", lambda v: apply_matrix(D.matrix, v))] + [
            (f"ad_e{i}", lambda v, x=x: oracle_bracket(base, x, v))
            for i, x in enumerate(basis_vectors(n), start=1)
        ]
        expected = []
        for level in range(len(series) - 1):
            for name, op in operators:
                tr = quotient_trace(base, op, series[level + 1], series[level])
                if not tr.is_zero():
                    expected.append((name, level, as_polynomial(tr)))
        assert context.su.raw_traces == expected, context.name
        checked += 1
    assert checked == 29


def test_split_identity_on_every_shipped_context():
    # on g = s x_D R with e^7 dual to the added generator,
    # d(alpha + beta ^ e^7) = psi + omega ^ e^7 for the generic alpha and
    # beta of s: the 6+1 split the SU(3)-stage certificates rest on.  10 of
    # the contexts ship a family and 19 solve Der(s); 12 whose Der(s) has
    # symbolic entries raise NonNumericEntries and are skipped
    def lift(f):
        return KForm(7, f.degree, f.coeffs)

    e7 = basis_form(7, (7,))
    alpha = lift(generic_two_form(6, "alpha"))
    beta = lift(generic_one_form(6, "beta"))
    checked = 0
    for context in su_contexts():
        g = extension_algebra(context.algebra, context.family)
        expected = lift(context.psi) + wedge(lift(context.omega), e7)
        assert ce_differential(g, alpha + wedge(beta, e7)) == expected, context.name
        checked += 1
    assert checked == 29


@cache
def numeric_six_dim_algebras():
    """The shipped dimension-6 algebras, of entries and of branches, whose
    structure constants are numeric, with Der(s) solved for each."""
    out = []
    for entry in load_any("all"):
        if entry.stub or entry.dim != 6:
            continue
        for name in [None, *entry.branch_names()]:
            algebra = entry.build_algebra(name)
            if not algebra.family_parameters():
                out.append((algebra, solve_derivations(algebra)))
    return out


def integer_point(data, family):
    """Small integer values of the family's derivation parameters."""
    return {p: data.draw(st.integers(-3, 3), label=p) for p in family.params}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_leibniz_read_off_d_matches_the_bracket_loop_and_jacobi(data):
    # half the draws are integer points of the solved Der(s), which are
    # derivations; the others are integer matrices, which rarely are, or
    # such a point with one entry moved by one
    algebras = numeric_six_dim_algebras()
    algebra, solved = data.draw(st.sampled_from(algebras), label="algebra")
    if data.draw(st.booleans(), label="solved"):
        D = solved.substitute(integer_point(data, solved))
    elif data.draw(st.booleans(), label="moved"):
        D = solved.substitute(integer_point(data, solved))
        l, c = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        D.matrix[l][c] = D.matrix[l][c] + data.draw(st.sampled_from([-1, 1]))
    else:
        cells = [[data.draw(st.integers(-2, 2)) for _ in range(6)] for _ in range(6)]
        D = DerivationFamily([[Polynomial.const(c) for c in row] for row in cells])
    expected = oracle_leibniz(algebra, D.matrix)
    if expected is None:
        assert verify_derivation(algebra, D)
        assert extension_algebra(algebra, D).dim == 7
    else:
        with pytest.raises(LeibnizViolation) as err:
            verify_derivation(algebra, D)
        assert (err.value.triple, err.value.residual) == expected
        with pytest.raises(JacobiFailure):
            extension_algebra(algebra, D)


@cache
def solving_contexts():
    """The contexts of su_contexts whose family is the solved Der(s)."""
    return [
        context
        for context in su_contexts()
        if context.entry.build_family(context.branch_name) is None
    ]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_split_identity_at_random_solved_derivations(data):
    # the split of test_split_identity_on_every_shipped_context at an
    # integer point of Der(s): the extension and omega are both taken at D
    def lift(f):
        return KForm(7, f.degree, f.coeffs)

    context = data.draw(st.sampled_from(solving_contexts()), label="context")
    point = integer_point(data, context.family)
    g = extension_algebra(context.algebra, context.family.substitute(point))
    e7 = basis_form(7, (7,))
    alpha = lift(generic_two_form(6, "alpha"))
    beta = lift(generic_one_form(6, "beta"))
    expected = lift(context.psi) + wedge(lift(context.omega.substitute(point)), e7)
    assert ce_differential(g, alpha + wedge(beta, e7)) == expected


class TestExtensionAndNilradical:
    def test_extension_satisfies_jacobi_and_closes_eta(self):
        L = algebra_of(G530)
        printed = family(PRINTED_G530, [f"a_{i}" for i in range(1, 9)], L)
        ext = extension_algebra(L, printed)  # validates d^2 = 0 on construction
        assert ext.dim == 7
        assert ext.d_basis(7).is_zero()


# -- ROADMAP 4(b): does F + ad(s) contain Der(s) ∩ ker tr? -----------------


def parameter_matrices(family, values):
    """The matrix of each parameter of the family at the family values
    `values`, with that parameter 1 and the others 0, as Fractions."""
    def at(point):
        subs = {**values, **point}
        return [[e.substitute(subs).constant_value() for e in row] for row in family.matrix]

    assert not any(map(any, at({p: 0 for p in family.params}))), "family is not linear"
    return [at({q: int(q == p) for q in family.params}) for p in family.params]


def span_dim(matrices):
    rows = [[x for row in m for x in row] for m in matrices]
    return len(linalg.rref(rows, len(rows[0]))[1]) if rows else 0


def coverage(context, values):
    """(dim Der(s), dim Der(s) ∩ ker tr, dim F + ad(s), whether F + ad(s)
    contains Der(s) ∩ ker tr) for the context's algebra s and shipped
    family F at the family values `values`."""
    s = context.algebra.substitute(values)
    der = parameter_matrices(solve_derivations(s), {})
    traces = [[sum(m[i][i] for i in range(s.dim)) for m in der]]
    traceless = [
        [[sum(c * m[i][j] for c, m in zip(vec, der)) for j in range(s.dim)] for i in range(s.dim)]
        for vec in linalg.nullspace(traces, len(der))
    ]
    ad = [[[e.constant_value() for e in row] for row in m] for m in adjoint(s)]
    f_ad = parameter_matrices(context.shipped_family, values) + ad
    return (
        span_dim(der), span_dim(traceless), span_dim(f_ad),
        span_dim(f_ad + traceless) == span_dim(f_ad),
    )


def atom_point(context, rng):
    """A rational value of each free family parameter, drawn until the
    context's atoms hold."""
    names = sorted(context.algebra.family_parameters())
    while True:
        point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for v in names}
        if all(atom.holds(point) for atom in context.atoms):
            return point


def test_family_and_ad_cover_the_traceless_derivations_where_a_family_is_shipped():
    rng = random.Random(4)
    checked = 0
    for context in su_contexts():
        if context.entry.build_family(context.branch_name) is None:
            continue
        *_, covered = coverage(context, atom_point(context, rng))
        assert covered, context.name
        checked += 1
    assert checked == 10


def test_g654_at_l_minus_one_family_and_ad_miss_a_traceless_derivation():
    # strong unimodularity forces l = -1, where Der(s) grows from 8 to 9
    # dimensions and ad(s) lies in the shipped F: F + ad(s) misses two
    # dimensions of Der(s) ∩ ker tr.  Closing this gap is ROADMAP item 4(b)
    entry = next(e for e in load_any("all") if e.name.startswith("g_{6,54}"))
    assert coverage(StageContext(entry), {"fam_l": -1}) == (9, 8, 6, False)
