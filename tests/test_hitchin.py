"""Hitchin invariants: b_phi, K_psi, lambda, h, and the SU(3) verdict.

The SU(3) verdict and definiteness cases run on the contraction oracle in
oracles.py and, where the case is an integer pair, on su3_passes_int.  The
one-time proof of K^2 = lambda * Id is run on the real table and on broken
copies of it.
"""

import random
from fractions import Fraction
from math import prod

import pytest

from conftest import P, algebra_of
from g2cert.catalog import load_builtin
from g2cert.certify import StageContext
from g2cert.errors import KSquareNotScalar, NonNumericEntries
from g2cert.forms import KForm, generic_two_form, pullback, wedge
from g2cert.hitchin import _k_products, _prove_k_square, b_phi, h_form, h_matrix, k_psi
from g2cert.lie import ce_differential
from g2cert.linalg import det_fraction
from g2cert.numeric import eval_form_int, su3_passes_int
from g2cert.poly import Polynomial
from oracles import (
    Definiteness,
    SU3Verdict,
    contraction_h,
    contraction_k,
    is_definite,
    is_symmetric,
    matrix_of,
    oracle_b_entry,
    oracle_k_entry,
    rows_of,
    su3_check,
)


def random_three_form(rng, dim, span=4):
    coeffs = {}
    for _ in range(rng.randint(2, 6)):
        idx = tuple(sorted(rng.sample(range(1, dim + 1), 3)))
        coeffs[sum(1 << (i - 1) for i in idx)] = Polynomial.const(rng.randint(-span, span))
    return KForm(dim, 3, coeffs)


class TestBPhi:
    def test_standard_phi0_gives_identity(self, std_phi0):
        b = b_phi(std_phi0)
        for i in range(1, 8):
            for j in range(1, 8):
                assert b.entry(i, j) == (1 if i == j else 0)
                # independent permutation-expansion oracle
                assert oracle_b_entry(std_phi0, i, j) == b.entry(i, j).constant_value()

    def test_zero_form(self):
        b = b_phi(KForm(7, 3))
        assert all(b.entry(i, j).is_zero() for i in range(1, 8) for j in range(1, 8))

    def test_generic_exact_on_q1_has_zero_diagonal(self):
        q1 = algebra_of("(-e23, -2*e12, 2*e13, 0, -e45, 1/2*e46 - e47, 1/2*e47)")
        phi = ce_differential(q1, generic_two_form(7, "alpha"))
        b = b_phi(phi)
        for i in (5, 6, 7):
            assert b.entry(i, i).is_zero()

    def test_symmetry_random(self):
        rng = random.Random(31)
        for _ in range(100):
            b = b_phi(random_three_form(rng, 7))
            assert is_symmetric(b)

    def test_entries_on_demand_match_permutation_oracle(self):
        # entries read in a random order, each computed on its first read
        rng = random.Random(43)
        pairs = [(i, j) for i in range(1, 8) for j in range(i, 8)]
        for _ in range(2):
            phi = random_three_form(rng, 7, span=3)
            b = b_phi(phi)
            rng.shuffle(pairs)
            for i, j in pairs:
                assert b.entry(i, j).constant_value() == oracle_b_entry(phi, i, j)


def passes_int(omega: KForm, psi: KForm) -> bool:
    return su3_passes_int(eval_form_int(omega, {}), eval_form_int(psi, {}))


class TestDefiniteness:
    """Each integer case is also run through su3_passes_int: with the
    standard psi, omega = v1 e12 + v2 e34 + v3 e56 gives the pair whose h
    is a nonzero multiple of diag(v1, v1, v2, v2, v3, v3)."""

    def _diag(self, values):
        n = len(values)
        return matrix_of(
            [[Polynomial.const(values[i] if i == j else 0) for j in range(n)] for i in range(n)]
        )

    def _check(self, values, expected, std_su3_pair):
        assert is_definite(self._diag(values)) == expected
        _, psi = std_su3_pair
        omega = KForm.from_terms(6, 2, dict(zip([(1, 2), (3, 4), (5, 6)], values)))
        definite = expected in (Definiteness.POS_DEF, Definiteness.NEG_DEF)
        assert passes_int(omega, psi) == definite

    def test_identity(self, std_su3_pair):
        self._check([1, 1, 1], Definiteness.POS_DEF, std_su3_pair)

    def test_indefinite(self, std_su3_pair):
        self._check([1, -1, 1], Definiteness.INDEFINITE, std_su3_pair)

    def test_degenerate(self, std_su3_pair):
        self._check([1, 1, 0], Definiteness.DEGENERATE, std_su3_pair)

    def test_negative(self, std_su3_pair):
        self._check([-2, -1, -3], Definiteness.NEG_DEF, std_su3_pair)

    def test_symbolic_entries_rejected(self):
        b = matrix_of([[P("x"), P("0")], [P("0"), P("1")]])
        with pytest.raises(NonNumericEntries):
            is_definite(b)


class TestKPsi:
    def test_decomposable_form_gives_zero(self):
        k = k_psi(KForm.basis(6, (1, 2, 3)))
        assert k.lam.is_zero()
        assert all(e.is_zero() for row in k.entries for e in row)

    def test_standard_negative_form(self, std_su3_pair):
        _, psi = std_su3_pair
        k = k_psi(psi)
        assert k.lam == Polynomial.const(-4)
        # brute-force contraction oracle over all basis vectors
        for i in range(1, 7):
            for j in range(1, 7):
                assert oracle_k_entry(psi, i, j) == k.entries[j - 1][i - 1].constant_value()

    def test_symbolic_k_and_h_match_contraction(self):
        # the table kernels over Polynomial against contraction and form_value
        L = algebra_of("(-e16 - e35, e26 - e45, -e36, e46, 0, 0)")
        psi = ce_differential(L, generic_two_form(6, "alpha"))
        omega = generic_two_form(6, "beta")
        k = k_psi(psi)
        assert k.entries == contraction_k(psi)
        assert rows_of(h_form(omega, k)) == rows_of(contraction_h(omega, k.entries))

    def test_g654_lambda_formula(self):
        L = algebra_of("(-e16 - e35, e26 - e45, -e36, e46, 0, 0)")
        lam = k_psi(ce_differential(L, generic_two_form(6, "alpha"))).lam
        assert lam == P("16*alpha_12^2*alpha_24*alpha_13")

    def test_k_square_identity_random(self):
        # the proof's generic tr(K^2) specializes to 6 lambda, and K^2,
        # multiplied out here, is lambda * Id on every sample
        trace = _prove_k_square(_k_products())
        assert len(trace) == 85
        rng = random.Random(13)
        for _ in range(200):
            psi = random_three_form(rng, 6)
            k = k_psi(psi)
            assert k.lam.total_degree() <= 4
            values = {mask: c.constant_value() for mask, c in psi.coeffs.items()}
            generic = sum(c * prod(values.get(m, 0) for m in mono) for mono, c in trace.items())
            assert 6 * k.lam.constant_value() == generic
            for i in range(6):
                for j in range(6):
                    square = sum(k.entries[i][l] * k.entries[l][j] for l in range(6))
                    assert square == (k.lam if i == j else Polynomial.zero())

    @pytest.mark.parametrize("field", ["sign", "twice"])
    def test_proof_rejects_every_single_change_to_the_table(self, field):
        table = _k_products()
        for n, (row, col, mask_a, mask_b, sign, twice) in enumerate(table):
            if field == "sign":
                sign = -sign
            else:
                twice = not twice
            broken = table[:n] + ((row, col, mask_a, mask_b, sign, twice),) + table[n + 1 :]
            with pytest.raises(KSquareNotScalar):
                _prove_k_square(broken)

    @pytest.mark.parametrize(
        "dataset, name",
        [
            ("table1", "g_{3,4}^{-1}+g_{3,4}^{-1}"),
            ("table1", "g_{5,35}"),
            ("indecomposable", "g_{6,54}"),
            ("indecomposable", "g_{6,115}"),
        ],
    )
    def test_trace_lambda_matches_oracles_on_catalog_psi(self, dataset, name):
        # lambda from the trace alone, against the trace of the contraction
        # oracle's K over Polynomial and of the permutation oracle's K at
        # random rational points
        entry = next(e for e in load_builtin(dataset) if name in e.name)
        context = StageContext(entry)
        psi, lam = context.psi, context.lam
        k = contraction_k(psi)
        trace = sum((k[i][l] * k[l][i] for i in range(6) for l in range(6)), Polynomial.zero())
        assert 6 * lam == trace
        rng = random.Random(47)
        names = sorted(psi.variables())
        for _ in range(3):
            point = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for v in names}
            at_point = psi.substitute(point)
            oracle = [[oracle_k_entry(at_point, i, j) for i in range(1, 7)] for j in range(1, 7)]
            expected = sum(oracle[i][l] * oracle[l][i] for i in range(6) for l in range(6))
            assert 6 * lam.evaluate(point) == expected

    def test_orientation_flip_negates_k(self):
        rng = random.Random(19)
        flip = [[Polynomial.const(1 if i == j else 0) for j in range(6)] for i in range(6)]
        flip[5][5] = Polynomial.const(-1)
        for _ in range(40):
            psi = random_three_form(rng, 6)
            k = k_psi(psi)
            k_flipped = k_psi(pullback(flip, psi))
            # K_{F*psi} = det(F) F^-1 K F; for F = diag(1..1,-1) this negates
            # the conjugated matrix, so lambda is preserved and K changes sign
            assert k_flipped.lam == k.lam
            for i in range(6):
                for j in range(6):
                    sign = Fraction(-1)
                    if (i == 5) != (j == 5):
                        sign = Fraction(1)
                    assert k_flipped.entries[i][j] == sign * k.entries[i][j]

    def test_lambda_scales_by_det_squared(self):
        rng = random.Random(29)
        for _ in range(25):
            psi = random_three_form(rng, 6)
            entries = [[Fraction(rng.randint(-2, 2)) for _ in range(6)] for _ in range(6)]
            matrix = [[Polynomial.const(x) for x in row] for row in entries]
            d = det_fraction(entries)
            assert k_psi(pullback(matrix, psi)).lam == d * d * k_psi(psi).lam


class TestHForm:
    def test_entries_match_w_k_oracle(self):
        # h_form's on-demand entries and the integer h_matrix share one W K
        # product; both against contraction_h, which reads omega by form_value
        rng = random.Random(53)
        for _ in range(20):
            psi = random_three_form(rng, 6)
            omega = KForm.from_terms(
                6, 2, {(i, j): rng.randint(-3, 3) for i in range(1, 7) for j in range(i + 1, 7)}
            )
            k = k_psi(psi)
            expected = rows_of(contraction_h(omega, k.entries))
            assert rows_of(h_form(omega, k)) == expected
            int_k = [[e.constant_value() for e in row] for row in k.entries]
            int_omega = {mask: c.constant_value() for mask, c in omega.coeffs.items()}
            assert h_matrix(int_omega, int_k, 0) == [
                [e.constant_value() for e in row] for row in expected
            ]

    def test_zero_operator(self, std_su3_pair):
        omega, _ = std_su3_pair
        k = k_psi(KForm.basis(6, (1, 2, 3)))
        h = h_form(omega, k)
        assert all(h.entry(i, j).is_zero() for i in range(1, 7) for j in range(1, 7))

    def test_conditioned_symmetry(self, std_su3_pair):
        # with omega ^ psi = 0 and lambda < 0, h is symmetric; the standard
        # pair and its pullbacks provide such samples
        rng = random.Random(37)
        omega0, psi0 = std_su3_pair
        for _ in range(30):
            entries = [[Fraction(rng.randint(-2, 2)) for _ in range(6)] for _ in range(6)]
            if det_fraction(entries) == 0:
                continue
            matrix = [[Polynomial.const(x) for x in row] for row in entries]
            omega, psi = pullback(matrix, omega0), pullback(matrix, psi0)
            assert is_symmetric(h_form(omega, k_psi(psi)))

    def test_symmetry_can_fail_without_primitivity(self):
        # omega ^ psi != 0: the conditioned direction is the only claim
        omega = KForm.from_terms(6, 2, {(1, 2): 1, (1, 3): 1})
        psi = (
            KForm.basis(6, (1, 3, 5))
            - KForm.basis(6, (1, 4, 6))
            - KForm.basis(6, (2, 3, 6))
            - KForm.basis(6, (2, 4, 5))
        )
        assert not wedge(omega, psi).is_zero()
        assert not is_symmetric(h_form(omega, k_psi(psi)))


class TestSU3Check:
    def _verdict(self, omega, psi):
        """The oracle's verdict, after checking su3_passes_int agrees."""
        verdict = su3_check(omega, psi)
        assert passes_int(omega, psi) == (verdict == SU3Verdict.PASSES)
        return verdict

    def test_standard_pair_passes(self, std_su3_pair):
        omega, psi = std_su3_pair
        assert self._verdict(omega, psi) == SU3Verdict.PASSES

    def test_decomposable_psi_fails_stability(self, std_su3_pair):
        omega, _ = std_su3_pair
        assert self._verdict(omega, KForm.basis(6, (1, 2, 3))) == SU3Verdict.FAILS_STABILITY

    def test_degenerate_omega_fails_nondegeneracy(self, std_su3_pair):
        _, psi = std_su3_pair
        omega = KForm.from_terms(6, 2, {(1, 2): 1, (3, 4): 1})
        assert self._verdict(omega, psi) == SU3Verdict.FAILS_NONDEGENERACY

    def test_nonprimitive_pair_fails(self, std_su3_pair):
        _, psi = std_su3_pair
        omega = KForm.from_terms(6, 2, {(1, 2): 1, (3, 4): 1, (5, 6): 1, (1, 3): 1})
        assert self._verdict(omega, psi) in (
            SU3Verdict.FAILS_PRIMITIVITY,
            SU3Verdict.FAILS_POSITIVITY,
        )

    def test_either_orientation_accepted(self, std_su3_pair):
        omega, psi = std_su3_pair
        assert self._verdict(-1 * omega, -1 * psi) == SU3Verdict.PASSES
