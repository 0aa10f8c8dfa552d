"""Certificates, pipelines, sampling, reports."""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import P, algebra_of
from oracles import SU3Verdict, oracle_substitute_cramer, su3_check
from g2cert.catalog import (
    BUILTIN_DATASETS,
    AlgebraEntry,
    builtin_text,
    load_any,
    load_builtin,
    load_catalog_text,
    parse_catalog_text,
)
from g2cert.certify import (
    VERIFIERS,
    Certificate,
    CertKind,
    EntryResult,
    Outcome,
    PairSampler,
    PipelineOptions,
    StageContext,
    certify_lambda_sign,
    certify_null_direction,
    certify_sign_product,
    certify_zero_diagonal,
    gauge_system,
    gauge_transport,
    negative_control,
    recheck_certificate,
    recheck_report,
    run_all,
    run_pipeline,
    sample_falsify,
    standard_su3_pair,
    strongly_unimodular_context,
    _solved_family_substitutions,
)
from g2cert.derivations import DerivationFamily
from g2cert.errors import (
    G2CertError,
    IdentityFailure,
    IdentityMismatch,
    NotIdenticallyZero,
    SingularSymbolicSystem,
    WitnessMismatch,
)
from g2cert.forms import contractions, pullback, top_coefficient, wedge
from g2cert.hitchin import b_phi
from g2cert.poly import Polynomial, substitute_cramer
from g2cert import catalog, certify, derivations, exprs, hitchin, lie, numeric


def by_name(dataset, name):
    return next(e for e in load_builtin(dataset) if name in e.name)


def changed_entry(dataset, prefix, change, validate=True):
    """The built-in entry of `dataset` whose name starts with `prefix`, in
    a catalog of its own after change(node): loaded, or only parsed when
    not `validate`."""
    document = json.loads(builtin_text(dataset))
    node = next(e for e in document["entries"] if e["name"].startswith(prefix))
    change(node)
    text = json.dumps({"schema": document["schema"], "entries": [node]})
    (entry,) = (load_catalog_text if validate else parse_catalog_text)(text)
    return entry


@pytest.fixture(scope="module")
def table1():
    return load_builtin("table1")


@pytest.fixture(scope="module")
def indecomposable():
    return load_builtin("indecomposable")


class TestGenericExactG2:
    def test_q1_zero_diagonal(self):
        q1 = by_name("nonsolvable", "q_1")
        cert = certify_zero_diagonal(StageContext(q1), {"indices": [5, 6, 7]})
        assert cert.verified and cert.kind == CertKind.ZERO_DIAGONAL

    def test_abelian_r7_gives_zero(self):
        context = StageContext(AlgebraEntry("R^7", 7, "(0, 0, 0, 0, 0, 0, 0)"))
        phi = context.psi
        b = b_phi(phi)
        assert phi.is_zero()
        assert all(b.entry(i, j).is_zero() for i in range(1, 8) for j in range(1, 8))

    def test_q2_symbolic_mu_diagonal_zero_and_samples(self):
        phi = StageContext(by_name("nonsolvable", "q_2")).psi
        b = b_phi(phi)
        assert b.entry(5, 5).is_zero()
        # independent spot check: evaluate the full construction at random
        # rational points (Schwartz-Zippel style consistency)
        rng = random.Random(41)
        names = sorted(phi.variables() | {"fam_mu"})
        for _ in range(50):
            point = {n: Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for n in names}
            phi_num = phi.substitute(point)
            contraction = contractions(phi_num)[4]
            value = top_coefficient(wedge(wedge(contraction, contraction), phi_num))
            assert value.is_zero() or value.constant_value() == 0


def test_no_two_instances_share_a_mutable_default():
    certs = Certificate(CertKind.ZERO_DIAGONAL, "x"), Certificate(CertKind.ZERO_DIAGONAL, "y")
    results = EntryResult("x", Outcome.OBSTRUCTED), EntryResult("y", Outcome.OBSTRUCTED)
    entries = AlgebraEntry("R^3", 3, "(0, 0, 0)"), AlgebraEntry("R^3", 3, "(0, 0, 0)")
    contexts = StageContext(entries[0]), StageContext(entries[0])
    for pair, names in [
        (entries, ("family_params", "witnesses", "plan", "_built")),
        (certs, ("assumptions", "data")),
        (results, ("certificates", "notes", "samples")),
        (contexts, ("derivation_subs", "fam_subs")),
    ]:
        for name in names:
            first, second = (getattr(obj, name) for obj in pair)
            assert first == type(first)() and first is not second, name


class TestLambdaStage:
    def test_witnessed_nonnegative(self, table1):
        entry = by_name("table1", "g_{3,4}^{-1}+g_{3,1}")
        cert, sample = certify_lambda_sign(StageContext(entry), random.Random(0))
        assert cert.kind == CertKind.LAMBDA_NONNEG and sample is None

    def test_identically_zero(self):
        entry = by_name("table1", "g_{3,4}^{-1}+R^3")
        cert, _ = certify_lambda_sign(StageContext(entry), random.Random(0))
        assert cert.kind == CertKind.LAMBDA_ZERO

    def test_survivor_negative_sample(self):
        entry = by_name("table1", "g_{3,4}^{-1}+g_{3,4}^{-1}")
        cert, sample = certify_lambda_sign(StageContext(entry), random.Random(5))
        assert cert is None
        values = {k: Fraction(v) for k, v in sample.items()}
        lam = 16 * values["alpha_14"] * values["alpha_15"] * values["alpha_24"] * values["alpha_25"]
        assert lam < 0

    def test_wrong_witness_raises(self):
        entry = changed_entry(
            "table1", "g_{3,4}^{-1}+g_{3,1}",
            lambda node: node["witnesses"].update({"lambda": ["square", "alpha_14"]}),
        )
        with pytest.raises(WitnessMismatch):
            certify_lambda_sign(StageContext(entry), random.Random(0))

    def test_family_is_not_built(self):
        # g_{6,70} cannot solve Der before fam_p is fixed; its lambda stage
        # never asks for the family, of the context or of the entry (parsed,
        # not validated, so that validation builds nothing first)
        (entry,) = [
            e for e in parse_catalog_text(builtin_text("indecomposable"))
            if e.name.startswith("g_{6,70}")
        ]
        context = StageContext(entry)
        cert, sample = certify_lambda_sign(context, random.Random(7))
        assert cert is None and sample
        assert "family" not in vars(context) and "shipped_family" not in vars(context)
        assert not [key for key in entry._built if key[0] == "family"]


class TestNullDirectionAndSignProduct:
    def test_g530_null_directions(self):
        entry = by_name("table1", "g_{5,30}")
        context = StageContext(entry, derivation_subs={"a_1": 0, "a_5": 0, "a_8": 0})
        cert = certify_null_direction(context)
        assert cert.verified and cert.data["indices"] == [1, 2, 3]

    def test_g530_nonnull_index_rejected(self):
        entry = changed_entry("table1", "g_{5,30}", lambda node: node["plan"][0].update(indices=[4]))
        context = StageContext(entry, derivation_subs={"a_1": 0, "a_5": 0, "a_8": 0})
        with pytest.raises(NotIdenticallyZero):
            certify_null_direction(context)

    def test_g654_null_directions(self):
        entry = by_name("indecomposable", "g_{6,54}")
        context = StageContext(entry, fam_subs={"fam_l": Fraction(-1)})
        cert = certify_null_direction(context)
        assert cert.verified and cert.data["indices"] == [1, 2, 3, 4]

    def test_g535_sign_product(self):
        entry = by_name("table1", "g_{5,35}")
        cert = certify_sign_product(StageContext(entry))
        assert cert.verified and cert.data["pair"] == [1, 6]
        assert cert.data["witness"] == entry.witnesses["sign_product"]

    def test_zero_witness_mismatch(self):
        entry = changed_entry(
            "table1", "g_{5,35}", lambda node: node["witnesses"].update(sign_product=["sum"])
        )
        with pytest.raises(IdentityMismatch):
            certify_sign_product(StageContext(entry))

    def test_g6115_sign_product(self):
        entry = by_name("indecomposable", "g_{6,115}")
        context = StageContext(entry, derivation_subs={"a_1": P("-a_3 - 2*a_6")})
        cert = certify_sign_product(context)
        assert cert.verified and cert.data["pair"] == [3, 4]


class TestEntriesOnDemand:
    """Each diagonal verifier computes exactly the entries it reads."""

    @pytest.fixture
    def computed(self, monkeypatch):
        calls = []
        for name in ("b_entry", "h_entry"):
            original = getattr(hitchin, name)

            def counting(*args, original=original, name=name):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(hitchin, name, counting)
        return calls

    def test_zero_diagonal(self, computed):
        context = StageContext(by_name("nonsolvable", "q_1"))
        certify_zero_diagonal(context)
        assert computed == ["b_entry"] * 3

    def test_null_direction(self, computed):
        entry = by_name("table1", "g_{5,30}")
        context = StageContext(entry, derivation_subs={"a_1": 0, "a_5": 0, "a_8": 0})
        certify_null_direction(context)
        assert computed == ["h_entry"] * 3
        # an entry read again is not computed again
        certify_null_direction(context)
        assert computed == ["h_entry"] * 3

    def test_sign_product(self, computed):
        certify_sign_product(StageContext(by_name("table1", "g_{5,35}")))
        assert computed == ["h_entry"] * 2

    def test_index_out_of_range_computes_nothing(self, computed):
        # parsed, not validated: validation refuses the index 8
        entry = changed_entry(
            "nonsolvable", "q_1", lambda node: node["plan"][0].update(indices=[8]), validate=False
        )
        with pytest.raises(IndexError):
            certify_zero_diagonal(StageContext(entry))
        assert computed == []


class TestGaugeTransport:
    def test_double_g34_gauge(self):
        entry = by_name("table1", "g_{3,4}^{-1}+g_{3,4}")
        context = StageContext(entry)
        cert = gauge_transport(context)
        assert cert.verified
        delta = P("alpha_14*alpha_25 - alpha_15*alpha_24")
        assert P(cert.data["branch_condition"]) == delta * delta
        # lambda < 0 forces the branch condition nonzero:
        # lambda + 4 delta^2 = 4 (a14 a25 + a15 a24)^2
        lam = context.lam
        assert lam + 4 * delta * delta == 4 * P("(alpha_14*alpha_25 + alpha_15*alpha_24)^2")

    def test_gauge_without_freedom_is_singular(self):
        entry = changed_entry(
            "table1", "g_{3,4}^{-1}+g_{3,4}^{-1}",
            lambda node: node["plan"][0].update(s_matrix=[["0"] * 6 for _ in range(6)]),
        )
        with pytest.raises(SingularSymbolicSystem):
            gauge_transport(StageContext(entry))

    def test_target_not_affine_in_the_gauge(self):
        # S e_1 = s e_2, S e_2 = s e_3 on R^6: S^2 != 0, so exp(S) is quadratic in s
        # and the coefficient of e^126 in F*psi is -s^2/2
        algebra = algebra_of("(0, 0, 0, 0, 0, 0)")
        matrix = [[Polynomial.zero()] * 6 for _ in range(6)]
        matrix[1][0] = matrix[2][1] = P("s_1")
        s_family = DerivationFamily(algebra, matrix, ("s_1",))
        _, psi = standard_su3_pair()
        assert gauge_system(psi, s_family, [(1, 2, 5)]).rows == [[P("1")]]
        with pytest.raises(IdentityFailure, match=r"target coefficient \(1, 2, 6\) is not affine"):
            gauge_system(psi, s_family, [(1, 2, 5), (1, 2, 6)])


def sampling_contexts():
    """The context of each sampling certificate of the built-in catalogs:
    each entry or branch that samples, after its strong-unimodularity
    substitutions, as the pipeline builds it."""
    found = []
    for entry in load_any("all"):
        for branch_name in entry.branch_names() or [None]:
            base = StageContext(entry, branch_name)
            if any(step.get("kind") == "prose_sample" for step in base.steps):
                found.append(strongly_unimodular_context(base))
    return found


class TestSampling:
    def test_deterministic_replay(self):
        entry = by_name("indecomposable", "g_{6,118}")
        context = StageContext(entry, derivation_subs={"a_1": P("-a_3 - 2*a_7")})
        inputs = {"trials": 40, "seed": 123}
        cert1 = sample_falsify(context, inputs)
        cert2 = sample_falsify(context, inputs)
        assert cert1.data == cert2.data
        assert cert1.verified and cert1.data["passes"] == 0

    def test_zero_trials_empty_certificate(self):
        entry = by_name("indecomposable", "g_{6,118}")
        inputs = {"trials": 0, "seed": 7}
        cert = sample_falsify(StageContext(entry), inputs)
        assert cert.verified and cert.data["trials"] == 0 and cert.data["passes"] == 0

    def test_negative_control_finds_passes(self):
        assert negative_control(trials=25, seed=3) == 25

    def test_compiled_lambda_has_the_sign_of_the_k_trace(self):
        # the draw's pre-filter: at a positively scaled integer point the
        # compiled lambda has the sign of tr(K^2) of the integer psi
        rng = random.Random(16)
        contexts = sampling_contexts()
        assert len(contexts) == 4
        for context in contexts:
            sampler = PairSampler(context, random.Random(0))
            alphas = [v for v in sampler.free_vars if v.startswith("alpha_")]
            signs = set()
            for draw in range(120):
                assignment = {v: Fraction(rng.randint(-3, 3)) for v in sampler.free_vars}
                family, common = sampler._draw_family()
                assignment.update(
                    {v: Fraction(num, common) for v, num in zip(sampler.fam_vars, family)}
                )
                if draw % 10 == 0:
                    assignment.update(dict.fromkeys(alphas, Fraction(0)))
                elif draw % 10 == 1:
                    for v in alphas:
                        assignment[v] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                point = numeric.integer_point(sampler.variables, assignment)
                lam = sampler.lam_int.evaluate(point).get(0, 0)
                trace_sq = hitchin.k_matrix(sampler.psi_int.evaluate(point), 0)[1]
                assert (lam > 0) - (lam < 0) == (trace_sq > 0) - (trace_sq < 0), context.name
                signs.add((lam > 0) - (lam < 0))
            assert {-1, 0} <= signs, context.name

    def test_fast_path_matches_exact_su3_check(self):
        # cross-validate the integer fast path against the contraction oracle
        rng = random.Random(8)
        omega0, psi0 = standard_su3_pair()
        agree = 0
        for _ in range(60):
            entries = [[Fraction(rng.randint(-2, 2)) for _ in range(6)] for _ in range(6)]
            matrix = [[Polynomial.const(x) for x in row] for row in entries]
            omega, psi = pullback(matrix, omega0), pullback(matrix, psi0)
            om_int = {m: int(c.constant_value()) for m, c in omega.coeffs.items()}
            ps_int = {m: int(c.constant_value()) for m, c in psi.coeffs.items()}
            exact = su3_check(omega, psi) == SU3Verdict.PASSES
            fast = numeric.su3_passes_int(om_int, ps_int)
            assert exact == fast
            agree += 1
        assert agree == 60


def test_family_equations_solved_once_per_variable():
    # a second equation in an already solved variable is kept as an
    # assumption; dropping it would drop fam_l - 1 = 0 from the certificate
    equations = [P("fam_l + 1"), P("fam_l^2 - fam_m"), P("2*fam_m - 1"), P("fam_l - 1")]
    subs, unsolved = _solved_family_substitutions(equations)
    assert subs == {"fam_l": -1, "fam_m": Fraction(1, 2)}
    assert unsolved == [P("fam_l^2 - fam_m"), P("fam_l - 1")]


class TestPipelines:
    def test_table1_exactly_four_reach_su3_stage(self, table1):
        reached = []
        for entry in table1:
            result = run_pipeline(entry, PipelineOptions(trials_override=5))
            assert result.ok(), result.name
            stage_kinds = {
                CertKind.NULL_DIRECTION,
                CertKind.SIGN_PRODUCT,
                CertKind.GAUGE_NULL,
                CertKind.SAMPLED_NO_SU3,
            }
            if any(c.kind in stage_kinds for c in result.certificates):
                reached.append(entry.name)
        assert sorted(reached) == sorted(
            [
                "g_{3,4}^{-1}+g_{3,4}^{-1}",
                "g_{5,30}^{-4/3}+R",
                "g_{5,33}^{-1,-1}+R",
                "g_{5,35}^{-2,0}+R",
            ]
        )

    def test_nonsolvable_outcomes(self):
        results = {e.name: run_pipeline(e) for e in load_builtin("nonsolvable")}
        for name in ("q_1", "q_2^{mu}", "q_3^{mu}"):
            assert results[name].outcome == Outcome.OBSTRUCTED
            assert results[name].certificates[0].kind == CertKind.ZERO_DIAGONAL
        assert results["q_4"].outcome == Outcome.LATTICE_OUT_OF_SCOPE

    def test_empty_catalog_empty_report(self):
        report = run_all([])
        assert report.results == [] and report.verified_all()

    def test_zero_seed_and_trials_are_honored(self, table1):
        entry = next(e for e in table1 if "g_{5,33}" in e.name)
        result = run_pipeline(entry, PipelineOptions(seed_override=0, trials_override=2))
        cert = next(c for c in result.certificates if c.kind == CertKind.SAMPLED_NO_SU3)
        assert cert.data["seed"] == 0
        assert cert.data["trials"] == 2

    def test_stub_reports_data_not_shipped(self, indecomposable):
        stub = next(e for e in indecomposable if e.stub)
        result = run_pipeline(stub)
        assert result.outcome == Outcome.DATA_NOT_SHIPPED


def all_recheck(verdicts) -> bool:
    """True when, in these `recheck_report` verdicts, every certificate
    rechecks and every stored outcome is the one its certificates support."""
    return all(all(row) and derived is None for row, derived in verdicts)


class TestRecheckDeterminism:
    def test_report_certificates_recheck_and_are_stable(self):
        entries = load_builtin("nonsolvable") + [
            by_name("table1", "g_{5,30}"),
            by_name("table1", "g_{5,35}"),
            by_name("table1", "g_{3,4}^{-1}+g_{3,1}"),
            by_name("indecomposable", "g_{6,55}"),
        ]
        options = PipelineOptions(trials_override=10)
        report = run_all(entries, options)
        assert report.verified_all()
        blob = json.dumps(report.to_json(include_timing=False), sort_keys=True)
        assert all_recheck(recheck_report(json.loads(blob), entries))
        # bit-identical re-serialization of the certificate content
        report2 = run_all(entries, options)
        blob2 = json.dumps(report2.to_json(include_timing=False), sort_keys=True)
        assert blob == blob2

    def test_gauge_certificate_rechecks_from_stored_data(self):
        entry = by_name("table1", "g_{3,4}^{-1}+g_{3,4}")
        result = run_pipeline(entry, PipelineOptions(trials_override=0))
        cert = next(c for c in result.certificates if c.kind == CertKind.GAUGE_NULL)
        rebuilt = Certificate.from_json(json.loads(json.dumps(cert.to_json())))
        assert recheck_certificate(entry, rebuilt)

    def test_sampling_certificate_replays(self):
        entry = by_name("indecomposable", "g_{6,118}")
        result = run_pipeline(entry, PipelineOptions(trials_override=15))
        cert = next(c for c in result.certificates if c.kind == CertKind.SAMPLED_NO_SU3)
        assert recheck_certificate(entry, cert)


# sha256 of the trials-2 report over every built-in catalog, frozen from the
# code before discovery and recheck shared their verifiers; certificate
# content must not move without a stated reason.
FULL_REPORT_TRIALS2_SHA256 = "a3973bb1450cb26326486b265b8e9f53ecad1f8c29a2ed6906d2442146245ec4"


# Draw attempts of the four sampling certificates at 100 trials and seed
# 9876 (0 passes each), re-derived with the sampler that evaluated its
# forms with Polynomial.evaluate; the trials-2 digest makes too few draws
# on the t2_zero slice to pin that path.
SAMPLER_PIN_SEED = 9876
SAMPLER_ATTEMPTS_100_TRIALS = {
    "g_{5,33}^{-1,-1}+R": 225,
    "g_{6,101}^{a,b,-1-a,-1-b} [a != -1]": 197,
    "g_{6,115}^{-1,b,c,-c}": 222,
    "g_{6,118}^{0,b,-1}": 518,
}


@pytest.fixture(scope="module")
def full_report():
    """(entries, serialized report) of run_all over every built-in catalog."""
    entries = [e for name in BUILTIN_DATASETS for e in load_any(name)]
    report = run_all(entries, PipelineOptions(trials_override=2))
    return entries, json.loads(json.dumps(report.to_json(include_timing=False)))


def certificate_node(document, kind, algebra):
    return next(
        c for r in document["results"] for c in r["certificates"]
        if c["kind"] == kind and c["algebra"] == algebra
    )


G34_PAIR = "g_{3,4}^{-1}+g_{3,4}^{-1}"
# its gauge checks multiply multi-term numerators and determinant powers
# into products of thousands of terms that cancel; swapped numerators leave
# a nonzero residual in the target coefficients
G6101_GENERIC = "g_{6,101}^{a,b,-1-a,-1-b} [a != -1]"
G6101_A_MINUS_1 = "g_{6,101}^{a,b,-1-a,-1-b} [a = -1]"
GAUGE_ALGEBRAS = {"g34": G34_PAIR, "g6101-generic": G6101_GENERIC, "g6101-a=-1": G6101_A_MINUS_1}


def swap_first_two(data):
    """The solved gauge with the numerators of its first two parameters swapped."""
    (s1, n1), (s2, n2), *rest = data["solved_gauge"].items()
    return {s1: n2, s2: n1, **dict(rest)}


def rescaled(factor):
    """Multiply the stored solved gauge and branch condition by `factor`,
    rendered as the verifier renders them: the gauge s_k = N_k / det is
    the same, but det, the condition the certificate holds under, is not."""

    def tamper(data):
        data["solved_gauge"] = {sv: str(P(n) * P(factor)) for sv, n in data["solved_gauge"].items()}
        data["branch_condition"] = str(P(data["branch_condition"]) * P(factor))

    return tamper


def entry_of(entries, algebra):
    """The entry of a certificate's algebra, the entry or one of its branches."""
    return next(e for e in entries if algebra == e.name or algebra.startswith(f"{e.name} ["))


class TestFullReport:
    def test_every_certificate_rechecks(self, full_report):
        entries, document = full_report
        verdicts = recheck_report(document, entries)
        assert sum(len(row) for row, _ in verdicts) == 48
        assert [
            (r["name"], verdict) for r, verdict in zip(document["results"], verdicts)
            if not all_recheck([verdict])
        ] == []
        # the branch certificate whose family needs the branch substitution
        assert certificate_node(document, "gauge_null", "g_{6,101}^{a,b,-1-a,-1-b} [a = -1]")["verified"]

    def test_frozen_digest(self, full_report):
        _, document = full_report
        blob = json.dumps(document, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == FULL_REPORT_TRIALS2_SHA256

    @pytest.mark.parametrize(
        "algebra, field, tamper",
        [
            (G34_PAIR, "branch_condition", lambda data: "0"),
            (G34_PAIR, "targets", lambda data: [[1, 2, 6]] + data["targets"][1:]),
            (G34_PAIR, "k_column", lambda data: {**data["k_column"], "3": "0"}),
            (G34_PAIR, "solved_gauge", lambda data: {sv: "0" for sv in data["solved_gauge"]}),
            (G6101_GENERIC, "solved_gauge", swap_first_two),
        ],
        ids=[
            "branch_condition-<lambda>", "targets-<lambda>", "k_column-<lambda>",
            "solved_gauge-<lambda>", "g_{6,101}-swapped-solved_gauge",
        ],
    )
    def test_tampered_gauge_certificate_fails(self, full_report, algebra, field, tamper):
        entries, document = full_report
        entry = entry_of(entries, algebra)
        node = json.loads(json.dumps(certificate_node(document, "gauge_null", algebra)))
        assert recheck_certificate(entry, Certificate.from_json(node))
        node["data"][field] = tamper(node["data"])
        assert not recheck_certificate(entry, Certificate.from_json(node))

    def test_g6101_pair_check_makes_no_polynomial_products(self, full_report, monkeypatch):
        # F*omega(e_i, e_j) = 0 of the g_{6,101} gauge is the largest Cramer
        # substitution: one packed pass, with no Polynomial product in it
        entries, document = full_report
        entry = next(e for e in entries if G6101_GENERIC.startswith(f"{e.name} ["))
        node = certificate_node(document, "gauge_null", G6101_GENERIC)
        calls = []

        def recording(*args):
            calls.append(args)
            return substitute_cramer(*args)

        monkeypatch.setattr(certify, "substitute_cramer", recording)
        assert recheck_certificate(entry, Certificate.from_json(node))
        poly, svars, numerators, den = calls[-1]  # the pair check comes last
        assert [len(n.terms) for n in numerators] == [52, 28, 59, 59] and len(den.terms) == 21
        products = []
        mul = Polynomial.__mul__

        def counting_mul(self, other):
            products.append(other)
            return mul(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
        monkeypatch.setattr(Polynomial, "__rmul__", counting_mul)
        num, degree = substitute_cramer(poly, svars, numerators, den)
        assert num.is_zero() and degree == 2
        assert products == []

    @pytest.mark.parametrize(
        "kind, algebra, field, value",
        [
            ("null_direction", "g_{5,30}^{-4/3}+R", "indices", [4]),
            ("null_direction", "g_{5,30}^{-4/3}+R", "indices", [1, 2, 3, 4]),
            ("null_direction", "g_{5,30}^{-4/3}+R", "indices", []),
            ("null_direction", "g_{6,135}^{0,-4}", "indices", [-4]),
            ("sign_product", "g_{5,35}^{-2,0}+R", "pair", [1, 2]),
            ("sign_product", "g_{5,35}^{-2,0}+R", "pair", [1, 0]),
            ("sign_product", "g_{5,35}^{-2,0}+R", "pair", [1, 99]),
            ("sign_product", "g_{5,35}^{-2,0}+R", "witness", ["sum"]),
            ("sign_product", "g_{5,35}^{-2,0}+R", "witness", []),
            ("zero_diagonal", "q_1", "indices", [0]),
            ("zero_diagonal", "q_1", "indices", [1]),
            ("lambda_nonnegative", "g_{3,4}^{-1}+g_{3,1}", "witness", ["square", "alpha_14"]),
            ("lambda_nonnegative", "g_{6,70}^{4p,p}", "fam_subs", {"fam_p": "1"}),
            ("lambda_nonnegative", "g_{6,70}^{4p,p}", "fam_subs", {}),
            ("trace_obstruction", "g_{5,30}^{-4/3}+R", "constants", ["1"]),
            ("sampled_no_su3", "g_{5,33}^{-1,-1}+R", "slice", "t2_zero"),
            ("sign_product", "g_{5,35}^{-2,0}+R", "pair", [6, 1]),
            ("null_direction", "g_{5,30}^{-4/3}+R", "indices", [1, 2]),
            ("null_direction", "g_{5,30}^{-4/3}+R", "indices", [1, 2, 3, 3]),
            ("sampled_no_su3", "g_{5,33}^{-1,-1}+R", "slice", "t3"),
            ("sampled_no_su3", "g_{5,33}^{-1,-1}+R", "slice", ""),
            ("sampled_no_su3", "g_{5,33}^{-1,-1}+R", "reason", "another case analysis"),
            *(("gauge_null", algebra, None, rescaled(factor))
              for factor in ("2", "alpha_12") for algebra in GAUGE_ALGEBRAS.values()),
        ],
        ids=[
            "non-null-index", "extra-index", "no-index", "negative-index",
            "pair", "zero-index-pair", "pair-out-of-range", "witness", "empty-witness",
            "zero-diagonal-index-0", "zero-diagonal-index-1", "lambda-witness",
            "second-stage-lambda-fam-subs", "second-stage-lambda-no-fam-subs",
            "trace-constants", "slice-without-gauge-step", "reversed-pair", "index-subset",
            "repeated-index", "slice-t3", "slice-empty", "other-reason",
            *(f"{label}-gauge-times-{factor}"
              for factor in ("2", "alpha_12") for label in GAUGE_ALGEBRAS),
        ],
    )
    def test_tampered_certificate_fails(self, full_report, kind, algebra, field, value):
        # each stored field must be the one the plan step gives: the
        # reversed pair, the subset and the repeat of the null indices, and
        # any slice or reason once rechecked, since the verifiers read them
        # from the report.  A gauge certificate's solved gauge and branch
        # condition, rescaled together (field None: value changes the data),
        # once rechecked on two of the three, since the verifier read them
        # from the report too; the factor alpha_12 shrinks the domain
        # "branch condition != 0"
        entries, document = full_report
        entry = entry_of(entries, algebra)
        node = json.loads(json.dumps(certificate_node(document, kind, algebra)))
        assert recheck_certificate(entry, Certificate.from_json(node))
        if field is None:
            value(node["data"])
        else:
            node["data"][field] = value
        assert not recheck_certificate(entry, Certificate.from_json(node))

    def test_gauge_recheck_parses_no_report_text(self, full_report, monkeypatch):
        # recheck once parsed each stored numerator and determinant, 15
        # calls for the three shipped gauge certificates; the verifier now
        # solves its own system, and the catalog text was parsed at load
        entries, document = full_report
        original, calls = exprs.parse_polynomial, []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("g2cert") and getattr(module, "parse_polynomial", None) is original:
                monkeypatch.setattr(module, "parse_polynomial", counting)
        nodes = [
            (r["name"], c) for r in document["results"] for c in r["certificates"]
            if c["kind"] == "gauge_null"
        ]
        assert sorted(node["algebra"] for _, node in nodes) == sorted(GAUGE_ALGEBRAS.values())
        for name, node in nodes:
            entry = next(e for e in entries if e.name == name)
            assert recheck_certificate(entry, Certificate.from_json(node))
        assert calls == []

    def test_gauge_certificate_with_emptied_assumptions_fails(self, full_report):
        # recheck once compared no assumptions, so each of these read True;
        # it now rebuilds them on the context its plan step runs on
        entries, document = full_report
        nodes = [
            (r["name"], c) for r in document["results"] for c in r["certificates"]
            if c["kind"] == "gauge_null"
        ]
        assert len(nodes) == 3
        for name, node in nodes:
            entry = next(e for e in entries if e.name == name)
            node = json.loads(json.dumps(node))
            assert node["assumptions"] and recheck_certificate(entry, Certificate.from_json(node))
            node["assumptions"] = []
            assert not recheck_certificate(entry, Certificate.from_json(node)), node["algebra"]

    def test_unknown_branch_does_not_recheck(self, full_report):
        # the branch is resolved inside recheck's guarded region: a
        # certificate naming a branch the entry lacks is False, not an error
        entries, document = full_report
        entry = next(e for e in entries if e.name.startswith("g_{6,101}"))
        node = json.loads(json.dumps(certificate_node(document, "sampled_no_su3", G6101_GENERIC)))
        node["algebra"] = f"{entry.name} [bogus]"
        assert not recheck_certificate(entry, Certificate.from_json(node))
        with pytest.raises(G2CertError, match="no branch named 'bogus'"):
            StageContext(entry, "bogus").algebra

    @pytest.mark.parametrize(
        "malform",
        [
            lambda data: data["solved_gauge"].pop(next(iter(data["solved_gauge"]))),
            lambda data: data.pop("pair"),
            lambda data: data.update(fam_subs={"fam_x": "abc"}),
        ],
        ids=["solved_gauge_key", "pair", "fam_subs_value"],
    )
    def test_malformed_gauge_certificate_fails(self, full_report, malform):
        entries, document = full_report
        entry = next(e for e in entries if e.name == "g_{3,4}^{-1}+g_{3,4}^{-1}")
        node = json.loads(json.dumps(certificate_node(document, "gauge_null", entry.name)))
        malform(node["data"])
        assert not recheck_certificate(entry, Certificate.from_json(node))

    def test_negative_trials_do_not_recheck(self, full_report):
        entries, document = full_report
        name, node = next(
            (r["name"], c) for r in document["results"] for c in r["certificates"]
            if c["kind"] == "sampled_no_su3"
        )
        entry = next(e for e in entries if e.name == name)
        node = json.loads(json.dumps(node))
        assert recheck_certificate(entry, Certificate.from_json(node))
        node["data"].update(trials=-3, attempts=0)
        assert not recheck_certificate(entry, Certificate.from_json(node))

    @pytest.mark.parametrize("algebra, attempts", SAMPLER_ATTEMPTS_100_TRIALS.items())
    def test_sampler_draw_sequence_is_pinned(self, full_report, algebra, attempts):
        # a sampling certificate rechecks only when replaying its seed gives
        # the stored attempts and passes
        entries, document = full_report
        name, node = next(
            (r["name"], c) for r in document["results"] for c in r["certificates"]
            if c["kind"] == "sampled_no_su3" and c["algebra"] == algebra
        )
        entry = next(e for e in entries if e.name == name)
        node = json.loads(json.dumps(node))
        node["data"].update(trials=100, seed=SAMPLER_PIN_SEED, attempts=attempts, passes=0)
        assert recheck_certificate(entry, Certificate.from_json(node))
        node["data"]["attempts"] = attempts + 1
        assert not recheck_certificate(entry, Certificate.from_json(node))


def json_mutations(value):
    """(label, mutated value) of each mutation of a JSON value: an int
    moved by one, a string extended or emptied, a list cut, reversed,
    repeated (its first item appended, or "0" when it is empty) or
    emptied, a key dropped or added, a bool flipped and a null replaced by
    text."""
    if isinstance(value, bool):
        yield "flipped", not value
    elif isinstance(value, int):
        yield "plus-one", value + 1
        yield "minus-one", value - 1
    elif isinstance(value, str):
        yield "extended", value + " + 1"
        yield "emptied", ""
    elif value is None:
        yield "text", "t2_zero"
    elif isinstance(value, list):
        yield "cut", value[:-1]
        yield "reversed", value[::-1]
        yield "repeated", value + (value[:1] or ["0"])
        yield "emptied", []
    else:
        for key in value:
            yield f"dropped {key}", {k: v for k, v in value.items() if k != key}
        yield "added", {**value, "extra": "0"}


def json_paths(value, path=()):
    """(path, value) of every value inside a JSON value, itself excepted."""
    if isinstance(value, dict):
        children = value.items()
    else:
        children = enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield path + (key,), child
        yield from json_paths(child, path + (key,))


def with_value(node, path, value):
    """A copy of the JSON `node` with `value` at `path`."""
    node = json.loads(json.dumps(node))
    owner = node
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return node


# The fields whose mutations may still recheck: the options a run sets
# (--samples, --seed).  Every other field is the one the plan gives.
SWEEP_ALLOWED = {("sampled_no_su3", ("data", "seed")), ("sampled_no_su3", ("data", "trials"))}


def test_mutation_sweep_rechecks_only_the_allowed_fields(full_report):
    # every field of every certificate kind: each mutation of the field
    # itself on one certificate drawn from the seed, and one more anywhere
    # inside it; a mutation that leaves the JSON unchanged is skipped
    entries, document = full_report
    by_name = {e.name: e for e in entries}
    rng = random.Random(26)
    nodes = {}
    for result in document["results"]:
        for node in result["certificates"]:
            nodes.setdefault(node["kind"], []).append((result["name"], node))
    assert set(nodes) == {kind.value for kind in CertKind}
    survivors, tried = [], 0
    for kind, found in sorted(nodes.items()):
        fields = {}
        for name, node in found:
            for path, value in json_paths(node):
                field = path[:2] if path[0] == "data" else path[:1]
                for label, mutated in json_mutations(value):
                    if mutated != value:
                        fields.setdefault(field, {}).setdefault(name, []).append((path, label, mutated))
        assert {f for f in fields if len(f) == 1} == {("kind",), ("algebra",), ("assumptions",),
                                                       ("data",), ("verified",)}, kind
        assert {f[1] for f in fields if len(f) == 2} == {k for _, n in found for k in n["data"]}, kind
        for field, by_entry in sorted(fields.items()):
            if (kind, field) in SWEEP_ALLOWED:
                continue
            name = rng.choice(sorted(by_entry))
            chosen = [m for m in by_entry[name] if m[0] == field]
            chosen.append(rng.choice(by_entry[name]))
            node = next(node for n, node in found if n == name)
            for path, label, mutated in chosen:
                tried += 1
                forged = {"name": name, "certificates": [with_value(node, path, mutated)]}
                report = {"schema": document["schema"], "results": [forged]}
                [([ok], _)] = recheck_report(report, [by_name[name]])
                if ok:
                    survivors.append((kind, name, path, label))
    assert tried > 200
    assert survivors == []


GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"


@pytest.fixture(scope="module")
def shipped_entries():
    """The entries of the three built-in catalogs, loaded and validated."""
    return [e for name in BUILTIN_DATASETS for e in load_any(name)]


@pytest.fixture(scope="module")
def shipped_run(shipped_entries):
    """(serialized report, call counts) of run_all over the three
    built-in catalogs with the default options, the shipped trials and
    seeds.  After the catalogs load, pass-through wrappers count the calls
    of the integer k_matrix (the ring zero is the int 0), su3_passes_int,
    PairSampler.draw and catalog.expand_witness, and record each
    substitute_cramer call with its result under "substitute_cramer".
    Then the report is rechecked: "rechecks" holds the verdicts and
    "expand_witness_recheck" the expand_witness calls of the recheck."""
    keys = ("k_matrix_int", "su3_passes_int", "draw", "expand_witness", "expand_witness_recheck")
    counts = dict.fromkeys(keys, 0)
    counts["substitute_cramer"] = cramer_calls = []

    def recording(*args):
        result = substitute_cramer(*args)
        cramer_calls.append((args, result))
        return result

    def counting(name, original, test=lambda *args: True):
        def wrapper(*args, **kwargs):
            if test(*args):
                counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        k_int = counting("k_matrix_int", hitchin.k_matrix, lambda psi, zero: type(zero) is int)
        for module in (hitchin, numeric):
            patch.setattr(module, "k_matrix", k_int)
        patch.setattr(numeric, "su3_passes_int", counting("su3_passes_int", numeric.su3_passes_int))
        patch.setattr(PairSampler, "draw", counting("draw", PairSampler.draw))
        patch.setattr(catalog, "expand_witness", counting("expand_witness", catalog.expand_witness))
        patch.setattr(certify, "substitute_cramer", recording)
        report = run_all(shipped_entries, PipelineOptions())
    document = json.loads(json.dumps(report.to_json(include_timing=False)))
    with pytest.MonkeyPatch.context() as patch:
        expand = counting("expand_witness_recheck", catalog.expand_witness)
        patch.setattr(catalog, "expand_witness", expand)
        counts["rechecks"] = recheck_report(document, shipped_entries)
    return document, counts


def sampling_nodes(document):
    return [
        c for r in document["results"] for c in r["certificates"] if c["kind"] == "sampled_no_su3"
    ]


class TestShippedRun:
    def test_digest_matches_the_benchmark_golden(self, shipped_run):
        # the certify-all digest that bench/golden.json freezes
        document, _ = shipped_run
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["certify-all"]["sha256"]
        blob = json.dumps(document, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == golden

    def test_sampler_builds_k_only_for_primitive_pairs(self, shipped_run):
        # every trial fails on omega ^ psi != 0, so no integer K is built
        document, counts = shipped_run
        nodes = sampling_nodes(document)
        assert len(nodes) == 4 and all(c["data"]["passes"] == 0 for c in nodes)
        assert sum(c["data"]["attempts"] for c in nodes) == counts["draw"] == 5316
        assert sum(c["data"]["trials"] for c in nodes) == counts["su3_passes_int"] == 2000
        assert counts["k_matrix_int"] == 0

    def test_pipeline_reads_the_parsed_witnesses(self, shipped_run):
        # validation expanded every shipped witness; neither run_all nor a
        # recheck of its report expands one again
        _, counts = shipped_run
        assert counts["expand_witness"] == 0
        assert sum(len(row) for row, _ in counts["rechecks"]) == 48
        assert all_recheck(counts["rechecks"])
        assert counts["expand_witness_recheck"] == 0

    def test_witness_certificates_recheck_only_with_their_shipped_tree(
        self, shipped_run, shipped_entries
    ):
        # the verifiers expand the shipped tree, and recheck compares the
        # stored one with it: a constant 0 is not a witness, twice the
        # shipped tree expands to twice the target, and the shipped tree
        # inside a sum of one, which expands to the target, once rechecked
        document, _ = shipped_run
        by_name = {e.name: e for e in shipped_entries}
        nodes = [
            (r["name"], c) for r in document["results"] for c in r["certificates"]
            if c["kind"] in ("lambda_nonnegative", "sign_product")
        ]
        assert len(nodes) == 13
        for name, node in nodes:
            entry, shipped = by_name[name], node["data"]["witness"]
            assert recheck_certificate(entry, Certificate.from_json(node))
            for tampered in (["const", "0"], ["product", ["const", "2"], shipped], ["sum", shipped]):
                forged = json.loads(json.dumps(node))
                forged["data"]["witness"] = tampered
                assert not recheck_certificate(entry, Certificate.from_json(forged)), name

    def test_cramer_substitutions_match_the_oracle(self, shipped_run):
        # every gauge identity of the shipped run, term for term
        _, counts = shipped_run
        calls = counts["substitute_cramer"]
        assert len(calls) == 45
        for args, (num, degree) in calls:
            expected, expected_degree = oracle_substitute_cramer(*args)
            assert degree == expected_degree
            assert num.terms == expected.terms and str(num) == str(expected)


@pytest.mark.parametrize(
    "kind, algebra",
    [("lambda_nonnegative", "g_{3,4}^{-1}+g_{3,1}"), ("sign_product", "g_{5,35}^{-2,0}+R")],
)
def test_tampered_witness_fails_recheck(kind, algebra):
    # an in-memory certificate stores the catalog's witness object; a stored
    # tree other than the shipped one must not recheck
    (entry,) = [e for e in load_any("all") if e.name == algebra]
    result = run_pipeline(entry, PipelineOptions(trials_override=0))
    (cert,) = [c for c in result.certificates if c.kind.value == kind]
    assert recheck_certificate(entry, cert)
    tampered = ["sum", cert.data["witness"], ["const", "1"]]
    forged = Certificate(
        cert.kind, cert.algebra, cert.assumptions, {**cert.data, "witness": tampered}, True
    )
    assert not recheck_certificate(entry, forged)
    assert recheck_certificate(entry, cert)


def test_a_prose_sample_step_without_a_reason_stores_the_reason_it_notes():
    # the certificate once stored "" while the note cited the source
    document = json.loads(builtin_text("table1"))
    node = next(e for e in document["entries"] if e["name"].startswith("g_{5,33}"))
    (step,) = node["plan"]
    del step["reason"]
    (entry,) = load_catalog_text(json.dumps({"schema": document["schema"], "entries": [node]}))
    result = run_pipeline(entry, PipelineOptions(trials_override=1))
    (cert,) = result.certificates
    assert cert.data["reason"] == "case analysis cited from the source"
    assert f"{entry.name}: case analysis cited from the source; 1 exact samples, 0 SU(3) passes" in (
        result.notes
    )


def g530_with_su_expected(**fields):
    """The g_{5,30} entry alone, its su_expected fields replaced."""
    return changed_entry("table1", "g_{5,30}", lambda node: node["su_expected"].update(fields))


def test_su_expected_is_compared_after_parsing():
    # unreduced, reordered and rewritten text parses to the shipped values
    entry = g530_with_su_expected(
        subs={"a_8": "0", "a_5": "2*0", "a_1": "a_1 - a_1"}, constants=["2/6", "-4/6"]
    )
    assert run_pipeline(entry, PipelineOptions(trials_override=0)).ok()


@pytest.mark.parametrize(
    "fields",
    [{"subs": {"a_1": "a_5", "a_5": "0", "a_8": "0"}}, {"family": ["fam_p"]},
     {"constants": ["-2/3"]}],
    ids=["subs", "family", "constants"],
)
def test_su_expected_drift_stops_the_pipeline(fields):
    entry = g530_with_su_expected(**fields)
    with pytest.raises(G2CertError, match="drifted from su_expected"):
        run_pipeline(entry, PipelineOptions(trials_override=0))


def test_gauge_family_carries_the_branch_values():
    # fam_a*fam_b*s_1 equals -fam_b*s_1 at a = -1: validation accepts it, so
    # discovery and recheck must prove the same branch-substituted S
    document = json.loads(builtin_text("indecomposable"))
    node = next(e for e in document["entries"] if e["name"].startswith("g_{6,101}"))
    branch = next(s for s in node["plan"] if s.get("name") == "a = -1")
    (step,) = branch["steps"]
    assert step["s_matrix"][0][5] == "-fam_b*s_1"
    step["s_matrix"][0][5] = "fam_a*fam_b*s_1"
    (entry,) = load_catalog_text(json.dumps({"schema": document["schema"], "entries": [node]}))
    report = run_all([entry], PipelineOptions(trials_override=2))
    assert report.verified_all()
    document = json.loads(json.dumps(report.to_json(include_timing=False)))
    gauge = certificate_node(document, "gauge_null", f"{entry.name} [a = -1]")
    assert gauge["data"]["s_matrix"][0][5] == "-fam_b*s_1"
    assert recheck_report(document, [entry]) == [
        ([True] * len(report.results[0].certificates), None)
    ]


class TestEachFactProvedOnce:
    @staticmethod
    def record_calls(monkeypatch, owner, name, calls, solving):
        """Wrap `name` of module `owner` wherever the package binds it, so
        each call appends (name, whether solve_derivations is running)."""
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append((name, bool(solving)))
            if name == "solve_derivations":
                solving.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                if name == "solve_derivations":
                    solving.pop()

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("g2cert") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)

    def test_after_load_only_solved_families_are_leibniz_checked(self, monkeypatch):
        # catalog load proves every shipped family and gauge family and
        # each nilradical; run_all and recheck read them
        entries = load_any("all")
        calls, solving = [], []
        for owner, name in (
            (derivations, "verify_derivation"),
            (derivations, "solve_derivations"),
            (lie, "verify_nilradical"),
        ):
            self.record_calls(monkeypatch, owner, name, calls, solving)
        report = run_all(entries, PipelineOptions(trials_override=2))
        in_run_all = list(calls)
        calls.clear()
        verdicts = recheck_report(json.loads(json.dumps(report.to_json())), entries)
        assert sum(len(row) for row, _ in verdicts) == 48 and all_recheck(verdicts)
        for phase in (in_run_all, calls):
            solves = phase.count(("solve_derivations", False))
            assert solves > 0
            assert ("verify_derivation", False) not in phase
            assert phase.count(("verify_derivation", True)) == solves
            assert not any(name == "verify_nilradical" for name, _ in phase)

    def test_contexts_on_one_branch_share_its_families(self):
        entry = by_name("indecomposable", "g_{6,101}")
        for name in entry.branch_names():
            first, second = StageContext(entry, name), StageContext(entry, name)
            assert first.shipped_family is second.shipped_family is entry.build_family(name)
            assert first.gauge_system.s_family is second.gauge_system.s_family
            assert first.gauge_system.s_family is entry.build_gauge_family(name)


def test_every_kind_has_one_verifier():
    assert set(VERIFIERS) == set(CertKind)


class TestReportRendering:
    def test_markdown_contains_outcomes(self):
        entries = load_builtin("nonsolvable")
        report = run_all(entries)
        text = report.to_markdown()
        assert "q_4" in text and "lattice-out-of-scope" in text
        assert "zero_diagonal" in text
