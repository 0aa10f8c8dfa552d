"""Command line interface."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import g2cert
from oracles import save_catalog
from g2cert import catalog as cat
from g2cert.catalog import AlgebraEntry, load_builtin, load_catalog_text
from g2cert.certify import (
    MAX_TRIALS,
    Certificate,
    StageContext,
    certify_null_direction,
    recheck_certificate,
)
from g2cert.cli import main
from g2cert.errors import ValidationFailure
from g2cert.poly import Polynomial

# 100000 nested JSON arrays, deeper than the JSON decoder recurses
NESTED_ARRAYS = "[" * 100000 + "]" * 100000


def _deep(text):
    """`text` inside 300 nested parentheses."""
    return "(" * 300 + text + ")" * 300


# A power that took 10 s to expand before the degree of a power was bounded
# (the 40th power took 0.6 s).
BIG_POWER = "(alpha_14 + alpha_15 + alpha_24 + alpha_25)^60"
# The same polynomial written as a product of 60 factors.
BIG_PRODUCT = "*".join(["(alpha_14 + alpha_15 + alpha_24 + alpha_25)"] * 60)


def _nested_witness(depth):
    """A witness tree of `depth` sums around a square."""
    tree = ["square", "alpha_14"]
    for _ in range(depth):
        tree = ["sum", tree]
    return tree


def test_validate_builtin(capsys):
    assert main(["validate", "nonsolvable"]) == 0
    out = capsys.readouterr().out
    assert "4 entries validated" in out


def test_lambda_command(capsys):
    assert main(["lambda", "g_{5,23}", "--witness"]) == 0
    out = capsys.readouterr().out
    assert "16*alpha_14^2*alpha_16^2" in out
    assert "witness verifies" in out


def test_lambda_witness_after_strong_unimodularity(capsys):
    # the g_{6,70} witness holds where the pipeline checks it, after fam_p = 0
    assert main(["lambda", "g_{6,70}", "--witness"]) == 0
    out = capsys.readouterr().out
    assert "after the strong-unimodularity substitution fam_p = 0:" in out
    assert "witness verifies" in out


def test_lambda_zero_entry(capsys):
    assert main(["lambda", "g_{5,14}"]) == 0
    assert "identically zero" in capsys.readouterr().out


def test_derivations_command(capsys):
    assert main(["derivations", "g_{5,30}"]) == 0
    out = capsys.readouterr().out
    assert "dimension 8" in out


def test_derivations_requires_params_for_families(capsys):
    assert main(["derivations", "g_{6,70}"]) == 2
    assert capsys.readouterr().err.startswith("error: g_{6,70}")
    assert main(["derivations", "g_{6,70}", "--params", "p=0"]) == 0
    assert "dimension 9" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["derivations", "g_{4,5}", "--params", "p=0,zz=3"],
        ["derivations", "g_{5,30}", "--params", "p=0"],
    ],
    ids=["extra-name", "no-family"],
)
def test_derivations_rejects_unknown_params(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "has no family parameters" in captured.err


def test_su3_command(capsys):
    assert main(["su3", "g_{5,30}", "--samples", "0"]) == 0
    out = capsys.readouterr().out
    assert "null_direction" in out


def test_su3_gauge_details(capsys):
    assert main(["su3", "g_{3,4}^{-1}+g_{3,4}^{-1}", "--gauge", "--samples", "0"]) == 0
    out = capsys.readouterr().out
    assert "branch condition" in out


SINGLE_ENTRY_COMMANDS = [
    (["lambda", "g_{5,14}"], "g_{5,14}^{0}+R"),
    (["derivations", "g_{5,14}"], "g_{5,14}^{0}+R"),
    (["su3", "g_{5,30}", "--samples", "0"], "g_{5,30}^{-4/3}+R"),
]


@pytest.mark.parametrize(
    "argv, name", SINGLE_ENTRY_COMMANDS, ids=[argv[0] for argv, _ in SINGLE_ENTRY_COMMANDS]
)
def test_single_entry_command_validates_only_its_entry(argv, name, monkeypatch, capsys):
    validated = []
    validate_entry = AlgebraEntry.validate_entry

    def record(entry):
        validated.append(entry.name)
        return validate_entry(entry)

    monkeypatch.setattr(AlgebraEntry, "validate_entry", record)
    assert main(argv) == 0
    assert validated == [name]


# Parses, but fails validation: (e12, 0) is not unimodular.
BROKEN = {"name": "broken_{2}", "dim": 2, "structure": "(e12, 0)"}


@pytest.fixture
def nonsolvable_with_broken_entry(monkeypatch):
    """The built-in catalogs, with BROKEN appended to nonsolvable."""
    read = cat.builtin_text

    def builtin_text(name):
        if name != "nonsolvable":
            return read(name)
        document = json.loads(read(name))
        document["entries"].append(BROKEN)
        return json.dumps(document)

    monkeypatch.setattr(cat, "builtin_text", builtin_text)


@pytest.mark.parametrize(
    "argv",
    [["lambda", "broken_{2}"], ["derivations", "broken"], ["su3", "broken_{2}"]],
    ids=["lambda", "derivations", "su3"],
)
def test_matched_entry_that_fails_validation_is_an_error(
    argv, nonsolvable_with_broken_entry, capsys
):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: catalog entry 'broken_{2}': ")


def test_unmatched_broken_entry_blocks_only_whole_catalog_commands(
    nonsolvable_with_broken_entry, capsys
):
    for argv, _ in SINGLE_ENTRY_COMMANDS:
        assert main(argv) == 0
    capsys.readouterr()
    for catalog in ("nonsolvable", "all"):
        assert main(["validate", catalog]) == 2
        assert capsys.readouterr().err.startswith("error: catalog entry 'broken_{2}': ")


def test_unknown_algebra(capsys):
    assert main(["lambda", "not-an-algebra"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no catalog entry matches 'not-an-algebra'")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lambda", "g_{5,"], "error: ambiguous name 'g_{5,'"),
        (["lambda", "q_1"], "error: q_1 has dimension 7; lambda lives on dimension 6"),
        (["su3", "q_1"], "error: q_1 has dimension 7; su3 runs on dimension 6"),
    ],
    ids=["ambiguous", "lambda-dimension", "su3-dimension"],
)
def test_ambiguous_name_or_wrong_dimension_is_an_error(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)


def test_run_all_writes_reports(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    out_md = tmp_path / "report.md"
    code = main(
        [
            "run-all",
            "nonsolvable",
            "--out",
            str(out_json),
            "--md",
            str(out_md),
        ]
    )
    assert code == 0
    document = json.loads(out_json.read_text())
    assert document["schema"] == "g2cert-report/1"
    assert document["verified_all"] is True
    assert "lattice-out-of-scope" in out_md.read_text()


def test_run_all_zero_samples_skips_sampling(tmp_path):
    entry = next(e for e in load_builtin("table1") if "g_{5,33}" in e.name)
    catalog = tmp_path / "one.json"
    save_catalog([entry], catalog)
    out_json = tmp_path / "report.json"
    assert main(["run-all", str(catalog), "--samples", "0", "--out", str(out_json)]) == 0
    (result,) = json.loads(out_json.read_text())["results"]
    assert all(c["kind"] != "sampled_no_su3" for c in result["certificates"])
    assert any("sampling skipped" in note for note in result["notes"])


@pytest.mark.parametrize(
    "argv",
    [
        ["su3", "g_{5,33}", "--samples", "-1"],
        ["run-all", "table1", "--samples", "-1"],
        ["su3", "g_{5,33}", "--seed", "-1"],
        ["run-all", "table1", "--seed", "-1"],
    ],
    ids=["su3", "run-all", "su3-seed", "run-all-seed"],
)
def test_negative_samples_is_a_usage_error(argv, capsys):
    # a negative seed would draw the samples of its absolute value
    flag = argv[-2]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{flag}: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["validate", "nonsolvable"], "4 entries validated"),
        (["lambda", "g_{5,14}"], "identically zero"),
    ],
    ids=["validate", "lambda"],
)
def test_console_script_entry_point(argv, expected):
    # the child imports the same g2cert as this process, installed or not
    src = str(Path(g2cert.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "g2cert.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert expected in proc.stdout


def test_recheck_command(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["run-all", "nonsolvable", "--out", str(report)]) == 0
    capsys.readouterr()
    assert main(["recheck", str(report), "--catalog", "nonsolvable"]) == 0
    assert "3 of 3 certificates recheck" in capsys.readouterr().out

    document = json.loads(report.read_text())
    q1 = next(r for r in document["results"] if r["name"] == "q_1")
    q1["certificates"][0]["data"]["indices"] = [1]
    report.write_text(json.dumps(document))
    assert main(["recheck", str(report), "--catalog", "nonsolvable"]) == 1
    out = capsys.readouterr().out
    assert "FAILED q_1: zero_diagonal" in out
    assert "2 of 3 certificates recheck" in out


def test_recheck_reports_malformed_certificate(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["run-all", "nonsolvable", "--out", str(report)]) == 0
    document = json.loads(report.read_text())
    q1 = next(r for r in document["results"] if r["name"] == "q_1")
    del q1["certificates"][0]["data"]["indices"]
    q2 = next(r for r in document["results"] if r["name"].startswith("q_2"))
    del q2["certificates"][0]["algebra"]
    q3 = next(r for r in document["results"] if r["name"].startswith("q_3"))
    q3["certificates"][0]["kind"] = "no_such_kind"
    report.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["recheck", str(report), "--catalog", "nonsolvable"]) == 1
    out = capsys.readouterr().out
    assert "FAILED q_1: zero_diagonal" in out
    assert "FAILED None: zero_diagonal" in out
    assert ": no_such_kind" in out
    assert "0 of 3 certificates recheck" in out


@pytest.mark.parametrize(
    "field, value",
    [("data", 5), ("data", [["indices", [5, 6, 7]]]), ("assumptions", 5), ("verified", 1)],
    ids=["data-int", "data-pairs", "assumptions-int", "verified-int"],
)
def test_recheck_certificate_field_of_wrong_type_fails(field, value, tmp_path, capsys):
    # a field of the wrong JSON type is a certificate that does not recheck,
    # not a crash, and 1 is not the verdict true
    report = tmp_path / "report.json"
    assert main(["run-all", "nonsolvable", "--out", str(report)]) == 0
    document = json.loads(report.read_text())
    q1 = next(r for r in document["results"] if r["name"] == "q_1")
    q1["certificates"][0][field] = value
    report.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["recheck", str(report), "--catalog", "nonsolvable"]) == 1
    out = capsys.readouterr().out
    assert "FAILED q_1: zero_diagonal" in out
    assert "2 of 3 certificates recheck" in out


@pytest.mark.parametrize(
    "text",
    [
        '{"schema": "g2cert-report/1"}',
        '{"schema": "g2cert-report/1", "results": [{"certificates": []}]}',
        '{"schema": "g2cert-report/1", "results": [{"name": "q_1", "certificates": [1]}]}',
        '{"schema": "g2cert-report/0", "results": []}',
        "[]",
        "not json",
        NESTED_ARRAYS,
    ],
    ids=["no-results", "no-name", "certificate-not-object", "other-schema", "list", "not-json",
         "nested-arrays"],
)
def test_recheck_malformed_report_is_an_error(text, tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(text)
    assert main(["recheck", str(report), "--catalog", "nonsolvable"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.fixture(scope="module")
def all_report(tmp_path_factory):
    """The `run-all all --samples 2` report, as a document."""
    path = tmp_path_factory.mktemp("all") / "report.json"
    assert main(["run-all", "all", "--samples", "2", "--out", str(path)]) == 0
    return json.loads(path.read_text())


def _result(document, prefix):
    return next(r for r in document["results"] if r["name"].startswith(prefix))


def _drop_certificates(prefix, algebra_suffix=""):
    """A change that deletes, from the result whose name starts with
    `prefix`, the certificates whose algebra ends with `algebra_suffix`."""
    def change(document):
        result = _result(document, prefix)
        result["certificates"] = [
            c for c in result["certificates"] if not c["algebra"].endswith(algebra_suffix)
        ]
    return change


@pytest.mark.parametrize(
    "prefix, change, outcome, derived",
    [
        ("g_{6,101}", _drop_certificates("g_{6,101}", "[a != -1]"), "obstructed",
         "cited-prose-sampled"),
        ("g_{5,33}", _drop_certificates("g_{5,33}"), "obstructed", "cited-prose-sampled"),
        ("g_{5,30}", lambda document: None, "obstructed-modulo-cited-prose", "obstructed"),
        ("q_4", lambda document: None, "proved", "lattice-out-of-scope"),
        ("g_{6,55}", lambda document: None, None, "no-strongly-unimodular-extension"),
    ],
    ids=["g6101-branch-deleted", "g533-sample-deleted", "g530-outcome-only", "unknown-outcome",
         "missing-outcome"],
)
def test_recheck_fails_an_outcome_its_certificates_do_not_support(
    prefix, change, outcome, derived, all_report, tmp_path, capsys
):
    # before recheck derived outcomes, each of these forged reports read
    # "N of N certificates recheck" and exited 0: every certificate left in
    # it still rechecks
    document = json.loads(json.dumps(all_report))
    change(document)
    result = _result(document, prefix)
    if outcome is None:
        del result["outcome"]
    else:
        result["outcome"] = outcome
    report = tmp_path / "forged.json"
    report.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["recheck", str(report)]) == 1
    out = capsys.readouterr().out
    assert out.count("FAILED") == 1
    assert (
        f"FAILED {result['name']}: outcome {outcome} is not supported by its certificates "
        f"({derived})" in out
    )
    total = sum(len(r["certificates"]) for r in document["results"])
    assert f"{total} of {total} certificates recheck" in out


def test_recheck_checks_each_result_of_a_repeated_name(all_report, tmp_path, capsys):
    # verdicts were once keyed by name, so a tampered result followed by an
    # untampered copy of it read as rechecked, and recheck exited 0
    document = json.loads(json.dumps(all_report))
    results = document["results"]
    index = next(i for i, r in enumerate(results) if r["name"] == "q_1")
    forged = json.loads(json.dumps(results[index]))
    forged["certificates"][0]["data"]["indices"] = [1]
    results.insert(index, forged)
    report = tmp_path / "repeated.json"
    report.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["recheck", str(report)]) == 1
    out = capsys.readouterr().out
    assert "FAILED q_1: zero_diagonal" in out
    assert "FAILED q_1: outcome obstructed is not supported by its certificates (inconclusive)" in out
    total = sum(len(r["certificates"]) for r in results)
    assert f"{total - 1} of {total} certificates recheck" in out


def test_recheck_fails_a_certificate_proved_off_its_plan_context(all_report, tmp_path, capsys):
    # recheck once built the context from the substitutions a certificate
    # stores: this null direction, proved with every derivation parameter
    # set to 0 (D = 0) on a plan with the step added, read "49 of 49
    # certificates recheck", exit 0, and lifted g_{5,33} to
    # obstructed-modulo-cited-prose
    document = json.loads(cat.builtin_text("table1"))
    node = next(e for e in document["entries"] if e["name"].startswith("g_{5,33}"))
    node["plan"].append({"kind": "null_direction", "indices": [1, 2, 3, 6]})
    (entry,) = load_catalog_text(json.dumps({"schema": cat.SCHEMA, "entries": [node]}))
    params = StageContext(entry).shipped_family.params
    context = StageContext(entry, None, {p: Polynomial.zero() for p in params})
    forged = certify_null_direction(context)
    assert forged.verified and forged.data["derivation_subs"]
    document = json.loads(json.dumps(all_report))
    result = _result(document, "g_{5,33}")
    result["certificates"].append(json.loads(json.dumps(forged.to_json())))
    result["outcome"] = "obstructed-modulo-cited-prose"
    report = tmp_path / "forged.json"
    report.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["recheck", str(report)]) == 1
    out = capsys.readouterr().out
    assert out.count("FAILED") == 2
    assert f"FAILED {entry.name}: null_direction" in out
    assert (
        f"FAILED {entry.name}: outcome obstructed-modulo-cited-prose is not supported by its "
        "certificates (cited-prose-sampled)" in out
    )
    total = sum(len(r["certificates"]) for r in document["results"])
    assert f"{total - 1} of {total} certificates recheck" in out


def test_recheck_a_deeply_nested_stored_expression_fails_its_certificate(
    all_report, tmp_path, capsys
):
    # the stored determinant once ended recheck in a RecursionError traceback
    document = json.loads(json.dumps(all_report))
    name = "g_{3,4}^{-1}+g_{3,4}^{-1}"
    (cert,) = [c for c in _result(document, name)["certificates"] if c["kind"] == "gauge_null"]
    cert["data"]["branch_condition"] = _deep("1")
    report = tmp_path / "deep.json"
    report.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["recheck", str(report)]) == 1
    assert f"FAILED {name}: gauge_null" in capsys.readouterr().out


def _recheck_fails_quickly(document, name, cert, tmp_path, capsys):
    """The forged certificate `cert` of entry `name` rechecks False within
    0.5 s, and `g2cert recheck` of the forged report names it."""
    (entry,) = [e for dataset in ("table1", "indecomposable") for e in load_builtin(dataset)
                if e.name == name]
    start = time.perf_counter()
    assert not recheck_certificate(entry, Certificate.from_json(cert))
    assert time.perf_counter() - start < 0.5
    report = tmp_path / "forged.json"
    report.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["recheck", str(report)]) == 1
    assert f"FAILED {name}: {cert['kind']}" in capsys.readouterr().out


def test_recheck_a_stored_power_of_large_degree_fails_its_certificate_quickly(
    all_report, tmp_path, capsys
):
    # the stored determinant was once expanded, then substituted into
    document = json.loads(json.dumps(all_report))
    name = "g_{3,4}^{-1}+g_{3,4}^{-1}"
    (cert,) = [c for c in _result(document, name)["certificates"] if c["kind"] == "gauge_null"]
    cert["data"]["branch_condition"] = BIG_POWER
    _recheck_fails_quickly(document, name, cert, tmp_path, capsys)


def test_recheck_a_stored_product_of_large_degree_fails_its_certificate_quickly(
    all_report, tmp_path, capsys
):
    # each solved gauge numerator is parsed, then substituted
    document = json.loads(json.dumps(all_report))
    name = "g_{3,4}^{-1}+g_{3,4}^{-1}"
    (cert,) = [c for c in _result(document, name)["certificates"] if c["kind"] == "gauge_null"]
    gauge = cert["data"]["solved_gauge"]
    gauge[min(gauge)] = BIG_PRODUCT
    _recheck_fails_quickly(document, name, cert, tmp_path, capsys)


def test_recheck_a_stored_trials_above_the_bound_fails_quickly(all_report, tmp_path, capsys):
    # recheck once ran every trial that a sampling certificate asked for
    document = json.loads(json.dumps(all_report))
    result = _result(document, "g_{5,33}")
    (cert,) = [c for c in result["certificates"] if c["kind"] == "sampled_no_su3"]
    cert["data"]["trials"] = 10**9
    _recheck_fails_quickly(document, result["name"], cert, tmp_path, capsys)


@pytest.mark.parametrize("command", [["su3", "g_{5,33}"], ["run-all", "table1"]], ids=["su3", "run-all"])
def test_samples_above_max_trials_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--samples", str(MAX_TRIALS + 1)])
    assert exc.value.code == 2
    assert f"--samples: must be <= {MAX_TRIALS}" in capsys.readouterr().err


def test_validate_a_deeply_nested_structure_slot_is_an_error(tmp_path, capsys):
    # 300 nested parentheses once ended validate in a RecursionError traceback
    assert_validate_rejects_entry(
        "table1", "g_{5,30}",
        lambda node: node.update(structure=node["structure"].replace("-e45", _deep("-e45"))),
        tmp_path, capsys, match="at most 50 nested parentheses",
    )


@pytest.mark.parametrize("samples", ["0", "2"])
def test_recheck_of_a_run_all_report_exits_0(samples, tmp_path, capsys):
    # with --samples 0 no sampling certificate is stored, and the outcomes
    # that cite prose still hold: a prose_sample step counts from the plan
    report = tmp_path / "report.json"
    assert main(["run-all", "all", "--samples", samples, "--out", str(report)]) == 0
    capsys.readouterr()
    assert main(["recheck", str(report)]) == 0
    out = capsys.readouterr().out
    assert "FAILED" not in out
    expected = {"0": 44, "2": 48}[samples]
    assert f"{expected} of {expected} certificates recheck" in out


@pytest.mark.parametrize("params", ["l=foo", "l", "l=1/0", "=1"])
def test_malformed_params_is_a_usage_error(params, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["derivations", "g_{4,5}", "--params", params])
    assert exc.value.code == 2
    assert "--params: expected k=v with a rational v" in capsys.readouterr().err


@pytest.mark.parametrize("params", ["p=0,p=1", "p=0,fam_p=1", "fam_p=1,p=1"])
def test_a_repeated_family_parameter_is_a_usage_error(params, capsys):
    # the last value once won silently, and the command exited 0
    with pytest.raises(SystemExit) as exc:
        main(["derivations", "g_{4,5}", "--params", params])
    assert exc.value.code == 2
    assert "--params: family parameter fam_p is given more than once" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["recheck", "validate", "run-all"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_path_is_an_error(command, kind, tmp_path, capsys):
    path = tmp_path / "missing.json" if kind == "missing" else tmp_path
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"schema": "g2cert-catalog/1", "entries": [{}]}',
        '{"schema": "g2cert-catalog/1", "entries": 5}',
        '{"schema": "g2cert-catalog/1", "entries": [{"name": "x", "dim": 3, '
        '"structure": "(0, 0, 0)", "plan": [5]}]}',
        '{"schema": "g2cert-catalog/1", "entries": [{"name": "x", "dim": 3, '
        '"structure": "(0, 0, 0)", "witnesses": {"w": 5}}]}',
        NESTED_ARRAYS,
    ],
    ids=["not-json", "list", "entry-without-fields", "entries-not-list", "step-not-object",
         "witness-not-tree", "nested-arrays"],
)
def test_validate_malformed_catalog_is_an_error(text, tmp_path, capsys):
    # the nested arrays once ended both commands in a RecursionError traceback
    catalog = tmp_path / "catalog.json"
    catalog.write_text(text)
    with pytest.raises(ValidationFailure):
        load_catalog_text(text)
    assert main(["validate", str(catalog)]) == 2
    assert capsys.readouterr().err.startswith("error: catalog entry ")
    report = tmp_path / "report.json"
    report.write_text('{"schema": "g2cert-report/1", "results": []}')
    assert main(["recheck", str(report), "--catalog", str(catalog)]) == 2
    assert capsys.readouterr().err.startswith("error: catalog entry ")


def assert_validate_rejects_entry(dataset, prefix, change, tmp_path, capsys, match=None):
    """Write the built-in entry of `dataset` whose name starts with `prefix`,
    after change(node), as a catalog of its own; loading it must raise
    ValidationFailure and `g2cert validate` must exit 2 naming the entry, by
    its position when its name is not a string."""
    document = json.loads(cat.builtin_text(dataset))
    node = next(e for e in document["entries"] if e["name"].startswith(prefix))
    change(node)
    label = node["name"] if isinstance(node["name"], str) else "<entry 0>"
    text = json.dumps({"schema": document["schema"], "entries": [node]})
    catalog = tmp_path / "catalog.json"
    catalog.write_text(text)
    with pytest.raises(ValidationFailure, match=match):
        load_catalog_text(text)
    assert main(["validate", str(catalog)]) == 2
    assert capsys.readouterr().err.startswith(f"error: catalog entry '{label}'")


def _set_first_indices(value):
    return lambda plan: plan[0].update(indices=value)


@pytest.mark.parametrize(
    "change",
    [
        lambda plan: plan[0].pop("indices"),
        _set_first_indices([9]),
        _set_first_indices([0]),
        _set_first_indices("12"),
        _set_first_indices([]),
        lambda plan: plan.append({"kind": "sign_product", "pair": [1, 2], "witness": "w"}),
        lambda plan: plan.append({"kind": "prose_sample", "trials": "many"}),
        lambda plan: plan.append({"kind": "prose_sample", "slice": "t3"}),
        lambda plan: plan.append({"kind": "zero_diagonal", "indices": [1]}),
        lambda plan: plan.append({"kind": "no_such_kind"}),
        lambda plan: plan.append(
            {"kind": "branch", "name": "b", "steps": [{"kind": "branch", "name": "c"}]}
        ),
        lambda plan: plan.append({"kind": "prose_sample", "trails": 5}),
        lambda plan: plan.append({"kind": "null_direction", "indices": [1], "index": 2}),
        lambda plan: plan.append({"kind": "null_direction", "indices": [1, 2]}),
    ],
    ids=["no-indices", "index-9", "index-0", "indices-string", "no-index", "unshipped-witness",
         "trials-not-int", "unknown-slice", "kind-of-dimension-7", "unknown-kind", "nested-branch",
         "misspelt-trials", "null-direction-extra-key", "two-null-direction-steps"],
)
def test_validate_malformed_plan_step_is_an_error(change, tmp_path, capsys):
    # before plan steps were checked, `validate` accepted each of these; then
    # run-all crashed (KeyError, IndexError, TypeError), stopped at an
    # unknown or misplaced step kind, or, for the unknown slice, stored
    # "slice": "t3" in a certificate with no slice applied; a misspelt or
    # stray key was ignored, so "trails" ran the default 500 trials; each
    # verifier reads the one step of its kind, and a second was accepted
    assert_validate_rejects_entry(
        "table1", "g_{5,30}", lambda node: change(node["plan"]), tmp_path, capsys
    )


def _branches(node):
    return [s for s in node["plan"] if s.get("kind") == "branch"]


def _gauge_steps(node):
    return [t for b in _branches(node) for t in b["steps"] if t["kind"] == "gauge"]


def _gauge_step(index, **fields):
    return lambda node: _gauge_steps(node)[index].update(fields)


def _prose_sample(**fields):
    return lambda node: next(s for s in node["plan"] if s["kind"] == "prose_sample").update(fields)


G6101 = ("indecomposable", "g_{6,101}")


@pytest.mark.parametrize(
    "dataset, prefix, change, match",
    [
        (*G6101, lambda node: _branches(node)[0].update(atoms=[["lt", "fam_b"]]),
         "branch 'a = -1' atoms needs a list of"),
        (*G6101, _gauge_step(0, expect_k="3"), None),
        (*G6101, _gauge_step(0, expect_k={"0": "0"}), None),
        (*G6101, _gauge_step(1, expect_det_multiple_of="fam_a +"), None),
        ("table1", "g_{5,30}", lambda node: node.update(su_expected={"subs": "a_1"}),
         "su_expected needs a map"),
        ("indecomposable", "g_{6,70}",
         lambda node: node.update(su_expected={"subs": {"a_1": "0 +"}, "family": ["fam_p"]}),
         None),
        ("table1", "g_{5,33}", _prose_sample(slice="t2_zero"), None),
        ("indecomposable", "g_{6,70}",
         lambda node: node["su_expected"].update(families=node["su_expected"].pop("family")),
         r"su_expected needs .*unknown keys \['families'\]"),
        (*G6101, lambda node: _branches(node)[0].update(subs=["fam_a", "-1"]),
         "branch 'a = -1' subs needs a map from family variables to rationals"),
        (*G6101, lambda node: _branches(node)[0].update(atoms="fam_b"),
         "branch 'a = -1' atoms needs a list of"),
        (*G6101, lambda node: node["family_params"][0].update(atoms="fam_a"),
         "family parameter 'a' atoms needs a list of"),
        (*G6101, lambda node: node["family_params"][0].update(atoms=[["lt", "fam_a"]]),
         "family parameter 'a' atoms needs a list of .*unknown atom op 'lt'"),
        (*G6101, lambda node: node["family_params"][0].update(atoms=None),
         "family parameter 'a' atoms needs a list of"),
        # null is refused, not read as the default of an absent key
        ("table1", "g_{5,30}", lambda node: node.update(plan=None), "not a list: None"),
        ("table1", "g_{5,30}", lambda node: node.update(witnesses=None), "not a dict: None"),
        ("table1", "g_{5,30}", lambda node: node.update(stub="false"), "stub is not a bool"),
        ("table1", "g_{5,30}", lambda node: node.update(expect_unimodular=1),
         "expect_unimodular is not a bool"),
        ("table1", "g_{5,30}", lambda node: node.update(notes=5), "notes is not a str"),
        ("table1", "g_{5,30}", lambda node: node.update(name=5), "name is not a str: 5"),
        ("table1", "g_{5,30}", lambda node: node.update(dim="6"), "dim is not an int: '6'"),
        ("table1", "g_{5,30}", lambda node: node.update(dim=True), "dim is not an int: True"),
        ("table1", "g_{5,30}", lambda node: node.update(witness={}),
         r"entry has unknown keys \['witness'\]"),
        (*G6101, lambda node: node["family_params"][0].update(atom=[]),
         r"family parameter has unknown keys \['atom'\]"),
        ("indecomposable", "g_{6,70}", lambda node: node["derivation_family"].update(param=[]),
         r"derivation_family has unknown keys \['param'\]"),
        (*G6101, lambda node: _branches(node)[0].update(sub={}),
         r"branch step has unknown keys \['sub'\]"),
        (*G6101, _gauge_step(1, expect_det_multiple_of=5), "expect_det_multiple_of: a string"),
        (*G6101, lambda node: _branches(node)[0]["steps"].append(_gauge_steps(node)[0].copy()),
         "a context lists a step kind more than once"),
        (*G6101, _gauge_step(1, expect_det_multiple_of=BIG_POWER), "a power of degree at most 16"),
        ("table1", "g_{3,4}^{-1}+g_{3,4}^{-1}",
         lambda node: node["plan"][0].update(targets=node["plan"][0]["targets"][:3]),
         "gauge step needs one target per s_param, got 3 targets and 4 s_params"),
        ("table1", "g_{5,33}", _prose_sample(seed=-20260811), "seed: an int >= 0, got -20260811"),
        (*G6101, lambda node: _branches(node)[0].update(subs={"fam_a": "0"}),
         r"the substitution fam_a = 0 makes the atom fam_a\*fam_b != 0 false"),
        (*G6101, lambda node: _branches(node)[0]["subs"].update(s_1="0"),
         "gauge step needs one target per s_param, got 4 targets and 3 s_params"),
    ],
    ids=["branch-atom-op", "expect-k-not-a-map", "expect-k-index-0", "expect-det-syntax",
         "su-subs-not-a-map", "su-subs-syntax", "t2-zero-slice-without-gauge-step",
         "su-expected-unknown-key", "branch-subs-not-a-map", "branch-atoms-not-a-list",
         "family-atoms-not-a-list", "family-atom-op", "family-atoms-null", "entry-plan-null",
         "entry-witnesses-null", "entry-stub-not-a-bool", "entry-expect-unimodular-not-a-bool",
         "entry-notes-not-a-string", "entry-name-not-a-string", "entry-dim-a-string",
         "entry-dim-a-bool", "entry-stray-witness",
         "family-parameter-stray-key", "derivation-family-stray-key", "branch-stray-key",
         "expect-det-not-text", "branch-two-gauge-steps", "expect-det-power-of-degree-60",
         "gauge-three-targets-four-params", "prose-sample-negative-seed",
         "branch-values-falsify-an-entry-atom", "branch-values-fix-a-gauge-parameter"],
)
def test_validate_parses_every_field_the_pipeline_reads(
    dataset, prefix, change, match, tmp_path, capsys
):
    # before validation parsed these fields, `validate` accepted each of
    # these entries; run-all then raised ValueError (the atom op "lt") or
    # AttributeError (expect_k and su_expected subs that are not maps),
    # compared K(e_i) at index 0 with its last entry, or exited 2 on the
    # syntax errors and the t2_zero slice with no gauge step.  su_expected
    # and a branch's subs and atoms are read by catalog.FIELDS, whose errors
    # name the field; an unknown su_expected key was once ignored, so a
    # misspelt "family" compared nothing.  A family parameter's atoms were
    # parsed with the catalog document, and the error named '<entry 0>'
    # and neither the parameter nor the field.  A key the format does not
    # define, in an entry, a family parameter, a derivation family or a
    # branch, was ignored.  A gauge step with fewer targets than gauge
    # parameters validated, and run-all ended in a ValueError traceback at
    # the non-square solve.  A "stub" of "false" was read by truth: validate
    # printed "validated ...: stub (data not shipped)" and exited 0, and
    # run-all reported the entry data-not-shipped.  A "name" of 5 validated
    # ("validated 5: ok"), and a "dim" of "6" was compared with the int 6
    # and refused as "syntax error at position 0 (expected 6 slots, got 6)".
    # A negative seed validated, and draws the samples of its absolute
    # value.  A branch whose values made an entry atom false validated, and
    # the atom was dropped from its contexts.  A branch value for a gauge
    # parameter validated, and run-all stopped at the singular gauge system.
    assert_validate_rejects_entry(dataset, prefix, change, tmp_path, capsys, match=match)


def test_t2_zero_slice_needs_family_parameters_a_and_b(tmp_path, capsys):
    # the slice reads fam_a and fam_b by name: on an entry without them,
    # validate passed and run-all ended in KeyError: 'fam_a'
    step = {"kind": "prose_sample", "slice": "t2_zero", "trials": 5}
    assert_validate_rejects_entry(
        "table1", "g_{3,4}^{-1}+g_{3,4}^{-1}", lambda node: node["plan"].append(step),
        tmp_path, capsys, match="slice: null, or \"t2_zero\" in an entry with family parameters a",
    )
    assert main(["run-all", str(tmp_path / "catalog.json"), "--out", str(tmp_path / "r.json")]) == 2
    assert "t2_zero" in capsys.readouterr().err


def test_run_all_on_an_entry_without_a_nilradical_is_an_error(tmp_path, capsys):
    # g_{5,30} without its nilradical once validated, and run-all then ended
    # in a TypeError traceback (exit 1); with its plan it is now refused at
    # validate, and with an empty plan its SU(3) stage is an input error
    document = json.loads(cat.builtin_text("table1"))
    node = next(e for e in document["entries"] if e["name"].startswith("g_{5,30}"))
    del node["nilradical"]
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps({"schema": cat.SCHEMA, "entries": [node]}))
    assert main(["validate", str(catalog)]) == 2
    assert "needs a nilradical" in capsys.readouterr().err
    node["plan"] = []
    catalog.write_text(json.dumps({"schema": cat.SCHEMA, "entries": [node]}))
    assert main(["validate", str(catalog)]) == 0
    capsys.readouterr()
    assert main(["run-all", str(catalog), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: g_{5,30}") and "no nilradical" in err


@pytest.mark.parametrize("command", ["lambda", "derivations"])
def test_a_stub_entry_has_no_structure_to_act_on(command, capsys):
    # both once failed with a syntax error at position 0 on the empty
    # structure, and lambda printed its header first
    assert main([command, "table-A.17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: table-A.17-remaining: its structure equations are not shipped\n"


def test_su3_on_a_stub_entry_reports_data_not_shipped(capsys):
    assert main(["su3", "table-A.17"]) == 0
    assert capsys.readouterr().out.startswith("table-A.17-remaining: data-not-shipped\n")


def test_validate_rejects_a_nilradical_bracket_with_a_family_parameter(tmp_path, capsys):
    # [e2, e3] = p e1: span(p e1) has dimension 1 for p != 0 and 0 at p = 0,
    # and the central series is reduced over Q, so the entry is refused
    node = {"name": "heisenberg_p", "dim": 3, "structure": "(-p*e23, 0, 0)",
            "family_params": [{"name": "p"}], "nilradical": [1, 2, 3]}
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps({"schema": cat.SCHEMA, "entries": [node]}))
    assert main(["validate", str(catalog)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: catalog entry 'heisenberg_p'") and "fam_p" in err


@pytest.mark.parametrize(
    "tree",
    [["const", "0"], ["const", "-1"], ["cube", "alpha_14"], ["square"],
     ["square", "alpha_14", "junk"], _nested_witness(700)],
    ids=["const-0", "const-negative", "unknown-kind", "square-no-argument",
         "square-extra-argument", "nested-700-deep"],
)
def test_validate_malformed_witness_is_an_error(tree, tmp_path, capsys):
    # the extra argument of a square was ignored before witness trees were
    # expanded by one function that checks each node's arity; a tree about
    # 975 deep ended in a RecursionError traceback (700 keeps the test's
    # own JSON coding inside the stack)
    assert_validate_rejects_entry(
        "table1", "g_{3,4}^{-1}+g_{3,1}",
        lambda node: node["witnesses"].update({"lambda": tree}), tmp_path, capsys,
    )


@pytest.mark.parametrize(
    "rename",
    [lambda branches: branches[1].pop("name"),
     lambda branches: branches[1].update(name=branches[0]["name"])],
    ids=["unnamed", "repeated"],
)
def test_branch_names_must_be_distinct_strings(rename, tmp_path, capsys):
    # an unnamed branch would end run-all in a KeyError, and a repeated name
    # would run the first branch twice and the second never
    assert_validate_rejects_entry(
        "indecomposable", "g_{6,101}", lambda node: rename(_branches(node)), tmp_path, capsys,
        match="branch names must be distinct strings",
    )
