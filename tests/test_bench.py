"""The traced benchmark run must keep finding every function it traces, and
the outputs that bench/golden.json freezes must not drift."""

import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from g2cert.certify import PairSampler

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = BENCH.parent / "src"
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    missing = []
    for module_name, qualname in load_bench_module("spans").TARGETS:
        owner = importlib.import_module(f"g2cert.{module_name}")
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{qualname}")
    assert missing == []
    # spans.py patches methods through the class __dict__
    assert "draw" in PairSampler.__dict__


@pytest.mark.parametrize(
    "command", GOLDEN["cli-cold"], ids=[" ".join(c["argv"]) for c in GOLDEN["cli-cold"]]
)
def test_cli_cold_command_matches_the_golden(command):
    # the cold command of the cli-cold workload, as bench/worker.py runs it
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "g2cert.cli", *command["argv"]],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == command["exit"]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == command["stdout_sha256"]


def test_recheck_lite_input_report_matches_the_golden(monkeypatch):
    # the 20-trial report at the shipped seeds that recheck-lite rechecks,
    # produced and digested by the benchmark worker itself
    monkeypatch.syspath_prepend(str(BENCH))  # the worker imports spans
    produced = load_bench_module("worker").run_produce(SimpleNamespace(seed=0))
    golden = GOLDEN["recheck-lite"]
    assert produced["verified_all"]
    assert produced["sha256"] == golden["input_sha256"]
    assert produced["masked_sha256"] == golden["input_masked_sha256"]
