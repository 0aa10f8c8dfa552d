"""The traced benchmark run must keep finding every function it traces."""

import importlib
import importlib.util
from pathlib import Path

from g2cert.certify import PairSampler

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    missing = []
    for module_name, qualname in load_spans().TARGETS:
        owner = importlib.import_module(f"g2cert.{module_name}")
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{qualname}")
    assert missing == []
    # spans.py patches methods through the class __dict__
    assert "draw" in PairSampler.__dict__
