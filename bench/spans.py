"""Outside-in span recorder for the traced benchmark run.

`SpanRecorder.install()` replaces each function in TARGETS with a wrapper
at every place it is bound: the defining module, every g2cert module that
did `from .x import name`, and the class for methods.  Each call appends
one span (name, parent span, start, end) to in-memory arrays; `summary()`
turns them into calls, total time and self time per function, plus a few
exact size counts taken from arguments and results.  `uninstall()` puts
the originals back.  Nothing inside g2cert is edited.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, qualified name) of every traced public function, by layer.
TARGETS = (
    # catalog load
    ("catalog", "load_builtin"),
    ("catalog", "parse_structure_equations"),
    ("catalog", "AlgebraEntry.validate_entry"),
    ("lie", "verify_nilradical"),
    ("linalg", "in_span"),
    # gauge stage
    ("poly", "substitute_cramer"),
    ("poly", "solve_linear"),
    ("forms", "pullback"),
    ("certify", "gauge_transport"),
    # sampler
    ("certify", "sample_falsify"),
    ("certify", "PairSampler.draw"),
    ("numeric", "eval_form_int"),
    ("numeric", "candidate_conditions_int"),
    ("numeric", "su3_passes_int"),
    ("linalg", "det_fraction"),
    # symbolic layers shared by every workload
    ("lie", "ce_differential"),
    ("hitchin", "k_psi"),
    ("hitchin", "h_form"),
    ("derivations", "solve_derivations"),
    ("derivations", "strongly_unimodular_constraints"),
    ("derivations", "verify_derivation"),
    ("certify", "certify_lambda_sign"),
    ("certify", "generic_su3_candidate"),
    ("certify", "recheck_certificate"),
    ("poly", "check_nonneg_witness"),
)

SPAN_NAMES = tuple(f"{module}.{qualname}" for module, qualname in TARGETS)

# Exact counts read from arguments and results at the span boundary.
COUNT_NAMES = (
    "sampler.attempts",
    "sampler.trials",
    "hitchin.k_psi.lam_terms",
    "poly.substitute_cramer.det_terms",
    "poly.substitute_cramer.det_degree",
)


class SpanRecorder:
    def __init__(self):
        self.names = []  # span index -> name
        self.parents = []  # span index -> parent span index, -1 at the root
        self.starts = []
        self.ends = []
        self.nested = []  # True when an outer span of the same name is open
        self._stack = []
        self._open = {}  # name -> number of open spans of that name
        self._patches = []  # (owner, attribute, original)
        self.counts = dict.fromkeys(COUNT_NAMES, 0)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("g2cert.") and m]
        for module_name, qualname in TARGETS:
            module = importlib.import_module(f"g2cert.{module_name}")
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(name, original))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name, original)
            for owner in modules:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, attr, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        names, parents, starts, ends, nested = (
            self.names, self.parents, self.starts, self.ends, self.nested,
        )
        stack, open_count = self._stack, self._open
        open_count[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            nested.append(open_count[name] > 0)
            ends.append(0.0)
            open_count[name] += 1
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
                open_count[name] -= 1
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return wrapper

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict:
        """{name: {"calls", "total_s", "self_s"}} for every traced name,
        plus {count name: value}; see `merge` for combining summaries."""
        spans = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                child_time[parent] += duration
        for name, duration, children, nested in zip(
            self.names, durations, child_time, self.nested
        ):
            row = spans[name]
            row["calls"] += 1
            row["self_s"] += duration - children
            if not nested:
                row["total_s"] += duration
        return {"spans": spans, "counts": dict(self.counts)}


def merge(summaries) -> dict:
    """Add up span summaries (e.g. one per CLI command); sizes take the max."""
    spans = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    counts = dict.fromkeys(COUNT_NAMES, 0)
    for summary in summaries:
        for name, row in summary["spans"].items():
            for key in row:
                spans[name][key] += row[key]
        for name, value in summary["counts"].items():
            if name in _MAX_COUNTS:
                counts[name] = max(counts[name], value)
            else:
                counts[name] += value
    return {"spans": spans, "counts": counts}


def _observe_draw(counts, args, result):
    counts["sampler.attempts"] += 1
    if result is not None:
        counts["sampler.trials"] += 1


def _observe_k_psi(counts, args, result):
    counts["hitchin.k_psi.lam_terms"] += len(result.lam.terms)


def _observe_substitute_cramer(counts, args, result):
    den = args[3]
    counts["poly.substitute_cramer.det_terms"] = max(
        counts["poly.substitute_cramer.det_terms"], len(den.terms)
    )
    counts["poly.substitute_cramer.det_degree"] = max(
        counts["poly.substitute_cramer.det_degree"], den.total_degree()
    )


_OBSERVERS = {
    "certify.PairSampler.draw": _observe_draw,
    "hitchin.k_psi": _observe_k_psi,
    "poly.substitute_cramer": _observe_substitute_cramer,
}
_MAX_COUNTS = {"poly.substitute_cramer.det_terms", "poly.substitute_cramer.det_degree"}
