"""One cold benchmark job, run in a fresh child process with g2cert importable.

    python3 bench/worker.py certify-all      --seed S --trace 0|1
    python3 bench/worker.py produce          --seed S          (report in "document")
    python3 bench/worker.py recheck-lite     --trace 0|1       < report.json
    python3 bench/worker.py recheck-sampling                   < report.json
    python3 bench/worker.py cli-cold         --seed S --trace 0|1

Prints one JSON object on stdout.  The job's wall time is taken here, after
the imports; bench/run.py repeats jobs, probes the host speed between them
and checks the outputs against bench/golden.json.  With --trace 1 the job
runs under the span recorder.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from time import perf_counter

# g2cert.cli imports every module the span recorder patches.  Public
# functions are called through their module, so the recorder's patch of the
# module attribute sees the calls made from here too.
import g2cert.cli  # noqa: F401
from g2cert import catalog, certify
from g2cert.certify import CertKind, Certificate, PipelineOptions

from spans import SpanRecorder, merge

HERE = os.path.dirname(os.path.abspath(__file__))
RECHECK_TRIALS = 20  # trials of recheck-lite's input report
COMMAND_TIMEOUT_S = 120


def digest(document) -> str:
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def masked_digest(document) -> str:
    """Digest without the fields that depend on the seed (the lambda < 0
    sample of each entry; seed and attempts of sampling certificates), so
    one frozen value covers every --seed."""
    masked = json.loads(json.dumps(document))
    for result in masked["results"]:
        result.pop("samples", None)
        for cert in result["certificates"]:
            if cert["kind"] == CertKind.SAMPLED_NO_SU3.value:
                del cert["data"]["seed"], cert["data"]["attempts"]
    return digest(masked)


def pipeline_options(seed: int, trials=None) -> PipelineOptions:
    # The pipeline reads 0 as "unset", so seed 0 means the shipped seeds.
    return PipelineOptions(trials_override=trials, seed_override=seed or None)


def load_all():
    entries = []
    for name in catalog.BUILTIN_DATASETS:
        entries.extend(catalog.load_builtin(name))
    return entries


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_job(job, trace=False):
    """job(), under the span recorder when trace is set.  Returns (result,
    span summary or None)."""
    recorder = SpanRecorder() if trace else None
    if recorder:
        recorder.install()
    try:
        result = job()
    finally:
        if recorder:
            recorder.uninstall()
    return result, recorder.summary() if recorder else None


# -- certify-all ------------------------------------------------------------


def run_certify_all(args) -> dict:
    def job():
        start = perf_counter()
        report = certify.run_all(load_all(), pipeline_options(args.seed))
        json.dumps(report.to_json(), indent=2, sort_keys=True)
        return report, perf_counter() - start

    (report, seconds), summary = run_job(job, args.trace)
    # Read before the digests below add memory of the benchmark's own.
    rss_mb = peak_rss_mb()
    document = report.to_json(include_timing=False)
    return {
        "seconds": seconds,
        "ops": sum(len(r.certificates) for r in report.results),
        "failures": sum(not c.verified for r in report.results for c in r.certificates),
        "verified_all": report.verified_all(),
        "sha256": digest(document),
        "masked_sha256": masked_digest(document),
        "document": document,
        "peak_rss_mb": rss_mb,
        "summary": summary,
    }


def run_recheck_sampling(args) -> dict:
    """Replay every sampling certificate of a report."""
    return recheck_all(json.load(sys.stdin), CertKind.SAMPLED_NO_SU3.value)


# -- recheck-lite -------------------------------------------------------------


def run_produce(args) -> dict:
    def job():
        start = perf_counter()
        report = certify.run_all(load_all(), pipeline_options(args.seed, RECHECK_TRIALS))
        return report, perf_counter() - start

    (report, seconds), _ = run_job(job)
    document = report.to_json(include_timing=False)
    return {
        "seconds": seconds,
        "verified_all": report.verified_all(),
        "sha256": digest(document),
        "masked_sha256": masked_digest(document),
        "document": document,
    }


def recheck_all(document, kind=None) -> dict:
    """Load the catalogs and recheck every certificate of a report, or only
    those of one kind.  A recheck that returns False or raises is a failed
    op."""
    by_name = {e.name: e for e in load_all()}
    ops = 0
    failed_ops = []
    for result in document["results"]:
        for node in result["certificates"]:
            if kind and node["kind"] != kind:
                continue
            ops += 1
            op_start = perf_counter()
            try:
                entry = by_name[result["name"]]
                ok = certify.recheck_certificate(entry, Certificate.from_json(node))
                error = None if ok else "rechecks False"
            except Exception as exc:  # a raising recheck is a failed op
                error = f"{type(exc).__name__}: {str(exc)[:120]}"
            if error:
                failed_ops.append({"name": result["name"], "kind": node["kind"],
                                   "error": error, "seconds": perf_counter() - op_start})
    return {"ops": ops, "failures": len(failed_ops), "failed_ops": failed_ops}


def run_recheck_lite(args) -> dict:
    document = json.load(sys.stdin)

    def job():
        start = perf_counter()
        out = recheck_all(document)
        out["seconds"] = perf_counter() - start
        return out

    out, summary = run_job(job, args.trace)
    out.update(peak_rss_mb=peak_rss_mb(), summary=summary)
    return out


# -- cli-cold -----------------------------------------------------------------


def cli_script(seed: int) -> list:
    """The frozen command script, in an order drawn from the seed."""
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
        commands = json.load(handle)["cli-cold"]
    if seed:
        random.Random(seed).shuffle(commands)
    return [c["argv"] for c in commands]


def run_command(argv, trace: bool) -> dict:
    """One cold command; traced, it goes through bench/launch.py."""
    if trace:
        cmd = [sys.executable, os.path.join(HERE, "launch.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "g2cert.cli", *argv]
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    seconds = perf_counter() - start
    exit_code, stdout, summary = proc.returncode, proc.stdout, None
    if trace:
        if proc.returncode != 0:
            raise SystemExit(f"traced launcher failed for {argv}: {proc.stderr[-500:]}")
        launched = json.loads(proc.stdout)
        exit_code, stdout, summary = launched["exit"], launched["stdout"], launched["summary"]
    return {
        "argv": argv,
        "seconds": seconds,
        "exit": exit_code,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "summary": summary,
    }


def run_cli_cold(args) -> dict:
    def job():
        start = perf_counter()
        runs = [run_command(argv, args.trace) for argv in cli_script(args.seed)]
        return runs, perf_counter() - start

    # Traced commands install their spans themselves (bench/launch.py).
    (runs, seconds), _ = run_job(job)
    summaries = [r.pop("summary") for r in runs]
    return {
        "seconds": seconds,
        "op_seconds": [r["seconds"] for r in runs],
        "ops": len(runs),
        "failures": sum(r["exit"] != 0 for r in runs),
        "commands": runs,
        # Every child of this process is a CLI command: this is the largest.
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "summary": merge(summaries) if args.trace else None,
    }


MODES = {
    "certify-all": run_certify_all,
    "produce": run_produce,
    "recheck-lite": run_recheck_lite,
    "recheck-sampling": run_recheck_sampling,
    "cli-cold": run_cli_cold,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    json.dump(MODES[args.mode](args), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
