"""g2cert benchmark: drives the package from outside, through its public
functions and its CLI.  Run it from the repository root:

    python3 bench/run.py --workload certify-all --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all      # every workload, one named table

Workloads (closed loop, one caller; see bench/NOTES.md for why each):
  certify-all   load the three built-in catalogs, run_all, serialize the report
  recheck-lite  recheck every certificate of a reduced-trials report
  cli-cold      a fixed script of cold `python -m g2cert.cli` commands

--seed 0 runs the shipped seeds and checks the frozen digests in
bench/golden.json; another seed is passed to the pipeline as seed_override
(cli-cold: it shuffles the script).  --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer metrics of a traced run.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import host
from spans import COUNT_NAMES, SPAN_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("certify-all", "recheck-lite", "cli-cold")
START_PAIRS = 7  # bare starts and cold imports timed for setup_s
MIN_JOBS = 2
DEADLINE_S = 170  # every child is killed past this many seconds into the run

# What job_s is on each workload, as the table names it.
JOB_NAMES = {"certify-all": "report_s", "recheck-lite": "recheck_s", "cli-cold": "cli_s"}


class BenchError(Exception):
    pass


class Runner:
    """Starts the children of one benchmark run, one at a time."""

    def __init__(self, root: str):
        self.root = root
        self.deadline = perf_counter() + DEADLINE_S
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    def child(self, argv, stdin_text=None) -> str:
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        try:
            proc = subprocess.run(
                [sys.executable, *argv], input=stdin_text, capture_output=True, text=True,
                env=self.env, cwd=self.root, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[:2]} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{argv[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return proc.stdout

    def seconds(self, argv) -> float:
        start = perf_counter()
        self.child(argv)
        return perf_counter() - start

    def start_s(self):
        """Cold interpreter start plus import of the whole package, as
        (median wall seconds, rescaled to the reference host).  Each import
        is paired with a bare interpreter start just before it, which sees
        the same host speed; see host.py."""
        imports, ratios = [], []
        for _ in range(START_PAIRS):
            bare = self.seconds(["-c", "pass"])
            imports.append(self.seconds(["-c", "import g2cert.cli"]))
            ratios.append(imports[-1] / bare)
        return statistics.median(imports), host.REFERENCE_START_S * statistics.median(ratios)

    def worker(self, mode, seed=0, trace=0, stdin_text=None) -> dict:
        argv = [os.path.join(HERE, "worker.py"), mode, "--seed", str(seed), "--trace", str(trace)]
        return json.loads(self.child(argv, stdin_text))

    def timed(self, mode, seed=0, trace=0, stdin_text=None) -> dict:
        """A worker job, with the host probe taken here right after it, in
        a process that holds no g2cert state."""
        job = self.worker(mode, seed, trace, stdin_text)
        job["probe_s"] = host.probe()
        return job

    def jobs(self, mode, args, stdin_text=None) -> list:
        """Cold jobs, one process each.  Untraced: at least MIN_JOBS, and on
        until --seconds of job time have passed.  Traced: one untraced job,
        then one traced job."""
        if args.trace:
            return [self.timed(mode, args.seed, trace, stdin_text) for trace in (0, 1)]
        jobs = []
        while len(jobs) < MIN_JOBS or sum(j["seconds"] for j in jobs) < args.seconds:
            jobs.append(self.timed(mode, args.seed, 0, stdin_text))
        return jobs


# -- correctness ----------------------------------------------------------------


def check_certify_all(jobs, golden, seed, runner) -> list:
    problems = []
    for job in jobs:
        if seed == 0 and job["sha256"] != golden["sha256"]:
            problems.append(f"report digest {job['sha256'][:16]} != frozen {golden['sha256'][:16]}")
        if job["masked_sha256"] != golden["masked_sha256"]:
            problems.append("seed-independent part of the report differs from the frozen one")
        if not job["verified_all"]:
            problems.append("report.verified_all() is False")
    if seed != 0:
        # No frozen digest covers this seed's samples: replay them instead.
        replay = runner.worker("recheck-sampling", stdin_text=json.dumps(jobs[0]["document"]))
        if replay["failures"]:
            problems.append(f"{replay['failures']} sampling certificates fail to recheck")
    return problems


def check_produced(produced, golden, seed) -> list:
    problems = []
    if seed == 0 and produced["sha256"] != golden["input_sha256"]:
        problems.append(f"input report digest {produced['sha256'][:16]} != frozen "
                        f"{golden['input_sha256'][:16]}")
    if produced["masked_sha256"] != golden["input_masked_sha256"]:
        problems.append("seed-independent part of the input report differs from the frozen one")
    if not produced["verified_all"]:
        problems.append("input report.verified_all() is False")
    return problems


def check_cli(jobs, golden) -> list:
    want = {tuple(c["argv"]): c for c in golden}
    problems = []
    for job in jobs:
        for run in job["commands"]:
            expected = want[tuple(run["argv"])]
            if run["exit"] != expected["exit"] or run["stdout_sha256"] != expected["stdout_sha256"]:
                problems.append(f"{' '.join(run['argv'])}: exit {run['exit']} or stdout differs")
    return problems


# -- one workload -----------------------------------------------------------------


def run_workload(name: str, args, root: str) -> dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
        golden = json.load(handle)
    runner = Runner(root)
    calib_s = host.probe()
    start_wall_s, start_s = runner.start_s()
    probes = [calib_s]
    produce_s = 0.0  # the part of setup_s that is compute: recheck-lite's input report
    notes = []
    if name == "certify-all":
        jobs = runner.jobs("certify-all", args)
        problems = check_certify_all(jobs, golden["certify-all"], args.seed, runner)
    elif name == "recheck-lite":
        produced = runner.timed("produce", args.seed)
        produce_s = produced["seconds"]
        probes.append(produced["probe_s"])
        problems = check_produced(produced, golden["recheck-lite"], args.seed)
        jobs = runner.jobs("recheck-lite", args, json.dumps(produced["document"]))
        notes += [f"failed op: {f['name']} {f['kind']} after {f['seconds'] * 1e3:.1f} ms: "
                  f"{f['error']}" for f in jobs[0]["failed_ops"]]
    else:
        jobs = runner.jobs("cli-cold", args)
        problems = check_cli(jobs, golden["cli-cold"])
    # attempted and failed count one job, however many repeats were timed.
    attempted = jobs[0]["ops"]
    failed = max(job["failures"] for job in jobs)
    if any(job["ops"] != attempted for job in jobs):
        problems.append("repeats of the job ran different numbers of ops")
    if problems:
        failed = attempted  # a wrong output fails every op of the run
    if args.trace:
        # Each job scaled by its own probe, as the two ran at different times.
        untraced_s, traced_s = (host.normalized(j["seconds"], j["probe_s"]) for j in jobs)
        metrics = layer_metrics(jobs[1]["summary"])
        metrics.update({
            "host.calib_s": (calib_s, "s"),
            "trace.untraced_s": (untraced_s, "s"),
            "trace.traced_s": (traced_s, "s"),
            "trace.overhead_s": (traced_s - untraced_s, "s"),
        })
    else:
        # One host speed for the run: the median of every probe taken in it.
        probe_s = statistics.median(probes + [job["probe_s"] for job in jobs])
        job_s = statistics.median(job["seconds"] for job in jobs)
        metrics = {
            "job_s": (host.normalized(job_s, probe_s), "s"),
            "setup_s": (start_s + host.normalized(produce_s, probe_s), "s"),
            "peak_rss_mb": (max(job["peak_rss_mb"] for job in jobs), "MB"),
        }
        if name == "cli-cold":
            # Reported for reading only: see bench/NOTES.md for why the median
            # op time is not one of the benchmark's end-to-end metrics.
            cmd_p50_s = statistics.median(t for job in jobs for t in job["op_seconds"])
            notes.append(f"cmd_p50_s {cmd_p50_s:.6g} s (median of {sum(j['ops'] for j in jobs)} "
                         "commands)")
        notes.append(f"wall time: job {job_s:.4g} s, setup {start_wall_s + produce_s:.4g} s "
                     f"(cold import {start_wall_s:.4g} s); host probe {probe_s:.4f} s "
                     f"(reference {host.REFERENCE_S} s); cold jobs: "
                     + ", ".join(f"{job['seconds']:.3f} s" for job in jobs))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
        "notes": notes,
    }


def layer_metrics(summary) -> dict:
    metrics = {}
    for name in SPAN_NAMES:
        row = summary["spans"][name]
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.total_s"] = (row["total_s"], "s")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    for name in COUNT_NAMES:
        metrics[name] = (summary["counts"][name], "count")
    attempts, trials = summary["counts"]["sampler.attempts"], summary["counts"]["sampler.trials"]
    metrics["sampler.accept_ratio"] = (trials / attempts if attempts else 0.0, "ratio")
    return metrics


def print_table(name: str, result: dict) -> None:
    print(f"== {name}: correct={result['correct']} ops={result['attempted']} "
          f"ops_failed={result['failed']}")
    for metric, node in result["metrics"].items():
        label = f"{JOB_NAMES[name]} (job_s)" if metric == "job_s" else metric
        print(f"  {label:58s} {node['value']:.6g} {node['unit']}")
    for line in result["problems"] + result["notes"]:
        print(f"  {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "g2cert", "cli.py")):
        print("bench/run.py: run it from a g2cert checkout (src/g2cert is missing)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, root)
            print_table(name, results[name])
    except BenchError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
