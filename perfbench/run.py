#!/usr/bin/env python3
"""Benchmark of the wittenlab index pipeline, end to end and per layer.

Run from the root of a checkout, with the library source under src/:

    python3 perfbench/run.py --workload index --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and README.md): ``index``, ``crosscheck`` and
``scenario``.  Each is a closed loop: one caller runs one job at a time,
repeating whole passes over the workload's jobs while another pass fits
in ``--seconds`` (at least one pass).  Every answer is checked against its
acceptance-gate tolerance.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs a small warm-up pass, then one untraced and one traced
pass, and prints the per-layer metrics, writing the spans to
perfbench/out/.  ``--smoke`` runs
one pass at a small resolution.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; earlier lines
record the machine, every job and a report of all named quantities.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
REFUSALS = ("RefinementNeededError", "NearSingularError", "CoverageError")


@dataclass
class Record:
    job: str
    seconds: float
    outcome: str  # answered, wrong, refused or error
    values: dict
    may_refuse: bool

    @property
    def failed(self) -> bool:
        return self.outcome in ("wrong", "error") or (
            self.outcome == "refused" and not self.may_refuse
        )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass at a small resolution")
    return parser.parse_args(argv)


def pin_blas(threads: int) -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def measure_setup(args, nproc: int, repeats: int) -> list[float]:
    """Wall time of fresh processes that import wittenlab and build the jobs."""
    code = (
        "import sys; sys.path[:0] = [{!r}, {!r}]; import workloads; "
        "workloads.build({!r}, {}, {}, {})"
    ).format(str(SRC), str(BENCH), args.workload, args.seed, args.smoke, nproc)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(args, nproc: int, blas_threads: int, sweep_threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "sweep_threads": sweep_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": args.seed,
        "commit": git_commit(),
        "workload": args.workload,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def run_pass(jobs, tracer=None) -> list[Record]:
    records = []
    for i, job in enumerate(jobs):
        span = tracer.job_span(i) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        values = {}
        try:
            with span:
                values = job.run()
            ok = all(value < tol for value, tol in values.values() if tol is not None)
            outcome = "answered" if ok else "wrong"
        except Exception as exc:  # a refusal is an outcome; anything else fails the job
            outcome = "refused" if type(exc).__name__ in REFUSALS else "error"
            values = {"error": f"{type(exc).__name__}: {exc}"}
        records.append(Record(job.name, time.perf_counter() - start, outcome, values,
                              job.may_refuse))
    return records


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def rate(records: list[Record], outcome: str) -> float:
    return sum(r.outcome == outcome for r in records) / len(records)


def summarize(records: list[Record], wall_s: float, setup_times: list[float]) -> dict:
    """Every end-to-end quantity by name, including the workload's accuracy values."""
    attempted = len(records)
    answered = [r for r in records if r.outcome == "answered"]
    checked = [r for r in records if r.outcome in ("answered", "wrong")]
    seconds = [r.seconds for r in records]
    ratios = [value / tol for r in checked for value, tol in r.values.values() if tol is not None]
    report = {
        "job_s_p50": statistics.median(seconds),
        "job_s_p90": nearest_rank(seconds, 0.9),
        "job_samples": attempted,
        "answered_per_min": 60.0 * len(answered) / wall_s,
        "answered_share": len(answered) / attempted,
        "refusal_rate": rate(records, "refused"),
        "wrong_rate": rate(records, "wrong"),
        "err_over_tol": max(ratios, default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
        "setup_samples": len(setup_times),
    }
    for r in checked:
        for name, (value, _) in r.values.items():
            report[name] = max(report.get(name, 0.0), value)
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wittenlab" / "__init__.py").is_file():
        print(f"wittenlab source not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    sweep_threads = workloads.sweep_threads(args.workload, nproc)
    # sweep threads x BLAS threads never exceeds the cores
    blas_threads = max(1, nproc // sweep_threads)
    pin_blas(blas_threads)

    setup_times = measure_setup(args, nproc, 1 if args.smoke else SETUP_REPEATS)
    lib, jobs = workloads.build(args.workload, args.seed, args.smoke, nproc)
    if not Path(lib.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"wittenlab was imported from {lib.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine(args, nproc, blas_threads, sweep_threads)))

    if args.trace:
        # first calls pay lazy set-up; a small pass first keeps it out of
        # both sides of trace_overhead_pct
        run_pass(workloads.build(args.workload, args.seed, True, nproc)[1])
    records = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        records += run_pass(jobs)
        now = time.perf_counter()
        if args.smoke or args.trace or (now - start) + (now - pass_start) > args.seconds:
            break
    wall_s = time.perf_counter() - start
    report = summarize(records, wall_s, setup_times)

    units = {m.name: m.unit for m in metrics.END_TO_END}
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.instrument(tracer, lib):
            traced = run_pass(jobs, tracer)
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
        values = tracing.layer_metrics(tracer.spans)
        traced_s = sum(r.seconds for r in traced)
        values["trace.job_wall_s"] = traced_s
        values["trace_overhead_pct"] = 100.0 * (traced_s / sum(r.seconds for r in records) - 1.0)
        values["refusal_rate"] = rate(traced, "refused")
        values["wrong_rate"] = rate(traced, "wrong")
        records += traced
        units = {m.name: m.unit for m in metrics.PER_LAYER}
    else:
        values = report

    for r in records:
        print(f"job {r.job}: {r.outcome} in {r.seconds:.4f} s {json.dumps(r.values)}")
    print("report " + json.dumps(report))
    failed = sum(r.failed for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
