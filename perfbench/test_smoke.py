"""Smoke test of the benchmark at a small resolution.

Checks that every run prints every metric of BENCHMARK.json with its
unit, that refused scenario jobs are counted rather than lost, that the
traced self times add up to the job wall time, and that the benchmark
refuses to run without the library source.  Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


@functools.lru_cache(maxsize=None)
def smoke(workload: str, trace: int):
    """(report line, result line, job lines) of one smoke run."""
    out = bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    report = json.loads(next(l for l in lines if l.startswith("report "))[len("report "):])
    jobs = [l for l in lines if l.startswith("job ")]
    return report, json.loads(lines[-1]), jobs


def test_benchmark_json_lists_the_registry():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, registry in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert listed == [(m.name, m.unit, m.better) for m in registry]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    _, result, _ = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    registry = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m.name: m.unit for m in registry
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"]


def test_refused_scenario_jobs_are_counted():
    report, result, jobs = smoke("scenario", 0)
    refused = sum(": refused in " in line for line in jobs)
    assert refused >= 2  # one oscillation refusal and one after a full sweep
    assert result["attempted"] == len(jobs) == report["job_samples"]
    assert report["refusal_rate"] == pytest.approx(refused / len(jobs))
    assert result["metrics"]["answered_share"]["value"] == pytest.approx(
        1.0 - refused / len(jobs)
    )
    _, traced, _ = smoke("scenario", 1)
    layer = {name: m["value"] for name, m in traced["metrics"].items()}
    assert layer["refusal_rate"] == pytest.approx(refused / len(jobs))
    assert layer["discretize.oscillation_refusals"] >= 1
    assert layer["determinants.phase_curve.refusals.settle"] >= 1
    assert 0.0 < layer["determinants.wasted_det2_share"] < 1.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_add_up_to_the_job_wall_time(workload):
    _, result, _ = smoke(workload, 1)
    layer = {name: m["value"] for name, m in result["metrics"].items()}
    total = sum(layer[f"{name}.self_s"] for name in tracing.LAYERS + ("bench",))
    assert total == pytest.approx(layer["trace.job_wall_s"], rel=1e-2)


def test_concurrent_children_share_the_interval():
    S = tracing.Span
    spans = [S(1, None, 0, "ssf.ssf_mollified", 0.0, 10.0),
             S(2, 1, 0, "discretize.matrix", 1.0, 5.0),
             S(3, 1, 0, "determinants.det2", 3.0, 7.0)]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 4.0, 2: 3.0, 3: 3.0})


def test_fails_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    out = bench(tmp_path, "index", 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
