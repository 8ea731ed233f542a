"""Smoke test of the benchmark at tiny scale; asserts shapes and checks, never timings.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), "--seconds", "0.1", "--scale", "0.02", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0, proc.stdout
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    return last


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", ["default", "5"])
def test_untraced_reports_every_end_to_end_metric(workload, seed):
    seed_args = [] if seed == "default" else ["--seed", seed]
    proc = bench("--workload", workload, "--trace", "0", *seed_args)
    metrics = result(proc)["metrics"]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert all(v["value"] > 0 for v in metrics.values())
    assert "ops_failed_ratio" in proc.stdout
    record = next(l for l in proc.stdout.splitlines() if l.startswith("RECORD "))
    tags = json.loads(record[len("RECORD "):])
    for key in ("commit", "seed", "python", "numpy", "nproc"):
        assert key in tags


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_reports_every_layer_and_consistent_spans(workload):
    proc = bench("--workload", workload, "--trace", "1", "--seed", "7")
    metrics = result(proc)["metrics"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert metrics["simcore.events_replayed"]["value"] > 0
    # The run itself checks that layer self times and glue add up to the job.
    assert 0 < metrics["bench.job_glue_s"]["value"] < metrics["bench.traced_job_s"]["value"]

    spans = json.loads((BENCH_DIR / "out" / f"spans-{workload}-7.json").read_text())
    assert spans["trace_id"] == f"{workload}:7"
    covered = [sum(b[1] for b in s["busy"].values()) for s in spans["spans"]]
    for s in spans["spans"]:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    for s, c in zip(spans["spans"], covered):
        assert c <= s["end"] - s["start"] + 1e-5, s["name"]


def test_all_runs_every_workload():
    last = result(bench("--workload", "all"))
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(last["metrics"]) == {f"{w}.{m}" for w in WORKLOADS for m in names}


def test_fails_without_the_program():
    bare = BENCH_DIR / "out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
