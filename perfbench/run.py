"""Layered benchmark of zipfcache: one process, one thread, one workload.

    python3 perfbench/run.py --workload pipeline --seed 11 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, default seeds

Run from any directory; the program is imported from `src/` beside this
directory, never from an installed copy.  Untraced (`--trace 0`), a run
sets the workload up `setup_repeats` times, then repeats the timed job until
`--seconds` of job time have passed, timing each op of the job on its own,
and reports the end-to-end metrics:

    setup_s              median untimed preparation, s
    events_per_s         trace events / job seconds, the job time being the
                         sum over its ops of each op's median time
    replay_events_per_s  events replayed / seconds inside simcore.simulate,
                         likewise summed over the ops
    peak_rss_mb          peak resident memory of this process through the
                         setups and the first job, MiB

A `Reference`, a fixed interpreter workload of about 50-100 ms, is timed
before the first setup and after every setup and op, so each lies between
two reference samples.  Each is reported rescaled to a host that runs the
reference in REFERENCE_S: seconds * REFERENCE_S / (mean of its two
references).  The host's speed drifts by up to 2x over seconds to minutes
(a shared 2-vCPU Firecracker VM).  The raw times and reference times are in
the RECORD line; README.md gives raw and rescaled same-seed spreads.

Traced (`--trace 1`), a run sets up once under tracing, runs the job once
untraced and once traced, and reports the per-layer metrics (see
`tracing.layer_metrics`) plus the tracing overhead.  Either way every
operation's output is checked (see `workloads`); `ops_failed_ratio` is
printed with the metrics, and the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  A `RECORD` line before it
carries the same numbers tagged with commit, seed and host.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("pipeline", "renewal-zbs", "churn-prefetch")
# Spans may exceed their parent by accumulated float rounding only.
SPAN_TOLERANCE_S = 1e-5
# Host seconds of Reference.seconds() at about the fastest a shared 2-vCPU
# host ran it (README.md: run medians there were 50-92 ms).
REFERENCE_S = 0.050


def import_program():
    """Import zipfcache from this checkout's src/ or stop."""
    if not (SRC / "zipfcache" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'zipfcache'} not found; run from a zipfcache checkout")
    sys.path.insert(0, str(SRC))
    import zipfcache

    if Path(zipfcache.__file__).resolve().parent != (SRC / "zipfcache").resolve():
        sys.exit(f"error: zipfcache imported from {zipfcache.__file__}, not {SRC}")


def commit_hash() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def host_tags() -> dict:
    import numpy

    return {
        "commit": commit_hash(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


class Ledger:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, workload, ops) -> None:
        for op in ops:
            self.attempted += 1
            problems = workload.check(op)
            if problems:
                self.failures.append(f"{op.name}: {'; '.join(problems)}")

    @property
    def failed(self) -> int:
        return len(self.failures)


class Reference:
    """A fixed mix of the interpreter work the workloads do, timed beside
    each op to gauge the host's speed at that moment: string formatting,
    small-dict updates and tuple allocation, then random lookups in a
    100k-entry dict of document ids feeding a bounded heap."""

    def __init__(self):
        self.table = {f"doc{i}": i for i in range(100_000)}
        self.keys = list(self.table)
        rng = random.Random(1)
        self.order = [rng.randrange(len(self.keys)) for _ in range(20_000)]

    def seconds(self) -> float:
        # Collections would make the sample depend on what the heap holds.
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._run()
        finally:
            if enabled:
                gc.enable()

    def _run(self) -> float:
        t0 = perf_counter()
        for _ in range(2):
            counts: dict[str, int] = {}
            rows = []
            for i in range(30_000):
                key = f"d{i % 4096}"
                counts[key] = counts.get(key, 0) + 1
                rows.append((float(i), key))
        table, keys, heap = self.table, self.keys, []
        for j in self.order:
            key = keys[j]
            heapq.heappush(heap, (table[key], key))
            if len(heap) > 1000:
                heapq.heappop(heap)
        return perf_counter() - t0


def rescaled(seconds, references) -> float:
    """Median of samples, each rescaled by the mean of the reference
    samples before and after it, in seconds at the reference speed."""
    return statistics.median(
        2 * s / (before + after) for s, (before, after) in zip(seconds, references)
    ) * REFERENCE_S


def run_job(w, clock=None, reference=None) -> list:
    """One timed job: each op timed on its own.  With a reference, a
    reference sample is taken before each op and after the last, so that
    every op lies between two samples."""
    ops = []
    before = reference.seconds() if reference is not None else 0.0
    for thunk in w.job():
        if clock is not None:
            clock.events, clock.seconds = 0, 0.0
        t0 = perf_counter()
        op = thunk()
        op.seconds = perf_counter() - t0
        if clock is not None:
            op.replay_events, op.replay_seconds = clock.events, clock.seconds
        if reference is not None:
            after = reference.seconds()
            op.reference_seconds = (before, after)
            before = after
        ops.append(op)
    return ops


def timed_run(workload_cls, seed, scale, seconds, workdir):
    from tracing import ReplayClock

    reference = Reference()
    setup_s, setup_ref = [], []
    w = None
    before = reference.seconds()
    for _ in range(workload_cls.setup_repeats):
        w = None  # release the previous inputs before building the next
        gc.collect()
        w = workload_cls(seed, scale, workdir)
        t0 = perf_counter()
        w.setup()
        setup_s.append(perf_counter() - t0)
        after = reference.seconds()
        setup_ref.append((before, after))
        before = after
    # Collections during the job then traverse only what the program allocates.
    gc.collect()
    gc.freeze()
    ledger = Ledger()
    job_s = []
    by_op: dict[str, list] = {}
    clock = ReplayClock().install()
    try:
        while not job_s or sum(job_s) < seconds:
            ops = run_job(w, clock, reference)
            if not job_s:
                # The number of jobs depends on host speed; memory must not.
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            job_s.append(sum(op.seconds for op in ops))
            ledger.check(w, ops)
            for op in ops:
                by_op.setdefault(op.name, []).append(op)
    finally:
        clock.uninstall()
    ledger.check(w, w.extra_ops())
    refs = {name: [op.reference_seconds for op in ops] for name, ops in by_op.items()}
    op_s = sum(rescaled([op.seconds for op in ops], refs[name]) for name, ops in by_op.items())
    replayed = sum(ops[0].replay_events for ops in by_op.values())
    replay_s = sum(rescaled([op.replay_seconds for op in ops], refs[name])
                   for name, ops in by_op.items())
    metrics = {
        "setup_s": (rescaled(setup_s, setup_ref), "s"),
        "events_per_s": (w.counts.events / op_s, "events/s"),
        "replay_events_per_s": (replayed / replay_s, "events/s"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
    }
    detail = {
        "setup_seconds": setup_s,
        "setup_reference_seconds": setup_ref,
        "op_seconds": {name: [op.seconds for op in ops] for name, ops in by_op.items()},
        "op_replay_seconds": {name: [op.replay_seconds for op in ops] for name, ops in by_op.items()},
        "op_reference_seconds": refs,
    }
    return ledger, metrics, detail


def traced_run(workload_cls, seed, scale, seconds, workdir):
    from tracing import Tracer, exclusive_metrics, layer_metrics
    from zipfcache import trace

    tracer = Tracer(f"{workload_cls.name}:{seed}")
    w = workload_cls(seed, scale, workdir)
    tracer.install()
    try:
        tracer.run("setup", w.setup)
    finally:
        tracer.uninstall()
    gc.collect()
    gc.freeze()
    ledger = Ledger()
    t0 = perf_counter()
    ops = run_job(w)
    untraced_s = perf_counter() - t0
    ledger.check(w, ops)
    tracer.install()
    try:
        ops = tracer.run("job", run_job, w)
    finally:
        tracer.uninstall()
    ledger.check(w, ops)
    ledger.check(w, w.extra_ops())

    tracemalloc.start()
    try:
        n_events = len(trace.generate_trace(w.spec()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    covered = tracer.child_seconds()
    for span, cov in zip(tracer.spans, covered):
        if cov > span.seconds + SPAN_TOLERANCE_S:
            raise RuntimeError(f"span {span.name}: children cover {cov} s of {span.seconds} s")
    job = next(i for i, s in enumerate(tracer.spans) if s.name == "job")
    traced_s = tracer.spans[job].seconds
    # The benchmark's own time inside the job: op glue outside every layer.
    glue_s = tracer.self_seconds()[job]
    in_job = layer_metrics(tracer, tracer.subtree(job))
    accounted = glue_s + sum(in_job[name][0] for name in exclusive_metrics())
    if abs(accounted - traced_s) > SPAN_TOLERANCE_S:
        raise RuntimeError(f"layer self times and glue sum to {accounted} s, "
                           f"job took {traced_s} s")

    metrics = layer_metrics(tracer)
    metrics["trace.bytes_per_event"] = (peak / n_events if n_events else 0.0, "B/event")
    metrics["bench.untraced_job_s"] = (untraced_s, "s")
    metrics["bench.traced_job_s"] = (traced_s, "s")
    metrics["bench.job_glue_s"] = (glue_s, "s")
    metrics["bench.tracing_overhead_s"] = (traced_s - untraced_s, "s")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"spans-{workload_cls.name}-{seed}.json").write_text(tracer.to_json())
    return ledger, metrics, {}


def append_records(path: Path, records: list) -> None:
    old = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(old + records, indent=1) + "\n")


def run_one(args) -> int:
    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = traced_run if args.trace else timed_run
        ledger, metrics, detail = run(cls, seed, args.scale, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ratio = ledger.failed / ledger.attempted
    print(f"{cls.name} seed {seed} scale {args.scale} trace {args.trace}: "
          f"{ledger.attempted} operations, {ledger.failed} failed")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(f"  {'ops_failed_ratio':<44} {ratio:>16.6g} fraction")
    record = {
        "workload": cls.name, "seed": seed, "scale": args.scale, "seconds": args.seconds,
        "trace": args.trace, **host_tags(),
        "attempted": ledger.attempted, "failed": ledger.failed, "ops_failed_ratio": ratio,
        "failures": ledger.failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        **detail,
    }
    print("RECORD " + json.dumps(record))
    if args.record:
        append_records(Path(args.record), [record])
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh child process, one after another."""
    records, attempted, failed, metrics = [], 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        child = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            sys.stdout.write(child.stdout)
            print(f"error: workload {name} exited with code {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        records += [json.loads(l[len("RECORD "):]) for l in lines if l.startswith("RECORD ")]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    if args.record:
        append_records(Path(args.record), records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's acceptance-fixture seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="job time to measure, untraced (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload size; pins apply only at 1")
    parser.add_argument("--record", metavar="PATH", default=None,
                        help="append the tagged result records to this JSON list")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
