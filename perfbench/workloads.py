"""The benchmark's workloads: inputs from a seed, the timed job, and checks.

Every workload follows one protocol:

    w = Workload(seed, scale, workdir)
    w.setup()          untimed preparation (trace, rendered files, footprint)
    w.job()            the timed job: one thunk per CLI command or library
                       call, each returning an Op; the runner times each
    w.check(op)        problems found in one op's output, [] when correct
    w.extra_ops()      untimed correctness-only ops, run once per process

Checks come in two kinds.  Independent checks compare outputs with counts
the benchmark takes from the generated trace itself, so they hold on any
seed.  Pins compare outputs with `pins.json`, which was recorded at the
seed commit; they apply only at a workload's default seed and scale.

The hit-ratio model is unvalidated: the repository holds no real proxy
logs, so the simulated numbers are checked only against invariants and
pins, never against measured caches.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from zipfcache import cli, prefetch, simcore, trace
from zipfcache.analytic import DAY

PINS_PATH = Path(__file__).with_name("pins.json")


@dataclass
class Op:
    """One operation of a job: its output, or why it did not produce one."""

    name: str
    output: object = None
    error: str | None = None
    # Filled in by the runner: host seconds of the call, the events replayed
    # and host seconds spent inside simcore.simulate during it, and the
    # host seconds of the reference samples taken just before and after it.
    seconds: float = 0.0
    replay_events: int = 0
    replay_seconds: float = 0.0
    reference_seconds: tuple[float, float] = (0.0, 0.0)


class TraceCounts:
    """Counts of a trace, taken by the benchmark and not by zipfcache."""

    def __init__(self, events):
        requests = [e for e in events if e.kind == trace.REQUEST]
        self.events = len(events)
        self.requests = len(requests)
        self.docs = Counter(e.object_id for e in requests)
        self.cacheable_docs = Counter(e.object_id for e in requests if e.cacheable)
        self.cacheable = sum(self.cacheable_docs.values())
        # Bytes of every requested document at its first request.
        first: dict[str, int] = {}
        for e in requests:
            first.setdefault(e.object_id, e.size_bytes)
        self.footprint = sum(first.values())

    def capacity(self, fraction: float) -> int:
        return round(fraction * self.footprint)


def _two_plus(counter: Counter) -> int:
    return sum(1 for v in counter.values() if v >= 2)


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_report(rep: dict, counts: TraceCounts, capacity: float) -> list[str]:
    """Independent checks of one simulation report."""
    problems: list[str] = []
    _expect(problems, "requests", rep["requests"], counts.requests)
    _expect(problems, "cacheable_requests", rep["cacheable_requests"], counts.cacheable)
    _expect(problems, "unique_docs", rep["unique_docs"], len(counts.cacheable_docs))
    _expect(problems, "two_plus_docs", rep["two_plus_docs"], _two_plus(counts.cacheable_docs))
    if rep["requests"]:
        _expect(problems, "hit_ratio", rep["hit_ratio"], rep["hits"] / rep["requests"])
    if rep["kernel_occupancy_bytes"] + rep["accessory_occupancy_bytes"] > capacity:
        problems.append("occupancy exceeds capacity")
    return problems


def run_cli(name: str, argv: list[str]) -> Op:
    """`cli.main` in process; its stdout is the op's output."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        return Op(name, error=f"raised {exc!r}")
    if code != 0:
        return Op(name, error=f"exit code {code}: {err.getvalue().strip()}")
    return Op(name, output=out.getvalue())


def run_simulate(name: str, events, config, scheme: str | None = None) -> Op:
    """Library `simulate`, over a fresh prefetch layer when `scheme` is set."""
    try:
        layer = prefetch.PrefetchLayer(scheme) if scheme else None
        report = simcore.simulate(events, config, layer)
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        return Op(name, error=f"raised {exc!r}")
    return Op(name, output=report.to_dict())


class Workload:
    name = ""
    default_seed = 0
    # Setup runs this many times and reports the median; shorter setups are
    # noisier, so they repeat more (about 2-5 s of setup in all).
    setup_repeats = 5

    def __init__(self, seed: int, scale: float, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
        pinned = seed == self.default_seed and scale == 1.0
        self.pins: dict = pins.get(self.name, {}) if pinned else {}

    def scaled(self, n: int) -> int:
        return max(1, round(n * self.scale))

    def spec(self) -> trace.SyntheticSpec:
        raise NotImplementedError

    def setup(self) -> None:
        self.events = trace.generate_trace(self.spec())
        self.counts = TraceCounts(self.events)

    def job(self) -> list:
        raise NotImplementedError

    def extra_ops(self) -> list[Op]:
        return []

    def observed(self, op: Op):
        """The part of an op's output that pins record."""
        return op.output

    def independent(self, op: Op, value) -> list[str]:
        raise NotImplementedError

    def check(self, op: Op) -> list[str]:
        if op.error is not None:
            return [op.error]
        try:
            value = self.observed(op)
            problems = self.independent(op, value)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]
        if op.name in self.pins and json.loads(json.dumps(value)) != self.pins[op.name]:
            problems.append("output differs from the pinned seed-commit output")
        return problems


class Pipeline(Workload):
    """A static trace through the four-step CLI flow a user runs."""

    name = "pipeline"
    default_seed = 11
    setup_repeats = 7
    DOCS, REQUESTS, DAYS, ALPHA = 20_000, 100_000, 30, 0.8
    SWEEP = (0.05, 0.20, 0.40)
    PLANTED_PER_KIND = 1 / 200  # of the request count, for each planted line kind

    def spec(self):
        return trace.SyntheticSpec(
            n_objects=self.scaled(self.DOCS), alpha=self.ALPHA,
            request_rate=float(self.scaled(self.REQUESTS)) / (float(self.DAYS) * DAY),
            duration=float(self.DAYS) * DAY, seed=self.seed,
        )

    def setup(self):
        super().setup()
        self.native = self.workdir / "trace.csv"
        self.squid = self.workdir / "access.log"
        self.planted = write_squid_log(
            self.events, self.squid, np.random.default_rng([self.seed, 1]),
            max(1, round(self.PLANTED_PER_KIND * self.counts.requests)),
        )
        self.sweep = [self.counts.capacity(f) for f in self.SWEEP]
        self.capacity = self.counts.capacity(0.20)

    def job(self):
        native, squid = str(self.native), str(self.squid)
        cap = str(self.capacity)
        return [
            partial(run_cli, "generate", [
                "generate", "--objects", str(self.scaled(self.DOCS)),
                "--alpha", str(self.ALPHA), "--requests", str(float(self.scaled(self.REQUESTS))),
                "--duration-days", str(self.DAYS), "--seed", str(self.seed), "-o", native,
            ]),
            partial(run_cli, "analyze", ["analyze", native]),
            partial(run_cli, "analyze-squid", ["analyze", "--squid", squid]),
            partial(run_cli, "simulate-lru-sweep", [
                "simulate", "--policy", "lru", "--trace", native,
                "--sweep", ",".join(str(c) for c in self.sweep),
            ]),
            partial(run_cli, "simulate-fifo",
                    ["simulate", "--policy", "fifo", "--trace", native, "--capacity", cap]),
            partial(run_cli, "simulate-lfu",
                    ["simulate", "--policy", "lfu", "--trace", native, "--capacity", cap]),
        ]

    def extra_ops(self):
        return [run_simulate("unbounded-lru", self.events, simcore.CacheConfig(policy_id="lru"))]

    def observed(self, op):
        if op.name == "generate":
            return [line for line in op.output.splitlines() if not line.startswith("wrote ")]
        if op.name == "unbounded-lru":
            return op.output
        value = json.loads(op.output)
        drop = ("input", "config")
        if isinstance(value, list):
            return [{k: v for k, v in r.items() if k not in drop} for r in value]
        return {k: v for k, v in value.items() if k not in drop}

    def independent(self, op, value):
        counts = self.counts
        problems: list[str] = []
        if op.name == "generate":
            mods = counts.events - counts.requests
            _expect(problems, "summary", value[0],
                    f"events {counts.events} ({counts.requests} requests, {mods} modifications)")
        elif op.name.startswith("analyze"):
            _expect(problems, "total_requests", value["total_requests"], counts.requests)
            _expect(problems, "unique_docs", value["unique_docs"], len(counts.docs))
            _expect(problems, "two_plus_docs", value["two_plus_docs"], _two_plus(counts.docs))
            if op.name == "analyze-squid":
                skipped, filtered = self.planted
                _expect(problems, "skipped_lines", value["skipped_lines"], skipped)
                _expect(problems, "filtered_requests", value["filtered_requests"], filtered)
        elif op.name == "unbounded-lru":
            problems += check_report(value, counts, float("inf"))
            _expect(problems, "unbounded hits", value["hits"],
                    counts.cacheable - len(counts.cacheable_docs))
        else:
            caps = self.sweep if op.name == "simulate-lru-sweep" else [self.capacity]
            if isinstance(value, dict):
                value = [value]
            _expect(problems, "report count", len(value), len(caps))
            for rep, cap in zip(value, caps):
                problems += check_report(rep, counts, cap)
        return problems


def write_squid_log(events, path: Path, rng: np.random.Generator, per_kind: int):
    """Render requests as squid access-log lines and plant `per_kind` lines of
    each kind parse_proxy_log must not turn into events: non-GET and 404
    lines (filtered) and two shapes of malformed line (skipped).

    Returns the expected (skipped, filtered) counts.
    """
    requests = [e for e in events if e.kind == trace.REQUEST]
    kinds = ["post", "404", "short", "bad-time"] * per_kind
    at = np.sort(rng.integers(0, len(requests) + 1, len(kinds)))
    order = rng.permutation(len(kinds))
    planted = sorted(zip(at.tolist(), (kinds[i] for i in order)))
    templates = {
        "post": "{t!r} 0 10.0.0.1 TCP_MISS/200 512 POST /form - DIRECT/origin text/html",
        "404": "{t!r} 0 10.0.0.1 TCP_MISS/404 300 GET /missing - DIRECT/origin text/html",
        "short": "{t!r} truncated",
        "bad-time": "not-a-time 0 10.0.0.1 TCP_MISS/200 100 GET /x - DIRECT/origin text/html",
    }
    k = 0
    t = 0.0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, e in enumerate(requests):
            while k < len(planted) and planted[k][0] == i:
                fh.write(templates[planted[k][1]].format(t=t) + "\n")
                k += 1
            t = e.timestamp
            status = 200 if e.cacheable else 304
            fh.write(f"{t!r} 0 10.0.0.1 TCP_MISS/{status} {e.size_bytes} GET "
                     f"{e.object_id} - DIRECT/origin text/html\n")
        for _, kind in planted[k:]:
            fh.write(templates[kind].format(t=t) + "\n")
    return 2 * per_kind, 2 * per_kind


class _LibraryWorkload(Workload):
    """Library `simulate` calls over an in-memory trace at 20 % of its footprint."""

    def setup(self):
        super().setup()
        self.capacity = self.counts.capacity(0.20)

    def independent(self, op, value):
        return check_report(value, self.counts, self.capacity)


class RenewalZbs(_LibraryWorkload):
    """The acceptance renewal shape, replayed through zbs and zbs-byte."""

    name = "renewal-zbs"
    default_seed = 23
    setup_repeats = 15
    # The acceptance fixture has 400k documents and 1M requests.  Documents,
    # requests and the popular boundary scale together, so the kernel holds
    # the same share of the documents at any scale.
    DOCS, REQUESTS, BOUNDARY, DAYS = 25_000, 62_500, 312, 30

    def spec(self):
        return trace.SyntheticSpec(
            n_objects=self.scaled(self.DOCS), alpha=0.72,
            request_rate=self.scaled(self.REQUESTS) / (self.DAYS * DAY),
            duration=self.DAYS * DAY, popular_boundary=self.scaled(self.BOUNDARY),
            mu_p=1.0 / (6.2 * DAY), mu_u=1.0 / (202.0 * DAY), seed=self.seed,
        )

    def job(self):
        return [
            partial(run_simulate, pid, self.events,
                    simcore.CacheConfig(capacity_bytes=self.capacity, policy_id=pid))
            for pid in ("zbs", "zbs-byte")
        ]


class ChurnPrefetch(_LibraryWorkload):
    """Modification-heavy long-horizon trace under lru with each prefetch layer."""

    name = "churn-prefetch"
    default_seed = 23
    DOCS, REQUESTS, BOUNDARY, DAYS = 25_000, 200_000, 1_250, 120

    def spec(self):
        return trace.SyntheticSpec(
            n_objects=self.scaled(self.DOCS), alpha=0.72,
            request_rate=self.scaled(self.REQUESTS) / (self.DAYS * DAY),
            duration=self.DAYS * DAY, popular_boundary=self.scaled(self.BOUNDARY),
            mu_p=1.0 / (2.0 * DAY), mu_u=1.0 / (30.0 * DAY), seed=self.seed,
        )

    def job(self):
        config = simcore.CacheConfig(capacity_bytes=self.capacity, policy_id="lru")
        # The layer is built inside the thunk: it holds per-run state.
        return [
            partial(run_simulate, f"lru+{scheme}", self.events, config, scheme=scheme)
            for scheme in ("lifetime", "goodfetch")
        ]


WORKLOADS = {w.name: w for w in (Pipeline, RenewalZbs, ChurnPrefetch)}
