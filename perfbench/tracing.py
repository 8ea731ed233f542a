"""In-memory span tracing of zipfcache, installed from outside the package.

`Tracer.install()` wraps the public module functions the benchmark drives
(trace I/O, analytic fits, `simcore.simulate`, `cli.main`) in spans, and
the policy and `PrefetchLayer` callbacks in per-parent-span busy counters.
The callbacks run millions of times per job, so each is recorded as a call
count plus busy seconds on the span that was open when it ran, never as a
span of its own.  Nothing under `src/` is edited; `uninstall()` restores
every patched attribute.

`ReplayClock` is the only instrument of an untraced run: it times each
`simcore.simulate` call as a whole, which the replay throughput needs.
"""

from __future__ import annotations

import json
from time import perf_counter

from zipfcache import analytic, cli, policies, prefetch, simcore, trace

# (module, attribute, span name) of every public function given a span.
SPANNED = (
    (trace, "generate_trace", "trace.generate"),
    (trace, "write_trace_file", "trace.write"),
    (trace, "parse_trace_file", "trace.parse"),
    (trace, "parse_proxy_log", "trace.parse_proxy"),
    (trace, "popularity_histogram", "trace.histogram"),
    (trace, "lifetime_stats", "trace.lifetime"),
    (analytic, "fit_alpha_loglog", "analytic.fit"),
    (analytic, "fit_alpha_three_ways", "analytic.fit"),
)

POLICY_CALLBACKS = (
    "on_hit", "on_miss_admit", "choose_victims",
    "on_modification_fetched", "on_expire_stats",
)
POLICY_CLASSES = (
    (policies.LRUCache, lambda p: "lru"),
    (policies.FIFOCache, lambda p: "fifo"),
    (policies.LFUCache, lambda p: "lfu"),
    (policies.ZBSCache, lambda p: "zbs-byte" if p.byte_metric else "zbs"),
)
PREFETCH_CALLBACKS = ("on_modification", "tick_refetches")
POLICY_IDS = ("lru", "fifo", "lfu", "zbs", "zbs-byte")
PREFETCH_SCHEMES = ("lifetime", "goodfetch")
TRACE_LAYERS = ("generate", "write", "parse", "parse_proxy", "histogram", "lifetime")
CLI_COMMANDS = ("generate", "analyze", "analyze_squid", "simulate")


def _cli_span_name(argv) -> str:
    command = argv[0] if argv else "unknown"
    if command == "analyze" and "--squid" in argv:
        return "cli.analyze_squid"
    return f"cli.{command}"


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


class ReplayClock:
    """Events and host seconds spent inside `simcore.simulate`."""

    def __init__(self):
        self.events = 0
        self.seconds = 0.0
        self._patches = _Patches()

    def install(self) -> "ReplayClock":
        orig = simcore.simulate

        def simulate(events, *args, **kwargs):
            t0 = perf_counter()
            report = orig(events, *args, **kwargs)
            self.seconds += perf_counter() - t0
            self.events += len(events)
            return report

        self._patches.set(simcore, "simulate", simulate)
        self._patches.set(prefetch, "simulate", simulate)
        return self

    def uninstall(self) -> None:
        self._patches.restore()


class Span:
    __slots__ = ("name", "start", "end", "parent", "busy", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent  # index of the parent span, None for a root
        self.start = perf_counter()
        self.end = None
        self.busy: dict[str, list] = {}  # callback key -> [calls, seconds]
        self.counts: dict[str, float] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def count(self, key, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


class Tracer:
    """Spans of one workload run; all of them share `trace_id`."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches = _Patches()

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def run(self, name, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def _busy(self, key: str, seconds: float) -> Span:
        span = self.spans[self._stack[-1]]
        acc = span.busy.get(key)
        if acc is None:
            acc = span.busy[key] = [0, 0.0]
        acc[0] += 1
        acc[1] += seconds
        return span

    # -- instrumentation -----------------------------------------------

    def install(self) -> "Tracer":
        for module, attr, name in SPANNED:
            self._patches.set(module, attr, self._spanned(getattr(module, attr), name))
        simulate = self._simulate(simcore.simulate)
        self._patches.set(simcore, "simulate", simulate)
        self._patches.set(prefetch, "simulate", simulate)
        main = cli.main
        self._patches.set(
            cli, "main", lambda argv=None: self.run(_cli_span_name(argv), main, argv)
        )
        for cls, policy_id in POLICY_CLASSES:
            for meth in POLICY_CALLBACKS:
                self._patches.set(cls, meth, self._policy_cb(getattr(cls, meth), meth, policy_id))
        for meth in PREFETCH_CALLBACKS:
            orig = getattr(prefetch.PrefetchLayer, meth)
            self._patches.set(prefetch.PrefetchLayer, meth, self._prefetch_cb(orig, meth))
        return self

    def uninstall(self) -> None:
        self._patches.restore()

    def _spanned(self, fn, name):
        def wrapper(*args, **kwargs):
            return self.run(name, fn, *args, **kwargs)

        return wrapper

    def _simulate(self, fn):
        def wrapper(events, *args, **kwargs):
            span = self.open("simcore.simulate")
            try:
                report = fn(events, *args, **kwargs)
            finally:
                self.close(span)
            span.count("events_replayed", len(events))
            span.count("evictions", report.evictions)
            span.count("stale_refetches", report.stale_refetches)
            layer = args[1] if len(args) > 1 else kwargs.get("prefetch_layer")
            if layer is not None:
                span.count(f"prefetch.{layer.scheme}.prefetch_fetches", report.prefetch_fetches)
            return report

        return wrapper

    def _policy_cb(self, fn, meth, policy_id):
        victims = meth == "choose_victims"
        keys = {}

        def wrapper(policy, *args):
            t0 = perf_counter()
            out = fn(policy, *args)
            seconds = perf_counter() - t0
            pid = policy_id(policy)
            key = keys.get(pid)
            if key is None:
                key = keys[pid] = (f"policies.{pid}.{meth}", f"policies.{pid}.victims")
            span = self._busy(key[0], seconds)
            if victims:
                span.count(key[1], len(out))
            return out

        return wrapper

    def _prefetch_cb(self, fn, meth):
        scoring = meth == "on_modification"
        keys = {}

        def wrapper(layer, *args, **kwargs):
            t0 = perf_counter()
            out = fn(layer, *args, **kwargs)
            seconds = perf_counter() - t0
            key = keys.get(layer.scheme)
            if key is None:
                key = keys[layer.scheme] = tuple(
                    f"prefetch.{layer.scheme}.{k}" for k in (meth, "scored", "chosen")
                )
            span = self._busy(key[0], seconds)
            if scoring and kwargs.get("resident", args[3] if len(args) > 3 else False):
                span.count(key[1])
                if out:
                    span.count(key[2])
            return out

        return wrapper

    # -- analysis --------------------------------------------------------

    def child_seconds(self) -> list[float]:
        """Per span: time covered by child spans plus callback busy time."""
        covered = [sum(acc[1] for acc in s.busy.values()) for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.seconds
        return covered

    def self_seconds(self) -> list[float]:
        return [s.seconds - c for s, c in zip(self.spans, self.child_seconds())]

    def subtree(self, root: int) -> list[int]:
        """Indices of `root` and every span below it (children follow parents)."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
        return sorted(inside)

    def to_json(self) -> str:
        return json.dumps({
            "trace_id": self.trace_id,
            "spans": [
                {
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "busy": s.busy, "counts": s.counts,
                }
                for s in self.spans
            ],
        })


def exclusive_metrics() -> list[str]:
    """The per-layer seconds metrics that never overlap one another: trace
    and analytic spans are leaves, callbacks do not nest, and the CLI and
    the engine count only their self time.  Over a subtree they add up to
    its duration minus the self time of the spans they do not name."""
    return [
        *(f"trace.{layer}_s" for layer in TRACE_LAYERS),
        "cli.self_s", "analytic.fit_s", "simcore.self_s",
        *(f"policies.{pid}.{meth}_s" for pid in POLICY_IDS for meth in POLICY_CALLBACKS),
        *(f"prefetch.{scheme}.{meth}_s"
          for scheme in PREFETCH_SCHEMES for meth in PREFETCH_CALLBACKS),
    ]


def layer_metrics(tracer: Tracer, indices=None) -> dict[str, tuple[float, str]]:
    """Per-layer totals over the spans at `indices` (default: every span of
    the run), as name -> (value, unit).

    Layers a workload does not exercise report zero.
    """
    own = tracer.self_seconds()
    if indices is None:
        indices = range(len(tracer.spans))
    seconds: dict[str, float] = {}
    self_s: dict[str, float] = {}
    busy: dict[str, list] = {}
    counts: dict[str, float] = {}
    for span, own_s in ((tracer.spans[i], own[i]) for i in indices):
        seconds[span.name] = seconds.get(span.name, 0.0) + span.seconds
        self_s[span.name] = self_s.get(span.name, 0.0) + own_s
        for key, (calls, secs) in span.busy.items():
            acc = busy.setdefault(key, [0, 0.0])
            acc[0] += calls
            acc[1] += secs
        for key, value in span.counts.items():
            counts[key] = counts.get(key, 0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer in TRACE_LAYERS:
        out[f"trace.{layer}_s"] = (seconds.get(f"trace.{layer}", 0.0), "s")
    for command in CLI_COMMANDS:
        out[f"cli.{command}_s"] = (seconds.get(f"cli.{command}", 0.0), "s")
    out["cli.self_s"] = (sum(v for k, v in self_s.items() if k.startswith("cli.")), "s")
    out["analytic.fit_s"] = (seconds.get("analytic.fit", 0.0), "s")
    out["simcore.simulate_s"] = (seconds.get("simcore.simulate", 0.0), "s")
    out["simcore.self_s"] = (self_s.get("simcore.simulate", 0.0), "s")
    out["simcore.events_replayed"] = (counts.get("events_replayed", 0), "count")
    drains = sum(busy.get(f"policies.{p}.choose_victims", (0, 0.0))[0] for p in POLICY_IDS)
    out["simcore.drains"] = (drains, "count")
    out["simcore.evictions"] = (counts.get("evictions", 0), "count")
    out["simcore.stale_refetches"] = (counts.get("stale_refetches", 0), "count")
    for pid in POLICY_IDS:
        key = f"policies.{pid}"
        for meth in POLICY_CALLBACKS:
            out[f"{key}.{meth}_s"] = (busy.get(f"{key}.{meth}", (0, 0.0))[1], "s")
        calls = busy.get(f"{key}.choose_victims", (0, 0.0))[0]
        out[f"{key}.choose_victims_calls"] = (calls, "count")
        out[f"{key}.victims_per_drain"] = (ratio(counts.get(f"{key}.victims", 0), calls), "ratio")
    for scheme in PREFETCH_SCHEMES:
        key = f"prefetch.{scheme}"
        for meth in PREFETCH_CALLBACKS:
            out[f"{key}.{meth}_s"] = (busy.get(f"{key}.{meth}", (0, 0.0))[1], "s")
        out[f"{key}.on_modification_calls"] = (
            busy.get(f"{key}.on_modification", (0, 0.0))[0], "count")
        out[f"{key}.select_ratio"] = (
            ratio(counts.get(f"{key}.chosen", 0), counts.get(f"{key}.scored", 0)), "ratio")
        out[f"{key}.prefetch_fetches"] = (counts.get(f"{key}.prefetch_fetches", 0), "count")
    return out
