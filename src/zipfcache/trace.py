"""Workload traces: synthetic generation, measurement and file formats.

A trace is a time-ordered stream of events.  Requests carry the size the
origin would serve at that moment; modification events mark an origin-side
change and carry the document's new size.  The native file format is CSV
with a fixed header line:

    #zipfcache-trace-v1
    timestamp_s,kind,object_id,size_bytes,cacheable

kind is R (request) or M (modification), cacheable is 0 or 1.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .analytic import DomainError, ZipfLaw, special_points

__all__ = [
    "REQUEST",
    "MODIFICATION",
    "TRACE_HEADER",
    "TraceFormatError",
    "TraceEvent",
    "SyntheticSpec",
    "PopularityHistogram",
    "LifetimeStats",
    "ProxyLogResult",
    "generate_trace",
    "popularity_histogram",
    "lifetime_stats",
    "write_trace_file",
    "parse_trace_file",
    "parse_proxy_log",
]

REQUEST = "R"
MODIFICATION = "M"
TRACE_HEADER = "#zipfcache-trace-v1"

# Squid-style access log statuses that yield a cacheable copy on a GET.
CACHEABLE_STATUSES = frozenset({200, 203, 206, 300, 301, 410})


class TraceFormatError(ValueError):
    """A trace or log file violates the expected format."""


@dataclass(slots=True)
class TraceEvent:
    timestamp: float
    kind: str  # REQUEST or MODIFICATION
    object_id: str
    size_bytes: int
    cacheable: bool = True


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a synthetic workload.

    Requests arrive as a Poisson process at rate `request_rate` (set
    `poisson_arrivals=False` for an evenly spaced stream) and pick a
    document by the discrete law rank**-alpha over `n_objects` ranks.
    Each document is modified by an independent Poisson process whose
    rate is mu_p up to `popular_boundary` ranks and mu_u beyond it; the
    default boundary is the analytic two-request rank.  Initial document
    sizes are log-normal with the given mean and log-space spread, and a
    modification redraws the size.  `p_c` is the probability that a
    request is cacheable.  Identical specs generate identical traces
    (NumPy PCG64 stream seeded with `seed`).
    """

    n_objects: int
    alpha: float
    request_rate: float
    duration: float
    mean_doc_size: float = 10_000.0
    size_spread: float = 1.0
    popular_boundary: int | None = None
    mu_p: float = 0.0
    mu_u: float = 0.0
    p_c: float = 1.0
    seed: int = 0
    poisson_arrivals: bool = True

    def validate(self) -> None:
        if self.n_objects < 1:
            raise DomainError(f"n_objects must be >= 1, got {self.n_objects!r}")
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if self.request_rate < 0:
            raise DomainError(f"request_rate must be >= 0, got {self.request_rate!r}")
        if self.duration < 0:
            raise DomainError(f"duration must be >= 0, got {self.duration!r}")
        if self.mean_doc_size <= 0:
            raise DomainError(f"mean_doc_size must be > 0, got {self.mean_doc_size!r}")
        if self.size_spread < 0:
            raise DomainError(f"size_spread must be >= 0, got {self.size_spread!r}")
        if self.mu_p < 0 or self.mu_u < 0:
            raise DomainError("modification rates must be >= 0")
        if not (0.0 < self.p_c <= 1.0):
            raise DomainError(f"p_c must be in (0, 1], got {self.p_c!r}")
        if self.popular_boundary is not None and self.popular_boundary < 0:
            raise DomainError("popular_boundary must be >= 0")

    def resolved_boundary(self) -> int:
        """Popular/unpopular split rank; analytic two-request rank by default."""
        if self.popular_boundary is not None:
            return min(self.popular_boundary, self.n_objects)
        expected = self.request_rate * self.duration
        if expected < 4.0:
            return 0
        try:
            pts = special_points(ZipfLaw(alpha=self.alpha, a=1.0, k=expected))
        except DomainError:
            return 0
        return min(int(round(pts.m)), self.n_objects)


def _draw_sizes(rng: np.random.Generator, n: int, mean: float, spread: float):
    if spread == 0.0:
        sizes = np.full(n, mean)
    else:
        log_mean = math.log(mean) - 0.5 * spread * spread
        sizes = rng.lognormal(log_mean, spread, n)
    return np.maximum(1, np.rint(sizes)).astype(np.int64)


def generate_trace(spec: SyntheticSpec) -> list[TraceEvent]:
    """Generate a time-ordered synthetic trace from the spec.

    Draw order is fixed (request count, arrival times, ranks, cacheable
    flags, initial sizes, modification counts, times and sizes) so that a
    given spec always produces the same event stream.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n, t_end = spec.n_objects, spec.duration

    expected = spec.request_rate * t_end
    if spec.poisson_arrivals:
        n_req = int(rng.poisson(expected))
        req_times = np.sort(rng.uniform(0.0, t_end, n_req))
    else:
        n_req = int(round(expected))
        req_times = np.arange(n_req, dtype=float) / spec.request_rate if n_req else np.empty(0)

    weights = np.arange(1, n + 1, dtype=float) ** (-spec.alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    req_ranks = np.searchsorted(cdf, rng.random(n_req), side="right")
    cacheable = (
        np.ones(n_req, dtype=bool)
        if spec.p_c >= 1.0
        else rng.random(n_req) < spec.p_c
    )
    sizes = _draw_sizes(rng, n, spec.mean_doc_size, spec.size_spread)

    boundary = spec.resolved_boundary()
    mod_ranks = np.empty(0, dtype=np.int64)
    mod_times = np.empty(0)
    mod_sizes = np.empty(0, dtype=np.int64)
    if (spec.mu_p > 0 or spec.mu_u > 0) and t_end > 0:
        mu = np.where(np.arange(n) < boundary, spec.mu_p, spec.mu_u)
        counts = rng.poisson(mu * t_end)
        total = int(counts.sum())
        if total:
            mod_ranks = np.repeat(np.arange(n), counts)
            mod_times = rng.uniform(0.0, t_end, total)
            mod_sizes = _draw_sizes(rng, total, spec.mean_doc_size, spec.size_spread)

    # Merge the two streams chronologically; requests sort before
    # modifications on (vanishingly rare) equal timestamps.
    times = np.concatenate([req_times, mod_times])
    kinds = np.concatenate([np.zeros(n_req, np.int8), np.ones(len(mod_times), np.int8)])
    ranks = np.concatenate([req_ranks, mod_ranks])
    order = np.lexsort((ranks, kinds, times))

    current = sizes.copy()
    names = [f"d{r + 1}" for r in range(n)]
    events: list[TraceEvent] = []
    append = events.append
    n_req_total = n_req
    for idx in order:
        rank = int(ranks[idx])
        if kinds[idx] == 0:
            append(
                TraceEvent(
                    float(times[idx]),
                    REQUEST,
                    names[rank],
                    int(current[rank]),
                    bool(cacheable[idx]),
                )
            )
        else:
            new_size = int(mod_sizes[idx - n_req_total])
            current[rank] = new_size
            append(TraceEvent(float(times[idx]), MODIFICATION, names[rank], new_size))
    return events


@dataclass
class PopularityHistogram:
    """Request counts per document, sorted descending."""

    counts: np.ndarray
    object_ids: list[str]
    total_requests: int = field(init=False)

    def __post_init__(self) -> None:
        self.total_requests = int(self.counts.sum()) if self.counts.size else 0

    @property
    def unique_docs(self) -> int:
        return int(self.counts.size)

    @property
    def two_plus_docs(self) -> int:
        return int(np.count_nonzero(self.counts >= 2))

    def theta_sum_top(self, top: int) -> int:
        """Total requests landing on the `top` most popular documents."""
        return int(self.counts[: max(0, top)].sum())


def popularity_histogram(events: Iterable[TraceEvent]) -> PopularityHistogram:
    """Per-document request counts in descending order.

    Only request events contribute; ties are broken by object id so the
    ordering is reproducible.
    """
    counter = Counter(e.object_id for e in events if e.kind == REQUEST)
    items = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    ids = [k for k, _ in items]
    counts = np.array([v for _, v in items], dtype=np.int64)
    return PopularityHistogram(counts=counts, object_ids=ids)


@dataclass(frozen=True)
class LifetimeStats:
    """Observed lifetimes of single- and double-request documents.

    t_u    mean span from a lone request to the window end
    t_eff  mean span between first and second request of documents that
           reached two requests inside the window
    None when no document qualifies.
    """

    t_u: float | None
    t_eff: float | None
    once_docs: int
    two_plus_docs: int


def lifetime_stats(
    events: Sequence[TraceEvent], window_seconds: float | None = None
) -> LifetimeStats:
    """Windowed lifetime statistics of the request stream."""
    if not events:
        return LifetimeStats(None, None, 0, 0)
    t0 = events[0].timestamp
    span = events[-1].timestamp - t0
    if window_seconds is None:
        window_seconds = span
    elif window_seconds > span:
        raise DomainError(
            f"window {window_seconds!r}s exceeds stream span {span!r}s"
        )
    w_end = t0 + window_seconds

    first: dict[str, float] = {}
    second: dict[str, float] = {}
    for e in events:
        if e.kind != REQUEST or e.timestamp > w_end:
            continue
        if e.object_id not in first:
            first[e.object_id] = e.timestamp
        elif e.object_id not in second:
            second[e.object_id] = e.timestamp

    once_spans = [w_end - t for o, t in first.items() if o not in second]
    gap_spans = [t2 - first[o] for o, t2 in second.items()]
    t_u = float(np.mean(once_spans)) if once_spans else None
    t_eff = float(np.mean(gap_spans)) if gap_spans else None
    return LifetimeStats(t_u, t_eff, len(once_spans), len(gap_spans))


def write_trace_file(events: Iterable[TraceEvent], path) -> None:
    """Write events in the native format; identical events give identical bytes."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for e in events:
            fh.write(
                f"{e.timestamp!r},{e.kind},{e.object_id},{e.size_bytes},"
                f"{1 if e.cacheable else 0}\n"
            )


def parse_trace_file(path) -> list[TraceEvent]:
    """Parse a native-format trace; errors carry the offending line number."""
    events: list[TraceEvent] = []
    inf = math.inf
    last_t = -sys.float_info.max  # the least finite time, so -inf is out of range
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        if header != TRACE_HEADER:
            raise TraceFormatError(
                f"{path}:1: expected header {TRACE_HEADER!r}, got {header!r}"
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise TraceFormatError(f"{path}:{lineno}: expected 5 fields")
            try:
                ts = float(parts[0])
                size = int(parts[3])
                flag = int(parts[4])
            except ValueError as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
            kind = parts[1]
            if kind not in (REQUEST, MODIFICATION):
                raise TraceFormatError(
                    f"{path}:{lineno}: kind must be R or M, got {kind!r}"
                )
            if size <= 0:
                raise TraceFormatError(f"{path}:{lineno}: size must be > 0")
            if flag not in (0, 1):
                raise TraceFormatError(f"{path}:{lineno}: cacheable must be 0 or 1")
            if not last_t <= ts < inf:
                if not math.isfinite(ts):
                    raise TraceFormatError(
                        f"{path}:{lineno}: timestamp must be finite, got {parts[0]!r}"
                    )
                raise TraceFormatError(
                    f"{path}:{lineno}: timestamp {ts!r} out of order"
                )
            last_t = ts
            events.append(TraceEvent(ts, kind, parts[2], size, bool(flag)))
    return events


@dataclass(frozen=True)
class ProxyLogResult:
    events: list[TraceEvent]
    skipped: int  # unparseable lines
    filtered: int  # parseable lines that are not GET 2xx/3xx


def parse_proxy_log(path) -> ProxyLogResult:
    """Adapt a squid-style access log into request events.

    Expected space-separated layout per line: unix timestamp, elapsed ms,
    client, code/status, bytes, method, URL, ...  GET lines with a 2xx or
    3xx status become request events keyed by URL; the cacheable flag is
    set for statuses 200/203/206/300/301/410.  Unparseable lines are
    counted and skipped, other lines are counted as filtered; a line with a
    non-finite timestamp is an error.  Events are
    re-sorted by timestamp since real logs are ordered by completion time.
    """
    events: list[TraceEvent] = []
    skipped = 0
    filtered = 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if len(parts) < 7:
                if line.strip():
                    skipped += 1
                continue
            try:
                ts = float(parts[0])
                size = int(parts[4])
                status = int(parts[3].rsplit("/", 1)[-1])
            except (ValueError, IndexError):
                skipped += 1
                continue
            if not math.isfinite(ts):
                raise TraceFormatError(
                    f"{path}:{lineno}: timestamp must be finite, got {parts[0]!r}"
                )
            method, url = parts[5], parts[6]
            if method != "GET" or not (200 <= status < 400):
                filtered += 1
                continue
            events.append(
                TraceEvent(ts, REQUEST, url, max(1, size), status in CACHEABLE_STATUSES)
            )
    events.sort(key=lambda e: e.timestamp)
    return ProxyLogResult(events, skipped, filtered)
