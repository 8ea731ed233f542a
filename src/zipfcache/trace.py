"""Workload traces: synthetic generation, measurement and file formats.

A trace is a time-ordered stream of events.  Requests carry the size the
origin would serve at that moment; modification events mark an origin-side
change and carry the document's new size.

In memory a trace is one `Trace`: five NumPy columns, one entry per
event, plus a table of the object ids in order of first appearance.
Every producer here (`generate_trace`, `parse_trace_file`,
`parse_proxy_log`) returns one, and every consumer (`popularity_histogram`,
`lifetime_stats`, `write_trace_file`, the replay engine) takes one and
reads its columns.  A `Trace` is valid once built, so no consumer checks
it again.  By hand, a trace is built from `TraceEvent` rows, and
iterating a `Trace` boxes its events back into rows.

The native file format is CSV with a fixed header line:

    #zipfcache-trace-v1
    timestamp_s,kind,object_id,size_bytes,cacheable

kind is R (request) or M (modification), cacheable is 0 or 1.  Both
producers of a `Trace` from scratch run in NumPy's C code:
`generate_trace` merges the time-ordered requests with the sorted
modifications by binary search, and `parse_trace_file` reads each chunk
of lines with NumPy's C text reader and checks it in bulk.  A chunk the
reader or a check refuses is parsed again line by line, which yields the
same events or the error of its first bad line.  `parse_proxy_log` reads
line by line throughout, as a real log holds lines to skip or filter
everywhere.

Every per-document pass (size anchoring, lifetimes, the prefetch
layer's counts, the exact LRU pass) groups events by `_doc_order`, one
sort of int64 (document, position) keys: codes times length < 2**63.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain, starmap
from typing import Iterable

import numpy as np

from .analytic import DomainError, ZipfLaw, special_points

__all__ = [
    "REQUEST",
    "MODIFICATION",
    "TRACE_HEADER",
    "TraceFormatError",
    "TraceEvent",
    "Trace",
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

# The event kind of each code of the `Trace.kind` column.
_KIND_NAMES = np.array([REQUEST, MODIFICATION], dtype=object)

# Squid-style access log statuses that yield a cacheable copy on a GET.
CACHEABLE_STATUSES = frozenset({200, 203, 206, 300, 301, 410})

# Events boxed or handed to the engine per chunk of column values.
_ROWS_PER_CHUNK = 1 << 13
# Bytes of native-format text parsed at a time; bounds the transient
# strings of a parse to a few MB whatever the file size.
_PARSE_CHUNK_BYTES = 1 << 18
# One native-format row as NumPy's C text reader reads it.  The kind and
# id are exact strings: a fixed-width string type would drop trailing
# NULs and read "R\x00" as "R".
_ROW_DTYPE = np.dtype([("t", "f8"), ("kind", "O"), ("obj", "O"), ("size", "i8"),
                       ("flag", "i1")])
_INT64_MAX = np.iinfo(np.int64).max
# The largest |timestamp| a trace holds, s.  Within it a day spans over a
# hundred float steps, so the prefetch layer's daily ticks are distinct.
_TIME_LIMIT = 1e18
# The most requests, and the most modifications, a `SyntheticSpec` may expect.
_MAX_EXPECTED_EVENTS = 2**31 - 1


class TraceFormatError(ValueError):
    """A trace or log file violates the expected format."""


@dataclass(slots=True)
class TraceEvent:
    timestamp: float
    kind: str  # REQUEST or MODIFICATION
    object_id: str
    size_bytes: int
    cacheable: bool = True


class _Intern(dict):
    """Object id -> code, numbering new ids in order of first lookup."""

    __slots__ = ()

    def __missing__(self, key: str) -> int:
        code = self[key] = len(self)
        return code


class Trace:
    """A time-ordered event stream held as columns.

    t          float64  timestamp, s
    kind       int8     0 request, 1 modification
    obj        int32    index into `ids`
    size       int64    size_bytes
    cacheable  bool

    `ids` lists the object ids, each once; the producers in this module
    number them in order of first appearance.  A table that lists an id
    twice, a code outside it or a kind other than 0 or 1 is refused with
    `ValueError`, and so is an event stream that is not valid: every
    timestamp must be finite, at most 1e18 s from 0 and at least the one
    before it, and every size at least 1.  The error names the first
    offending event.  Every consumer relies on this and checks none of it
    again.

    The columns are read-only.  Iteration boxes the events into
    `TraceEvent` rows a chunk at a time, and `==` compares the event
    streams of two traces.
    """

    __slots__ = ("t", "kind", "obj", "size", "cacheable", "ids")

    def __init__(self, t, kind, obj, size, cacheable, ids: list[str]):
        self.t = np.asarray(t, dtype=np.float64)
        self.kind = np.asarray(kind, dtype=np.int8)
        self.obj = np.asarray(obj, dtype=np.int32)
        self.size = np.asarray(size, dtype=np.int64)
        self.cacheable = np.asarray(cacheable, dtype=bool)
        self.ids = ids
        n = len(self.t)
        for col in (self.t, self.kind, self.obj, self.size, self.cacheable):
            if col.shape != (n,):
                raise ValueError("trace columns must be 1-D and of equal length")
            col.flags.writeable = False
        if len(set(ids)) != len(ids):
            raise ValueError("the id table of a trace lists an object id twice")
        if n and (int(self.obj.min()) < 0 or int(self.obj.max()) >= len(ids)):
            raise ValueError(f"object codes must lie in [0, {len(ids)})")
        if n and (int(self.kind.min()) < 0 or int(self.kind.max()) > 1):
            raise ValueError("event kind codes must be 0 (request) or 1 (modification)")
        t = self.t
        bad = np.flatnonzero(~(np.abs(t) <= _TIME_LIMIT) | np.r_[False, t[1:] < t[:-1]])
        if len(bad):
            i = int(bad[0])
            if not math.isfinite(t[i]):
                raise ValueError(f"non-finite timestamp {float(t[i])!r}")
            if not abs(t[i]) <= _TIME_LIMIT:
                raise ValueError(
                    f"timestamp {float(t[i])!r} beyond {_TIME_LIMIT:g} s in magnitude")
            raise ValueError(
                f"trace not time-ordered: {float(t[i])!r} after {float(t[i - 1])!r}")
        if n and int(self.size.min()) < 1:
            i = int(np.argmax(self.size < 1))
            raise ValueError(f"event size must be >= 1, got {int(self.size[i])} "
                             f"at {float(t[i])!r}")

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "Trace":
        """The events as a `Trace`, ids numbered in order of first appearance."""
        codes = {REQUEST: 0, MODIFICATION: 1}
        table = _Intern()
        t, kind, obj, size, cacheable = [], [], [], [], []
        for e in events:
            try:
                kind.append(codes[e.kind])
            except KeyError:
                raise ValueError(
                    f"event kind must be {REQUEST!r} or {MODIFICATION!r}, got {e.kind!r}"
                ) from None
            t.append(e.timestamp)
            obj.append(table[e.object_id])
            size.append(e.size_bytes)
            cacheable.append(e.cacheable)
        return cls(t, kind, obj, size, cacheable, list(table))

    def __len__(self) -> int:
        return len(self.t)

    def chunks(self):
        """Yield the events a chunk at a time, each chunk an iterator of
        plain-value rows (timestamp, kind, object_id, size_bytes, cacheable)."""
        ids = np.array(self.ids, dtype=object)
        for lo in range(0, len(self), _ROWS_PER_CHUNK):
            part = slice(lo, lo + _ROWS_PER_CHUNK)
            yield zip(
                self.t[part].tolist(),
                _KIND_NAMES[self.kind[part]].tolist(),
                ids[self.obj[part]].tolist(),
                self.size[part].tolist(),
                self.cacheable[part].tolist(),
            )

    def __iter__(self):
        return starmap(TraceEvent, chain.from_iterable(self.chunks()))

    def __eq__(self, other):
        if isinstance(other, Trace):
            return len(self) == len(other) and all(
                np.array_equal(a, b) for a, b in (
                    (self.t, other.t), (self.kind, other.kind), (self.size, other.size),
                    (self.cacheable, other.cacheable),
                    (np.array(self.ids, dtype=object)[self.obj],
                     np.array(other.ids, dtype=object)[other.obj]),
                )
            )
        return NotImplemented


def _doc_order(doc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, first): the positions of a column of document codes grouped
    by document, each group in position order, and a mask over `order`
    true at each group's first position."""
    n = len(doc)
    key = doc.astype(np.int64)
    key *= n
    key += np.arange(n)
    key.sort()
    key %= max(n, 1)
    grouped = doc[key]
    first = np.ones(n, bool)
    first[1:] = grouped[1:] != grouped[:-1]
    return key, first


def _doc_running_counts(order: np.ndarray, first: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """For each position of a column grouped by `_doc_order` into (order,
    first), how many positions of its document at or before it are
    flagged in the bool column `mark`."""
    n = len(order)
    flagged = mark[order]
    counts = np.cumsum(flagged, dtype=np.int32 if n < 2**31 else np.int64)
    # Each group less the flags of the groups before it.
    start = np.flatnonzero(first)
    out = np.repeat(counts[start] - flagged[start], np.diff(start, append=n))
    counts -= out
    out[order] = counts  # back in position order, in the spent buffer
    return out


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

    A spec that expects more than 2**31 - 1 requests (request_rate *
    duration) or modifications ((mu_p b + mu_u (n_objects - b)) duration,
    b = `resolved_boundary()`), far beyond any trace that fits in memory,
    is refused with `DomainError`.
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

    def __post_init__(self) -> None:
        for name in ("request_rate", "duration", "mean_doc_size", "size_spread",
                     "mu_p", "mu_u"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
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
        requests = self.request_rate * self.duration
        if requests > _MAX_EXPECTED_EVENTS:
            raise DomainError(f"request_rate * duration expects {requests:g} requests; "
                              f"a spec may expect at most {_MAX_EXPECTED_EVENTS}")
        b = self.resolved_boundary()
        # NaN only at duration 0 with an infinite sum, where none is drawn.
        mods = (self.mu_p * b + self.mu_u * (self.n_objects - b)) * self.duration
        if mods > _MAX_EXPECTED_EVENTS:
            raise DomainError(f"mu_p and mu_u over duration expect {mods:g} modifications; "
                              f"a spec may expect at most {_MAX_EXPECTED_EVENTS}")

    def resolved_boundary(self) -> int:
        """Popular/unpopular split rank; analytic two-request rank by default."""
        if self.popular_boundary is not None:
            return min(self.popular_boundary, self.n_objects)
        expected = self.request_rate * self.duration
        if expected < 4.0:
            return 0
        try:
            pts = special_points(ZipfLaw(alpha=self.alpha, k=expected))
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


def generate_trace(spec: SyntheticSpec) -> Trace:
    """Generate a time-ordered synthetic trace from the spec.

    Draw order is fixed (request count, arrival times, ranks, cacheable
    flags, initial sizes, modification counts, times and sizes) so that a
    given spec always produces the same event stream.
    """
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

    # Merge the two streams in (time, kind, rank) order: at an equal time a
    # request precedes a modification, and events of one kind go by rank.
    # The requests are in time order already, so only requests at an equal
    # time need reordering.  Each temporary of one entry per event is
    # dropped once used, which keeps the peak near three times the
    # finished columns.
    if n_req > 1 and (req_times[1:] == req_times[:-1]).any():
        by_rank = np.lexsort((req_ranks, req_times))
        req_ranks, cacheable = req_ranks[by_rank], cacheable[by_rank]
        del by_rank
    # A stable sort keeps the rank order of `mod_ranks`, repeat(arange(n)).
    by_time = np.argsort(mod_times, kind="stable")
    mod_times, mod_ranks, mod_sizes = mod_times[by_time], mod_ranks[by_time], mod_sizes[by_time]
    del by_time
    n_mod = len(mod_times)
    # A modification goes after every request at or before its time.
    at = np.searchsorted(req_times, mod_times, side="right")
    at += np.arange(n_mod)
    kind = np.zeros(n_req + n_mod, np.int8)
    kind[at] = 1
    del at
    is_mod = kind.view(bool)
    is_req = ~is_mod
    t = np.empty(len(kind))
    t[is_req], t[is_mod] = req_times, mod_times
    del req_times, mod_times
    rank = np.empty(len(kind), np.int64)
    rank[is_req], rank[is_mod] = req_ranks, mod_ranks
    del req_ranks, mod_ranks
    flags = np.ones(len(kind), bool)
    flags[is_req] = cacheable
    cacheable = flags
    del is_req, flags

    # A modification carries its own size; a request carries the size of
    # its document's latest modification before it, or the initial size.
    size = sizes[rank]
    size[is_mod] = mod_sizes
    del sizes, mod_sizes
    if n_mod:
        # Within each rank, in time order, every event takes the size of
        # the last modification at or before it, else the rank's first event.
        by_rank, anchor = _doc_order(rank)
        anchor |= is_mod[by_rank]
        # In place, to hold one temporary fewer at the peak.
        last = np.arange(len(anchor))
        last *= anchor
        del anchor
        np.maximum.accumulate(last, out=last)
        last = by_rank[last]
        size[by_rank] = size[last]
        del by_rank, last

    # Number the documents in order of first appearance.
    first = np.full(n, len(rank))
    np.minimum.at(first, rank, np.arange(len(rank)))
    appear = np.argsort(first)[: np.count_nonzero(first < len(rank))]
    code = np.empty(n, dtype=np.int32)
    code[appear] = np.arange(len(appear), dtype=np.int32)
    ids = [f"d{r}" for r in (appear + 1).tolist()]
    obj = code[rank]
    del rank
    return Trace(t, kind, obj, size, cacheable, ids)


@dataclass
class PopularityHistogram:
    """Request counts per document, sorted descending."""

    counts: np.ndarray

    @property
    def total_requests(self) -> int:
        return int(self.counts.sum())

    @property
    def unique_docs(self) -> int:
        return int(self.counts.size)

    @property
    def two_plus_docs(self) -> int:
        return int(np.count_nonzero(self.counts >= 2))

    def theta_sum_top(self, top: int) -> int:
        """Total requests landing on the `top` most popular documents."""
        return int(self.counts[: max(0, top)].sum())


def popularity_histogram(trace: Trace) -> PopularityHistogram:
    """Per-document request counts in descending order; only request
    events contribute."""
    counts = np.bincount(trace.obj[trace.kind == 0])
    counts = np.sort(counts[counts > 0])[::-1]
    return PopularityHistogram(counts=counts.astype(np.int64))


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


def lifetime_stats(trace: Trace, window_seconds: float | None = None) -> LifetimeStats:
    """Windowed lifetime statistics of the request stream.

    The spans are averaged in the order of the requests that define them
    (first requests for t_u, second requests for t_eff).
    """
    if not len(trace):
        return LifetimeStats(None, None, 0, 0)
    t0 = float(trace.t[0])
    span = float(trace.t[-1]) - t0
    if window_seconds is None:
        window_seconds = span
    elif window_seconds > span:
        raise DomainError(
            f"window {window_seconds!r}s exceeds stream span {span!r}s"
        )
    w_end = t0 + window_seconds

    picked = np.flatnonzero((trace.kind == 0) & (trace.t <= w_end))
    t = trace.t[picked]
    obj = trace.obj[picked]
    # Requests grouped by document, each group in time order.
    by_obj, is_start = _doc_order(obj)
    starts = np.flatnonzero(is_start)
    repeats = np.diff(starts, append=len(obj)) >= 2
    first = by_obj[starts]
    once = np.sort(first[~repeats])
    second = by_obj[starts[repeats] + 1]
    by_second = np.argsort(second)
    once_spans = w_end - t[once]
    gap_spans = t[second[by_second]] - t[first[repeats][by_second]]
    t_u = float(np.mean(once_spans)) if len(once_spans) else None
    t_eff = float(np.mean(gap_spans)) if len(gap_spans) else None
    return LifetimeStats(t_u, t_eff, len(once_spans), len(gap_spans))


def _unwritable_id(trace: Trace) -> str | None:
    """The first object id in use that the native format cannot hold."""
    used = np.bincount(trace.obj, minlength=len(trace.ids)).nonzero()[0]
    for i in used.tolist():
        oid = trace.ids[i]
        if "," in oid or "\n" in oid or "\r" in oid or not oid.isascii():
            return oid
    return None


def write_trace_file(trace: Trace, path) -> None:
    """Write a trace in the native format; equal traces give identical bytes.

    An object id holding a comma, a line break or a non-ASCII character
    could not be read back, so it is refused before the file is opened.
    No `Trace` holds a time or size the parser would refuse.
    """
    bad = _unwritable_id(trace)
    if bad is not None:
        raise TraceFormatError(
            f"object id {bad!r} cannot be written: the native format allows "
            "no comma, line break or non-ASCII character in an id"
        )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for rows in trace.chunks():
            fh.write("".join([f"{t!r},{kind},{obj},{size},{1 if cacheable else 0}\n"
                              for t, kind, obj, size, cacheable in rows]))


def _time_error(path, lineno: int, ts: float, text: str) -> TraceFormatError:
    """The error of a line whose timestamp no `Trace` holds."""
    if math.isfinite(ts):
        return TraceFormatError(
            f"{path}:{lineno}: timestamp must be within +-{_TIME_LIMIT:g} s, got {text!r}")
    return TraceFormatError(f"{path}:{lineno}: timestamp must be finite, got {text!r}")


def _parse_lines(path, lines: list[str], lineno: int, last_t: float):
    """Columns (t, is_mod, ids, size, cacheable) of `lines`, numbered from
    `lineno`, parsed one line at a time; the first bad line raises its
    error."""
    t, is_mod, ids, size, cacheable = [], [], [], [], []
    for lineno, line in enumerate(lines, start=lineno):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise TraceFormatError(f"{path}:{lineno}: expected 5 fields")
        try:
            ts = float(parts[0])
            nbytes = int(parts[3])
            flag = int(parts[4])
        except ValueError as exc:
            raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
        kind = parts[1]
        if kind not in (REQUEST, MODIFICATION):
            raise TraceFormatError(
                f"{path}:{lineno}: kind must be R or M, got {kind!r}"
            )
        if nbytes <= 0:
            raise TraceFormatError(f"{path}:{lineno}: size must be > 0")
        if flag not in (0, 1):
            raise TraceFormatError(f"{path}:{lineno}: cacheable must be 0 or 1")
        if not -_TIME_LIMIT <= ts <= _TIME_LIMIT:
            raise _time_error(path, lineno, ts, parts[0])
        if ts < last_t:
            raise TraceFormatError(
                f"{path}:{lineno}: timestamp {ts!r} out of order"
            )
        if nbytes > _INT64_MAX:
            raise TraceFormatError(f"{path}:{lineno}: size must be < 2**63")
        last_t = ts
        t.append(ts)
        is_mod.append(kind == MODIFICATION)
        ids.append(parts[2])
        size.append(nbytes)
        cacheable.append(flag == 1)
    return (np.array(t, np.float64), np.array(is_mod, bool), ids,
            np.array(size, np.int64), np.array(cacheable, bool))


def _read_rows(lines: list[str], last_t: float):
    """Columns (t, is_mod, ids, size, cacheable) of `lines` from NumPy's C
    text reader, or None if the reader or a check refuses any line."""
    try:
        with warnings.catch_warnings():
            # Older NumPy reads an integer field it cannot parse, "1.5" or
            # "300" for int8, through float with a DeprecationWarning.
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(lines, delimiter=",", dtype=_ROW_DTYPE, comments=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    t, kind, size, flag = rows["t"], rows["kind"], rows["size"], rows["flag"]
    # In order, the times lie between the first and the last; a NaN is
    # never in order.
    if not (
        {REQUEST, MODIFICATION}.issuperset(kind.tolist())
        and size.min() > 0 and ((flag == 0) | (flag == 1)).all()
        and t[0] >= last_t and t[-1] <= _TIME_LIMIT and (t[1:] >= t[:-1]).all()
    ):
        return None
    # Copies of the number fields, so that no view keeps `rows`, and with
    # it a string per field, alive.
    return t.copy(), kind == MODIFICATION, rows["obj"].tolist(), size.copy(), flag == 1


def parse_trace_file(path) -> Trace:
    """Parse a native-format trace; errors carry the offending line number.

    The file is read a bounded chunk of lines at a time.  Each chunk goes
    first to NumPy's C text reader, and its columns are checked in bulk.
    The reader accepts a strict subset of what `float` and `int` accept
    (no `1_0` digits, no whitespace-only line) and reads the kind and id
    fields as exact strings, so a chunk it reads and the checks pass holds
    the events a line-by-line parse gives.  Any other chunk is parsed line
    by line, which gives the same events or raises the error of its first
    bad line.  Files `write_trace_file` writes never leave the C reader.
    """
    table = _Intern()
    chunks = []
    last_t = -_TIME_LIMIT  # the least time a trace holds
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        if header != TRACE_HEADER:
            raise TraceFormatError(
                f"{path}:1: expected header {TRACE_HEADER!r}, got {header!r}"
            )
        lineno = 2
        while lines := fh.readlines(_PARSE_CHUNK_BYTES):
            columns = None
            if any(line != "\n" for line in lines):  # else np.loadtxt warns
                columns = _read_rows(lines, last_t)
            if columns is None:
                columns = _parse_lines(path, lines, lineno, last_t)
            t, is_mod, ids, size, cacheable = columns
            if len(t):
                last_t = float(t[-1])
                obj = np.fromiter(map(table.__getitem__, ids), np.int32, len(ids))
                chunks.append((t, is_mod, obj, size, cacheable))
            lineno += len(lines)
    if not chunks:
        return Trace([], [], [], [], [], [])
    return Trace(*(np.concatenate(col) for col in zip(*chunks)), ids=list(table))


@dataclass(frozen=True)
class ProxyLogResult:
    events: Trace
    skipped: int  # unparseable lines
    filtered: int  # parseable lines that are not GET 2xx/3xx


def _proxy_columns(path, lines: list[str], lineno: int, table: _Intern):
    """(t, obj, size, cacheable, skipped, filtered) of `lines`, numbered from
    `lineno`: the columns of their GET 2xx/3xx lines in file order, each URL
    coded by `table`, and the counts of skipped and filtered lines.  `size`
    is None if a size is 2**63 or more; a bad timestamp raises its error."""
    times: list[float] = []
    urls: list[str] = []
    sizes: list[int] = []
    statuses: list[int] = []
    skipped = 0
    filtered = 0
    add_time, add_url, add_size, add_status = (
        times.append, urls.append, sizes.append, statuses.append)
    for lineno, line in enumerate(lines, start=lineno):
        parts = line.split(None, 7)  # the first seven fields, then the rest
        if len(parts) < 7:
            if line.strip():
                skipped += 1
            continue
        try:
            ts = float(parts[0])
            size = int(parts[4])
            status = int(parts[3].rpartition("/")[2])
        except ValueError:
            skipped += 1
            continue
        if not -_TIME_LIMIT <= ts <= _TIME_LIMIT:
            raise _time_error(path, lineno, ts, parts[0])
        if parts[5] != "GET" or not 200 <= status < 400:
            filtered += 1
            continue
        add_time(ts)
        add_url(parts[6])
        add_size(max(1, size))
        add_status(status)
    try:
        size_col = np.array(sizes, dtype=np.int64)
    except OverflowError:
        size_col = None
    return (np.array(times, dtype=np.float64),
            np.fromiter(map(table.__getitem__, urls), np.int32, len(urls)), size_col,
            np.isin(np.array(statuses, dtype=np.int64), list(CACHEABLE_STATUSES)),
            skipped, filtered)


def parse_proxy_log(path) -> ProxyLogResult:
    """Adapt a squid-style access log into request events.

    Expected space-separated layout per line: unix timestamp, elapsed ms,
    client, code/status, bytes, method, URL, ...  GET lines with a 2xx or
    3xx status become request events keyed by URL; the cacheable flag is
    set for statuses 200/203/206/300/301/410.  Unparseable lines are
    counted and skipped, other lines are counted as filtered; a line with a
    timestamp no `Trace` holds (not finite, or beyond 1e18 s) is an error,
    and so, once every line is read, is a size of 2**63 or more.  Events
    are re-sorted by timestamp, equal timestamps keeping their file order,
    since real logs are ordered by completion time, and the URLs are
    numbered in order of first appearance in that order.

    The log is read a bounded chunk of lines at a time and each chunk is
    parsed line by line into columns before the next is read, so no more
    than one chunk's lines is held as strings.
    """
    table = _Intern()  # URL -> code, in file order
    chunks = []
    skipped = 0
    filtered = 0
    oversize = False
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lineno = 1
        while lines := fh.readlines(_PARSE_CHUNK_BYTES):
            t, obj, size, cacheable, n_skipped, n_filtered = _proxy_columns(
                path, lines, lineno, table)
            skipped += n_skipped
            filtered += n_filtered
            oversize = oversize or size is None
            if not oversize:
                chunks.append((t, obj, size, cacheable))
            lineno += len(lines)
    if oversize:
        raise TraceFormatError(f"{path}: a size must be < 2**63")
    if not chunks:
        return ProxyLogResult(Trace([], [], [], [], [], []), skipped, filtered)
    t, obj, size, cacheable = (np.concatenate(col) for col in zip(*chunks))
    del chunks
    # One column at a time, so that each old column is freed before the next
    # is gathered.
    order = np.argsort(t, kind="stable")
    t = t[order]
    size = size[order]
    cacheable = cacheable[order]
    obj = obj[order]
    del order
    # Renumber the URLs by first appearance in time order.
    codes, first = np.unique(obj, return_index=True)
    codes = codes[np.argsort(first)]
    renumber = np.empty(len(table), dtype=np.int32)
    renumber[codes] = np.arange(len(codes), dtype=np.int32)
    urls = list(table)
    trace = Trace(t, np.zeros(len(t), np.int8), renumber[obj], size, cacheable,
                  [urls[i] for i in codes.tolist()])
    return ProxyLogResult(trace, skipped, filtered)
