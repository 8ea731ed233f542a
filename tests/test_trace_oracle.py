"""The columnar trace code against per-event references.

The references below are the straightforward implementations: one
`TraceEvent` per event, one line at a time.  The columnar
`generate_trace`, `write_trace_file`, `parse_trace_file`,
`parse_proxy_log`, `popularity_histogram` and `lifetime_stats` must give
the same events, bytes, counts, floats and error messages (with the same
line numbers) on random inputs, whichever parse chunk a line falls in.
"""

import math
import random
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import randoms
from zipfcache import trace
from zipfcache.analytic import DomainError
from zipfcache.trace import (
    CACHEABLE_STATUSES,
    MODIFICATION,
    REQUEST,
    TRACE_HEADER,
    LifetimeStats,
    SyntheticSpec,
    TraceEvent,
    TraceFormatError,
)

# ------------------------------------------------------------ references


def _ref_draw_sizes(rng, n, mean, spread):
    if spread == 0.0:
        sizes = np.full(n, mean)
    else:
        log_mean = math.log(mean) - 0.5 * spread * spread
        sizes = rng.lognormal(log_mean, spread, n)
    return np.maximum(1, np.rint(sizes)).astype(np.int64)


def ref_generate_trace(spec):
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
    cacheable = (np.ones(n_req, dtype=bool) if spec.p_c >= 1.0
                 else rng.random(n_req) < spec.p_c)
    sizes = _ref_draw_sizes(rng, n, spec.mean_doc_size, spec.size_spread)
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
            mod_sizes = _ref_draw_sizes(rng, total, spec.mean_doc_size, spec.size_spread)
    times = np.concatenate([req_times, mod_times])
    kinds = np.concatenate([np.zeros(n_req, np.int8), np.ones(len(mod_times), np.int8)])
    ranks = np.concatenate([req_ranks, mod_ranks])
    order = np.lexsort((ranks, kinds, times))
    current = sizes.copy()
    names = [f"d{r + 1}" for r in range(n)]
    events = []
    for idx in order:
        rank = int(ranks[idx])
        if kinds[idx] == 0:
            events.append(TraceEvent(float(times[idx]), REQUEST, names[rank],
                                     int(current[rank]), bool(cacheable[idx])))
        else:
            new_size = int(mod_sizes[idx - n_req])
            current[rank] = new_size
            events.append(TraceEvent(float(times[idx]), MODIFICATION, names[rank], new_size))
    return events


def ref_popularity_histogram(events):
    counter = Counter(e.object_id for e in events if e.kind == REQUEST)
    return sorted(counter.values(), reverse=True)


def ref_lifetime_stats(events, window_seconds=None):
    if not events:
        return LifetimeStats(None, None, 0, 0)
    t0 = events[0].timestamp
    span = events[-1].timestamp - t0
    if window_seconds is None:
        window_seconds = span
    elif window_seconds > span:
        raise DomainError(f"window {window_seconds!r}s exceeds stream span {span!r}s")
    w_end = t0 + window_seconds
    first, second = {}, {}
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


def ref_trace_text(events):
    return TRACE_HEADER + "\n" + "".join(
        f"{e.timestamp!r},{e.kind},{e.object_id},{e.size_bytes},{1 if e.cacheable else 0}\n"
        for e in events
    )


def _ref_time_error(path, lineno, ts, text):
    if not math.isfinite(ts):
        return TraceFormatError(f"{path}:{lineno}: timestamp must be finite, got {text!r}")
    return TraceFormatError(f"{path}:{lineno}: timestamp must be within +-1e+18 s, got {text!r}")


def ref_parse_trace_file(path):
    events = []
    last_t = -math.inf
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        if header != TRACE_HEADER:
            raise TraceFormatError(f"{path}:1: expected header {TRACE_HEADER!r}, got {header!r}")
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
                raise TraceFormatError(f"{path}:{lineno}: kind must be R or M, got {kind!r}")
            if size <= 0:
                raise TraceFormatError(f"{path}:{lineno}: size must be > 0")
            if flag not in (0, 1):
                raise TraceFormatError(f"{path}:{lineno}: cacheable must be 0 or 1")
            if not abs(ts) <= 1e18:
                raise _ref_time_error(path, lineno, ts, parts[0])
            if ts < last_t:
                raise TraceFormatError(f"{path}:{lineno}: timestamp {ts!r} out of order")
            last_t = ts
            events.append(TraceEvent(ts, kind, parts[2], size, bool(flag)))
    return events


def ref_parse_proxy_log(path):
    events = []
    skipped = filtered = 0
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
            if not abs(ts) <= 1e18:
                raise _ref_time_error(path, lineno, ts, parts[0])
            method, url = parts[5], parts[6]
            if method != "GET" or not (200 <= status < 400):
                filtered += 1
                continue
            events.append(TraceEvent(ts, REQUEST, url, max(1, size),
                                     status in CACHEABLE_STATUSES))
    events.sort(key=lambda e: e.timestamp)
    return events, skipped, filtered


def _first_appearance(events):
    return list(dict.fromkeys(e.object_id for e in events))


def _error(fn, *args):
    with pytest.raises(TraceFormatError) as info:
        fn(*args)
    return str(info.value)


# ------------------------------------------------------------ generation

SPECS = {
    "static": SyntheticSpec(n_objects=800, alpha=0.8, request_rate=0.05, duration=40_000.0,
                            seed=3),
    "mods-and-p_c": SyntheticSpec(n_objects=500, alpha=0.7, request_rate=0.05,
                                  duration=60_000.0, mu_p=2e-4, mu_u=2e-5, p_c=0.6, seed=9),
    "mods-only-unpopular": SyntheticSpec(n_objects=300, alpha=0.6, request_rate=0.02,
                                         duration=50_000.0, popular_boundary=0, mu_u=1e-4,
                                         size_spread=0.0, seed=4),
    "even-arrivals": SyntheticSpec(n_objects=200, alpha=0.9, request_rate=0.1,
                                   duration=5_000.0, poisson_arrivals=False, mu_p=1e-3,
                                   mu_u=1e-4, p_c=0.9, seed=1),
    "one-document": SyntheticSpec(n_objects=1, alpha=0.5, request_rate=0.01,
                                  duration=10_000.0, mu_p=1e-3, seed=2),
    "modifications-only": SyntheticSpec(n_objects=50, alpha=0.5, request_rate=0.0,
                                        duration=10_000.0, mu_p=1e-3, mu_u=1e-3, seed=6),
    "empty": SyntheticSpec(n_objects=10, alpha=0.5, request_rate=0.0, duration=100.0),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_generate_matches_reference(name, tmp_path):
    spec = SPECS[name]
    got, ref = trace.generate_trace(spec), ref_generate_trace(spec)
    assert list(got) == ref
    assert got.ids == _first_appearance(ref)
    path = tmp_path / "t.csv"
    trace.write_trace_file(got, path)
    assert path.read_text() == ref_trace_text(ref)


class _WholeSecondClock:
    """A NumPy Generator whose uniform draws are floored to whole seconds,
    so that generated events tie in time."""

    def __init__(self, rng):
        self._rng = rng

    def uniform(self, low, high, size):
        return np.floor(self._rng.uniform(low, high, size))

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("seed", range(6))
def test_generate_merge_matches_lexsort_on_ties(monkeypatch, seed):
    # About 60 requests and 50 modifications of 4 documents within 12 s.
    spec = SyntheticSpec(n_objects=4, alpha=0.5, request_rate=5.0, duration=12.0,
                         popular_boundary=2, mu_p=1.5, mu_u=0.5, p_c=0.5, seed=seed)
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _WholeSecondClock(default_rng(seed)))
    ref = ref_generate_trace(spec)
    assert list(trace.generate_trace(spec)) == ref
    # Every kind of tie the merge orders occurs.
    pairs = Counter()
    for a, b in zip(ref, ref[1:]):
        if a.timestamp == b.timestamp:
            pairs[a.kind, b.kind, a.object_id == b.object_id] += 1
    assert pairs[REQUEST, REQUEST, False]
    assert pairs[REQUEST, MODIFICATION, True] + pairs[REQUEST, MODIFICATION, False]
    assert pairs[MODIFICATION, MODIFICATION, True]
    assert pairs[MODIFICATION, MODIFICATION, False]
    assert {e.cacheable for e in ref if e.kind == REQUEST} == {False, True}


def test_generate_peak_memory():
    import tracemalloc

    spec = SyntheticSpec(n_objects=2_000, alpha=0.72, request_rate=20_000 / (120 * 86_400),
                         duration=120 * 86_400.0, popular_boundary=100,
                         mu_p=1 / (2 * 86_400), mu_u=1 / (30 * 86_400), seed=23)
    trace.generate_trace(spec)  # one-time allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        events = trace.generate_trace(spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(events) == 33_775
    # The three-key lexsort merge that the sort-merge replaced peaked at
    # 2,059,428 traced bytes here (NumPy 2.4).
    assert peak <= 2_059_428


@pytest.mark.parametrize("name", sorted(SPECS))
def test_histogram_and_lifetime_match_reference_on_generated(name):
    spec = SPECS[name]
    got, ref = trace.generate_trace(spec), ref_generate_trace(spec)
    hist = trace.popularity_histogram(got)
    assert hist.counts.tolist() == ref_popularity_histogram(ref)
    assert trace.lifetime_stats(got) == ref_lifetime_stats(ref)
    if len(ref) > 1:
        window = 0.37 * (ref[-1].timestamp - ref[0].timestamp)
        assert trace.lifetime_stats(got, window) == ref_lifetime_stats(ref, window)


@st.composite
def event_lists(draw):
    """Time-ordered events over a few ids, with ties in time and in counts."""
    rnd = draw(randoms())
    names = rnd.choice((["a", "b"], ["d1", "d10", "d2", "x"], [f"u{i}" for i in range(30)]))
    events, t = [], rnd.uniform(-100.0, 100.0)
    for _ in range(rnd.randint(0, 80)):
        t += rnd.choice((0.0, 1.0, rnd.uniform(0.0, 50.0)))
        kind = MODIFICATION if rnd.random() < 0.3 else REQUEST
        events.append(TraceEvent(t, kind, rnd.choice(names), rnd.randint(1, 500),
                                 rnd.random() < 0.8))
    return events


@given(events=event_lists(), fraction=st.sampled_from([None, 0.0, 0.3, 1.0]))
def test_histogram_and_lifetime_match_reference(events, fraction):
    columns = trace.Trace.from_events(events)
    hist = trace.popularity_histogram(columns)
    assert hist.counts.tolist() == ref_popularity_histogram(events)
    window = None
    if fraction is not None and events:
        window = fraction * (events[-1].timestamp - events[0].timestamp)
    assert trace.lifetime_stats(columns, window) == ref_lifetime_stats(events, window)


# ------------------------------------------------------------ native files

CHUNK_BYTES = [1, 60, 97, 400, trace._PARSE_CHUNK_BYTES]


def _stamp(rnd, t):
    """A spelling of t (a multiple of 1/4) that float() reads back exactly."""
    text = rnd.choice((repr(t), f"{t:.2f}", f"{t:.12e}", f"{t:.6f}"))
    if abs(t) >= 10 and "e" not in text and rnd.random() < 0.2:  # float("1_0.25")
        head = 1 if text[0] != "-" else 2
        text = text[:head] + "_" + text[head:]
    return rnd.choice(("", " ", "\t")) + text + rnd.choice(("", " "))


def _int_text(rnd, value):
    return rnd.choice((str(value), str(value), f"+{value}", f"00{value}", f" {value} ",
                       f"{value:_}"))


def _valid_lines(rnd, n):
    """n valid native-format rows, with blank lines and whitespace mixed in."""
    lines, times = [], []
    k = rnd.randint(-400, 400)
    ids = rnd.choice((["a", "b c", " lead"], [f"d{i}" for i in range(40)],
                      ["http://x/1", "http://x/2?q=1"], ["d8", "d8\x00", "\x00"]))
    for _ in range(n):
        k += rnd.choice((0, 1, 1, 7, 90))
        t = k / 4
        if rnd.random() < 0.1:
            lines.append(rnd.choice(("", "   ", "\t")))
        row = ",".join((_stamp(rnd, t), rnd.choice((REQUEST, MODIFICATION)),
                        rnd.choice(ids), _int_text(rnd, rnd.randint(1, 10**7)),
                        rnd.choice(("0", "1", "1", " 1", "01", "+0"))))
        lines.append(rnd.choice(("", " ", "  ")) + row + rnd.choice(("", " ", "\t")))
        times.append(t)
    return lines, times


def _write(path, lines):
    path.write_bytes("\n".join([TRACE_HEADER, *lines, ""]).encode("ascii"))


@st.composite
def trace_texts(draw):
    """A valid trace file with either line end, sometimes none after its last line."""
    rnd = draw(randoms(whole_bytes=False))
    lines, _ = _valid_lines(rnd, rnd.choice((0, 1, 3, 40, 300)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([TRACE_HEADER, *lines]) + newline * (rnd.random() < 0.8)


@given(text=trace_texts(), chunk=st.sampled_from(CHUNK_BYTES))
def test_parse_matches_reference(tmp_path_factory, text, chunk):
    path = tmp_path_factory.mktemp("valid") / "t.csv"
    path.write_bytes(text.encode("ascii"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "_PARSE_CHUNK_BYTES", chunk)
        got = trace.parse_trace_file(path)
    ref = ref_parse_trace_file(path)
    assert list(got) == ref
    assert got.ids == _first_appearance(ref)


CORRUPTIONS = {
    # name -> (a valid row's timestamp, the previous one) -> the bad row
    "four-fields": lambda t, prev: f"{t!r},R,a,100",
    "six-fields": lambda t, prev: f"{t!r},R,a,100,1,1",
    "one-field": lambda t, prev: "garbage",
    "bad-float": lambda t, prev: "zero,R,a,100,1",
    "empty-float": lambda t, prev: ",R,a,100,1",
    "bad-size-int": lambda t, prev: f"{t!r},R,a,1.5,1",
    "bad-flag-int": lambda t, prev: f"{t!r},M,a,100,yes",
    "bad-kind": lambda t, prev: f"{t!r},Q,a,100,1",
    "lower-kind": lambda t, prev: f"{t!r},r,a,100,1",
    # A fixed-width string read drops trailing NULs, and str.split keeps
    # the whitespace around a kind: none of these is R or M.
    "nul-kind": lambda t, prev: f"{t!r},R\x00,a,100,1",
    "space-kind": lambda t, prev: f"{t!r}, M,a,100,1",
    "kind-space": lambda t, prev: f"{t!r},R ,a,100,1",
    "size-zero": lambda t, prev: f"{t!r},R,a,0,1",
    "size-negative": lambda t, prev: f"{t!r},M,a,-3,1",
    "flag-two": lambda t, prev: f"{t!r},R,a,100,2",
    "flag-negative": lambda t, prev: f"{t!r},R,a,100,-1",
    "nan": lambda t, prev: "nan,R,a,100,1",
    "inf": lambda t, prev: "inf,R,a,100,1",
    "minus-inf": lambda t, prev: " -inf,R,a,100,1",
    "beyond-range": lambda t, prev: "1e19,R,a,100,1",
    "below-range": lambda t, prev: "-1.5e18,M,a,100,1",
    "far-beyond-range": lambda t, prev: "1e300,R,a,100,1",
    "out-of-order": lambda t, prev: f"{prev - 0.25!r},R,a,100,1",
    "kind-and-size": lambda t, prev: f"{t!r},X,a,0,7",
    "size-and-flag": lambda t, prev: f"{t!r},R,a,0,7",
    "nan-and-flag": lambda t, prev: "nan,R,a,100,7",
}


@pytest.mark.parametrize("chunk", [1, 300])  # 1: every line starts a chunk
@pytest.mark.parametrize("where", ["first-chunk", "later-chunk", "last-line"])
@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_parse_error_matches_reference(tmp_path, monkeypatch, name, where, chunk):
    rnd = random.Random(f"{name}-{where}")
    lines, times = _valid_lines(rnd, 120)
    rows = [i for i, line in enumerate(lines) if line.strip()]
    pick = {"first-chunk": 3, "later-chunk": 90, "last-line": len(rows) - 1}[where]
    at = rows[pick]
    lines[at] = CORRUPTIONS[name](times[pick], times[pick - 1])
    lines.insert(at + 1, "not,even,a,row")  # a later error never wins
    path = tmp_path / "t.csv"
    _write(path, lines)
    monkeypatch.setattr(trace, "_PARSE_CHUNK_BYTES", chunk)
    want = _error(ref_parse_trace_file, path)
    assert f":{at + 2}:" in want
    assert _error(trace.parse_trace_file, path) == want


def _no_line_by_line(path, lines, lineno, last_t):
    raise AssertionError(f"lines from {lineno} on left NumPy's reader")


@pytest.mark.parametrize("name", sorted(SPECS))
def test_written_trace_never_leaves_the_c_reader(tmp_path, monkeypatch, name):
    events = trace.generate_trace(SPECS[name])
    path = tmp_path / "t.csv"
    trace.write_trace_file(events, path)
    monkeypatch.setattr(trace, "_parse_lines", _no_line_by_line)
    assert trace.parse_trace_file(path) == events


def test_bundled_sample_never_leaves_the_c_reader(monkeypatch):
    from importlib import resources

    monkeypatch.setattr(trace, "_parse_lines", _no_line_by_line)
    with resources.as_file(
        resources.files("zipfcache").joinpath("data/sample_trace.csv")
    ) as sample:
        assert len(trace.parse_trace_file(sample)) == 9_998


def test_parse_refuses_an_integer_read_through_float(tmp_path, monkeypatch):
    # Older NumPy reads "1.5" for an int64 field as 1, with a
    # DeprecationWarning; such a chunk must be parsed line by line.
    loadtxt = np.loadtxt

    def old_loadtxt(lines, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return loadtxt([line.replace(",1.5,", ",1,") for line in lines], **kwargs)

    path = tmp_path / "t.csv"
    _write(path, ["0.0,R,a,100,1", "1.0,R,b,1.5,1"])
    monkeypatch.setattr(np, "loadtxt", old_loadtxt)
    assert _error(trace.parse_trace_file, path) == _error(ref_parse_trace_file, path)


def test_parse_error_line_numbers_at_default_chunk(tmp_path):
    rnd = random.Random(5)
    lines, times = _valid_lines(rnd, 50_000)
    path = tmp_path / "t.csv"
    _write(path, lines)
    assert path.stat().st_size > 4 * trace._PARSE_CHUNK_BYTES
    assert list(trace.parse_trace_file(path)) == ref_parse_trace_file(path)
    for at in (5, 25_000, len(lines) - 1):
        bad = list(lines)
        bad[at] = "1.0,R,a,100"
        _write(path, bad)
        want = _error(ref_parse_trace_file, path)
        assert _error(trace.parse_trace_file, path) == want == f"{path}:{at + 2}: expected 5 fields"


def test_parse_rejects_size_beyond_int64(tmp_path):
    path = tmp_path / "t.csv"
    _write(path, ["0.0,R,a,100,1", f"1.0,R,b,{2**63},1"])
    with pytest.raises(TraceFormatError, match=r":3: size must be < 2\*\*63"):
        trace.parse_trace_file(path)


# ------------------------------------------------------------ squid logs


def _squid_lines(rnd, n):
    urls = [f"http://h{i % 3}/p{i}" for i in range(rnd.choice((2, 8, 40)))]
    lines = []
    t = rnd.uniform(1e9, 1.1e9)
    for _ in range(n):
        t += rnd.choice((0.0, 0.0, 0.5, 3.0, -2.0))  # ties and completion-order jitter
        stamp = rnd.choice((repr(t), f"{t:.3f}"))
        status = rnd.choice((200, 200, 203, 206, 300, 301, 302, 304, 410, 199, 404, 500))
        code = rnd.choice((f"TCP_MISS/{status}", f"TCP_HIT/{status}", str(status)))
        size = rnd.choice((0, 1, 512, 70_000, -4))
        method = rnd.choice(("GET", "GET", "GET", "POST", "HEAD"))
        tail = rnd.choice(("", " -", " - DIRECT/origin text/html"))
        sep = rnd.choice((" ", "  ", "\t"))
        shape = rnd.random()
        if shape < 0.05:
            line = ""
        elif shape < 0.1:
            line = f"{stamp} truncated line"
        elif shape < 0.14:
            line = f"not-a-time 0 c {code} {size} GET {rnd.choice(urls)}{tail}"
        elif shape < 0.17:
            line = f"{stamp} 0 c {code} 12a GET {rnd.choice(urls)}{tail}"
        elif shape < 0.2:
            line = f"{stamp} 0 c TCP_MISS/abc {size} GET {rnd.choice(urls)}{tail}"
        else:
            line = sep.join((stamp, "0", "c", code, str(size), method, rnd.choice(urls))) + tail
        lines.append(rnd.choice(("", " ")) + line + rnd.choice(("", " ")))
    return lines


@st.composite
def squid_logs(draw):
    rnd = draw(randoms(whole_bytes=False))
    return _squid_lines(rnd, rnd.choice((0, 5, 60, 400)))


@given(lines=squid_logs(), chunk=st.sampled_from(CHUNK_BYTES))
def test_proxy_log_matches_reference(tmp_path_factory, lines, chunk):
    path = tmp_path_factory.mktemp("squid") / "access.log"
    path.write_text("\n".join(lines) + "\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "_PARSE_CHUNK_BYTES", chunk)
        result = trace.parse_proxy_log(path)
    events, skipped, filtered = ref_parse_proxy_log(path)
    assert (result.skipped, result.filtered) == (skipped, filtered)
    assert list(result.events) == events
    assert result.events.ids == _first_appearance(events)


def _proxy_error_at_every_chunk(path, monkeypatch):
    """The reference's error on `path`, which the reader gives at every chunk."""
    want = _error(ref_parse_proxy_log, path)
    for chunk in CHUNK_BYTES:
        monkeypatch.setattr(trace, "_PARSE_CHUNK_BYTES", chunk)
        assert _error(trace.parse_proxy_log, path) == want
    return want


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_proxy_log_non_finite_matches_reference(tmp_path, monkeypatch, bad):
    lines = _squid_lines(random.Random(bad), 50)
    lines.insert(20, f"{bad} 0 c TCP_MISS/200 40 GET http://a/b")  # raises
    lines.insert(10, f"{bad} 0 c TCP_MISS/200 4x GET http://a/b")  # skipped
    path = tmp_path / "access.log"
    path.write_text("\n".join(lines) + "\n")
    assert ":22: timestamp must be finite" in _proxy_error_at_every_chunk(path, monkeypatch)


@pytest.mark.parametrize("bad", ["1e19", "-2e18", "1e300"])
def test_proxy_log_beyond_range_matches_reference(tmp_path, monkeypatch, bad):
    lines = _squid_lines(random.Random(bad), 50)
    lines.insert(20, f"{bad} 0 c TCP_MISS/404 40 POST http://a/b")  # raises, unfiltered
    lines.insert(10, f"{bad} 0 c TCP_MISS/200 4x GET http://a/b")  # skipped
    path = tmp_path / "access.log"
    path.write_text("\n".join(lines) + "\n")
    want = _proxy_error_at_every_chunk(path, monkeypatch)
    assert f":22: timestamp must be within +-1e+18 s, got '{bad}'" in want


def _oversize_log(path, status=200):
    """A random squid log whose line 11 is a GET of size 2**63 with `status`."""
    lines = _squid_lines(random.Random(63), 50)
    lines.insert(10, f"1e9 0 c TCP_MISS/{status} {2**63} GET http://a/b")
    path.write_text("\n".join(lines) + "\n")
    return lines


def test_proxy_log_rejects_size_beyond_int64(tmp_path, monkeypatch):
    path = tmp_path / "access.log"
    _oversize_log(path)
    for chunk in CHUNK_BYTES:
        monkeypatch.setattr(trace, "_PARSE_CHUNK_BYTES", chunk)
        assert _error(trace.parse_proxy_log, path) == f"{path}: a size must be < 2**63"


def test_proxy_log_later_time_error_wins_over_size(tmp_path, monkeypatch):
    # A size is checked only once every line is read, so a bad timestamp on
    # a later line, in a later chunk, still raises its own error.
    path = tmp_path / "access.log"
    lines = _oversize_log(path)
    lines.insert(40, "nan 0 c TCP_MISS/200 40 GET http://a/b")
    path.write_text("\n".join(lines) + "\n")
    want = _proxy_error_at_every_chunk(path, monkeypatch)
    assert want == f"{path}:41: timestamp must be finite, got 'nan'"


def test_proxy_log_size_beyond_int64_on_a_filtered_line(tmp_path, monkeypatch):
    path = tmp_path / "access.log"
    _oversize_log(path, status=404)
    events, skipped, filtered = ref_parse_proxy_log(path)
    for chunk in CHUNK_BYTES:
        monkeypatch.setattr(trace, "_PARSE_CHUNK_BYTES", chunk)
        result = trace.parse_proxy_log(path)
        assert (result.skipped, result.filtered) == (skipped, filtered)
        assert list(result.events) == events
