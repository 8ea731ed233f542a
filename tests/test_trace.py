"""Synthetic workload generation, trace measurement and file formats."""

import math
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest

from support import req
from zipfcache import analytic, trace
from zipfcache.analytic import DAY, DomainError, ZipfLaw, special_points
from zipfcache.simcore import CacheConfig, simulate, simulate_many
from zipfcache.trace import (
    MODIFICATION,
    REQUEST,
    SyntheticSpec,
    Trace,
    TraceEvent,
    TraceFormatError,
    generate_trace,
    lifetime_stats,
    parse_proxy_log,
    parse_trace_file,
    popularity_histogram,
    write_trace_file,
)


def _small_spec(**overrides):
    base = dict(
        n_objects=300,
        alpha=0.7,
        request_rate=0.5,
        duration=20_000.0,
        mean_doc_size=5_000.0,
        size_spread=1.0,
        mu_p=1e-4,
        mu_u=1e-5,
        p_c=0.9,
        seed=7,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


# -------------------------------------------------------------- generation


def test_generate_deterministic():
    a = generate_trace(_small_spec())
    b = generate_trace(_small_spec())
    assert a == b
    assert generate_trace(_small_spec(seed=8)) != a


def test_generate_round_trip_bytes(tmp_path):
    events = generate_trace(_small_spec())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_file(events, p1)
    assert parse_trace_file(p1) == events
    write_trace_file(parse_trace_file(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_zero_spread_sizes_are_constant():
    events = generate_trace(_small_spec(size_spread=0.0, mu_p=0.0, mu_u=0.0))
    assert {e.size_bytes for e in events} == {5000}


def test_sizes_positive_and_near_mean():
    events = generate_trace(
        _small_spec(n_objects=2000, alpha=0.3, duration=40_000.0, size_spread=0.5)
    )
    first_seen = {}
    for e in events:
        if e.kind == REQUEST and e.object_id not in first_seen:
            first_seen[e.object_id] = e.size_bytes
    sizes = np.array(list(first_seen.values()))
    assert sizes.min() >= 1
    assert len(sizes) > 1000
    assert abs(sizes.mean() / 5000.0 - 1.0) < 0.10


def test_modifications_respect_boundary():
    events = generate_trace(
        _small_spec(popular_boundary=10, mu_p=1e-3, mu_u=0.0, duration=30_000.0)
    )
    mod_ids = {e.object_id for e in events if e.kind == MODIFICATION}
    assert mod_ids
    assert mod_ids <= {f"d{i}" for i in range(1, 11)}


def test_request_size_tracks_latest_modification():
    events = generate_trace(_small_spec(mu_p=5e-4, mu_u=5e-5))
    current = {}
    mods_between = 0
    for e in events:
        if e.kind == MODIFICATION:
            if e.object_id in current:
                mods_between += 1
            current[e.object_id] = e.size_bytes
        elif e.object_id in current:
            assert e.size_bytes == current[e.object_id]
        else:
            current[e.object_id] = e.size_bytes
    assert mods_between > 10  # the walk above actually exercised redraws


def test_cacheable_fraction():
    events = generate_trace(_small_spec(p_c=0.7, duration=40_000.0))
    reqs = [e for e in events if e.kind == REQUEST]
    frac = sum(e.cacheable for e in reqs) / len(reqs)
    assert abs(frac - 0.7) < 4 * math.sqrt(0.21 / len(reqs))
    assert all(
        e.cacheable for e in generate_trace(_small_spec(p_c=1.0)) if e.kind == REQUEST
    )


def test_poisson_arrival_sanity():
    spec = _small_spec(mu_p=0.0, mu_u=0.0, duration=40_000.0)
    times = np.array([e.timestamp for e in generate_trace(spec)])
    expected = spec.request_rate * spec.duration
    assert np.all(np.diff(times) >= 0)
    assert times.min() >= 0 and times.max() <= spec.duration
    assert abs(len(times) - expected) < 5 * math.sqrt(expected)
    first_half = int((times < spec.duration / 2).sum())
    assert abs(2 * first_half - len(times)) < 5 * math.sqrt(len(times))


def test_even_arrivals_exact_spacing():
    spec = _small_spec(poisson_arrivals=False, mu_p=0.0, mu_u=0.0,
                       request_rate=0.5, duration=100.0)
    times = [e.timestamp for e in generate_trace(spec)]
    assert times == [2.0 * i for i in range(50)]


def test_resolved_boundary_default_is_two_request_rank():
    spec = _small_spec(popular_boundary=None, n_objects=100_000,
                       request_rate=1.0, duration=50_000.0)
    pts = special_points(ZipfLaw(alpha=spec.alpha, k=50_000.0))
    assert spec.resolved_boundary() == int(round(pts.m))


def test_resolved_boundary_overrides():
    assert _small_spec(popular_boundary=5).resolved_boundary() == 5
    assert _small_spec(popular_boundary=900).resolved_boundary() == 300
    assert _small_spec(request_rate=0.0).resolved_boundary() == 0


def test_spec_validation():
    for bad in (
        dict(alpha=1.2),
        dict(alpha=0.0),
        dict(n_objects=0),
        dict(request_rate=-1.0),
        dict(duration=-1.0),
        dict(mean_doc_size=0.0),
        dict(size_spread=-0.1),
        dict(p_c=0.0),
        dict(mu_p=-1e-6),
        dict(mu_u=-1e-6),
        dict(popular_boundary=-1),
    ):
        # building the spec alone refuses it
        with pytest.raises(DomainError):
            _small_spec(**bad)


@pytest.mark.parametrize("field", ["request_rate", "duration", "mean_doc_size",
                                   "size_spread", "mu_p", "mu_u"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_refuses_non_finite_field(field, value):
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        _small_spec(**{field: value})


@pytest.mark.parametrize("kind, fields", [
    ("requests", dict(request_rate=1.0)),
    ("modifications", dict(request_rate=0.0, popular_boundary=1, mu_p=1.0)),
    ("modifications", dict(request_rate=0.0, popular_boundary=0, mu_u=1.0)),
])
def test_spec_bounds_its_expected_events(kind, fields):
    # one document at rate 1/s for `duration` seconds expects `duration` events
    def spec(duration):
        return SyntheticSpec(n_objects=1, alpha=0.5, duration=duration, **fields)

    limit = 2**31 - 1  # the documented bound
    assert trace._MAX_EXPECTED_EVENTS == limit
    spec(float(limit))
    with pytest.raises(DomainError, match=f"expects? 2.14748e\\+09 {kind}"):
        spec(float(limit + 1))


# Peak tracemalloc bytes per event of generate_trace(_MEMORY_SPEC) when a
# trace was a list of TraceEvent objects (130,190 events, 79,973 of them
# modifications); the columns peak at about 60.
_LIST_TRACE_PEAK_BYTES_PER_EVENT = 191.5
_MEMORY_SPEC = SyntheticSpec(
    n_objects=10_000, alpha=0.8, request_rate=50_000 / (30 * DAY), duration=30 * DAY,
    mu_p=1 / (2 * DAY), mu_u=1 / (30 * DAY), p_c=0.8, seed=5,
)


def test_generate_peak_memory_per_event():
    tracemalloc.start()
    try:
        events = generate_trace(_MEMORY_SPEC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events) == 130_190
    assert peak / len(events) < _LIST_TRACE_PEAK_BYTES_PER_EVENT / 2


# ------------------------------------------------------------------ Trace


def test_trace_iterates_its_events():
    rows = [req(0.5, "a", 10), TraceEvent(1.0, MODIFICATION, "b", 20),
            TraceEvent(2.0, REQUEST, "a", 30, False)]
    tr = Trace.from_events(rows)
    assert len(tr) == 3 and tr.ids == ["a", "b"]
    assert tr.obj.tolist() == [0, 1, 0] and tr.kind.tolist() == [0, 1, 0]
    assert tr.t.tolist() == [0.5, 1.0, 2.0] and tr.size.tolist() == [10, 20, 30]
    assert tr.cacheable.tolist() == [True, True, False]
    assert list(tr) == rows
    assert Trace.from_events(iter(rows)) == tr and Trace.from_events(rows[:2]) != tr
    # a trace is read through its columns, not event by event
    assert not isinstance(tr, Sequence)
    with pytest.raises(TypeError):
        tr[1]
    with pytest.raises(ValueError):
        tr.t[0] = 9.0
    with pytest.raises(ValueError, match="kind"):
        Trace.from_events([TraceEvent(0.0, "X", "a", 1)])


def test_trace_equality_compares_ids_not_codes():
    a = Trace.from_events([req(0, "x"), req(1, "y")])
    b = Trace([0.0, 1.0], [0, 0], [1, 0], [100, 100], [True, True], ["y", "x"])
    assert a == b
    assert a != Trace([0.0, 1.0], [0, 0], [0, 0], [100, 100], [True, True], ["y", "x"])


def test_an_id_listed_twice_is_refused():
    # codes 0 and 2 would both name "a": counted by code, three documents;
    # by id, two
    with pytest.raises(ValueError, match="twice"):
        Trace([0.0, 1.0, 2.0], [0, 0, 0], [0, 1, 2], [100] * 3, [True] * 3, ["a", "b", "a"])


@pytest.mark.parametrize("obj", [5, -1])
def test_an_object_code_outside_the_id_table_is_refused(obj):
    with pytest.raises(ValueError, match="object codes"):
        Trace([0.0, 1.0], [0, 0], [0, obj], [100] * 2, [True] * 2, ["a"])


@pytest.mark.parametrize("kind", [3, -1])
def test_a_kind_code_other_than_0_or_1_is_refused(kind):
    with pytest.raises(ValueError, match="kind codes"):
        Trace([0.0, 1.0], [0, kind], [0, 0], [100] * 2, [True] * 2, ["a"])


# (timestamps, sizes, message) of two-event streams no `Trace` holds
BAD_STREAMS = {
    "nan": ([0.0, math.nan], [100, 100], "non-finite timestamp nan"),
    "inf": ([0.0, math.inf], [100, 100], "non-finite timestamp inf"),
    "-inf": ([-math.inf, 0.0], [100, 100], "non-finite timestamp -inf"),
    "decreasing": ([5.0, 4.0], [100, 100], r"time-ordered: 4\.0 after 5\.0"),
    "size-0": ([0.0, 1.0], [100, 0], "size must be >= 1, got 0"),
    "size-minus-1": ([0.0, 1.0], [100, -1], "size must be >= 1, got -1"),
    "beyond": ([0.0, 1e19], [100, 100], r"timestamp 1e\+19 beyond 1e\+18 s"),
    "-beyond": ([-1e19, 0.0], [100, 100], r"timestamp -1e\+19 beyond 1e\+18 s"),
}


def _two_events(t, size):
    return [req(when, obj, n) for when, obj, n in zip(t, "ab", size)]


ENTRY_POINTS = {
    "Trace": lambda t, size, path: Trace(t, [0, 0], [0, 1], size, [True] * 2, ["a", "b"]),
    "from_events": lambda t, size, path: Trace.from_events(_two_events(t, size)),
    "simulate": lambda t, size, path: simulate(Trace.from_events(_two_events(t, size)),
                                               CacheConfig(policy_id="lru")),
    # an LRU sweep, which reads the one-pass curve
    "simulate_many": lambda t, size, path: simulate_many(
        Trace.from_events(_two_events(t, size)), [CacheConfig(1000, "lru")]),
    "write_trace_file": lambda t, size, path: write_trace_file(
        Trace.from_events(_two_events(t, size)), path),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("case", sorted(BAD_STREAMS))
def test_an_invalid_event_stream_is_refused(case, entry, tmp_path):
    # every consumer takes a `Trace`, and no `Trace` holds the stream, so
    # none of them reads an event of it and the writer opens no file
    t, size, message = BAD_STREAMS[case]
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](t, size, path)
    assert not path.exists()


# ------------------------------------------------------------- measurement


def test_popularity_histogram():
    events = [
        req(0, "a"), req(1, "b"), req(2, "a"), req(3, "c"),
        req(4, "a"), req(5, "b"),
        TraceEvent(6, MODIFICATION, "c", 50),
    ]
    hist = popularity_histogram(Trace.from_events(events))
    assert list(hist.counts) == [3, 2, 1]
    assert hist.total_requests == 6
    assert hist.unique_docs == 3
    assert hist.two_plus_docs == 2
    assert hist.theta_sum_top(2) == 5
    assert hist.theta_sum_top(0) == 0


def test_lifetime_stats_micro():
    events = [
        req(0.0, "a"), req(4.0, "b"), req(10.0, "a"),
        TraceEvent(20.0, MODIFICATION, "x", 10),
    ]
    stats = lifetime_stats(Trace.from_events(events))
    assert stats.t_eff == pytest.approx(10.0)
    assert stats.t_u == pytest.approx(16.0)
    assert (stats.once_docs, stats.two_plus_docs) == (1, 1)


def test_lifetime_stats_window_cut():
    events = [
        req(0.0, "a"), req(4.0, "b"), req(10.0, "a"),
        TraceEvent(20.0, MODIFICATION, "x", 10),
    ]
    stats = lifetime_stats(Trace.from_events(events), window_seconds=5.0)
    assert stats.t_eff is None
    assert stats.t_u == pytest.approx(3.0)  # a: 5-0, b: 5-4
    assert (stats.once_docs, stats.two_plus_docs) == (2, 0)


def test_lifetime_stats_edge_cases():
    assert lifetime_stats(Trace.from_events([])) == trace.LifetimeStats(None, None, 0, 0)
    only_two = Trace.from_events([req(0.0, "a"), req(6.0, "a")])
    stats = lifetime_stats(only_two)
    assert stats.t_u is None and stats.t_eff == pytest.approx(6.0)
    with pytest.raises(DomainError):
        lifetime_stats(only_two, window_seconds=7.0)


# ------------------------------------------------------------ file formats


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_parse_rejects_bad_header(tmp_path):
    p = tmp_path / "t.csv"
    _write_lines(p, ["#wrong", "0.0,R,a,100,1"])
    with pytest.raises(TraceFormatError, match=":1:"):
        parse_trace_file(p)


@pytest.mark.parametrize(
    "row,msg",
    [
        ("0.0,R,a,100", "5 fields"),
        ("zero,R,a,100,1", ":3:"),
        ("0.0,Q,a,100,1", "kind"),
        ("0.0,R,a,0,1", "size"),
        ("0.0,R,a,100,2", "cacheable"),
    ],
)
def test_parse_rejects_bad_rows(tmp_path, row, msg):
    p = tmp_path / "t.csv"
    _write_lines(p, [trace.TRACE_HEADER, "0.0,R,a,100,1", row])
    with pytest.raises(TraceFormatError, match=msg):
        parse_trace_file(p)


def test_parse_rejects_time_going_backwards(tmp_path):
    p = tmp_path / "t.csv"
    _write_lines(p, [trace.TRACE_HEADER, "5.0,R,a,100,1", "4.0,R,b,100,1"])
    with pytest.raises(TraceFormatError, match="out of order"):
        parse_trace_file(p)


@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("lineno", [2, 3])
def test_parse_rejects_non_finite_timestamp(tmp_path, stamp, lineno):
    p = tmp_path / "t.csv"
    rows = ["0.0,R,a,100,1", f"{stamp},R,b,100,1"][3 - lineno:]
    _write_lines(p, [trace.TRACE_HEADER, *rows])
    with pytest.raises(TraceFormatError, match=f":{lineno}: timestamp must be finite"):
        parse_trace_file(p)


@pytest.mark.parametrize("stamp", ["1e19", "-1.5e18", "1e300"])
@pytest.mark.parametrize("lineno", [2, 3])
def test_parse_rejects_timestamp_beyond_range(tmp_path, stamp, lineno):
    p = tmp_path / "t.csv"
    rows = ["-1e18,R,a,100,1", f"{stamp},R,b,100,1"][3 - lineno:]
    _write_lines(p, [trace.TRACE_HEADER, *rows])
    with pytest.raises(TraceFormatError,
                       match=rf":{lineno}: timestamp must be within \+-1e\+18 s, got '{stamp}'"):
        parse_trace_file(p)


def test_parse_keeps_timestamps_at_the_range_edges(tmp_path):
    p = tmp_path / "t.csv"
    _write_lines(p, [trace.TRACE_HEADER, "-1e18,R,a,100,1", "1e18,R,a,100,1"])
    assert parse_trace_file(p).t.tolist() == [-1e18, 1e18]


def test_parse_skips_blank_lines(tmp_path):
    p = tmp_path / "t.csv"
    _write_lines(p, [trace.TRACE_HEADER, "0.0,R,a,100,1", "", "1.0,M,a,50,1"])
    events = parse_trace_file(p)
    assert list(events) == [TraceEvent(0.0, REQUEST, "a", 100, True),
                            TraceEvent(1.0, MODIFICATION, "a", 50, True)]


def test_parse_proxy_log(tmp_path):
    p = tmp_path / "access.log"
    _write_lines(
        p,
        [
            "100.0 50 10.0.0.1 TCP_MISS/200 5000 GET http://a/x -",
            "99.0 10 10.0.0.2 TCP_REFRESH/302 400 GET http://b/y -",
            "101.0 10 10.0.0.1 TCP_MISS/404 300 GET http://a/x -",
            "102.0 10 10.0.0.1 TCP_MISS/200 300 POST http://a/x -",
            "garbage",
            "103.0 xx 10.0.0.3 TCP/200 yy GET http://c/z -",
            "104.0 12 10.0.0.4 TCP_HIT/203 0 GET http://d/w -",
        ],
    )
    result = parse_proxy_log(p)
    assert (result.skipped, result.filtered) == (2, 2)
    assert [e.object_id for e in result.events] == ["http://b/y", "http://a/x", "http://d/w"]
    assert [e.timestamp for e in result.events] == [99.0, 100.0, 104.0]
    assert [e.cacheable for e in result.events] == [False, True, True]
    assert result.events.size[2] == 1  # zero-byte reply clamped
    assert all(e.kind == REQUEST for e in result.events)


@pytest.mark.parametrize("stamp", ["nan", "inf"])
def test_parse_proxy_log_rejects_non_finite_timestamp(tmp_path, stamp):
    p = tmp_path / "access.log"
    _write_lines(p, ["100.0 5 c TCP_MISS/200 400 GET http://a/x -",
                     f"{stamp} 5 c TCP_MISS/200 400 GET http://a/y -"])
    with pytest.raises(TraceFormatError, match=":2: timestamp must be finite"):
        parse_proxy_log(p)


@pytest.mark.parametrize("stamp", ["1e19", "-1e19"])
def test_parse_proxy_log_rejects_timestamp_beyond_range(tmp_path, stamp):
    # as for a non-finite time, even on a line the filter would drop
    p = tmp_path / "access.log"
    _write_lines(p, ["100.0 5 c TCP_MISS/200 400 GET http://a/x -",
                     f"{stamp} 5 c TCP_MISS/404 400 POST http://a/y -"])
    with pytest.raises(TraceFormatError, match=":2: timestamp must be within"):
        parse_proxy_log(p)


# Peak tracemalloc bytes per line of parse_proxy_log on the log of
# _SQUID_MEMORY_SPEC (59,681 lines, 14,600 URLs): 246.7 when the reader
# held every line's URL, time, size and status as Python objects, 76.6
# since it keeps one chunk of lines and per-chunk columns (NumPy 2.4).
_SQUID_PEAK_BYTES_PER_LINE = 85
_SQUID_MEMORY_SPEC = SyntheticSpec(n_objects=20_000, alpha=0.8,
                                   request_rate=60_000 / (30 * DAY), duration=30 * DAY,
                                   p_c=0.8, seed=11)


def test_parse_proxy_log_peak_memory_per_line(tmp_path):
    events = generate_trace(_SQUID_MEMORY_SPEC)
    log = tmp_path / "access.log"
    with open(log, "w", encoding="utf-8") as fh:
        for e in events:
            fh.write(f"{e.timestamp!r} 0 10.0.0.1 TCP_MISS/{200 if e.cacheable else 304} "
                     f"{e.size_bytes} GET http://example.com/{e.object_id} - DIRECT/origin "
                     "text/html\n")
    tracemalloc.start()
    try:
        result = parse_proxy_log(log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events) == len(result.events) == 59_681
    assert peak / len(events) < _SQUID_PEAK_BYTES_PER_LINE


@pytest.mark.parametrize("url", ["http://a/x?q=1,2", "http://a/\u00e9t\u00e9"])
def test_write_refuses_ids_it_cannot_read_back(tmp_path, url):
    log = tmp_path / "access.log"
    log.write_text(f"100.0 5 c TCP_MISS/200 500 GET {url} -\n", encoding="utf-8")
    events = parse_proxy_log(log).events
    out = tmp_path / "rt.csv"
    with pytest.raises(TraceFormatError) as info:
        write_trace_file(events, out)
    assert str(info.value).startswith(f"object id {url!r} cannot be written")
    assert not out.exists()
    for bad in ("a\rb", "a\nb"):
        with pytest.raises(TraceFormatError, match="cannot be written"):
            write_trace_file(Trace.from_events([req(0.0, "ok"), req(1.0, bad)]), out)
    # only the ids in use must be writable
    tr = Trace.from_events([req(0.0, "ok"), req(1.0, "a,b")])
    write_trace_file(Trace(tr.t[:1], tr.kind[:1], tr.obj[:1], tr.size[:1],
                           tr.cacheable[:1], tr.ids), out)
    assert list(parse_trace_file(out)) == [req(0.0, "ok", 100)]
