"""Synthetic workload generation, trace measurement and file formats."""

import math

import numpy as np
import pytest

from zipfcache import analytic, trace
from zipfcache.analytic import DAY, DomainError, ZipfLaw, special_points
from zipfcache.trace import (
    MODIFICATION,
    REQUEST,
    SyntheticSpec,
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
    pts = special_points(ZipfLaw(alpha=spec.alpha, a=1.0, k=50_000.0))
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
        dict(size_spread=-0.1),
        dict(p_c=0.0),
        dict(mu_p=-1e-6),
    ):
        with pytest.raises(DomainError):
            generate_trace(_small_spec(**bad))


# ------------------------------------------------------------- measurement


def _req(t, obj, size=100):
    return TraceEvent(t, REQUEST, obj, size)


def test_popularity_histogram():
    events = [
        _req(0, "a"), _req(1, "b"), _req(2, "a"), _req(3, "c"),
        _req(4, "a"), _req(5, "b"),
        TraceEvent(6, MODIFICATION, "c", 50),
    ]
    hist = popularity_histogram(events)
    assert list(hist.counts) == [3, 2, 1]
    assert hist.object_ids == ["a", "b", "c"]
    assert hist.total_requests == 6
    assert hist.unique_docs == 3
    assert hist.two_plus_docs == 2
    assert hist.theta_sum_top(2) == 5
    assert hist.theta_sum_top(0) == 0


def test_popularity_histogram_tie_break_by_id():
    hist = popularity_histogram([_req(0, "z"), _req(1, "a")])
    assert hist.object_ids == ["a", "z"]


def test_lifetime_stats_micro():
    events = [
        _req(0.0, "a"), _req(4.0, "b"), _req(10.0, "a"),
        TraceEvent(20.0, MODIFICATION, "x", 10),
    ]
    stats = lifetime_stats(events)
    assert stats.t_eff == pytest.approx(10.0)
    assert stats.t_u == pytest.approx(16.0)
    assert (stats.once_docs, stats.two_plus_docs) == (1, 1)


def test_lifetime_stats_window_cut():
    events = [
        _req(0.0, "a"), _req(4.0, "b"), _req(10.0, "a"),
        TraceEvent(20.0, MODIFICATION, "x", 10),
    ]
    stats = lifetime_stats(events, window_seconds=5.0)
    assert stats.t_eff is None
    assert stats.t_u == pytest.approx(3.0)  # a: 5-0, b: 5-4
    assert (stats.once_docs, stats.two_plus_docs) == (2, 0)


def test_lifetime_stats_edge_cases():
    assert lifetime_stats([]) == trace.LifetimeStats(None, None, 0, 0)
    only_two = [_req(0.0, "a"), _req(6.0, "a")]
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


def test_parse_skips_blank_lines(tmp_path):
    p = tmp_path / "t.csv"
    _write_lines(p, [trace.TRACE_HEADER, "0.0,R,a,100,1", "", "1.0,M,a,50,1"])
    events = parse_trace_file(p)
    assert len(events) == 2
    assert events[1] == TraceEvent(1.0, MODIFICATION, "a", 50, True)


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
    assert result.events[2].size_bytes == 1  # zero-byte reply clamped
    assert all(e.kind == REQUEST for e in result.events)


@pytest.mark.parametrize("stamp", ["nan", "inf"])
def test_parse_proxy_log_rejects_non_finite_timestamp(tmp_path, stamp):
    p = tmp_path / "access.log"
    _write_lines(p, ["100.0 5 c TCP_MISS/200 400 GET http://a/x -",
                     f"{stamp} 5 c TCP_MISS/200 400 GET http://a/y -"])
    with pytest.raises(TraceFormatError, match=":2: timestamp must be finite"):
        parse_proxy_log(p)
