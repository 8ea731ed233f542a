"""Engine semantics: residency, freshness, byte accounting, capacity."""

import gc
import math
import time
import weakref

import numpy as np
import pytest

from support import mod, req
from zipfcache.analytic import DomainError
from zipfcache.policies import DAY, POLICY_IDS
from zipfcache.prefetch import PrefetchLayer
from zipfcache.simcore import CacheConfig, _Engine, simulate
from zipfcache.trace import SyntheticSpec, Trace, generate_trace


def _lru(capacity=math.inf, **kw):
    return CacheConfig(capacity_bytes=capacity, policy_id="lru", **kw)


# -------------------------------------------------------------- hand walks


def test_lru_walk_exact_counters():
    events = [
        req(0, "a"), req(1, "b"), req(2, "a"), req(3, "c"), req(4, "b"),
    ]
    report = simulate(Trace.from_events(events), _lru(250))
    assert report.requests == 5
    assert report.cacheable_requests == 5
    assert report.hits == 1  # only a@2; b and a fall to the LRU end
    assert report.hit_ratio == pytest.approx(0.2)
    assert report.evictions == 2
    assert report.demand_bytes == 400
    assert report.unique_docs == 3
    assert report.two_plus_docs == 2
    assert report.kernel_occupancy_bytes == 200
    assert report.accessory_occupancy_bytes == 0


def test_stale_resident_is_miss_plus_inplace_refetch():
    events = [
        req(0, "a", 100),
        mod(1, "a", 120),
        mod(1.5, "ghost", 10),  # non-resident modification is a no-op
        req(2, "a", 120),
        req(3, "a", 120),
    ]
    report = simulate(Trace.from_events(events), _lru())
    assert report.hits == 1
    assert report.stale_refetches == 1
    assert report.demand_bytes == 220
    assert report.evictions == 0
    assert report.byte_hit_ratio == pytest.approx(120 / 340)
    assert report.kernel_occupancy_bytes == 120  # refetch resized the copy


def test_non_cacheable_never_admitted():
    events = [req(0, "a", cacheable=False), req(1, "a", cacheable=False)]
    report = simulate(Trace.from_events(events), _lru())
    assert report.cacheable_requests == 0
    assert report.hits == 0
    assert report.demand_bytes == 200
    assert report.kernel_occupancy_bytes == 0
    assert report.unique_docs == 0  # popularity counts only cacheable requests


def test_byte_hit_ratio_weights_by_size():
    events = [req(0, "a", 100), req(1, "b", 900), req(2, "b", 900)]
    report = simulate(Trace.from_events(events), _lru())
    assert report.hit_ratio == pytest.approx(1 / 3)
    assert report.byte_hit_ratio == pytest.approx(900 / 1900)


def test_object_count_mode_counts_documents():
    events = [
        req(0, "a", 1000), req(1, "b", 2000), req(2, "c", 3000),
        req(3, "b", 2000), req(4, "a", 1000),
    ]
    report = simulate(Trace.from_events(events), _lru(2, object_count_mode=True))
    assert report.hits == 1
    assert report.evictions == 2
    assert report.demand_bytes == 7000  # traffic stays byte-accounted
    assert report.kernel_occupancy_bytes == 2  # capacity units are documents


def test_oversize_document_never_admitted():
    report = simulate(Trace.from_events([req(0, "big", 200), req(1, "big", 200)]),
                      _lru(150))
    assert report.hits == 0
    assert report.evictions == 0
    assert report.demand_bytes == 400
    assert report.kernel_occupancy_bytes == 0


DROP_CASES = [("lru", "entries"), ("fifo", "entries"), ("lfu", "entries"),
              ("zbs", "accessory"), ("zbs", "kernel"),
              ("zbs-byte", "accessory"), ("zbs-byte", "kernel")]


@pytest.mark.parametrize("policy_id, area", DROP_CASES,
                         ids=[p if a == "entries" else f"{p}-{a}" for p, a in DROP_CASES])
def test_oversize_growth_on_refetch_drops_copy(policy_id, area):
    # a second request moves a zbs copy from the accessory area to the kernel
    warm = [req(0, "a", 100)] + [req(1, "a", 100)] * (area == "kernel")
    config = CacheConfig(capacity_bytes=1000, policy_id=policy_id)
    engine = _Engine(config)
    engine.run(Trace.from_events(warm))
    assert "a" in getattr(engine.policy, area)
    # the refetch outgrows the whole cache, and the next request is refused;
    # the policy drops the copy itself, with no eviction round
    engine = _Engine(config)

    def drain(now):
        raise AssertionError("the copy went through an eviction round")

    engine._drain = drain
    report = engine.run(Trace.from_events(
        warm + [mod(2, "a", 1500), req(3, "a", 1500), req(4, "a", 1500)]))
    assert report.hits == len(warm) - 1
    assert report.stale_refetches == 1
    assert report.evictions == 1
    assert report.demand_bytes == 100 + 2 * 1500
    assert report.kernel_occupancy_bytes == report.accessory_occupancy_bytes == 0
    assert engine.resident == {}


def test_unsorted_trace_rejected():
    with pytest.raises(ValueError, match="time-ordered"):
        Trace.from_events([req(5, "a"), req(4, "b")])


@pytest.mark.parametrize("stamps", [(0, math.nan), (0, math.inf), (-math.inf,)])
def test_non_finite_timestamp_rejected(stamps):
    events = [req(t, f"d{i}") for i, t in enumerate(stamps)]
    with pytest.raises(ValueError, match="non-finite"):
        Trace.from_events(events)


@pytest.mark.parametrize("scheme", [None, "goodfetch", "lifetime"])
@pytest.mark.parametrize("policy_id", POLICY_IDS)
def test_large_time_gap_finishes(policy_id, scheme):
    # about 1.2e10 simulated days lie between the two requests; the copy of
    # a, modified once, is stale but the lifetime rule can never fetch it
    config = CacheConfig(capacity_bytes=1000, policy_id=policy_id)
    start = time.perf_counter()
    report = simulate(Trace.from_events([req(0.0, "a"), mod(1.0, "a"), req(1e15, "b")]),
                      config, PrefetchLayer(scheme) if scheme else None)
    assert time.perf_counter() - start < 1.0
    assert report.requests == 2 and report.hits == 0


def _twice_modified(t_mod, t_end):
    return [req(0.0, "a"), mod(t_mod, "a"), mod(t_mod + 1.0, "a"), req(t_end, "b")]


@pytest.mark.parametrize("policy_id", POLICY_IDS)
def test_twice_modified_lifetime_copy_skips_to_its_due_day(policy_id):
    # the copy of a comes due just after 2e9 s; a daily walk from 1e9 s
    # would take about 11,600 ticks, and the run takes the one that fetches
    assert _ticks(_twice_modified(1e9, 1e14), "lifetime", policy_id) == [23149 * DAY]


@pytest.mark.parametrize("policy_id", POLICY_IDS)
def test_twice_modified_lifetime_gap_finishes(policy_id):
    config = CacheConfig(capacity_bytes=1000, policy_id=policy_id)
    start = time.perf_counter()
    report = simulate(Trace.from_events(_twice_modified(1e12, 1e15)), config,
                      PrefetchLayer("lifetime"))
    assert time.perf_counter() - start < 1.0
    assert report.prefetch_fetches == 1


@pytest.mark.parametrize("stamps", [(0.0, 1e22), (-1e22, 0.0), (1e30,)])
@pytest.mark.parametrize("policy_id", POLICY_IDS)
def test_timestamp_beyond_daily_clock_rejected(policy_id, stamps):
    # beyond about 1e21 s a day is under half a float step and daily ticks
    # would not be distinct; no trace holds a time beyond 1e18 s, where a
    # day still spans over a hundred steps
    events = [req(t, f"d{i}") for i, t in enumerate(stamps)]
    with pytest.raises(ValueError, match=r"beyond 1e\+18 s"):
        simulate(Trace.from_events(events), CacheConfig(capacity_bytes=1000, policy_id=policy_id))


@pytest.mark.parametrize("scheme", [None, "lifetime"])
def test_timestamps_at_the_range_edges_are_replayed(scheme):
    events = Trace.from_events([req(-1e18, "a"), mod(-1e18, "a"), mod(1e18 - 1e6, "a"),
                                req(1e18, "a")])
    report = simulate(events, _lru(), PrefetchLayer(scheme) if scheme else None)
    assert report.requests == 2 and report.hits + report.stale_refetches == 1


def test_bad_timestamp_raises_after_earlier_events():
    # the error names the first bad event, whatever bad events follow it
    with pytest.raises(ValueError, match=r"time-ordered: 4\.0 after 5\.0"):
        Trace.from_events([req(1, "a"), req(5, "a"), req(4, "b"), req(math.nan, "c")])
    with pytest.raises(ValueError, match="non-finite timestamp nan"):
        Trace.from_events([req(1, "a"), req(math.nan, "c"), req(0, "b")])
    with pytest.raises(ValueError, match="non-finite timestamp nan"):
        Trace.from_events([req(1, "a"), req(math.nan, "c"), req(1e19, "b")])


def _ticks(events, scheme=None, policy_id="zbs"):
    """Times of the ticks the engine gives a prefetch layer of `scheme`;
    a run without one has none."""
    eng = _Engine(CacheConfig(capacity_bytes=1000, policy_id=policy_id),
                  PrefetchLayer(scheme) if scheme else None)
    ticks = []
    if scheme:
        refetches = eng.layer.tick_refetches
        eng.layer.tick_refetches = lambda now, resident: (ticks.append(now),
                                                          refetches(now, resident))[1]
    eng.run(Trace.from_events(events))
    return ticks


def test_ticks_only_at_the_fetch_ticks_the_layer_names():
    # The engine keeps no clock: it ticks only at the fetch ticks the layer
    # names, whole days from the start.
    t0 = 0.25
    events = [req(t0, "a"), mod(t0 + 0.5 * DAY, "a"),
              req(t0 + 4.5 * DAY, "b"), req(t0 + 5.5 * DAY, "b")]
    # goodfetch and api fetch only at modifications, and a copy modified
    # once never comes due under the lifetime rule
    for scheme in (None, "goodfetch", "api", "lifetime"):
        assert _ticks(events, scheme) == []
    # modified twice, it comes due at t0 + 1 d, where the day-1 tick
    # compares equal, so the day-2 tick alone runs and fetches it (age
    # 1.5 d > interval 2 d / 2)
    events = [req(t0, "a"), mod(t0 + 0.25 * DAY, "a"), mod(t0 + 0.5 * DAY, "a"),
              req(t0 + 9.5 * DAY, "b")]
    assert _ticks(events, "lifetime") == [t0 + 2 * DAY]
    for scheme in ("goodfetch", "api"):
        assert _ticks(events, scheme) == []


def test_finished_run_leaves_no_reference_cycle():
    gc.disable()
    try:
        eng = _Engine(_lru(), PrefetchLayer("goodfetch"))
        layer = eng.layer
        eng.run(_one_stale_copy())
        ref = weakref.ref(eng)
        del eng
        assert ref() is None
    finally:
        gc.enable()


# ------------------------------------------------------------- whole traces


@pytest.fixture(scope="module")
def static_trace():
    spec = SyntheticSpec(
        n_objects=500, alpha=0.7, request_rate=0.5, duration=40_000.0,
        mean_doc_size=1_000.0, size_spread=1.0, seed=19,
    )
    return generate_trace(spec)


def test_unbounded_cache_misses_each_doc_once(static_trace):
    report = simulate(static_trace, _lru())
    assert report.hits == report.cacheable_requests - report.unique_docs
    assert report.evictions == 0
    assert report.stale_refetches == 0
    assert report.prefetch_fetches == 0 and report.prefetch_bytes == 0

    _, first = np.unique(static_trace.obj, return_index=True)
    assert report.demand_bytes == static_trace.size[first].sum()


def test_simulation_is_deterministic(static_trace):
    cfg = _lru(100_000)
    assert simulate(static_trace, cfg) == simulate(static_trace, cfg)


def test_sweep_sizes_monotone_in_count_mode(static_trace):
    hits = [simulate(static_trace, _lru(size, object_count_mode=True)).hits
            for size in (50, 150, 400)]
    assert hits == sorted(hits)  # LRU stack property


def test_report_shape(static_trace):
    head = Trace(static_trace.t[:100], static_trace.kind[:100], static_trace.obj[:100],
                 static_trace.size[:100], static_trace.cacheable[:100], static_trace.ids)
    d = simulate(head, _lru()).to_dict()
    assert set(d) == {
        "requests", "cacheable_requests", "hits", "hit_ratio", "byte_hit_ratio",
        "unique_docs", "two_plus_docs", "evictions", "stale_refetches",
        "prefetch_fetches", "demand_bytes", "prefetch_bytes",
        "kernel_occupancy_bytes", "accessory_occupancy_bytes",
    }


# ------------------------------------------------------------ configuration


def test_config_validation():
    for bad in (
        dict(capacity_bytes=0),
        dict(policy_id="mru"),
        dict(accessory_fraction=0.25),
        dict(accessory_fraction=0.0),
        dict(stats_retention_seconds=10 * 86400.0),
        dict(stats_retention_seconds=200 * 86400.0),
        # every copy counts 1 there, so the byte metric would be zbs's own
        dict(policy_id="zbs-byte", object_count_mode=True),
    ):
        # building the config alone refuses it
        with pytest.raises(DomainError):
            CacheConfig(**bad)


def test_zero_byte_document_is_refused_before_the_byte_metric():
    # zbs-byte weighs a kernel copy by 1/(theta * size): a 0-byte copy
    # promoted there would divide by zero
    with pytest.raises(ValueError, match="size must be >= 1, got 0"):
        simulate(Trace.from_events([req(0, "a", 0), req(1, "a", 0)]),
                 CacheConfig(1000, "zbs-byte"))


# ----------------------------------------------------------- prefetch layer


def _one_stale_copy():
    return Trace.from_events([req(0, "a"), mod(1, "a", 120), req(2, "a", 120)])


def test_simulate_runs_the_layer_it_is_passed():
    report = simulate(_one_stale_copy(), _lru(), PrefetchLayer("goodfetch"))
    assert report.prefetch_fetches == 1 and report.prefetch_bytes == 120
    assert report.hits == 1 and report.stale_refetches == 0

