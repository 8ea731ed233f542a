"""Engine semantics: residency, freshness, byte accounting, capacity."""

import math

import pytest

from zipfcache.analytic import DomainError
from zipfcache.prefetch import PrefetchLayer
from zipfcache.simcore import (
    CacheConfig,
    PrefetchConfig,
    SimulationError,
    simulate,
    sweep_sizes,
)
from zipfcache.trace import MODIFICATION, REQUEST, SyntheticSpec, TraceEvent, generate_trace


def _req(t, obj, size=100, cacheable=True):
    return TraceEvent(t, REQUEST, obj, size, cacheable)


def _mod(t, obj, size=100):
    return TraceEvent(t, MODIFICATION, obj, size)


def _lru(capacity=math.inf, **kw):
    return CacheConfig(capacity_bytes=capacity, policy_id="lru", **kw)


# -------------------------------------------------------------- hand walks


def test_lru_walk_exact_counters():
    events = [
        _req(0, "a"), _req(1, "b"), _req(2, "a"), _req(3, "c"), _req(4, "b"),
    ]
    report = simulate(events, _lru(250))
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
        _req(0, "a", 100),
        _mod(1, "a", 120),
        _mod(1.5, "ghost", 10),  # non-resident modification is a no-op
        _req(2, "a", 120),
        _req(3, "a", 120),
    ]
    report = simulate(events, _lru())
    assert report.hits == 1
    assert report.stale_refetches == 1
    assert report.demand_bytes == 220
    assert report.evictions == 0
    assert report.byte_hit_ratio == pytest.approx(120 / 340)
    assert report.kernel_occupancy_bytes == 120  # refetch resized the copy


def test_non_cacheable_never_admitted():
    events = [_req(0, "a", cacheable=False), _req(1, "a", cacheable=False)]
    report = simulate(events, _lru())
    assert report.cacheable_requests == 0
    assert report.hits == 0
    assert report.demand_bytes == 200
    assert report.kernel_occupancy_bytes == 0
    assert report.unique_docs == 0  # popularity counts only cacheable requests


def test_byte_hit_ratio_weights_by_size():
    events = [_req(0, "a", 100), _req(1, "b", 900), _req(2, "b", 900)]
    report = simulate(events, _lru())
    assert report.hit_ratio == pytest.approx(1 / 3)
    assert report.byte_hit_ratio == pytest.approx(900 / 1900)


def test_object_count_mode_counts_documents():
    events = [
        _req(0, "a", 1000), _req(1, "b", 2000), _req(2, "c", 3000),
        _req(3, "b", 2000), _req(4, "a", 1000),
    ]
    report = simulate(events, _lru(2, object_count_mode=True))
    assert report.hits == 1
    assert report.evictions == 2
    assert report.demand_bytes == 7000  # traffic stays byte-accounted
    assert report.kernel_occupancy_bytes == 2  # capacity units are documents


def test_oversize_document_never_admitted():
    report = simulate([_req(0, "big", 200), _req(1, "big", 200)], _lru(150))
    assert report.hits == 0
    assert report.evictions == 0
    assert report.demand_bytes == 400
    assert report.kernel_occupancy_bytes == 0


def test_oversize_growth_on_refetch_drops_copy():
    events = [
        _req(0, "a", 100),
        _mod(1, "a", 200),
        _req(2, "a", 200),
        _req(3, "a", 200),
    ]
    report = simulate(events, _lru(150))
    assert report.hits == 0
    assert report.stale_refetches == 1
    assert report.evictions == 1
    assert report.demand_bytes == 500
    assert report.kernel_occupancy_bytes == 0


def test_unsorted_trace_rejected():
    with pytest.raises(SimulationError, match="time-ordered"):
        simulate([_req(5, "a"), _req(4, "b")], _lru())


@pytest.mark.parametrize("stamps", [(0, math.nan), (0, math.inf), (-math.inf,)])
def test_non_finite_timestamp_rejected(stamps):
    events = [_req(t, f"d{i}") for i, t in enumerate(stamps)]
    with pytest.raises(SimulationError, match="non-finite"):
        simulate(events, _lru())


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

    first_sizes = {}
    for e in static_trace:
        first_sizes.setdefault(e.object_id, e.size_bytes)
    assert report.demand_bytes == sum(first_sizes.values())


def test_simulation_is_deterministic(static_trace):
    cfg = _lru(100_000)
    assert simulate(static_trace, cfg) == simulate(static_trace, cfg)


def test_sweep_sizes_monotone_in_count_mode(static_trace):
    cfg = _lru(object_count_mode=True)
    results = sweep_sizes(static_trace, cfg, [50, 150, 400])
    assert [s for s, _ in results] == [50, 150, 400]
    hits = [r.hits for _, r in results]
    assert hits == sorted(hits)  # LRU stack property


def test_report_shape(static_trace):
    d = simulate(static_trace[:100], _lru()).to_dict()
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
        dict(prefetch=PrefetchConfig("bogus")),
        dict(prefetch=PrefetchConfig("goodfetch", math.nan)),
        dict(prefetch=PrefetchConfig("lifetime", 0.5)),
    ):
        with pytest.raises(DomainError):
            simulate([], CacheConfig(**bad))


# --------------------------------------------------------- prefetch config


def _one_stale_copy():
    return [_req(0, "a"), _mod(1, "a", 120), _req(2, "a", 120)]


def test_simulate_builds_prefetch_layer_from_config():
    cfg = _lru(prefetch=PrefetchConfig("goodfetch"))
    report = simulate(_one_stale_copy(), cfg)
    assert report.prefetch_fetches == 1 and report.prefetch_bytes == 120
    assert report.hits == 1 and report.stale_refetches == 0
    assert report == simulate(_one_stale_copy(), _lru(), PrefetchLayer("goodfetch"))
    # an explicitly passed layer wins over the configured one
    explicit = simulate(_one_stale_copy(), cfg, PrefetchLayer("goodfetch", math.inf))
    assert explicit.prefetch_fetches == 0 and explicit.stale_refetches == 1


def test_sweep_sizes_builds_prefetch_layer_from_config():
    cfg = _lru(prefetch=PrefetchConfig("goodfetch"))
    results = sweep_sizes(_one_stale_copy(), cfg, [150, 1000])
    for size, report in results:
        assert report.prefetch_fetches == 1
        assert report == simulate(_one_stale_copy(), _lru(size), PrefetchLayer("goodfetch"))
