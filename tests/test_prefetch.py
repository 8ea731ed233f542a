"""Prefetch scoring rules, the lifetime rule, and the engine adapter."""

import math
import tracemalloc

import numpy as np
import pytest

from support import mod, req
from zipfcache.prefetch import PrefetchLayer, _good_fetch
from zipfcache.simcore import CacheConfig, simulate
from zipfcache.trace import SyntheticSpec, Trace, generate_trace

DAY = 86400.0


# ------------------------------------------------------------------ scoring


def _counts(*values):
    return (np.array(v, float) for v in values)


def test_good_fetch_probability_against_direct_power():
    # p_i = 1 / 1e5 and a l_i = K / m_i = 1e5
    val = _good_fetch(*_counts([1], [100_000], [1]))[0]
    assert val == pytest.approx(1.0 - (1.0 - 1e-5) ** 1e5, rel=1e-9)
    assert val == pytest.approx(0.632, abs=1e-3)


def test_good_fetch_probability_trivials():
    # no request of the document, every request to it, and no request at
    # all, where no copy can be resident
    val = _good_fetch(*_counts([0, 7, 0], [1000, 7, 0], [3, 2, 1]))
    assert val[:2].tolist() == [0.0, 1.0]
    assert math.isnan(val[2])


def test_good_fetch_probability_matches_exponential_limit():
    # 1 - exp(-a p l) = 1 - exp(-r / m) is the small-p limit; stays within
    # 1% for p <= 1e-3
    rng = np.random.default_rng(17)
    for _ in range(50):
        total = round(10 ** rng.uniform(3, 6))
        requests = max(1, round(total * 10 ** rng.uniform(-6, -3)))
        mods = max(1, round(total / 10 ** rng.uniform(-1, 3)))
        exact = _good_fetch(*_counts([requests], [total], [mods]))[0]
        approx = -math.expm1(-requests / mods)
        assert exact == pytest.approx(approx, rel=0.01)


def _selected(events, scheme, threshold):
    layer = PrefetchLayer(scheme, threshold)
    layer.note_start(Trace.from_events(events))
    return list(layer.select)


def test_api_value_arithmetic():
    # a p_i l_i = r_i / m_i, whatever the times: 3 requests at the second
    # modification and 4 at the third; the first, at the start, scores 1
    # and is never selected
    events = [req(0.0, "a"), mod(0.0, "a"), req(5.0, "b"), req(9.0, "a"), req(10.0, "a"),
              mod(1e4, "a"), req(3e5, "a"), mod(4e5, "a")]
    assert _selected(events, "api", 0.5) == [False, True, True]
    assert _selected(events, "api", 1.4) == [False, True, False]
    assert _selected(events, "api", 1.5) == [False, False, False]


def test_api_tie_is_not_selected():
    # r / m = 1 exactly, while (K / T)(r / K)(T / m) rounds to 1 + 2**-52
    # at K = 5 requests and T = 7 s: the rule is strict, so a threshold of
    # 1 refuses the copy and any lower one takes it
    events = [req(0.0, "a"), *(req(1.0, f"b{i}") for i in range(4)), mod(7.0, "a")]
    assert (5 / 7) * (1 / 5) * (7 / 1) > 1.0
    for threshold, fetched in ((1.0, 0), (math.nextafter(1.0, 0.0), 1)):
        report = simulate(Trace.from_events(events), *_lru_with("api", threshold))
        assert report.prefetch_fetches == fetched


def test_lifetime_threshold_rule():
    # 10 modifications since install at 0: mean interval 10 d at 100 d; a
    # copy last modified at 89 d is due at 98.9 d and fetched at the 99 d
    # tick, one at 90 d is due at 100 d, where the tick compares equal, so
    # it waits for the 101 d tick
    for last, tick, fetched in ((89, 99, [("a", 100)]), (90, 101, [])):
        days = [*range(1, 10), last]
        layer = PrefetchLayer("lifetime")
        layer.note_start(Trace.from_events(
            [req(0.0, "a")] + [mod(day * DAY, "a") for day in days]))
        for k, day in enumerate(days):
            layer.on_modification("a", 100, day * DAY, k)
        assert layer.stale["a"][0] == tick * DAY
        assert layer.tick_refetches(100 * DAY, {"a": [False, 0]}) == fetched


# ------------------------------------------------------- engine integration


def _lru_with(scheme, threshold=-math.inf):
    """An unbounded lru cache and a new layer of the given prefetch scheme."""
    return CacheConfig(policy_id="lru"), PrefetchLayer(scheme, threshold)


def _events_single_doc():
    return Trace.from_events([req(0.0, "a"), req(10.0, "a"), mod(20.0, "a", 120),
                              req(30.0, "a", 120), mod(40.0, "a", 130), req(50.0, "a", 130)])


def test_goodfetch_layer_single_doc_walk():
    report = simulate(_events_single_doc(), *_lru_with("goodfetch", -math.inf))
    assert report.requests == 4
    assert report.hits == 3  # every request after the first finds a fresh copy
    assert report.stale_refetches == 0
    assert report.prefetch_fetches == 2
    assert report.prefetch_bytes == 250
    assert report.demand_bytes == 100


def test_plain_run_pays_with_stale_misses():
    report = simulate(_events_single_doc(), CacheConfig(policy_id="lru"))
    assert report.hits == 1
    assert report.stale_refetches == 2
    assert report.prefetch_fetches == 0


def test_infinite_threshold_is_a_no_op_layer():
    spec = SyntheticSpec(
        n_objects=200, alpha=0.7, request_rate=0.5, duration=30_000.0,
        mean_doc_size=1_000.0, mu_p=2e-4, mu_u=2e-5, seed=3,
    )
    events = generate_trace(spec)
    cfg = CacheConfig(policy_id="lru")
    assert simulate(events, *_lru_with("goodfetch", math.inf)) == simulate(events, cfg)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_prefetch_all_converts_stale_misses_to_hits(seed):
    spec = SyntheticSpec(
        n_objects=200, alpha=0.7, request_rate=0.5, duration=30_000.0,
        mean_doc_size=1_000.0, size_spread=0.0, mu_p=2e-4, mu_u=2e-5, seed=seed,
    )
    events = generate_trace(spec)
    cfg = CacheConfig(policy_id="lru")
    plain = simulate(events, cfg)
    pf = simulate(events, *_lru_with("goodfetch", -math.inf))
    assert pf.stale_refetches == 0
    assert pf.hits == plain.hits + plain.stale_refetches
    # constant sizes make the bandwidth ledger exact
    assert plain.demand_bytes - pf.demand_bytes == plain.stale_refetches * 1000
    assert pf.prefetch_bytes == pf.prefetch_fetches * 1000


def test_lifetime_rule_fires_on_daily_tick():
    events = Trace.from_events([req(0.0, "a"), mod(1 * DAY, "a", 110), mod(2 * DAY, "a", 120),
                                req(5.5 * DAY, "a", 120)])
    report = simulate(events, *_lru_with("lifetime"))
    # mean interval 5d/2 = 2.5 d; copy age 3 d crosses it at the day-5 tick
    # (day 4 compares 2 d against 2 d and must not fetch)
    assert report.prefetch_fetches == 1
    assert report.prefetch_bytes == 120
    assert report.hits == 1
    assert report.stale_refetches == 0

    plain = simulate(events, CacheConfig(policy_id="lru"))
    assert plain.hits == 0 and plain.stale_refetches == 1


def test_config_carries_prefetch_settings():
    with pytest.raises(ValueError, match="unknown scheme"):
        PrefetchLayer("bogus")
    with pytest.raises(ValueError, match="prefetch threshold must not be NaN"):
        PrefetchLayer("goodfetch", math.nan)
    with pytest.raises(ValueError, match="the lifetime scheme takes no threshold"):
        PrefetchLayer("lifetime", 0.5)
    with pytest.raises(ValueError, match="must not be NaN"):  # NaN is named first
        PrefetchLayer("lifetime", math.nan)


def test_layer_runs_once():
    # api score at the modification: 2 requests / 10 d x share 1 x 10 d = 2
    events = Trace.from_events([req(0.0, "a"), req(1 * DAY, "a"), mod(10 * DAY, "a", 120),
                                req(11 * DAY, "a", 120)])
    config = CacheConfig(policy_id="lru")
    layer = PrefetchLayer("api", 1.0)
    assert simulate(events, config, layer).prefetch_fetches == 1
    # a second run would start from the first one's counts and report 0
    with pytest.raises(ValueError, match="runs once"):
        simulate(events, config, layer)
    # an empty trace does not start a layer
    layer = PrefetchLayer("api", 1.0)
    simulate(Trace.from_events([]), config, layer)
    assert simulate(events, config, layer).prefetch_fetches == 1


# Peak tracemalloc bytes per event of one lru run at 20 MB under each
# layer on _MEMORY_SPEC (93,739 events, 33,599 of them modifications)
# when the engine handed every modification two request counts, read
# from two lists built for the run.  Without such lists the run needs
# less than half.
_LISTED_COUNTS_PEAK_BYTES_PER_EVENT = {"lifetime": 45.24, "goodfetch": 44.59}
# The same peak under `api` at threshold 2.0, which reads the request
# counts, when the layer counted them in a two-column int32 array over
# every cacheable request and modification.  Counting one column at a
# time over one grouping needs at most two thirds of it.
_TWO_COLUMN_COUNTS_PEAK_BYTES_PER_EVENT = 42.31
_MEMORY_SPEC = SyntheticSpec(
    n_objects=10_000, alpha=0.72, request_rate=6e4 / (60 * DAY), duration=60 * DAY,
    popular_boundary=500, mu_p=1 / (2 * DAY), mu_u=1 / (30 * DAY), seed=23,
)


@pytest.mark.parametrize("scheme, threshold, bound", [
    pytest.param("lifetime", -math.inf,
                 _LISTED_COUNTS_PEAK_BYTES_PER_EVENT["lifetime"] / 2, id="lifetime"),
    pytest.param("goodfetch", -math.inf,
                 _LISTED_COUNTS_PEAK_BYTES_PER_EVENT["goodfetch"] / 2, id="goodfetch"),
    pytest.param("api", 2.0, _TWO_COLUMN_COUNTS_PEAK_BYTES_PER_EVENT * 2 / 3, id="api-2.0"),
])
def test_layered_peak_memory_per_event(scheme, threshold, bound):
    events = generate_trace(_MEMORY_SPEC)
    layer = PrefetchLayer(scheme, threshold)
    tracemalloc.start()
    try:
        report = simulate(events, CacheConfig(capacity_bytes=20e6, policy_id="lru"), layer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events) == 93_739 and report.prefetch_fetches > 0
    assert threshold == -math.inf or not all(layer.select)  # the counts were scored
    assert peak / len(events) <= bound
