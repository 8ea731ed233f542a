"""Prefetch scoring rules, the lifetime rule, and the engine adapter."""

import math

import numpy as np
import pytest

from zipfcache.prefetch import (
    ObjectPrefetchStats,
    PrefetchLayer,
    api_value,
    freshness_factor,
    good_fetch_probability,
    lifetime_threshold,
    select_prefetch_set,
)
from zipfcache.simcore import CacheConfig, PrefetchConfig, simulate
from zipfcache.trace import MODIFICATION, REQUEST, SyntheticSpec, TraceEvent, generate_trace

DAY = 86400.0


def _stats(p_i=0.01, l_i=1000.0, a_rate=1.0, mods=1, install=0.0, last_mod=0.0, obj="d"):
    return ObjectPrefetchStats(
        object_id=obj, p_i=p_i, l_i=l_i, a_rate=a_rate,
        mod_count=mods, install_time=install, last_modified=last_mod,
    )


# ------------------------------------------------------------------ scoring


def test_good_fetch_probability_against_direct_power():
    st = _stats(p_i=1e-5, l_i=1e5, a_rate=1.0)
    val = good_fetch_probability(st)
    assert val == pytest.approx(1.0 - (1.0 - 1e-5) ** 1e5, rel=1e-9)
    assert val == pytest.approx(0.632, abs=1e-3)


def test_good_fetch_probability_trivials():
    assert good_fetch_probability(_stats(p_i=0.0)) == 0.0
    assert good_fetch_probability(_stats(a_rate=0.0)) == 0.0
    assert good_fetch_probability(_stats(p_i=1.0, l_i=5.0, a_rate=1.0)) == 1.0


def test_good_fetch_probability_matches_exponential_limit():
    # 1 - exp(-a p l) is the small-p limit; stays within 1% for p <= 1e-3
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = 10 ** rng.uniform(-6, -3)
        al = 10 ** rng.uniform(-1, 3)
        st = _stats(p_i=p, l_i=al, a_rate=1.0)
        exact = good_fetch_probability(st)
        approx = -math.expm1(-al * p)
        assert exact == pytest.approx(approx, rel=0.01)


def test_api_value_arithmetic():
    assert api_value(_stats(p_i=0.01, l_i=50.0, a_rate=2.0)) == pytest.approx(1.0)


def test_freshness_factor_values():
    assert freshness_factor(_stats(p_i=0.01, l_i=50.0, a_rate=2.0)) == pytest.approx(0.5)
    assert freshness_factor(_stats(p_i=0.09, l_i=100.0, a_rate=1.0)) == pytest.approx(0.9)
    assert freshness_factor(_stats(p_i=1.0, l_i=1e9, a_rate=10.0)) == pytest.approx(1.0, abs=1e-8)


def test_freshness_factor_orders_like_api_value():
    rng = np.random.default_rng(29)
    stats = [
        _stats(p_i=rng.uniform(1e-4, 0.2), l_i=10 ** rng.uniform(1, 5),
               a_rate=rng.uniform(0.1, 5.0), obj=f"o{i}")
        for i in range(30)
    ]
    by_api = sorted(stats, key=api_value, reverse=True)
    by_ff = sorted(stats, key=freshness_factor, reverse=True)
    assert [s.object_id for s in by_api] == [s.object_id for s in by_ff]
    assert all(0.0 <= freshness_factor(s) < 1.0 for s in stats)


def test_select_prefetch_set_filters_and_orders():
    hot = _stats(p_i=0.5, l_i=100.0, a_rate=1.0, obj="hot")
    warm = _stats(p_i=0.05, l_i=100.0, a_rate=1.0, obj="warm")
    cold = _stats(p_i=1e-7, l_i=1.0, a_rate=1.0, obj="cold")
    assert select_prefetch_set([cold, warm, hot], "api", 1.0) == ["hot", "warm"]
    assert select_prefetch_set([hot], "api", 50.0) == []  # strict excess only
    tied = [_stats(p_i=0.1, obj="b"), _stats(p_i=0.1, obj="a")]
    assert select_prefetch_set(tied, "goodfetch", 0.0) == ["a", "b"]
    with pytest.raises(ValueError, match="unknown scheme"):
        select_prefetch_set([hot], "lifetime", 0.0)


def test_lifetime_threshold_rule():
    st = _stats(mods=10, install=0.0, last_mod=89 * DAY)
    assert lifetime_threshold(st, 100 * DAY)  # age 11 d > mean interval 10 d
    st = _stats(mods=10, install=0.0, last_mod=90 * DAY)
    assert not lifetime_threshold(st, 100 * DAY)  # equality does not fetch
    assert not lifetime_threshold(_stats(mods=0), 100 * DAY)
    with pytest.raises(ValueError):
        lifetime_threshold(_stats(install=50.0), 10.0)


def test_stats_validation():
    for bad in (
        dict(p_i=1.5), dict(p_i=-0.1), dict(l_i=0.0),
        dict(a_rate=-1.0), dict(mods=-1),
    ):
        with pytest.raises(ValueError):
            _stats(**bad)


# ------------------------------------------------------- engine integration


def _lru_with(scheme, threshold=-math.inf):
    """An unbounded lru cache under the given prefetch scheme."""
    return CacheConfig(policy_id="lru", prefetch=PrefetchConfig(scheme, threshold))


def _events_single_doc():
    return [
        TraceEvent(0.0, REQUEST, "a", 100),
        TraceEvent(10.0, REQUEST, "a", 100),
        TraceEvent(20.0, MODIFICATION, "a", 120),
        TraceEvent(30.0, REQUEST, "a", 120),
        TraceEvent(40.0, MODIFICATION, "a", 130),
        TraceEvent(50.0, REQUEST, "a", 130),
    ]


def test_goodfetch_layer_single_doc_walk():
    report = simulate(_events_single_doc(), _lru_with("goodfetch", -math.inf))
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
    assert simulate(events, _lru_with("goodfetch", math.inf)) == simulate(events, cfg)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_prefetch_all_converts_stale_misses_to_hits(seed):
    spec = SyntheticSpec(
        n_objects=200, alpha=0.7, request_rate=0.5, duration=30_000.0,
        mean_doc_size=1_000.0, size_spread=0.0, mu_p=2e-4, mu_u=2e-5, seed=seed,
    )
    events = generate_trace(spec)
    cfg = CacheConfig(policy_id="lru")
    plain = simulate(events, cfg)
    pf = simulate(events, _lru_with("goodfetch", -math.inf))
    assert pf.stale_refetches == 0
    assert pf.hits == plain.hits + plain.stale_refetches
    # constant sizes make the bandwidth ledger exact
    assert plain.demand_bytes - pf.demand_bytes == plain.stale_refetches * 1000
    assert pf.prefetch_bytes == pf.prefetch_fetches * 1000


def test_lifetime_rule_fires_on_daily_tick():
    events = [
        TraceEvent(0.0, REQUEST, "a", 100),
        TraceEvent(1 * DAY, MODIFICATION, "a", 110),
        TraceEvent(2 * DAY, MODIFICATION, "a", 120),
        TraceEvent(5.5 * DAY, REQUEST, "a", 120),
    ]
    report = simulate(events, _lru_with("lifetime"))
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
