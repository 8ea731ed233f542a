"""Replacement policies: classic baselines and the two-area ZBS cache."""

import math

import pytest

from zipfcache.policies import (
    DAY,
    MAX_RETENTION,
    MIN_RETENTION,
    EvictionInfeasible,
    FIFOCache,
    LFUCache,
    LRUCache,
    ZBSCache,
    make_policy,
)
from zipfcache.simcore import CacheConfig, _Engine, simulate
from zipfcache.trace import REQUEST, SyntheticSpec, TraceEvent, generate_trace


def _req(t, obj, size=100):
    return TraceEvent(t, REQUEST, obj, size)


# ---------------------------------------------------------------- baselines


def test_fifo_ignores_recency():
    # same stream as the LRU walk; FIFO keeps b and evicts a first
    events = [_req(0, "a"), _req(1, "b"), _req(2, "a"), _req(3, "c"), _req(4, "b")]
    report = simulate(events, CacheConfig(capacity_bytes=250, policy_id="fifo"))
    assert report.hits == 2
    assert report.evictions == 1


def test_lfu_evicts_rarest_then_oldest():
    events = [_req(0, "a"), _req(1, "a"), _req(2, "b"), _req(3, "c"), _req(4, "b")]
    report = simulate(events, CacheConfig(capacity_bytes=250, policy_id="lfu"))
    # c@3 evicts b (freq 1, older than c); b@4 then evicts c the same way
    assert report.hits == 1
    assert report.evictions == 2


def test_lfu_frequency_does_not_survive_eviction():
    lfu = LFUCache(math.inf)
    lfu.on_miss_admit("a", 100, 0.0)
    lfu.on_hit("a", 1.0)
    assert lfu.entries["a"][1] == 2
    lfu.force_forget("a")
    lfu.on_miss_admit("a", 100, 2.0)
    assert lfu.entries["a"][1] == 1


def test_lru_choose_victims_batch():
    lru = LRUCache(1000)
    for i, obj in enumerate("abcd"):
        lru.on_miss_admit(obj, 100, float(i))
    assert lru.choose_victims(250, 5.0) == ["a", "b", "c"]
    assert list(lru.entries.items()) == [("d", 100)]
    with pytest.raises(EvictionInfeasible):
        LRUCache(1000).choose_victims(10, 0.0)


# ------------------------------------------------------------ ZBS placement


def test_first_request_lands_in_accessory():
    p = ZBSCache(1000)
    assert p.on_miss_admit("a", 50, 0.0)
    assert "a" in p.accessory and "a" not in p.kernel
    assert p.accessory_bytes == 50 and p.kernel_bytes == 0


def test_second_request_promotes_with_fetch_time():
    p = ZBSCache(1000)
    p.on_miss_admit("a", 50, 0.0)
    p.on_hit("a", 10.0)
    assert "a" in p.kernel and "a" not in p.accessory
    entry = p.kernel["a"]
    assert entry.theta == 2
    assert entry.last_modified == 0.0  # clock starts at the accessory fetch
    assert p.metric("a", 20.0) == pytest.approx(10.0)
    p.on_hit("a", 30.0)
    assert p.kernel["a"].theta == 3
    assert p.metric("a", 30.0) == pytest.approx(10.0)


def test_statistics_survive_eviction_for_readmission():
    p = ZBSCache(1000)
    p.on_miss_admit("b", 10, 0.0)
    p.force_forget("b")
    assert "b" not in p.accessory
    assert p.on_miss_admit("b", 10, 5.0)
    assert p.kernel["b"].theta == 2  # one prior request in the window


def test_readmission_uses_full_window_count():
    p = ZBSCache(1000)
    p.on_miss_admit("b", 10, 0.0)
    p.on_hit("b", 3600.0)
    p.force_forget("b")
    p.on_miss_admit("b", 10, 20 * DAY)
    assert p.kernel["b"].theta == 3


def test_window_pruning_resets_cold_documents():
    p = ZBSCache(1000, retention=MIN_RETENTION)
    p.on_miss_admit("b", 10, 0.0)
    p.on_hit("b", 3600.0)
    p.force_forget("b")
    p.on_miss_admit("b", 10, 40 * DAY)  # both requests aged out
    assert "b" in p.accessory and "b" not in p.kernel


def test_refetch_resets_theta_and_clock():
    p = ZBSCache(1000)
    p.on_miss_admit("a", 50, 0.0)
    p.on_hit("a", 10.0)
    p.on_hit("a", 20.0)
    p.on_modification_fetched("a", 60, 40.0)
    entry = p.kernel["a"]
    assert (entry.theta, entry.last_modified, entry.size) == (1, 40.0, 60)
    assert p.kernel_bytes == 60
    assert p.metric("a", 50.0) == pytest.approx(10.0)


def test_modified_accessory_document_joins_kernel():
    p = ZBSCache(1000)
    p.on_miss_admit("c", 10, 0.0)
    p.on_modification_fetched("c", 12, 5.0)
    assert "c" not in p.accessory
    entry = p.kernel["c"]
    assert (entry.theta, entry.last_modified, entry.admitted_at) == (1, 5.0, 0.0)
    assert p.accessory_bytes == 0 and p.kernel_bytes == 12


def test_document_too_big_for_kernel_stays_accessory():
    # fraction above the engine limit is fine for a standalone policy object
    p = ZBSCache(1000, accessory_fraction=0.95)
    p.on_miss_admit("a", 100, 0.0)
    p.on_hit("a", 5.0)  # kernel cap is 50; promotion must not lose the copy
    assert "a" in p.accessory and "a" not in p.kernel
    assert p.accessory_bytes == 100


def test_stats_recorded_even_when_admission_refused():
    p = ZBSCache(1000)  # accessory cap 100
    assert not p.on_miss_admit("x", 400, 0.0)
    assert p.on_miss_admit("x", 400, 1.0)  # prior request routes to kernel
    assert p.kernel["x"].theta == 2


# ------------------------------------------------------------- ZBS eviction


def _kernel_doc(p, obj, t_refused, t_admitted, size=400):
    p.on_miss_admit(obj, size, t_refused)
    p.on_miss_admit(obj, size, t_admitted)


def test_kernel_evicts_largest_metric():
    p = ZBSCache(1000)  # kernel cap 900
    _kernel_doc(p, "x", 0.0, 1.0)
    _kernel_doc(p, "y", 2.0, 3.0)
    _kernel_doc(p, "z", 4.0, 5.0)
    assert p.over_limit
    # theta all 2: C at t=10 is (10-lm)/2, largest for the oldest fetch
    assert p.choose_victims(0, 10.0) == ["x"]
    assert not p.over_limit and p.kernel_bytes == 800


def test_theta_divides_staleness():
    p = ZBSCache(1000)
    _kernel_doc(p, "x", 0.0, 1.0)
    _kernel_doc(p, "y", 2.0, 3.0)
    p.on_hit("x", 6.0)  # theta 3 shields the older fetch
    _kernel_doc(p, "z", 7.0, 10.0)
    assert p.choose_victims(0, 12.0) == ["y"]
    # second round ranks a kernel whose entries changed theta since the first
    p.on_hit("z", 15.0)
    _kernel_doc(p, "w", 16.0, 20.0)
    assert p.choose_victims(0, 21.0) == ["x"]


def test_tie_breaks_by_admission_order():
    p = ZBSCache(1000)
    p.on_miss_admit("u", 400, 0.0)
    p.on_miss_admit("v", 400, 0.0)
    p.on_miss_admit("u", 400, 2.0)
    p.on_miss_admit("v", 400, 2.0)
    _kernel_doc(p, "w", 3.0, 4.0)
    assert p.choose_victims(0, 10.0) == ["u"]


def test_accessory_is_fifo_and_peak_is_settled():
    p = ZBSCache(1000)  # accessory cap 100
    p.on_miss_admit("a", 40, 0.0)
    p.on_miss_admit("b", 40, 1.0)
    p.on_miss_admit("c", 40, 2.0)
    assert p.over_limit
    assert p.choose_victims(0, 3.0) == ["a"]
    assert p.accessory_bytes == 80
    assert p.peak_accessory_bytes == 80  # transient 120 never observable


def test_byte_metric_divides_by_size():
    p = ZBSCache(1000, byte_metric=True)  # kernel cap 900
    _kernel_doc(p, "big", 0.0, 1.0, size=500)   # theta 2, lm 1.0
    p.on_miss_admit("small", 100, 0.0)          # accessory fetch at 0.0
    p.on_hit("small", 1.0)                      # theta 2, lm 0.0, size 100
    assert p.metric("small", 11.0) == pytest.approx(11 / 200)
    assert p.metric("big", 11.0) == pytest.approx(10 / 1000)
    _kernel_doc(p, "w", 2.0, 3.0, size=400)     # theta 2, lm 3.0
    assert p.over_limit
    # small scores 0.055 against 0.010 for big and w despite being newest
    assert p.choose_victims(0, 11.0) == ["small"]
    # big and w now tie at 0.010 (z scores 0.0075); earlier admission wins
    _kernel_doc(p, "z", 4.0, 5.0, size=400)
    assert p.choose_victims(0, 11.0) == ["big"]
    _assert_index_consistent(p)


def _assert_index_consistent(p):
    """Every kernel entry owns one slot that maps back to it; free slots
    hold no document."""
    slots = [e.slot for e in p.kernel.values()]
    assert len(set(slots)) == len(slots)
    assert all(p._slot_obj[e.slot] == obj for obj, e in p.kernel.items())
    assert set(p._free).isdisjoint(slots)
    assert all(p._slot_obj[i] is None for i in p._free)
    assert len(slots) + len(p._free) == len(p._slot_obj)


# -------------------------------------------------------------- whole runs


def test_zbs_invariants_after_seeded_run():
    spec = SyntheticSpec(
        n_objects=300, alpha=0.7, request_rate=0.5, duration=60_000.0,
        mean_doc_size=1_000.0, size_spread=1.0, mu_p=1e-4, mu_u=1e-5, seed=31,
    )
    events = generate_trace(spec)
    for policy_id in ("zbs", "zbs-byte"):
        eng = _Engine(CacheConfig(capacity_bytes=40_000, policy_id=policy_id))
        report = eng.run(events)
        p = eng.policy

        assert report.hits > 0 and report.evictions > 0
        assert p.kernel_bytes == sum(e.size for e in p.kernel.values())
        assert p.accessory_bytes == sum(s for s, _ in p.accessory.values())
        assert p.kernel_bytes <= p.kern_cap
        assert p.accessory_bytes <= p.acc_cap
        assert p.peak_accessory_bytes <= p.acc_cap
        assert set(eng.resident) == set(p.kernel) | set(p.accessory)
        assert eng.occupancy == p.kernel_bytes + p.accessory_bytes
        assert all(e.theta >= 1 for e in p.kernel.values())
        _assert_index_consistent(p)

        last_t = events[-1].timestamp
        for obj in p.accessory:
            # a second in-window request would have promoted the document
            assert p.stats[obj].window_total(last_t, p.retention) == 1


def test_zbs_deterministic_under_ties():
    spec = SyntheticSpec(
        n_objects=50, alpha=0.7, request_rate=2.0, duration=5_000.0,
        mean_doc_size=1_000.0, size_spread=0.0, seed=5, poisson_arrivals=False,
    )
    events = generate_trace(spec)
    config = CacheConfig(capacity_bytes=12_000, policy_id="zbs")
    assert simulate(events, config) == simulate(events, config)


def test_expire_stats_drops_only_idle_nonresident():
    p = ZBSCache(1000, retention=MIN_RETENTION)
    p.on_miss_admit("gone", 10, 0.0)
    p.force_forget("gone")
    p.on_miss_admit("held", 10, 0.0)
    p.on_expire_stats(35 * DAY)
    assert "gone" not in p.stats
    assert "held" in p.stats  # still resident in the accessory area


# ----------------------------------------------------------- configuration


def test_make_policy_dispatch():
    assert isinstance(make_policy(CacheConfig(policy_id="lru")), LRUCache)
    assert isinstance(make_policy(CacheConfig(policy_id="fifo")), FIFOCache)
    assert isinstance(make_policy(CacheConfig(policy_id="lfu")), LFUCache)
    zbs = make_policy(CacheConfig(policy_id="zbs", capacity_bytes=1000))
    assert isinstance(zbs, ZBSCache) and not zbs.byte_metric
    assert zbs.retention == MAX_RETENTION
    assert make_policy(CacheConfig(policy_id="zbs-byte")).byte_metric
    with pytest.raises(ValueError):
        make_policy(CacheConfig(policy_id="arc"))
