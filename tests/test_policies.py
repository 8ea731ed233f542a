"""Replacement policies: classic baselines and the two-area ZBS cache."""

import pytest

from zipfcache.policies import (
    DAY,
    MAX_RETENTION,
    MIN_RETENTION,
    FIFOCache,
    LFUCache,
    LRUCache,
    ZBSCache,
    make_policy,
)
from zipfcache.simcore import CacheConfig, _Engine, simulate
from zipfcache.trace import (
    MODIFICATION,
    REQUEST,
    SyntheticSpec,
    Trace,
    TraceEvent,
    generate_trace,
)


def _req(t, obj, size=100):
    return TraceEvent(t, REQUEST, obj, size)


# ---------------------------------------------------------------- baselines


def test_fifo_ignores_recency():
    # same stream as the LRU walk; FIFO keeps b and evicts a first
    events = [_req(0, "a"), _req(1, "b"), _req(2, "a"), _req(3, "c"), _req(4, "b")]
    report = simulate(Trace.from_events(events),
                      CacheConfig(capacity_bytes=250, policy_id="fifo"))
    assert report.hits == 2
    assert report.evictions == 1


def test_lfu_evicts_rarest_then_oldest():
    events = [_req(0, "a"), _req(1, "a"), _req(2, "b"), _req(3, "c"), _req(4, "b")]
    report = simulate(Trace.from_events(events),
                      CacheConfig(capacity_bytes=250, policy_id="lfu"))
    # c@3 evicts b (freq 1, older than c); b@4 then evicts c the same way
    assert report.hits == 1
    assert report.evictions == 2


def test_lfu_frequency_does_not_survive_eviction():
    lfu = LFUCache(1000)
    lfu.on_miss_admit("a", 100, 0.0)
    lfu.on_hit("a", 1.0)
    assert lfu.entries["a"][1] == 2
    assert not lfu.on_modification_fetched("a", 1001, 1.5)  # outgrew the cache
    assert "a" not in lfu.entries and lfu.buckets == {} and lfu.kernel_bytes == 0
    lfu.on_miss_admit("a", 100, 2.0)
    assert lfu.entries["a"][1] == 1


def test_lru_choose_victims_batch():
    lru = LRUCache(150)
    for i, obj in enumerate("abcd"):
        lru.on_miss_admit(obj, 100, float(i))
    assert lru.over_limit and lru.kernel_bytes == 400
    assert lru.choose_victims(5.0) == ["a", "b", "c"]
    assert list(lru.entries.items()) == [("d", 100)]
    assert not lru.over_limit and lru.kernel_bytes == 100
    assert lru.choose_victims(6.0) == []  # nothing over the cap


# ------------------------------------------------------------ ZBS placement


def _drop(p, obj, now):
    """Drop `obj` from either area: its refetch outgrows the kernel, which
    counts no request."""
    record = list(p.stats[obj])
    assert not p.on_modification_fetched(obj, p.kern_cap + 1, now)
    assert obj not in p.kernel and obj not in p.accessory
    assert p.stats[obj] == record


def test_first_request_lands_in_accessory():
    p = ZBSCache(1000)
    assert p.on_miss_admit("a", 50, 0.0)
    assert "a" in p.accessory and "a" not in p.kernel
    assert p.accessory_bytes == 50 and p.kernel_bytes == 0


def _lm(p, obj):
    """Fetch time of a kernel document, from its slot in the index."""
    return float(p._lm[p.kernel[obj].slot])


def _metric(p, obj, now):
    """Staleness metric C = (now - lm) * w of a kernel document, from its
    slot's fetch time and weight."""
    return float((now - _lm(p, obj)) * p._w[p.kernel[obj].slot])


def test_second_request_promotes_with_fetch_time():
    p = ZBSCache(1000)
    p.on_miss_admit("a", 50, 0.0)
    p.on_hit("a", 10.0)
    assert "a" in p.kernel and "a" not in p.accessory
    entry = p.kernel["a"]
    assert entry.theta == 2
    assert _lm(p, "a") == 0.0  # clock starts at the accessory fetch
    assert _metric(p, "a", 20.0) == pytest.approx(10.0)
    p.on_hit("a", 30.0)
    assert p.kernel["a"].theta == 3
    assert _metric(p, "a", 30.0) == pytest.approx(10.0)


def test_statistics_survive_eviction_for_readmission():
    p = ZBSCache(1000)
    p.on_miss_admit("b", 10, 0.0)
    _drop(p, "b", 1.0)
    assert "b" not in p.accessory
    assert p.on_miss_admit("b", 10, 5.0)
    assert p.kernel["b"].theta == 2  # one prior request in the window


def test_readmission_uses_full_window_count():
    p = ZBSCache(1000)
    p.on_miss_admit("b", 10, 0.0)
    p.on_hit("b", 3600.0)
    _drop(p, "b", 7200.0)
    p.on_miss_admit("b", 10, 20 * DAY)
    assert p.kernel["b"].theta == 3


def test_window_pruning_resets_cold_documents():
    p = ZBSCache(1000, retention=MIN_RETENTION)
    p.on_miss_admit("b", 10, 0.0)
    p.on_hit("b", 3600.0)
    _drop(p, "b", 7200.0)
    p.on_miss_admit("b", 10, 40 * DAY)  # both requests aged out
    assert "b" in p.accessory and "b" not in p.kernel


def test_refetch_resets_theta_and_clock():
    p = ZBSCache(1000)
    p.on_miss_admit("a", 50, 0.0)
    p.on_hit("a", 10.0)
    p.on_hit("a", 20.0)
    p.on_modification_fetched("a", 60, 40.0)
    entry = p.kernel["a"]
    assert (entry.theta, _lm(p, "a"), entry.size) == (1, 40.0, 60)
    assert p.kernel_bytes == 60
    assert _metric(p, "a", 50.0) == pytest.approx(10.0)


def test_modified_accessory_document_joins_kernel():
    p = ZBSCache(1000)
    p.on_miss_admit("c", 10, 0.0)
    p.on_modification_fetched("c", 12, 5.0)
    assert "c" not in p.accessory
    entry = p.kernel["c"]
    assert (entry.theta, _lm(p, "c"), entry.admitted_at) == (1, 5.0, 0.0)
    assert p.accessory_bytes == 0 and p.kernel_bytes == 12


@pytest.mark.parametrize("policy_id", ["zbs", "zbs-byte"])
def test_refetch_that_outgrows_the_kernel_is_dropped(policy_id):
    # a-d reach the kernel (cap 900); d's refetch at 950 B fits the whole
    # cache but not the kernel, so it goes alone and a-c stay cached
    events = [_req(t, obj) for t, obj in enumerate("aabbccdd")]
    events += [TraceEvent(8, MODIFICATION, "d", 950), _req(9, "d", 950),
               _req(10, "a"), _req(11, "b"), _req(12, "c")]
    eng = _Engine(CacheConfig(capacity_bytes=1000, policy_id=policy_id))
    report = eng.run(Trace.from_events(events))
    assert (report.hits, report.evictions, report.stale_refetches) == (7, 1, 1)
    assert set(eng.policy.kernel) == set("abc") and eng.policy.kernel_bytes == 300


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
    assert p.choose_victims(10.0) == ["x"]
    assert not p.over_limit and p.kernel_bytes == 800


def test_theta_divides_staleness():
    p = ZBSCache(1000)
    _kernel_doc(p, "x", 0.0, 1.0)
    _kernel_doc(p, "y", 2.0, 3.0)
    p.on_hit("x", 6.0)  # theta 3 shields the older fetch
    _kernel_doc(p, "z", 7.0, 10.0)
    assert p.choose_victims(12.0) == ["y"]
    # second round ranks a kernel whose entries changed theta since the first
    p.on_hit("z", 15.0)
    _kernel_doc(p, "w", 16.0, 20.0)
    assert p.choose_victims(21.0) == ["x"]


def test_tie_breaks_by_admission_order():
    p = ZBSCache(1000)
    p.on_miss_admit("u", 400, 0.0)
    p.on_miss_admit("v", 400, 0.0)
    p.on_miss_admit("u", 400, 2.0)
    p.on_miss_admit("v", 400, 2.0)
    _kernel_doc(p, "w", 3.0, 4.0)
    assert p.choose_victims(10.0) == ["u"]


def test_accessory_is_fifo_and_peak_is_settled():
    p = ZBSCache(1000)  # accessory cap 100
    p.on_miss_admit("a", 40, 0.0)
    p.on_miss_admit("b", 40, 1.0)
    p.on_miss_admit("c", 40, 2.0)
    assert p.over_limit
    assert p.choose_victims(3.0) == ["a"]
    assert p.accessory_bytes == 80
    assert not p.over_limit  # the transient 120 is settled


def test_byte_metric_divides_by_size():
    p = ZBSCache(1000, byte_metric=True)  # kernel cap 900
    _kernel_doc(p, "big", 0.0, 1.0, size=500)   # theta 2, lm 1.0
    p.on_miss_admit("small", 100, 0.0)          # accessory fetch at 0.0
    p.on_hit("small", 1.0)                      # theta 2, lm 0.0, size 100
    assert _metric(p, "small", 11.0) == pytest.approx(11 / 200)
    assert _metric(p, "big", 11.0) == pytest.approx(10 / 1000)
    _kernel_doc(p, "w", 2.0, 3.0, size=400)     # theta 2, lm 3.0
    assert p.over_limit
    # small scores 0.055 against 0.010 for big and w despite being newest
    assert p.choose_victims(11.0) == ["small"]
    # big and w now tie at 0.010 (z scores 0.0075); earlier admission wins
    _kernel_doc(p, "z", 4.0, 5.0, size=400)
    assert p.choose_victims(11.0) == ["big"]
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


def _window_count(p, obj, now):
    """Requests of `obj` on days from the one holding now - retention on."""
    rec = p.stats[obj]
    first = (now - p.retention) // DAY
    return sum(count for day, count in zip(rec[::2], rec[1::2]) if day >= first)


def test_zbs_invariants_after_seeded_run():
    # 3000 documents for 30000 requests: rare documents still arrive at the
    # end and sit in the accessory area, once requested
    spec = SyntheticSpec(
        n_objects=3000, alpha=0.7, request_rate=0.5, duration=60_000.0,
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
        assert set(eng.resident) == set(p.kernel) | set(p.accessory)
        assert report.kernel_occupancy_bytes == p.kernel_bytes
        assert report.accessory_occupancy_bytes == p.accessory_bytes
        assert all(e.theta >= 1 for e in p.kernel.values())
        _assert_index_consistent(p)

        last_t = float(events.t[-1])
        assert p.accessory
        for obj in p.accessory:
            # a second in-window request would have promoted the document
            assert _window_count(p, obj, last_t) == 1
        for obj, rec in p.stats.items():
            days = rec[::2]
            assert days == sorted(set(days))
            assert min(rec[1::2]) >= 1
        # the expiry tick relies on the records running in last-day order
        last_days = [rec[-2] for rec in p.stats.values()]
        assert last_days == sorted(last_days)


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
    _drop(p, "gone", 0.0)
    p.on_miss_admit("held", 10, 0.0)
    p.on_expire_stats(35 * DAY)
    assert "gone" not in p.stats
    assert "held" in p.stats  # still resident in the accessory area


def test_tick_keeps_a_record_the_window_still_counts():
    p = ZBSCache(1000, retention=MIN_RETENTION)
    p.on_miss_admit("a", 10, 0.1 * DAY)
    _drop(p, "a", 0.2 * DAY)
    # now - retention falls in day 0, later than the request, but the
    # window counts all of day 0: the record stays and still counts
    p.on_expire_stats(30.5 * DAY)
    assert p.stats["a"] == [0, 1]
    p.on_miss_admit("a", 10, 30.6 * DAY)
    assert p.kernel["a"].theta == 2
    _drop(p, "a", 30.7 * DAY)
    p.on_expire_stats(60.9 * DAY)  # day 30 is still the window's first
    assert p.stats["a"] == [0, 1, 30, 1]
    p.on_expire_stats(61.0 * DAY)
    assert "a" not in p.stats


def test_held_record_expires_once_evicted():
    p = ZBSCache(1000, retention=MIN_RETENTION)
    p.on_miss_admit("held", 10, 0.0)
    p.on_expire_stats(35 * DAY)
    assert "held" in p.stats
    _drop(p, "held", 35 * DAY)
    p.on_expire_stats(36 * DAY)
    assert "held" not in p.stats
    # back without its old record: a first request again
    p.on_miss_admit("held", 10, 37 * DAY)
    assert "held" in p.accessory


def test_record_of_one_day_stays_flat():
    p = ZBSCache(1000)
    p.on_miss_admit("a", 10, 100.0)
    for i in range(1, 10_000):
        p.on_hit("a", 100.0 + i)
    assert p.stats["a"] == [0, 10_000]
    p.on_hit("a", DAY)
    assert p.stats["a"] == [0, 10_000, 1, 1]


class _CountedWalk(dict):
    """A dict that counts the entries walks over it yield."""

    yielded = 0

    def _walk(self, entries):
        for entry in entries:
            self.yielded += 1
            yield entry

    def __iter__(self):
        return self._walk(super().__iter__())

    def keys(self):
        return self._walk(super().keys())

    def values(self):
        return self._walk(super().values())

    def items(self):
        return self._walk(super().items())


def test_expiry_tick_walks_only_expiring_and_held_records():
    p = ZBSCache(1000, retention=MIN_RETENTION)
    p.on_miss_admit("d0", 10, 0.0)  # stays resident
    for i in range(1, 50):
        p.on_miss_admit(f"d{i}", 10, i * DAY)
        _drop(p, f"d{i}", i * DAY)
    # A tick visits the records that expire, the resident ones before the
    # window's first day, and the first record of that day or later.
    p.stats = walk = _CountedWalk(p.stats)
    p.on_expire_stats(10 * DAY)  # inside the first retention span
    assert walk.yielded == 0 + 0 + 1
    walk.yielded = 0
    p.on_expire_stats(31 * DAY)  # the window starts on day 1; d0 is resident
    assert len(p.stats) == 50
    assert walk.yielded == 0 + 1 + 1
    _drop(p, "d0", 31 * DAY)
    walk.yielded = 0
    p.on_expire_stats(40.5 * DAY)  # the window starts on day 10
    assert len(p.stats) == 40 and "d9" not in p.stats and "d10" in p.stats
    assert walk.yielded == 10 + 0 + 1


# ----------------------------------------------------------- configuration


def test_make_policy_dispatch():
    assert isinstance(make_policy(CacheConfig(policy_id="lru")), LRUCache)
    assert isinstance(make_policy(CacheConfig(policy_id="fifo")), FIFOCache)
    assert isinstance(make_policy(CacheConfig(policy_id="lfu")), LFUCache)
    zbs = make_policy(CacheConfig(policy_id="zbs", capacity_bytes=1000))
    assert isinstance(zbs, ZBSCache) and not zbs.byte_metric
    assert zbs.retention == MAX_RETENTION
    assert make_policy(CacheConfig(policy_id="zbs-byte")).byte_metric
    # no config names another policy
    with pytest.raises(ValueError, match="unknown policy 'arc'"):
        CacheConfig(policy_id="arc")
