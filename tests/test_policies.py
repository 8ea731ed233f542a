"""Replacement policies: classic baselines and the two-area ZBS cache."""

import numpy as np
import pytest

from support import ADMITTED_AT, SIZE, SLOT, THETA, mod, recording, req
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
from zipfcache.simcore import (
    MISS, MODIFIED, NOT_CACHEABLE, REFUSED, STALE, CacheConfig, _Engine, simulate,
)
from zipfcache.trace import SyntheticSpec, Trace, generate_trace


# ---------------------------------------------------------------- baselines


def test_fifo_ignores_recency():
    # same stream as the LRU walk; FIFO keeps b and evicts a first
    events = [req(0, "a"), req(1, "b"), req(2, "a"), req(3, "c"), req(4, "b")]
    report = simulate(Trace.from_events(events),
                      CacheConfig(capacity_bytes=250, policy_id="fifo"))
    assert report.hits == 2
    assert report.evictions == 1


def test_lfu_evicts_rarest_then_oldest():
    events = [req(0, "a"), req(1, "a"), req(2, "b"), req(3, "c"), req(4, "b")]
    report = simulate(Trace.from_events(events),
                      CacheConfig(capacity_bytes=250, policy_id="lfu"))
    # c@3 evicts b (freq 1, older than c); b@4 then evicts c the same way
    assert report.hits == 1
    assert report.evictions == 2


def test_lfu_frequency_does_not_survive_eviction():
    lfu = LFUCache(1000)
    lfu.on_miss_admit("a", 100, 0.0, 0)
    lfu.on_hit("a", 1.0)
    assert lfu.copies["a"][3] == 2  # the frequency, after the size
    lfu.on_modification_fetched("a", 1001, 1.5)  # outgrew the cache
    assert "a" not in lfu.copies and lfu.buckets == {} and lfu.kernel_bytes == 0
    assert lfu.evictions == 1
    lfu.on_miss_admit("a", 100, 2.0, 2)
    assert lfu.copies["a"][3] == 1


def test_lru_evicts_a_batch_in_one_round():
    lru = LRUCache(300)
    log = []
    recording(lru, log)
    for i, obj in enumerate("abc"):
        lru.on_miss_admit(obj, 100, float(i), i)
    assert log == [] and lru.kernel_bytes == 300  # full, not over
    # the admission that takes the cache over its cap evicts before it returns
    assert lru.on_miss_admit("d", 300, 3.0, 3)
    assert log == ["a", "b", "c"] and lru.evictions == 3
    assert list(lru.copies.items()) == [("d", [True, 3, 300])]
    assert lru.kernel_bytes == 300


# ------------------------------------------------------------ ZBS placement


def _zbs(requests, capacity=1000, **kwargs):
    """A ZBSCache started on a trace of `requests`, (time, document) pairs
    in time order, and `admit(obj, size, now)`: its on_miss_admit at the
    index of that request."""
    p = ZBSCache(capacity, **kwargs)
    p.note_start(Trace.from_events([req(t, obj) for t, obj in requests]))
    index = {request: i for i, request in enumerate(requests)}
    return p, lambda obj, size, now: p.on_miss_admit(obj, size, now, index[now, obj])


def _kernel(p):
    """The records of the documents in the kernel of `p`."""
    return {obj: record for obj, record in p.copies.items() if record[SLOT] is not None}


def _drop(p, obj, now):
    """Drop `obj` from either area: a prefetch of it outgrows the kernel."""
    p.on_modification_fetched(obj, p.kern_cap + 1, now)
    assert obj not in p.copies and obj not in p.accessory


def test_first_request_lands_in_accessory():
    p, admit = _zbs([(0.0, "a")])
    assert admit("a", 50, 0.0)
    assert p.accessory["a"] is p.copies["a"] and p.copies["a"][SLOT] is None
    assert p.accessory_bytes == 50 and p.kernel_bytes == 0


def _lm(p, obj):
    """Fetch time of a kernel document, from its slot in the index."""
    return float(p._lm[p.copies[obj][SLOT]])


def _metric(p, obj, now):
    """Staleness metric C = (now - lm) * w of a kernel document, from its
    slot's fetch time and weight."""
    return float((now - _lm(p, obj)) * p._w[p.copies[obj][SLOT]])


def test_second_request_promotes_with_fetch_time():
    p, admit = _zbs([(0.0, "a"), (10.0, "a"), (30.0, "a")])
    admit("a", 50, 0.0)
    p.on_hit("a", 10.0)
    assert "a" in _kernel(p) and "a" not in p.accessory
    assert p.copies["a"][THETA] == 2
    assert _lm(p, "a") == 0.0  # clock starts at the accessory fetch
    assert _metric(p, "a", 20.0) == pytest.approx(10.0)
    p.on_hit("a", 30.0)
    assert p.copies["a"][THETA] == 3
    assert _metric(p, "a", 30.0) == pytest.approx(10.0)


def test_statistics_survive_eviction_for_readmission():
    p, admit = _zbs([(0.0, "b"), (5.0, "b")])
    admit("b", 10, 0.0)
    _drop(p, "b", 1.0)
    assert "b" not in p.accessory
    assert admit("b", 10, 5.0)
    assert p.copies["b"][THETA] == 2  # one prior request in the window


def test_readmission_uses_full_window_count():
    p, admit = _zbs([(0.0, "b"), (3600.0, "b"), (20 * DAY, "b")])
    admit("b", 10, 0.0)
    p.on_hit("b", 3600.0)
    _drop(p, "b", 7200.0)
    admit("b", 10, 20 * DAY)
    assert p.copies["b"][THETA] == 3


def test_window_pruning_resets_cold_documents():
    p, admit = _zbs([(0.0, "b"), (3600.0, "b"), (40 * DAY, "b")], retention=MIN_RETENTION)
    admit("b", 10, 0.0)
    p.on_hit("b", 3600.0)
    _drop(p, "b", 7200.0)
    admit("b", 10, 40 * DAY)  # both requests aged out
    assert "b" in p.accessory and "b" not in _kernel(p)


def test_refetch_resets_theta_and_clock():
    p, admit = _zbs([(0.0, "a"), (10.0, "a"), (20.0, "a")])
    admit("a", 50, 0.0)
    p.on_hit("a", 10.0)
    p.on_hit("a", 20.0)
    p.on_modification_fetched("a", 60, 40.0)
    record = p.copies["a"]
    assert (record[THETA], _lm(p, "a"), record[SIZE]) == (1, 40.0, 60)
    assert p.kernel_bytes == 60
    assert _metric(p, "a", 50.0) == pytest.approx(10.0)


def test_modified_accessory_document_joins_kernel():
    p, admit = _zbs([(0.0, "c")])
    admit("c", 10, 0.0)
    p.on_modification_fetched("c", 12, 5.0)
    assert "c" not in p.accessory
    record = p.copies["c"]
    assert (record[THETA], _lm(p, "c"), record[ADMITTED_AT]) == (1, 5.0, 0.0)
    assert p.accessory_bytes == 0 and p.kernel_bytes == 12


@pytest.mark.parametrize("policy_id", ["zbs", "zbs-byte"])
def test_refetch_that_outgrows_the_kernel_is_dropped(policy_id):
    # a-d reach the kernel (cap 900); d's refetch at 950 B fits the whole
    # cache but not the kernel, so it goes alone and a-c stay cached
    events = [req(t, obj) for t, obj in enumerate("aabbccdd")]
    events += [mod(8, "d", 950), req(9, "d", 950),
               req(10, "a"), req(11, "b"), req(12, "c")]
    eng = _Engine(CacheConfig(capacity_bytes=1000, policy_id=policy_id))
    report = eng.run(Trace.from_events(events))
    assert (report.hits, report.evictions, report.stale_refetches) == (7, 1, 1)
    assert set(_kernel(eng.policy)) == set("abc") and eng.policy.kernel_bytes == 300


def test_stats_recorded_even_when_admission_refused():
    p, admit = _zbs([(0.0, "x"), (1.0, "x")])  # accessory cap 100
    assert not admit("x", 400, 0.0)
    assert admit("x", 400, 1.0)  # prior request routes to kernel
    assert p.copies["x"][THETA] == 2


# ------------------------------------------------------------- ZBS eviction


def _kernel_doc(admit, obj, t_refused, t_admitted, size=400):
    admit(obj, size, t_refused)
    admit(obj, size, t_admitted)


def _evicted(p):
    """The list each eviction or drop of `p` appends its document to."""
    log = []
    recording(p, log)
    return log


def test_kernel_evicts_largest_metric():
    p, admit = _zbs([(0.0, "x"), (1.0, "x"), (2.0, "y"), (3.0, "y"),
                     (4.0, "z"), (5.0, "z")])  # kernel cap 900
    evicted = _evicted(p)
    _kernel_doc(admit, "x", 0.0, 1.0)
    _kernel_doc(admit, "y", 2.0, 3.0)
    assert evicted == []
    # z takes the kernel over its cap at t=5; theta all 2: C is (5-lm)/2,
    # largest for the oldest fetch
    _kernel_doc(admit, "z", 4.0, 5.0)
    assert evicted == ["x"] and p.kernel_bytes == 800 and p.evictions == 1


def test_theta_divides_staleness():
    p, admit = _zbs([(0.0, "x"), (1.0, "x"), (2.0, "y"), (3.0, "y"), (6.0, "x"),
                     (7.0, "z"), (10.0, "z"), (15.0, "z"), (16.0, "w"), (20.0, "w")])
    evicted = _evicted(p)
    _kernel_doc(admit, "x", 0.0, 1.0)
    _kernel_doc(admit, "y", 2.0, 3.0)
    p.on_hit("x", 6.0)  # theta 3 shields the older fetch
    _kernel_doc(admit, "z", 7.0, 10.0)  # at 10: x 9/3, y 7/2
    assert evicted == ["y"]
    # second round ranks a kernel whose entries changed theta since the first
    p.on_hit("z", 15.0)
    _kernel_doc(admit, "w", 16.0, 20.0)  # at 20: x 19/3, z 10/3
    assert evicted == ["y", "x"]


def test_tie_breaks_by_admission_order():
    p, admit = _zbs([(0.0, "u"), (0.0, "v"), (2.0, "u"), (2.0, "v"), (3.0, "w"), (4.0, "w")])
    evicted = _evicted(p)
    admit("u", 400, 0.0)
    admit("v", 400, 0.0)
    admit("u", 400, 2.0)
    admit("v", 400, 2.0)
    _kernel_doc(admit, "w", 3.0, 4.0)  # at 4: u and v tie at 2/2
    assert evicted == ["u"]


def test_accessory_is_fifo_and_peak_is_settled():
    p, admit = _zbs([(0.0, "a"), (1.0, "b"), (2.0, "c")])  # accessory cap 100
    evicted = _evicted(p)
    admit("a", 40, 0.0)
    admit("b", 40, 1.0)
    admit("c", 40, 2.0)
    assert evicted == ["a"]
    assert p.accessory_bytes == 80  # the transient 120 is settled in the call
    assert list(p.accessory) == ["b", "c"]


def test_byte_metric_divides_by_size():
    p, admit = _zbs([(0.0, "big"), (0.0, "small"), (1.0, "big"), (1.0, "small"),
                     (2.0, "w"), (3.0, "w"), (10.0, "z"), (11.0, "z")],
                    byte_metric=True)  # kernel cap 900
    evicted = _evicted(p)
    _kernel_doc(admit, "big", 0.0, 1.0, size=500)   # theta 2, lm 1.0
    admit("small", 100, 0.0)                        # accessory fetch at 0.0
    p.on_hit("small", 1.0)                          # theta 2, lm 0.0, size 100
    assert _metric(p, "small", 11.0) == pytest.approx(11 / 200)
    assert _metric(p, "big", 11.0) == pytest.approx(10 / 1000)
    _kernel_doc(admit, "w", 2.0, 3.0, size=400)     # theta 2, lm 3.0
    # at 3, small scores 0.015 against 0.002 for big despite being newest
    assert evicted == ["small"]
    # at 11, big and w tie at 0.010 (z scores 0); earlier admission wins
    _kernel_doc(admit, "z", 10.0, 11.0, size=400)
    assert evicted == ["small", "big"]
    _assert_index_consistent(p)


def _assert_index_consistent(p):
    """Every kernel entry owns one slot that maps back to it; free slots
    hold no document."""
    kernel = _kernel(p)
    slots = [record[SLOT] for record in kernel.values()]
    assert len(set(slots)) == len(slots)
    assert all(p._slot_obj[record[SLOT]] == obj for obj, record in kernel.items())
    assert set(p._free).isdisjoint(slots)
    assert all(p._slot_obj[i] is None for i in p._free)
    assert len(slots) + len(p._free) == len(p._slot_obj)


# -------------------------------------------------------------- whole runs


def _window_count(events, retention, obj, now):
    """Cacheable requests of `obj` up to `now`, on days from the one
    holding now - retention on."""
    counted = (events.kind == 0) & events.cacheable & (events.obj == events.ids.index(obj))
    counted &= (events.t <= now) & (events.t // DAY >= (now - retention) // DAY)
    return int(np.count_nonzero(counted))


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
        kernel = _kernel(p)
        assert p.kernel_bytes == sum(record[SIZE] for record in kernel.values())
        assert p.accessory_bytes == sum(record[SIZE] for record in p.accessory.values())
        assert p.kernel_bytes <= p.kern_cap
        assert p.accessory_bytes <= p.acc_cap
        # the accessory area orders the copy table's other records
        assert all(p.copies[obj] is record for obj, record in p.accessory.items())
        assert len(kernel) + len(p.accessory) == len(p.copies)
        assert report.kernel_occupancy_bytes == p.kernel_bytes
        assert report.accessory_occupancy_bytes == p.accessory_bytes
        assert report.evictions == p.evictions
        assert all(record[THETA] >= 1 for record in kernel.values())
        _assert_index_consistent(p)

        last_t = float(events.t[-1])
        assert p.accessory
        for obj in p.accessory:
            # a second in-window request would have promoted the document
            assert _window_count(events, p.retention, obj, last_t) == 1
        # the column counts each cacheable request itself, and no other
        # event, in the narrowest type its largest count needs
        window = np.asarray(p.window)
        counted = (events.kind == 0) & events.cacheable
        assert window[counted].min() >= 1 and not window[~counted].any()
        assert window.dtype == np.min_scalar_type(window.max())


def test_zbs_deterministic_under_ties():
    spec = SyntheticSpec(
        n_objects=50, alpha=0.7, request_rate=2.0, duration=5_000.0,
        mean_doc_size=1_000.0, size_spread=0.0, seed=5, poisson_arrivals=False,
    )
    events = generate_trace(spec)
    config = CacheConfig(capacity_bytes=12_000, policy_id="zbs")
    assert simulate(events, config) == simulate(events, config)


def test_window_count_ignores_residency():
    # The window count ignores residency: 35 days on, it counts neither
    # the first request of the dropped document nor that of the held one,
    # so the dropped one comes back as a first request.
    requests = [(0.0, "gone"), (0.0, "held"), (35 * DAY, "gone"), (35 * DAY, "held")]
    p, admit = _zbs(requests, retention=MIN_RETENTION)
    admit("gone", 10, 0.0)
    _drop(p, "gone", 0.0)
    admit("held", 10, 0.0)
    assert list(p.window) == [1, 1, 1, 1]
    assert admit("gone", 10, 35 * DAY) and "gone" in p.accessory


def test_window_counts_whole_days():
    # The window counts whole days, at any time of day within them.
    # a at 30.6 days counts its request of 0.1 days: the window counts all
    # of day 0, where 30.6 days - retention falls.  At 60.9 days day 30
    # is still the window's first, and b at 61.0 days counts from day 31.
    requests = [(0.1 * DAY, "a"), (0.1 * DAY, "b"), (30.6 * DAY, "a"), (30.6 * DAY, "b"),
                (60.9 * DAY, "a"), (61.0 * DAY, "b")]
    p, admit = _zbs(requests, retention=MIN_RETENTION)
    assert list(p.window) == [1, 1, 2, 2, 2, 1]
    admit("a", 10, 0.1 * DAY)
    _drop(p, "a", 0.2 * DAY)
    admit("a", 10, 30.6 * DAY)
    assert p.copies["a"][THETA] == 2


def test_window_forgets_a_request_of_a_resident_copy():
    # A request that the window no longer counts is forgotten, though its
    # document was resident for most of the gap.
    p, admit = _zbs([(0.0, "held"), (37 * DAY, "held")], retention=MIN_RETENTION)
    admit("held", 10, 0.0)
    _drop(p, "held", 35 * DAY)
    # back with no request in its window: a first request again
    admit("held", 10, 37 * DAY)
    assert "held" in p.accessory


def test_window_column_widens_past_uint8():
    # 10,000 requests on day 0 and one on day 1: the column needs 2 bytes
    p, admit = _zbs([(100.0 + i, "a") for i in range(10_000)] + [(DAY, "a")])
    assert p.window[9_999] == 10_000 and p.window[10_000] == 10_001
    assert p.window.itemsize == 2
    admit("a", 10, DAY)
    assert p.copies["a"][THETA] == 10_001


def test_window_starts_on_the_day_of_t_less_retention():
    # d0-d19, requested on days 0-19, come back at 40.5 days, when the
    # window starts on day 10: only d10-d19 count their first request.
    requests = [(i * DAY, f"d{i}") for i in range(20)]
    requests += [(40.5 * DAY, f"d{i}") for i in range(20)]
    p, _ = _zbs(requests, retention=MIN_RETENTION)
    assert list(p.window) == [1] * 20 + [1] * 10 + [2] * 10


def _window(events, retention=MIN_RETENTION):
    p = ZBSCache(1000, retention=retention)
    p.note_start(Trace.from_events(events))
    return list(p.window)


def test_window_starts_on_the_day_holding_t_minus_retention():
    # the request at 31.5 days counts day 1 on, so the one at 1.0 days
    # and not the one at 0.99 days
    events = [req(0.99 * DAY, "a"), req(1.0 * DAY, "a"), req(31.5 * DAY, "a")]
    assert _window(events) == [1, 2, 2]


def test_window_at_negative_times():
    # day = t // 86400 rounds down: -0.5 days is day -1, and -30.5 days
    # day -31, the first day of the window at -0.5 days
    events = [req(-31.5 * DAY, "a"), req(-30.5 * DAY, "a"), req(-0.5 * DAY, "a")]
    assert _window(events) == [1, 2, 2]


def test_window_counts_refused_and_skips_uncacheable_requests():
    events = [req(0.0, "a", 400), req(1.0, "a", 10, cacheable=False), req(2.0, "a", 10)]
    assert _window(events + [mod(3.0, "a", 10), req(4.0, "a", 10)]) \
        == [1, 0, 2, 0, 3]
    # the first request outgrows the accessory area and is refused, yet
    # the third counts it and goes to the kernel
    eng = _Engine(CacheConfig(capacity_bytes=1000, policy_id="zbs"))
    eng.run(Trace.from_events(events))
    assert list(eng.outcome) == [REFUSED, NOT_CACHEABLE, MISS]
    assert eng.policy.copies["a"][THETA] == 2


def test_window_counts_equal_times_in_index_order():
    events = [req(5.0, "b"), req(5.0, "a"), req(5.0, "b"), req(5.0, "a"), req(5.0, "b")]
    assert _window(events) == [1, 1, 2, 2, 3]


def test_window_keys_past_int32():
    # 46,400 documents, each requested twice on a day of its own: the
    # (document, day) keys pass 2**31 and must not wrap
    n = 46_400
    t = np.repeat(np.arange(n) * DAY, 2) + np.tile([0.0, 1.0], n)
    trace = Trace(t, np.zeros(2 * n), np.repeat(np.arange(n), 2), np.ones(2 * n),
                  np.ones(2 * n, bool), [str(i) for i in range(n)])
    p = ZBSCache(1000)
    p.note_start(trace)
    assert np.array_equal(p.window, np.tile([1, 2], n))


def test_dropped_demand_refetch_counts_as_a_request():
    # The stale request at 2 s refetches a copy that outgrew the kernel and
    # is dropped, yet it was a request: the readmission at 3 s counts three.
    events = [req(0.0, "a", 10), mod(1.0, "a", 2000),
              req(2.0, "a", 2000), req(3.0, "a", 10)]
    eng = _Engine(CacheConfig(capacity_bytes=1000, policy_id="zbs"))
    eng.run(Trace.from_events(events))
    assert list(eng.outcome) == [MISS, MODIFIED, STALE, MISS]
    assert eng.policy.copies["a"][THETA] == 3


def test_window_of_a_trace_without_cacheable_requests():
    events = [req(0.0, "a", cacheable=False), mod(1.0, "a", 10)]
    assert _window(events) == [0, 0]
    assert _window([]) == []
    report = simulate(Trace.from_events(events), CacheConfig(capacity_bytes=1000, policy_id="zbs"))
    assert report.requests == 1 and report.hits == 0


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
