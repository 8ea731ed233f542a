"""The prefetch layer against a brute-force reference on small random
traces, and the policies' ledgers of resident bytes after every event,
under every policy with no layer and under each scheme.

`RefPrefetchLayer` is the plain form of `PrefetchLayer`: it builds a
`Stats` record for every decision, scores it with its own copy of the
three rules and, on every daily tick, scans every resident document for
a stale copy the lifetime rule fetches.  While it holds a stale copy it
keeps the engine's clock walking day by day, where `PrefetchLayer` lets
the clock jump to just before its `next_due` bound.  The optimized layer
must make the same decision at every call, pick the same documents in
the same order at the same ticks (so the bound never skips a tick that
fetches), and produce the same `SimReport` on every trace.
"""

import dataclasses
import math
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zipfcache.analytic import DAY
from zipfcache.policies import POLICY_IDS, ZBSCache
from zipfcache.prefetch import PrefetchLayer
from zipfcache import simcore
from zipfcache.simcore import (HIT, MISS, MODIFIED, NOT_CACHEABLE, REFUSED, STALE,
                               CacheConfig, _Engine)
from zipfcache.trace import MODIFICATION, REQUEST, Trace, TraceEvent


class Stats(NamedTuple):
    """A document's scoring inputs: its share p_i of all requests, its mean
    lifetime l_i between modifications and the aggregate request rate, in
    seconds; tracking began at install_time."""

    p_i: float
    l_i: float
    a_rate: float
    mod_count: int
    install_time: float
    last_modified: float


def good_fetch(s):
    """1 - (1 - p_i)^(a l_i), in the same expm1/log1p form as the layer so
    that rounding cannot move a threshold decision."""
    n = s.a_rate * s.l_i
    if n == 0.0:
        return 0.0
    if s.p_i == 1.0:  # every request is to this document; log1p(-1) raises
        return 1.0
    return -math.expm1(n * math.log1p(-s.p_i))


def api(s):
    return s.a_rate * s.p_i * s.l_i


def lifetime_due(s, now):
    """The copy's age exceeds the mean interval between modifications."""
    return now - s.last_modified > (now - s.install_time) / s.mod_count


class RefPrefetchLayer:
    SCORERS = {"goodfetch": good_fetch, "api": api}

    def __init__(self, scheme, threshold=-math.inf):
        self.scheme, self.threshold = scheme, threshold
        self.start = None
        self.mod_counts, self.last_mod, self.cur_size = {}, {}, {}
        # lifetime: copies gone stale while resident since the last tick, and
        # those still stale and resident at it, once modified at least twice;
        # the engine walks each tick while there is one
        self.stale = set()

    @property
    def next_due(self):
        # no tick lies before the trace start, so the engine jumps no tick
        return self.start if self.stale else math.inf

    def note_start(self, t):
        assert self.start is None
        self.start = t

    def stats_for(self, obj, now, requests, total):
        mods = self.mod_counts.get(obj, 0)
        if now <= self.start or mods == 0:
            return None
        elapsed = now - self.start
        return Stats(
            p_i=requests / total if total else 0.0,
            l_i=elapsed / mods,
            a_rate=total / elapsed,
            mod_count=mods,
            install_time=self.start,
            last_modified=self.last_mod[obj],
        )

    def on_modification(self, obj, size, now, resident, requests, total):
        self.mod_counts[obj] = self.mod_counts.get(obj, 0) + 1
        self.last_mod[obj] = now
        self.cur_size[obj] = size
        if resident and self.scheme == "lifetime" and self.mod_counts[obj] >= 2:
            self.stale.add(obj)
        stats = self.stats_for(obj, now, requests, total) if resident else None
        if stats is None:
            return False
        if self.scheme == "lifetime":
            return lifetime_due(stats, now)
        return self.SCORERS[self.scheme](stats) > self.threshold

    def tick_refetches(self, now, resident):
        if self.scheme != "lifetime":
            return []
        self.stale = {obj for obj, entry in resident.items()
                      if not entry[0] and self.mod_counts[obj] >= 2}
        out = []
        for obj, entry in resident.items():
            if entry[0]:  # fresh
                continue
            # the lifetime rule reads neither request counts nor their total
            stats = self.stats_for(obj, now, 0, 0)
            if stats is not None and lifetime_due(stats, now):
                out.append((obj, self.cur_size[obj]))
        return out


def _recording(layer, log):
    on_modification, tick_refetches = layer.on_modification, layer.tick_refetches

    def on_mod(obj, size, now, resident, requests, total):
        out = on_modification(obj, size, now, resident, requests, total)
        log.append(("modification", now, obj, resident, out))
        return out

    def tick(now, resident):
        out = tick_refetches(now, resident)
        log.append(("tick", now, out))
        return out

    layer.on_modification, layer.tick_refetches = on_mod, tick


def _replay_both(events, config, scheme, threshold):
    """(report, call log) of PrefetchLayer and of RefPrefetchLayer."""
    trace = Trace.from_events(events)
    out = []
    for cls in (PrefetchLayer, RefPrefetchLayer):
        layer, log = cls(scheme, threshold), []
        _recording(layer, log)
        out.append((_Engine(config, layer).run(trace), log))
    return out


def _fetching(log):
    """The log without the ticks that fetch nothing, which a jump may skip."""
    return [entry for entry in log if entry[0] != "tick" or entry[2]]


def _assert_same(events, config, scheme, threshold=-math.inf):
    (report, log), (ref_report, ref_log) = _replay_both(events, config, scheme, threshold)
    assert _fetching(log) == _fetching(ref_log)
    assert report == ref_report
    return report, log


@st.composite
def traces(draw, sizes=(20, 50, 90, 150, 400, 700), max_gap=2 * DAY):
    """Time-ordered events over a handful of documents.  Gaps are ties,
    seconds or up to `max_gap`, so daily ticks meet stale copies that
    were modified a few times.  The events come from a seeded `Random`,
    which draws far faster than Hypothesis' own data and shrinks less."""
    rnd = draw(st.randoms(use_true_random=True))
    n_docs = rnd.choice((2, 5, 10, 20))
    mod_share = rnd.choice((0.25, 0.5, 0.75))
    events, t = [], 0.0
    for _ in range(rnd.randint(20, 120)):
        t += rnd.choice((0.0, rnd.uniform(0.0, 600.0), rnd.uniform(0.0, max_gap)))
        kind = MODIFICATION if rnd.random() < mod_share else REQUEST
        events.append(TraceEvent(t, kind, f"d{rnd.randrange(n_docs)}",
                                 rnd.choice(sizes), rnd.random() < 0.9))
    return events


# thresholds besides the select-everything default; lifetime takes none
THRESHOLDS = {"goodfetch": (0.3, math.inf), "api": (2.0, math.inf), "lifetime": ()}


@st.composite
def configs(draw, policy_id):
    if draw(st.booleans()):
        return CacheConfig(capacity_bytes=draw(st.sampled_from([2, 5, 1000])),
                           policy_id=policy_id, object_count_mode=True)
    return CacheConfig(capacity_bytes=draw(st.sampled_from([400, 1000, 2500])),
                       policy_id=policy_id)


@pytest.mark.parametrize("policy_id", ["lru", "zbs"])
@pytest.mark.parametrize("scheme", ["lifetime", "goodfetch", "api"])
def test_layer_matches_reference(scheme, policy_id):
    @given(events=traces(), config=configs(policy_id),
           threshold=st.sampled_from([-math.inf, *THRESHOLDS[scheme]]))
    def check(events, config, threshold):
        _assert_same(events, config, scheme, threshold)

    check()


@pytest.mark.parametrize("policy_id", ["lru", "zbs"])
def test_lifetime_jumps_match_reference_over_long_gaps(policy_id):
    # gaps of up to 60 days, so the clock jumps while copies wait to come due
    @given(events=traces(max_gap=60 * DAY), config=configs(policy_id))
    def check(events, config):
        _assert_same(events, config, "lifetime")

    check()


# ------------------------------------------------------------- edge cases


def _req(t, obj, size=100):
    return TraceEvent(t, REQUEST, obj, size)


def _mod(t, obj, size=100):
    return TraceEvent(t, MODIFICATION, obj, size)


def _picks(log):
    return [(entry[1], entry[2]) for entry in log if entry[0] == "tick" and entry[2]]


def test_lifetime_picks_in_admission_order():
    # b goes stale before a, but a was admitted first and is picked first.
    events = [
        _req(0.0, "a"), _req(0.0, "b"),
        _mod(3600.0, "b"), _mod(7200.0, "a"), _mod(10800.0, "b"), _mod(14400.0, "a"),
        _req(1.5 * DAY, "c"),
    ]
    _, log = _assert_same(events, CacheConfig(policy_id="lru"), "lifetime")
    assert _picks(log) == [(DAY, [("a", 100), ("b", 100)])]


def test_tied_timestamps():
    events = [
        _req(0.0, "a"), _mod(0.0, "a"), _req(0.0, "a"), _req(0.0, "b"),
        _mod(50.0, "b"), _mod(50.0, "a"), _req(50.0, "a"), _mod(50.0, "a"),
        _req(2 * DAY, "b"), _mod(2 * DAY, "b"), _req(3 * DAY, "a"),
    ]
    for scheme in ("lifetime", "goodfetch", "api"):
        _assert_same(events, CacheConfig(policy_id="lru", capacity_bytes=250), scheme)


def test_lifetime_indexes_a_copy_stale_at_the_first_timestamp():
    # The second modification of a lands on the resident copy at the trace
    # start, where nothing can be scored yet; the copy must still be
    # indexed, so the day-1 tick fetches it (age 1 d > interval 0.5 d).
    events = [_mod(0.0, "a"), _req(0.0, "a"), _mod(0.0, "a"), _req(1.5 * DAY, "a")]
    _, log = _assert_same(events, CacheConfig(policy_id="lru"), "lifetime")
    assert _picks(log) == [(DAY, [("a", 100)])]


def test_stale_copy_evicted_and_readmitted():
    # a goes stale, is evicted by c, comes back fresh behind b and goes
    # stale again: it is picked after b, in its new admission order.
    events = [
        _req(0.0, "a"), _mod(60.0, "a"), _mod(120.0, "a"),
        _req(180.0, "b"), _req(240.0, "c"), _req(250.0, "b"), _req(300.0, "a"),
        _mod(360.0, "b"), _mod(420.0, "b"), _mod(480.0, "a"),
        _req(1.5 * DAY, "d"),
    ]
    _, log = _assert_same(events, CacheConfig(policy_id="lru", capacity_bytes=250), "lifetime")
    assert _picks(log) == [(DAY, [("b", 100), ("a", 100)])]


def test_stale_copy_modified_again_is_fetched_at_its_latest_modification():
    # a is stale from 0.4 d (due 0.8 d); its third modification at 0.9 d,
    # at a new size, moves it due to 1.35 d, so the day-2 tick fetches it
    # at 300 bytes and the day-1 tick does not.
    events = [
        _req(0.0, "a"), _mod(0.2 * DAY, "a"), _mod(0.4 * DAY, "a"),
        _mod(0.9 * DAY, "a", 300), _req(2.5 * DAY, "b"),
    ]
    _, log = _assert_same(events, CacheConfig(policy_id="lru"), "lifetime")
    assert _picks(log) == [(2 * DAY, [("a", 300)])]


def test_copy_modified_while_absent_then_readmitted_uses_its_last_modification():
    # a goes stale at 0.2 d, is evicted by c, modified while absent, comes
    # back at 200 bytes and is modified again at 0.9 d with no tick in
    # between: the day-2 tick fetches it at 150 bytes (4 modifications,
    # due 1.2 d).  The entry of 0.2 d (due 0.4 d) would fetch 100 at day 1.
    events = [
        _req(0.0, "a"), _mod(0.1 * DAY, "a"), _mod(0.2 * DAY, "a"),
        _req(0.25 * DAY, "b"), _req(0.26 * DAY, "c"), _mod(0.3 * DAY, "a", 200),
        _req(0.35 * DAY, "a", 200), _mod(0.9 * DAY, "a", 150), _req(2.5 * DAY, "d", 50),
    ]
    _, log = _assert_same(events, CacheConfig(policy_id="lru", capacity_bytes=250),
                          "lifetime")
    assert _picks(log) == [(2 * DAY, [("a", 150)])]


@pytest.mark.parametrize("scheme", ["lifetime", "goodfetch"])
def test_refetch_that_outgrows_the_cache_drops_the_copy(scheme):
    events = [
        _req(0.0, "a"), _req(10.0, "b"), _mod(20.0, "a"), _mod(30.0, "a", 400),
        _mod(40.0, "b"), _mod(50.0, "b"), _req(1.5 * DAY, "b"), _req(1.6 * DAY, "a", 400),
    ]
    report, _ = _assert_same(events, CacheConfig(policy_id="lru", capacity_bytes=300), scheme)
    assert report.evictions == 1  # the 400-byte refetch of a
    assert report.kernel_occupancy_bytes == 100


# ---------------------------------------------------- engine ledger checks


def _areas(policy):
    """(total, {document: size}, cap) of each area of `policy`."""
    if isinstance(policy, ZBSCache):
        return [(policy.kernel_bytes, {obj: e.size for obj, e in policy.kernel.items()},
                 policy.kern_cap),
                (policy.accessory_bytes, {obj: a[0] for obj, a in policy.accessory.items()},
                 policy.acc_cap)]
    sizes = {obj: e[0] if isinstance(e, list) else e  # lfu keeps [size, freq]
             for obj, e in policy.entries.items()}
    assert policy.accessory_bytes == 0
    return [(policy.kernel_bytes, sizes, policy.capacity)]


def _check_ledger(engine, fetched, prefetched):
    """The books between two events.  Each policy total is the sum of its
    copies' sizes and within its area's cap; the policy holds exactly the
    engine's resident copies, each at the size of its last fetch."""
    policy = engine.policy
    assert not policy.over_limit
    held = {}
    for total, sizes, cap in _areas(policy):
        assert total == sum(sizes.values())
        assert total <= cap
        assert held.keys().isdisjoint(sizes)
        held.update(sizes)
    assert held == {obj: fetched[obj] for obj in engine.resident}
    assert policy.kernel_bytes + policy.accessory_bytes <= engine.capacity
    # the lifetime layer picks copies in this order
    admitted = [entry[1] for entry in engine.resident.values()]
    assert admitted == sorted(set(admitted))
    assert engine.prefetch_bytes == sum(prefetched)
    assert engine.prefetch_fetches == len(prefetched)


@pytest.mark.parametrize("scheme", [None, "lifetime", "goodfetch", "api"])
def test_engine_ledger_after_every_event(scheme, monkeypatch):
    """The ledger holds after every event under every policy, and the
    counters the engine takes from the columns equal a recount of the
    events one at a time: each event's code in the outcome column, the
    report's totals, and the request counts each modification hands the
    layer.  A refetch is a prefetch exactly when the layer has just asked
    for it; any other is a stale request's."""
    run = {}
    rows = simcore._rows

    def checked_rows(trace):
        events, count = run["events"], run["count"]
        for k, row in enumerate(rows(trace)):
            ev = events[k]
            index, now, _, obj, _ = row
            assert (index, now, obj) == (k, ev.timestamp, ev.object_id)
            run["size"] = ev.size_bytes
            # a cacheable request's code is up to the policy
            run["code"] = (MODIFIED if ev.kind == MODIFICATION
                           else None if ev.cacheable else NOT_CACHEABLE)
            run["prefetching"] = False
            yield row
            _check_ledger(run["engine"], run["fetched"], run["prefetched"])
            assert run["engine"].outcome[k] == run["code"]
            if ev.kind == REQUEST:
                count["requests"] += 1
                count["requested_bytes"] += ev.size_bytes
                if ev.cacheable:
                    count["docs"][ev.object_id] = count["docs"].get(ev.object_id, 0) + 1

    monkeypatch.setattr(simcore, "_rows", checked_rows)

    @given(events=traces(), config=configs("lru"))
    def check(events, config):
        for policy_id in POLICY_IDS:
            if policy_id == "zbs-byte" and config.object_count_mode:
                continue  # refused: there it is zbs, which runs here
            replay(events, dataclasses.replace(config, policy_id=policy_id))

    def replay(events, config):
        engine = _Engine(config, PrefetchLayer(scheme) if scheme else None)
        count = {"requests": 0, "requested_bytes": 0, "docs": {}, "hits": 0, "hit_bytes": 0,
                 "stale": 0}
        prefetched, fetched = [], {}
        run.update(engine=engine, events=events, count=count, prefetched=prefetched,
                   fetched=fetched)
        refetch, policy = engine._refetch, engine.policy
        on_hit, on_miss_admit = policy.on_hit, policy.on_miss_admit

        def recording_refetch(obj, size, now):
            if run["prefetching"]:
                prefetched.append(size)
            else:
                count["stale"] += 1
                run["code"] = STALE
            fetched[obj] = 1 if config.object_count_mode else size
            refetch(obj, size, now)

        def recording_hit(obj, now):
            count["hits"] += 1
            count["hit_bytes"] += run["size"]
            run["code"] = HIT
            on_hit(obj, now)

        def recording_admit(obj, size, now):
            fetched[obj] = size
            admitted = on_miss_admit(obj, size, now)
            run["code"] = MISS if admitted else REFUSED
            return admitted

        engine._refetch = recording_refetch
        policy.on_hit, policy.on_miss_admit = recording_hit, recording_admit
        if scheme is not None:
            on_modification, tick_refetches = (engine.layer.on_modification,
                                               engine.layer.tick_refetches)

            def recounted(obj, size, now, resident, requests, total):
                docs = count["docs"]
                assert (requests, total) == (docs.get(obj, 0), sum(docs.values()))
                run["prefetching"] = on_modification(obj, size, now, resident, requests,
                                                     total)
                return run["prefetching"]

            def picking(now, resident):
                for pick in tick_refetches(now, resident):
                    run["prefetching"] = True
                    yield pick
                    run["prefetching"] = False

            engine.layer.on_modification, engine.layer.tick_refetches = recounted, picking
        report = engine.run(Trace.from_events(events))
        assert (report.kernel_occupancy_bytes, report.accessory_occupancy_bytes) == (
            policy.kernel_bytes, policy.accessory_bytes)
        docs = count["docs"]
        assert count["requests"] == sum(e.kind == REQUEST for e in events)
        assert (report.requests, report.cacheable_requests, report.unique_docs,
                report.two_plus_docs, report.hits, report.stale_refetches) == (
            count["requests"], sum(docs.values()), len(docs),
            sum(1 for v in docs.values() if v >= 2), count["hits"], count["stale"])
        # every request is a hit or fetched on demand
        assert report.demand_bytes == count["requested_bytes"] - count["hit_bytes"]
        if count["requested_bytes"]:
            assert report.byte_hit_ratio == count["hit_bytes"] / count["requested_bytes"]

    check()
