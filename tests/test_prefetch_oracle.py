"""The prefetch layer against a brute-force reference on small random
traces, and the engine's ledger after every event under each scheme.

`RefPrefetchLayer` is the plain form of `PrefetchLayer`: it builds an
`ObjectPrefetchStats` for every decision, scores it with the public
scorers and, on every daily tick, scans every resident document for a
stale copy the lifetime rule fetches.  The optimized layer must make the
same decision at every call, pick the same documents in the same order,
and produce the same `SimReport` on every trace.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zipfcache.prefetch import (
    ObjectPrefetchStats,
    PrefetchLayer,
    api_value,
    good_fetch_probability,
    lifetime_threshold,
)
from zipfcache.simcore import DAY_SECONDS as DAY
from zipfcache.simcore import CacheConfig, _Engine
from zipfcache.trace import MODIFICATION, REQUEST, TraceEvent


class RefPrefetchLayer:
    SCORERS = {"goodfetch": good_fetch_probability, "api": api_value}

    def __init__(self, scheme, threshold=-math.inf):
        self.scheme, self.threshold = scheme, threshold
        self.start = None
        self.mod_counts, self.last_mod, self.cur_size = {}, {}, {}

    def attach(self, engine):
        self.engine = engine

    def note_start(self, t):
        if self.start is None:
            self.start = t

    def stats_for(self, obj, now):
        mods = self.mod_counts.get(obj, 0)
        if now <= self.start or mods == 0:
            return None
        elapsed = now - self.start
        total = self.engine.cacheable_requests
        return ObjectPrefetchStats(
            object_id=obj,
            p_i=self.engine.req_counts.get(obj, 0) / total if total else 0.0,
            l_i=elapsed / mods,
            a_rate=total / elapsed,
            mod_count=mods,
            install_time=self.start,
            last_modified=self.last_mod[obj],
        )

    def on_modification(self, obj, size, now, resident):
        self.mod_counts[obj] = self.mod_counts.get(obj, 0) + 1
        self.last_mod[obj] = now
        self.cur_size[obj] = size
        stats = self.stats_for(obj, now) if resident else None
        if stats is None:
            return False
        if self.scheme == "lifetime":
            return lifetime_threshold(stats, now)
        return self.SCORERS[self.scheme](stats) > self.threshold

    def tick_refetches(self, now):
        if self.scheme != "lifetime":
            return []
        out = []
        for obj, entry in self.engine.resident.items():
            if entry[1]:
                continue
            stats = self.stats_for(obj, now)
            if stats is not None and lifetime_threshold(stats, now):
                out.append((obj, self.cur_size[obj]))
        return out


def _recording(layer, log):
    on_modification, tick_refetches = layer.on_modification, layer.tick_refetches

    def on_mod(obj, size, now, resident):
        out = on_modification(obj, size, now, resident=resident)
        log.append(("modification", now, obj, resident, out))
        return out

    def tick(now):
        out = tick_refetches(now)
        log.append(("tick", now, out))
        return out

    layer.on_modification, layer.tick_refetches = on_mod, tick


def _replay_both(events, config, scheme, threshold):
    """(report, call log) of PrefetchLayer and of RefPrefetchLayer."""
    out = []
    for cls in (PrefetchLayer, RefPrefetchLayer):
        layer, log = cls(scheme, threshold), []
        _recording(layer, log)
        out.append((_Engine(config, layer).run(events), log))
    return out


def _assert_same(events, config, scheme, threshold=-math.inf):
    (report, log), (ref_report, ref_log) = _replay_both(events, config, scheme, threshold)
    assert log == ref_log
    assert report == ref_report
    return report, log


@st.composite
def traces(draw, sizes=(20, 50, 90, 150, 400, 700)):
    """Time-ordered events over a handful of documents.  Gaps are ties,
    seconds or up to two days, so daily ticks meet stale copies that
    were modified a few times.  The events come from a seeded `Random`,
    which draws far faster than Hypothesis' own data and shrinks less."""
    rnd = draw(st.randoms(use_true_random=True))
    n_docs = rnd.choice((2, 5, 10, 20))
    mod_share = rnd.choice((0.25, 0.5, 0.75))
    events, t = [], 0.0
    for _ in range(rnd.randint(20, 120)):
        t += rnd.choice((0.0, rnd.uniform(0.0, 600.0), rnd.uniform(0.0, 2 * DAY)))
        kind = MODIFICATION if rnd.random() < mod_share else REQUEST
        events.append(TraceEvent(t, kind, f"d{rnd.randrange(n_docs)}",
                                 rnd.choice(sizes), rnd.random() < 0.9))
    return events


THRESHOLDS = {"goodfetch": 0.3, "api": 2.0, "lifetime": 0.0}


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
           threshold=st.sampled_from([-math.inf, THRESHOLDS[scheme], math.inf]))
    def check(events, config, threshold):
        _assert_same(events, config, scheme, threshold)

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


def _checked(engine, events, prefetched):
    """Yield the events, checking the ledger once each one is processed."""
    policy, policy_id = engine.policy, engine.config.policy_id
    for ev in events:
        yield ev
        occupancy = engine.occupancy
        assert occupancy == sum(entry[0] for entry in engine.resident.values())
        assert occupancy <= engine.capacity
        if policy_id.startswith("zbs"):  # the areas add up, each within its cap
            assert policy.kernel_bytes + policy.accessory_bytes == occupancy
            assert policy.kernel_bytes <= policy.kern_cap
            assert policy.accessory_bytes <= policy.acc_cap
        else:  # the policy holds exactly the resident documents at their sizes
            held = {obj: e[0] if isinstance(e, list) else e  # lfu keeps [size, freq]
                    for obj, e in policy.entries.items()}
            assert held == {obj: entry[0] for obj, entry in engine.resident.items()}
        assert engine.prefetch_bytes == sum(prefetched)
        assert engine.prefetch_fetches == len(prefetched)


@pytest.mark.parametrize("scheme", ["lifetime", "goodfetch", "api"])
def test_engine_ledger_after_every_event(scheme):
    @given(events=traces(),
           config=st.sampled_from(["lru", "fifo", "lfu", "zbs", "zbs-byte"]).flatmap(configs))
    def check(events, config):
        engine = _Engine(config, PrefetchLayer(scheme))
        prefetched = []
        refetch = engine._refetch

        def recording(obj, size, now, prefetch):
            if prefetch:
                prefetched.append(size)
            refetch(obj, size, now, prefetch)

        engine._refetch = recording
        engine.run(_checked(engine, events, prefetched))

    check()
