"""The prefetch layer against a brute-force reference on small random
traces, and the policies' ledgers of resident bytes after every event,
under every policy with no layer and under each scheme.

`RefPrefetchLayer` is the plain form of `PrefetchLayer`: it counts each
modification's inputs by walking the trace's events one at a time,
builds a `Stats` record for every decision, scores it with its own copy
of the three rules and, on every daily tick, scans every resident
document for a stale copy the lifetime rule fetches.  While it holds a
stale copy it keeps the engine's clock walking day by day, where
`PrefetchLayer` lets the clock jump to just before its `next_due` bound.
The optimized layer must make the same decision at every call, pick the
same documents in the same order at the same ticks (so the bound never
skips a tick that fetches), and produce the same `SimReport` on every
trace.
"""

import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zipfcache.analytic import DAY
from zipfcache.policies import POLICY_IDS, ZBSCache
from zipfcache.prefetch import PrefetchLayer
from zipfcache import simcore
from zipfcache.simcore import (HIT, MISS, MODIFIED, NOT_CACHEABLE, REFUSED, STALE,
                               CacheConfig, _Engine)
from zipfcache.trace import (MODIFICATION, REQUEST, Trace, TraceEvent, _doc_order,
                             _doc_running_counts)


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


class Modification(NamedTuple):
    """One modification of a trace, with what a scheme may read at it."""

    t: float
    obj: str
    size: int
    mods: int  # its document's modifications so far, itself included
    requests: int  # the cacheable requests before it of its document
    total: int  # ... and of all documents


def modifications(trace):
    """The `Modification`s of `trace` in order, counted event by event."""
    out, mods, requests = [], {}, {}
    for e in trace:
        obj = e.object_id
        if e.kind == MODIFICATION:
            mods[obj] = mods.get(obj, 0) + 1
            out.append(Modification(e.timestamp, obj, e.size_bytes, mods[obj],
                                    requests.get(obj, 0), sum(requests.values())))
        elif e.cacheable:
            requests[obj] = requests.get(obj, 0) + 1
    return out


class RefPrefetchLayer:
    SCORERS = {"goodfetch": good_fetch, "api": api}

    def __init__(self, scheme, threshold=-math.inf):
        self.scheme, self.threshold = scheme, threshold
        self.start = None
        self.modifications = None
        # lifetime: copies gone stale while resident since the last tick, and
        # those still stale and resident at it, once modified at least twice;
        # the engine walks each tick while there is one
        self.stale = set()

    @property
    def next_due(self):
        # no tick lies before the trace start, so the engine jumps no tick
        return self.start if self.stale else math.inf

    def note_start(self, trace):
        assert self.start is None
        self.start = float(trace.t[0])
        self.modifications = modifications(trace)

    def stats_for(self, now, m, requests, total):
        """The scoring inputs at `now` after the modification `m`."""
        if now <= self.start:
            return None
        elapsed = now - self.start
        return Stats(
            p_i=requests / total if total else 0.0,
            l_i=elapsed / m.mods,
            a_rate=total / elapsed,
            mod_count=m.mods,
            install_time=self.start,
            last_modified=m.t,
        )

    def on_modification(self, obj, size, now, k):
        m = self.modifications[k]
        assert (m.t, m.obj, m.size) == (now, obj, size)
        if self.scheme == "lifetime" and m.mods >= 2:
            self.stale.add(obj)
        stats = self.stats_for(now, m, m.requests, m.total)
        if stats is None:
            return False
        if self.scheme == "lifetime":
            return lifetime_due(stats, now)
        return self.SCORERS[self.scheme](stats) > self.threshold

    def tick_refetches(self, now, resident):
        if self.scheme != "lifetime":
            return []
        # each document's last modification the engine has passed: a tick
        # at `now` comes before the events at `now`
        last = {m.obj: m for m in self.modifications if m.t < now}
        self.stale = {obj for obj, entry in resident.items()
                      if not entry[0] and last[obj].mods >= 2}
        out = []
        for obj, entry in resident.items():
            if entry[0]:  # fresh
                continue
            # the lifetime rule reads neither request counts nor their total
            stats = self.stats_for(now, last[obj], 0, 0)
            if stats is not None and lifetime_due(stats, now):
                out.append((obj, last[obj].size))
        return out


def _recording(layer, log):
    on_modification, tick_refetches = layer.on_modification, layer.tick_refetches

    def on_mod(obj, size, now, k):
        out = on_modification(obj, size, now, k)
        log.append(("modification", now, obj, k, out))
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
def traces(draw, sizes=(20, 50, 90, 150, 400, 700), max_gap=2 * DAY, tiny=False):
    """Time-ordered events over a handful of documents.  Gaps are ties,
    seconds or up to `max_gap`, so daily ticks meet stale copies that
    were modified a few times.  With `tiny`, the first few gaps are ties
    or the least subnormal float, so that elapsed / mods rounds to 0
    there.  The events come from a seeded `Random`, which draws far faster
    than Hypothesis' own data and shrinks less."""
    rnd = draw(st.randoms(use_true_random=True))
    n_docs = rnd.choice((2, 5, 10, 20))
    mod_share = rnd.choice((0.25, 0.5, 0.75))
    events, t = [], 0.0
    near_start = rnd.randint(0, 20) if tiny else 0
    for k in range(rnd.randint(20, 120)):
        t += rnd.choice((0.0, 5e-324) if k < near_start else
                        (0.0, rnd.uniform(0.0, 600.0), rnd.uniform(0.0, max_gap)))
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


def _assert_grouping_by_brute_force(doc: np.ndarray, marks) -> None:
    """`_doc_order` and `_doc_running_counts` of each mark column over the
    document codes `doc`, against a count one position at a time."""
    codes = doc.tolist()
    order, first = _doc_order(doc)
    assert order.tolist() == sorted(range(len(codes)), key=lambda p: (codes[p], p))
    grouped = [codes[p] for p in order.tolist()]
    assert first.tolist() == [i == 0 or grouped[i] != grouped[i - 1]
                              for i in range(len(grouped))]
    for mark in marks:
        flags = mark.tolist()
        assert _doc_running_counts(order, first, mark).tolist() == [
            sum(flags[j] for j in range(p + 1) if codes[j] == codes[p])
            for p in range(len(codes))]


def test_inputs_match_a_count_by_brute_force():
    """`_doc_order` and `_doc_running_counts` over the modifications and
    the cacheable requests, and what each layer derives from them, against
    a count of the events one at a time, on traces with ties, requests
    that are not cacheable and a document that is only modified; and on
    an empty column and a column of one document."""
    empty = np.empty(0, np.int32)
    _assert_grouping_by_brute_force(empty, [np.empty(0, bool)])
    _assert_grouping_by_brute_force(np.full(5, 3, np.int32), [
        np.array([True, False, True, True, False]), np.zeros(5, bool), np.ones(5, bool)])

    @given(events=traces(), rnd=st.randoms(use_true_random=True))
    def check(events, rnd):
        for _ in range(rnd.randint(0, 3)):
            i = rnd.randrange(len(events) + 1)
            t = events[max(i - 1, 0)].timestamp  # a tie with a neighbour
            events.insert(i, TraceEvent(t, MODIFICATION, "only-modified", 10))
        trace = Trace.from_events(events)
        modified = trace.kind == 1
        picked = modified | ((trace.kind == 0) & trace.cacheable)
        _assert_grouping_by_brute_force(trace.obj[picked], [modified[picked], ~modified[picked]])

        mods = modifications(trace)
        lifetime, api = PrefetchLayer("lifetime"), PrefetchLayer("api", 1.0)
        for layer in (lifetime, api):
            layer.note_start(trace)
            assert list(layer.mods) == [m.mods for m in mods]
        assert list(api.requests) == [m.requests for m in mods]
        assert list(api.totals) == [m.total for m in mods]

    check()


@pytest.mark.parametrize("scheme", ["goodfetch", "api"])
def test_select_all_equals_scoring_against_minus_inf(scheme):
    """The default threshold selects every resident copy past the start
    without scoring it, exactly where a score against the brute-force
    counts beats -inf.  Near a start at 0 with subnormal gaps, elapsed /
    mods rounds to 0, a score can be NaN, and the layer scores."""

    @given(events=traces(tiny=True), config=configs("lru"))
    def check(events, config):
        trace = Trace.from_events(events)
        layer, calls = PrefetchLayer(scheme), []
        on_modification = layer.on_modification

        def on_mod(obj, size, now, k):
            calls.append((now, k, on_modification(obj, size, now, k)))
            return calls[-1][-1]

        layer.on_modification = on_mod
        _Engine(config, layer).run(trace)
        mods, start = modifications(trace), float(trace.t[0])
        for now, k, selected in calls:
            m, elapsed = mods[k], now - start
            scored = elapsed > 0 and RefPrefetchLayer.SCORERS[scheme](Stats(
                m.requests / m.total, elapsed / m.mods, m.total / elapsed,
                m.mods, start, now)) > -math.inf
            assert selected == scored

    check()


def test_select_all_scores_where_a_score_is_nan():
    # At 5e-324 s, b's second modification gives l_i = 5e-324 / 2 = 0 and
    # a = 2 / 5e-324 = inf, so goodfetch's exponent a l_i is NaN and p_i
    # = 1/2 < 1: no score beats -inf, and the copy is not fetched.
    events = [_req(0.0, "a"), _req(0.0, "b"), _mod(0.0, "b"), _mod(5e-324, "b")]
    report, log = _assert_same(events, CacheConfig(policy_id="lru"), "goodfetch")
    assert [entry[-1] for entry in log] == [False, False]
    assert report.prefetch_fetches == 0
    layer = PrefetchLayer("goodfetch")
    layer.note_start(Trace.from_events(events))
    assert list(layer.totals) == [2, 2]
    # one second later the same modification is selected without scoring
    layer = PrefetchLayer("goodfetch")
    layer.note_start(Trace.from_events(events[:3] + [_mod(1.0, "b")]))
    assert layer.totals is None and layer.on_modification("b", 100, 1.0, 1)


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


# the layer each ledger run drives: api scores against a threshold, so
# that its request counts are read; goodfetch selects all without them
LEDGER_LAYERS = {"lifetime": ("lifetime",), "goodfetch": ("goodfetch",), "api": ("api", 2.0)}


@pytest.mark.parametrize("scheme", [None, "lifetime", "goodfetch", "api"])
def test_engine_ledger_after_every_event(scheme, monkeypatch):
    """The ledger holds after every event under every policy, and the
    counters the engine takes from the columns equal a recount of the
    events one at a time: each event's code in the outcome column, the
    report's totals, and the counts the layer reads at each call.  The
    engine calls the layer exactly at the modifications of resident
    copies, with their ordinals.  A refetch is a prefetch exactly when
    the layer has just asked for it; any other is a stale request's."""
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
            run["called"] = None
            if ev.kind == MODIFICATION:
                run["ordinal"] = count["mods"]
                count["mods"] += 1
                count["doc_mods"][obj] = count["doc_mods"].get(obj, 0) + 1
            yield row
            _check_ledger(run["engine"], run["fetched"], run["prefetched"])
            assert run["engine"].outcome[k] == run["code"]
            if ev.kind == MODIFICATION and scheme is not None:
                # called, the copy was resident (see `recounted`); not
                # called, it is absent, for a resident copy stays
                resident = run["engine"].resident
                if run["called"] is None:
                    assert obj not in resident
                elif not run["called"]:  # kept, and stale
                    assert not resident[obj][0]
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
        engine = _Engine(config, PrefetchLayer(*LEDGER_LAYERS[scheme]) if scheme else None)
        count = {"requests": 0, "requested_bytes": 0, "docs": {}, "hits": 0, "hit_bytes": 0,
                 "stale": 0, "mods": 0, "doc_mods": {}}
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
            layer = engine.layer
            on_modification, tick_refetches = layer.on_modification, layer.tick_refetches

            def recounted(obj, size, now, k):
                assert run["called"] is None and obj in engine.resident
                assert k == run["ordinal"]
                docs = count["docs"]
                recount = (count["doc_mods"][obj], docs.get(obj, 0), sum(docs.values()))
                read = tuple(None if column is None else column[k]
                             for column in (layer.mods, layer.requests, layer.totals))
                # lifetime reads the modification counts, a threshold
                # filter all three, select-all none
                assert read == {"lifetime": recount[:1] + (None, None),
                                "goodfetch": (None, None, None), "api": recount}[scheme]
                run["called"] = run["prefetching"] = on_modification(obj, size, now, k)
                return run["prefetching"]

            def picking(now, resident):
                for pick in tick_refetches(now, resident):
                    run["prefetching"] = True
                    yield pick
                    run["prefetching"] = False

            layer.on_modification, layer.tick_refetches = recounted, picking
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
