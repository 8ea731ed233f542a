"""The prefetch layer against a brute-force reference on small random
traces, and the policies' copy tables and byte totals after every event,
under every policy with no layer and under each scheme.

`RefPrefetchLayer` is the plain form of `PrefetchLayer`: it counts each
modification's inputs by walking the trace's events one at a time,
scores every decision from those counts with its own copy of the three
rules and, on every daily tick, scans every resident document for a
stale copy the lifetime rule fetches.  While it holds a stale copy it
names every daily tick to the engine, where `PrefetchLayer` names only
the ticks its `fetch_day` column decided when the run started.
The optimized layer must make the same decision at every call, pick the
same documents in the same order at the same ticks (so it never skips a
tick that fetches), and produce the same `SimReport` on every trace.
"""

import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import ADMITTED, FRESH, SIZE, SLOT, configs, mod, randoms, req, traces
from zipfcache.analytic import DAY
from zipfcache.policies import POLICY_IDS, ZBSCache
from zipfcache.prefetch import PrefetchLayer
from zipfcache import simcore
from zipfcache.simcore import (HIT, MISS, MODIFIED, NOT_CACHEABLE, REFUSED, STALE,
                               CacheConfig, _Engine)
from zipfcache.trace import (MODIFICATION, REQUEST, Trace, TraceEvent, _doc_order,
                             _doc_running_counts)


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


# The scores of a modification of a document with a cacheable request,
# from its counts: with a = K / T, p_i = r_i / K and l_i = T / m_i, the
# elapsed time T cancels.


def good_fetch(m):
    """1 - (1 - p_i)^(a l_i) = 1 - (1 - r_i / K)^(K / m_i), in the same
    expm1/log1p form as the layer so that rounding cannot move a threshold
    decision."""
    if m.requests == m.total:  # every request is to this document; log1p(-1) raises
        return 1.0
    return -math.expm1(m.total / m.mods * math.log1p(-m.requests / m.total))


def api(m):
    """a p_i l_i = r_i / m_i."""
    return m.requests / m.mods


def lifetime_due(m, start, now):
    """The copy's age exceeds the mean interval between modifications,
    now - L > (now - start) / m_i, in the due-time form the layer keeps:
    now > (m_i L - start) / (m_i - 1).  After one modification, at
    L >= start, the age never exceeds the interval."""
    return m.mods >= 2 and now > (m.mods * m.t - start) / (m.mods - 1)


def walked_fetch_day(mods, t, start):
    """(d, checks) for a document's modification number `mods`, at `t`:
    the day of the first tick start + d days past both t and the due time
    (mods t - start) / (mods - 1), found by a walk over d = 1, 2, ... (0
    after the first modification, which never comes due), and the ticks
    of the walk past t at which it checked that the tick is past the due
    time exactly when the paper's age rule now - t > (now - start) / mods
    holds."""
    if mods < 2:
        return 0, 0
    due = (mods * t - start) / (mods - 1)
    d, checks = 1, 0
    while True:
        at = start + d * DAY
        if at > t:
            assert (at > due) == (at - t > (at - start) / mods)
            checks += 1
            if at > due:
                return d, checks
        d += 1


class RefPrefetchLayer:
    SCORERS = {"goodfetch": good_fetch, "api": api}

    def __init__(self, scheme, threshold=-math.inf):
        self.scheme, self.threshold = scheme, threshold
        self.start = None
        self.modifications = None
        # lifetime: copies gone stale while resident since the last tick, and
        # those still stale and resident at it, once modified at least twice;
        # the engine ticks every day while there is one
        self.stale = set()
        self.day = 0  # the last tick run or passed, in days from the start

    @property
    def next_tick(self):
        return self.start + (self.day + 1) * DAY if self.stale else math.inf

    def note_start(self, trace):
        assert self.start is None
        self.start = float(trace.t[0])
        self.modifications = modifications(trace)

    def on_modification(self, obj, size, now, k):
        m = self.modifications[k]
        assert (m.t, m.obj, m.size) == (now, obj, size)
        if self.scheme == "lifetime":
            if m.mods >= 2:
                # a tick at or before `now` comes before this event
                while self.start + (self.day + 1) * DAY <= now:
                    self.day += 1
                self.stale.add(obj)
            return False  # the copy's age is 0, never above the interval
        return now > self.start and self.SCORERS[self.scheme](m) > self.threshold

    def tick_refetches(self, now, copies):
        # the engine ticks where named, so never for goodfetch or api
        assert now == self.next_tick, "the engine skipped a tick"
        self.day += 1
        # each document's last modification the engine has passed: a tick
        # at `now` comes before the events at `now`
        last = {m.obj: m for m in self.modifications if m.t < now}
        self.stale = {obj for obj, copy in copies.items()
                      if not copy[0] and last[obj].mods >= 2}
        # a copy's record holds the index of its admitting event second
        return [(obj, last[obj].size)
                for obj, copy in sorted(copies.items(), key=lambda item: item[1][1])
                if not copy[0] and lifetime_due(last[obj], self.start, now)]


def _recording(layer, log):
    on_modification, tick_refetches = layer.on_modification, layer.tick_refetches

    def on_mod(obj, size, now, k):
        out = on_modification(obj, size, now, k)
        log.append(("modification", now, obj, k, out))
        return out

    def tick(now, copies):
        out = tick_refetches(now, copies)
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
    """The log without the ticks that fetch nothing, which only the
    reference names."""
    return [entry for entry in log if entry[0] != "tick" or entry[2]]


def _assert_same(events, config, scheme, threshold=-math.inf):
    (report, log), (ref_report, ref_log) = _replay_both(events, config, scheme, threshold)
    assert _fetching(log) == _fetching(ref_log)
    assert report == ref_report
    return report, log


# thresholds besides the select-everything default; lifetime takes none
THRESHOLDS = {"goodfetch": (0.3, math.inf), "api": (2.0, math.inf), "lifetime": ()}


@pytest.mark.parametrize("policy_id", ["lru", "zbs"])
@pytest.mark.parametrize("scheme", ["lifetime", "goodfetch", "api"])
def test_layer_matches_reference(scheme, policy_id):
    @given(events=traces(), config=configs(policy_id),
           threshold=st.sampled_from([-math.inf, *THRESHOLDS[scheme]]))
    def check(events, config, threshold):
        _assert_same(events, config, scheme, threshold)

    check()


@pytest.mark.parametrize("policy_id", ["lru", "zbs"])
def test_lifetime_matches_reference_over_long_gaps(policy_id):
    # gaps of up to 60 days, so days pass without a tick while copies
    # wait to come due
    @given(events=traces(max_gap=60 * DAY), config=configs(policy_id))
    def check(events, config):
        _assert_same(events, config, "lifetime")

    check()


def _due_checks(trace, config):
    """Run the lifetime layer over `trace` and, at every modification the
    engine reports, check its fetch day and the age rule at each tick up
    to it by `walked_fetch_day`, with the modification counted event by
    event.  Returns the number of age-rule checks."""
    layer = PrefetchLayer("lifetime")
    on_modification = layer.on_modification
    counts, mods, checks = {}, [], [0]
    for kind, obj in zip(trace.kind.tolist(), trace.obj.tolist()):
        if kind == 1:
            counts[obj] = counts.get(obj, 0) + 1
            mods.append(counts[obj])

    def on_mod(obj, size, now, k):
        day, n = walked_fetch_day(mods[k], now, layer.start)
        assert layer.fetch_day[k] == day
        checks[0] += n
        return on_modification(obj, size, now, k)

    layer.on_modification = on_mod
    _Engine(config, layer).run(trace)
    return checks[0]


@pytest.mark.parametrize("tiny", [False, True])
def test_lifetime_due_time_is_the_age_rule(tiny):
    checks = []

    @given(events=traces(max_gap=10 * DAY, tiny=tiny), config=configs("lru"))
    def check(events, config):
        checks.append(_due_checks(Trace.from_events(events), config))

    check()
    assert sum(checks) > 0


def test_lifetime_due_time_is_the_age_rule_on_the_fixture(renewal_events):
    assert _due_checks(renewal_events, CacheConfig(policy_id="lru")) > 0


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


@st.composite
def traces_with_an_unrequested_document(draw):
    """`traces()` and up to 3 ties of a document that is only modified."""
    events, rnd = draw(traces()), draw(randoms())
    for _ in range(rnd.randint(0, 3)):
        i = rnd.randrange(len(events) + 1)
        t = events[max(i - 1, 0)].timestamp  # a tie with a neighbour
        events.insert(i, TraceEvent(t, MODIFICATION, "only-modified", 10))
    return events


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

    @given(events=traces_with_an_unrequested_document())
    def check(events):
        trace = Trace.from_events(events)
        modified = trace.kind == 1
        picked = modified | ((trace.kind == 0) & trace.cacheable)
        _assert_grouping_by_brute_force(trace.obj[picked], [modified[picked], ~modified[picked]])

        mods, start = modifications(trace), float(trace.t[0])
        layer = PrefetchLayer("lifetime")
        layer.note_start(trace)
        assert list(layer.fetch_day) == [walked_fetch_day(m.mods, m.t, start)[0] for m in mods]
        # a copy is resident only after a cacheable request of its document
        for scheme, threshold in (("api", 1.0), ("goodfetch", 0.3), ("goodfetch", -math.inf)):
            layer = PrefetchLayer(scheme, threshold)
            layer.note_start(trace)
            assert [s for s, m in zip(layer.select, mods) if m.requests] == [
                m.t > start and RefPrefetchLayer.SCORERS[scheme](m) > threshold
                for m in mods if m.requests]

    check()


@pytest.mark.parametrize("scheme", ["goodfetch", "api"])
def test_select_all_equals_scoring_against_minus_inf(scheme):
    """The default threshold selects every resident copy past the start
    without scoring it, exactly where the reference's score from the
    counts beats -inf, also among the ties and subnormal gaps near a
    start at 0."""

    @given(events=traces(tiny=True), config=configs("lru"))
    def check(events, config):
        _assert_same(events, config, scheme)

    check()


# ------------------------------------------------------------- edge cases


def _picks(log):
    return [(entry[1], entry[2]) for entry in log if entry[0] == "tick" and entry[2]]


def test_lifetime_picks_in_admission_order():
    # b goes stale before a, but a was admitted first and is picked first.
    events = [
        req(0.0, "a"), req(0.0, "b"),
        mod(3600.0, "b"), mod(7200.0, "a"), mod(10800.0, "b"), mod(14400.0, "a"),
        req(1.5 * DAY, "c"),
    ]
    _, log = _assert_same(events, CacheConfig(policy_id="lru"), "lifetime")
    assert _picks(log) == [(DAY, [("a", 100), ("b", 100)])]


def test_tied_timestamps():
    events = [
        req(0.0, "a"), mod(0.0, "a"), req(0.0, "a"), req(0.0, "b"),
        mod(50.0, "b"), mod(50.0, "a"), req(50.0, "a"), mod(50.0, "a"),
        req(2 * DAY, "b"), mod(2 * DAY, "b"), req(3 * DAY, "a"),
    ]
    for scheme in ("lifetime", "goodfetch", "api"):
        _assert_same(events, CacheConfig(policy_id="lru", capacity_bytes=250), scheme)


def test_lifetime_indexes_a_copy_stale_at_the_first_timestamp():
    # The second modification of a lands on the resident copy at the trace
    # start, where nothing can be scored yet; the copy must still be
    # indexed, so the day-1 tick fetches it (age 1 d > interval 0.5 d).
    events = [mod(0.0, "a"), req(0.0, "a"), mod(0.0, "a"), req(1.5 * DAY, "a")]
    _, log = _assert_same(events, CacheConfig(policy_id="lru"), "lifetime")
    assert _picks(log) == [(DAY, [("a", 100)])]


def test_lifetime_fetches_at_the_first_tick_past_due_across_a_gap():
    # a comes due at 0.4 d and the next event is at 10.5 d: the day-1 tick
    # fetches a, and days 2-9 get no tick
    events = [req(0.0, "a"), mod(0.1 * DAY, "a"), mod(0.2 * DAY, "a"), req(10.5 * DAY, "b")]
    _, log = _assert_same(events, CacheConfig(policy_id="lru"), "lifetime")
    assert _picks(log) == [(DAY, [("a", 100)])]


def test_fetch_tick_stays_after_the_event_where_the_quotient_rounds_up():
    # (now - t0) // DAY rounds up to 35 here, though tick 35 falls one ulp
    # after the request at `now`.  a's third modification makes it due at
    # `now` exactly, so its fetch tick is 35, not 36, and falls after the
    # request, which finds the copy stale.
    t0, last, now = 795193.5655656967, 2811193.5655656965, 3819193.5655656965
    assert (now - t0) // DAY == 35 and t0 + 35 * DAY > now
    assert (3 * last - t0) / 2 == now
    events = [req(t0, "a"), mod(t0 + 10, "a"), mod(t0 + 20, "a"), mod(last, "a"),
              req(now, "a")]
    report, log = _assert_same(events, CacheConfig(policy_id="lru"), "lifetime")
    assert _picks(log) == [(t0 + DAY, [("a", 100)])]
    assert report.stale_refetches == 1
    assert list(_started(events).fetch_day) == [0, 1, 35]


def _started(events):
    """A lifetime layer started on `events`, for its `fetch_day` column."""
    layer = PrefetchLayer("lifetime")
    layer.note_start(Trace.from_events(events))
    return layer


def test_lifetime_tick_at_a_modification_runs_before_it():
    # a comes due at 0.4 d, and its third modification falls on the day-1
    # tick, which runs first and fetches it at 200 bytes.  That
    # modification makes it due at 1.5 d: the day-2 tick fetches 300.
    events = [req(0.0, "a"), mod(0.1 * DAY, "a"), mod(0.2 * DAY, "a", 200),
              mod(DAY, "a", 300), req(2.5 * DAY, "a", 300)]
    report, log = _assert_same(events, CacheConfig(policy_id="lru"), "lifetime")
    assert _picks(log) == [(DAY, [("a", 200)]), (2 * DAY, [("a", 300)])]
    assert report.hits == 1


@pytest.mark.parametrize("start, last, day", [
    (321656.99731402774, 1228856.9973140275, 21),  # the floor quotient rounds down
    (676802.860230939, 763202.860230939, 2),  # ... or is exact
])
def test_lifetime_due_exactly_on_a_tick_waits_a_day(start, last, day):
    # Modified twice, a is due at 2 last - start, exactly tick `day`, which
    # compares equal and does not fetch it; the next tick does.
    tick = start + day * DAY
    assert 2 * last - start == tick
    events = [req(start, "a"), mod(start + 10, "a"), mod(last, "a"),
              req(tick + 0.5 * DAY, "b"), req(tick + 1.5 * DAY, "a")]
    report, log = _assert_same(events, CacheConfig(policy_id="lru"), "lifetime")
    assert _picks(log) == [(tick + DAY, [("a", 100)])]
    assert report.hits == 1 and report.stale_refetches == 0
    assert list(_started(events).fetch_day) == [0, day + 1]


def test_lifetime_ticks_from_a_negative_start():
    start = -3.3 * DAY
    events = [req(start, "a"), mod(start + 0.1 * DAY, "a"), mod(start + 0.2 * DAY, "a"),
              req(start + 1.5 * DAY, "b"), mod(-0.5 * DAY, "a"), req(0.1 * DAY, "a")]
    # a is due at start + 0.4 d, so tick 1 fetches it.  Modified a third
    # time, at start + 2.8 d, it is due at start + 4.2 d = 0.9 d, after the
    # request at 0.1 d, which finds it stale.
    report, log = _assert_same(events, CacheConfig(policy_id="lru"), "lifetime")
    assert _picks(log) == [(start + DAY, [("a", 100)])]
    assert report.stale_refetches == 1
    assert list(_started(events).fetch_day) == [0, 1, 5]


def test_lifetime_fetch_day_past_uint8():
    # a comes due just after 2e9 s, at day 23,149 from the start at 0
    events = [req(0.0, "a"), mod(1e9, "a"), mod(1e9 + 1.0, "a"), req(1e14, "b")]
    _, log = _assert_same(events, CacheConfig(policy_id="lru"), "lifetime")
    assert _picks(log) == [(23149 * DAY, [("a", 100)])]
    column = _started(events).fetch_day
    assert list(column) == [0, 23149] and column.itemsize == 2


def test_lifetime_due_below_its_modification_waits_for_the_next_tick():
    # 1,197 modifications, the last on tick 1, where a float step is 128 s:
    # the due time rounds to below the tick, which runs before the
    # modification and so cannot fetch the copy it makes stale.
    start = 1e18 - 10 * DAY
    last = start + DAY
    assert (1197 * last - start) / 1196 < last
    events = ([mod(start, "a")] * 1196 + [req(start, "a"), mod(last, "a"),
                                            req(start + 1.5 * DAY, "a")])
    report, log = _assert_same(events, CacheConfig(policy_id="lru"), "lifetime")
    assert _picks(log) == [] and report.stale_refetches == 1
    assert _started(events).fetch_day[-1] == 2


def test_stale_copy_evicted_and_readmitted():
    # a goes stale, is evicted by c, comes back fresh behind b and goes
    # stale again: it is picked after b, in its new admission order.
    events = [
        req(0.0, "a"), mod(60.0, "a"), mod(120.0, "a"),
        req(180.0, "b"), req(240.0, "c"), req(250.0, "b"), req(300.0, "a"),
        mod(360.0, "b"), mod(420.0, "b"), mod(480.0, "a"),
        req(1.5 * DAY, "d"),
    ]
    _, log = _assert_same(events, CacheConfig(policy_id="lru", capacity_bytes=250), "lifetime")
    assert _picks(log) == [(DAY, [("b", 100), ("a", 100)])]


def test_stale_copy_modified_again_is_fetched_at_its_latest_modification():
    # a is stale from 0.4 d (due 0.8 d); its third modification at 0.9 d,
    # at a new size, moves it due to 1.35 d, so the day-2 tick fetches it
    # at 300 bytes and the day-1 tick does not.
    events = [
        req(0.0, "a"), mod(0.2 * DAY, "a"), mod(0.4 * DAY, "a"),
        mod(0.9 * DAY, "a", 300), req(2.5 * DAY, "b"),
    ]
    _, log = _assert_same(events, CacheConfig(policy_id="lru"), "lifetime")
    assert _picks(log) == [(2 * DAY, [("a", 300)])]


def test_copy_modified_while_absent_then_readmitted_uses_its_last_modification():
    # a goes stale at 0.2 d, is evicted by c, modified while absent, comes
    # back at 200 bytes and is modified again at 0.9 d with no tick in
    # between: the day-2 tick fetches it at 150 bytes (4 modifications,
    # due 1.2 d).  The entry of 0.2 d (due 0.4 d) would fetch 100 at day 1.
    events = [
        req(0.0, "a"), mod(0.1 * DAY, "a"), mod(0.2 * DAY, "a"),
        req(0.25 * DAY, "b"), req(0.26 * DAY, "c"), mod(0.3 * DAY, "a", 200),
        req(0.35 * DAY, "a", 200), mod(0.9 * DAY, "a", 150), req(2.5 * DAY, "d", 50),
    ]
    _, log = _assert_same(events, CacheConfig(policy_id="lru", capacity_bytes=250),
                          "lifetime")
    assert _picks(log) == [(2 * DAY, [("a", 150)])]


@pytest.mark.parametrize("scheme", ["lifetime", "goodfetch"])
def test_refetch_that_outgrows_the_cache_drops_the_copy(scheme):
    events = [
        req(0.0, "a"), req(10.0, "b"), mod(20.0, "a"), mod(30.0, "a", 400),
        mod(40.0, "b"), mod(50.0, "b"), req(1.5 * DAY, "b"), req(1.6 * DAY, "a", 400),
    ]
    report, _ = _assert_same(events, CacheConfig(policy_id="lru", capacity_bytes=300), scheme)
    assert report.evictions == 1  # the 400-byte refetch of a
    assert report.kernel_occupancy_bytes == 100


# ---------------------------------------------------- engine ledger checks


def _areas(policy):
    """(total, {document: record}, cap) of each area of `policy`."""
    if isinstance(policy, ZBSCache):
        return [(policy.kernel_bytes, {obj: c for obj, c in policy.copies.items()
                                       if c[SLOT] is not None}, policy.kern_cap),
                (policy.accessory_bytes, dict(policy.accessory), policy.acc_cap)]
    assert policy.accessory_bytes == 0
    return [(policy.kernel_bytes, dict(policy.copies), policy.capacity)]


def _check_ledger(engine, fetched, prefetched):
    """The books between two events.  Each area's total is the sum of its
    copies' sizes and within its cap, and the areas hold every copy of
    the policy's table once, each at the size of its last fetch.  No two
    copies name one admitting event.  The prefetch counters count the
    prefetches."""
    policy = engine.policy
    held = {}
    for total, copies, cap in _areas(policy):
        assert total == sum(c[SIZE] for c in copies.values())
        assert total <= cap
        assert held.keys().isdisjoint(copies)
        held.update(copies)
    assert held == policy.copies
    assert {obj: c[SIZE] for obj, c in held.items()} == {obj: fetched[obj] for obj in held}
    assert policy.kernel_bytes + policy.accessory_bytes <= policy.capacity
    # the lifetime layer picks copies in the order of these indices
    admitted = [c[ADMITTED] for c in held.values()]
    assert len(admitted) == len(set(admitted))
    assert engine.prefetch_bytes == sum(prefetched)
    assert engine.prefetch_fetches == len(prefetched)


# the layer each ledger run drives: api scores its counts against a
# threshold; goodfetch selects all without scoring
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
                copies = run["engine"].policy.copies
                if run["called"] is None:
                    assert obj not in copies
                elif not run["called"]:  # kept, and stale
                    assert not copies[obj][FRESH]
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
        prefetch, policy = engine._prefetch, engine.policy
        on_hit, on_miss_admit = policy.on_hit, policy.on_miss_admit
        refetch = policy.on_modification_fetched

        def recording_prefetch(record, obj, size, now):
            assert run["prefetching"]
            prefetched.append(size)
            prefetch(record, obj, size, now)

        def recording_refetch(obj, size, now):
            assert policy.copies[obj][FRESH]  # the engine marks the refetch fresh
            if not run["prefetching"]:
                count["stale"] += 1
                run["code"] = STALE
            fetched[obj] = size
            refetch(obj, size, now)

        def recording_hit(obj, now):
            count["hits"] += 1
            count["hit_bytes"] += run["size"]
            run["code"] = HIT
            on_hit(obj, now)

        def recording_admit(obj, size, now, i):
            fetched[obj] = size
            admitted = on_miss_admit(obj, size, now, i)
            run["code"] = MISS if admitted else REFUSED
            return admitted

        engine._prefetch = recording_prefetch
        policy.on_hit, policy.on_miss_admit = recording_hit, recording_admit
        policy.on_modification_fetched = recording_refetch
        if scheme is not None:
            layer = engine.layer
            on_modification, tick_refetches = layer.on_modification, layer.tick_refetches

            def recounted(obj, size, now, k):
                assert run["called"] is None and obj in policy.copies
                assert k == run["ordinal"]
                docs = count["docs"]
                m = Modification(now, obj, size, count["doc_mods"][obj], docs.get(obj, 0),
                                 sum(docs.values()))
                # lifetime reads the fetch day from the modification
                # count, a threshold scheme its decision from the three
                if scheme == "lifetime":
                    assert layer.select is None
                    assert layer.fetch_day[k] == walked_fetch_day(m.mods, now, layer.start)[0]
                else:
                    ref = RefPrefetchLayer(*LEDGER_LAYERS[scheme])
                    ref.start, ref.modifications = layer.start, {k: m}
                    assert layer.fetch_day is None
                    assert layer.select[k] == ref.on_modification(obj, size, now, k)
                run["called"] = run["prefetching"] = on_modification(obj, size, now, k)
                return run["prefetching"]

            def picking(now, copies):
                for pick in tick_refetches(now, copies):
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
