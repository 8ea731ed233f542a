"""The one-pass LRU curve against one replay per capacity.

`simulate_many` reads every LRU capacity without a prefetch layer off
one pass of stack distances, where `simulate` replays the trace once per
run.  Their reports must agree field for field: from the pass wherever
it is exact, and from `simulate` itself for every other run.  Where the
pass is exact, its outcome column agrees with the replay's event by
event.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import mod, randoms, req
from zipfcache import simcore
from zipfcache.analytic import DAY
from zipfcache.policies import POLICY_IDS
from zipfcache.prefetch import PrefetchLayer
from zipfcache.simcore import (HIT, MISS, REFUSED, CacheConfig, _Engine, _LRUCurve,
                               simulate, simulate_many)
from zipfcache.trace import (MODIFICATION, REQUEST, SyntheticSpec, Trace, TraceEvent,
                             generate_trace)


@st.composite
def traces(draw, sizes="fixed"):
    """Time-ordered events over a few documents with ties, short gaps and
    gaps of days, uncacheable requests and modifications.  With `sizes`
    "fixed" every event of a document carries one size, with
    "modifications" a modification redraws it, and with "events" each
    event draws its own."""
    rnd = draw(randoms())
    n_docs = rnd.choice((1, 3, 10, 40))
    mod_share = rnd.choice((0.0, 0.2, 0.5))
    doc_size = {}
    events, t = [], rnd.choice((0.0, -3e5, 1e9))
    for _ in range(rnd.randint(0, 150)):
        t += rnd.choice((0.0, rnd.uniform(0.0, 600.0), rnd.uniform(0.0, 3 * DAY)))
        doc = f"d{rnd.randrange(n_docs)}"
        size = rnd.choice((1, 20, 50, 90, 150, 400, 700))
        kind = MODIFICATION if rnd.random() < mod_share else REQUEST
        if sizes == "modifications" and kind == MODIFICATION:
            doc_size[doc] = size
        elif sizes != "events":
            size = doc_size.setdefault(doc, size)
        events.append(TraceEvent(t, kind, doc, size, rnd.random() < 0.85))
    return events


@st.composite
def byte_capacities(draw, trace):
    """Capacities the pass is exact at: none below the largest cacheable
    size, some repeated, in no particular order."""
    rnd = draw(randoms())
    sizes = trace.size[(trace.kind == 0) & trace.cacheable].tolist()
    low = max(sizes, default=1)
    pool = [low, low + 0.5, 2 * low, 3 * low + 7, sum(sizes) or low, 1e12, math.inf]
    caps = [rnd.choice(pool) for _ in range(rnd.randint(1, 6))]
    return caps + [caps[0]]


def _configs(caps, count_mode=False):
    return [CacheConfig(capacity_bytes=c, policy_id="lru", object_count_mode=count_mode)
            for c in caps]


@pytest.fixture
def replays(monkeypatch):
    """The capacities the sweep hands to `simulate`, in call order."""
    calls = []

    def counting(events, config, *args):
        calls.append(config.capacity_bytes)
        return simulate(events, config, *args)

    monkeypatch.setattr(simcore, "simulate", counting)
    return calls


def _assert_matches_replays(trace, configs):
    reports = simulate_many(trace, configs)
    assert [r.to_dict() for r in reports] == [
        simulate(trace, config).to_dict() for config in configs]
    return reports


def _replayed_column(trace, config):
    engine = _Engine(config)
    engine.run(trace)
    return engine.outcome


def _assert_columns_match_replays(trace, configs):
    """The pass's outcome column at each capacity is the replay's."""
    curve = _LRUCurve(trace, configs[0].object_count_mode)
    for config in configs:
        assert curve.report(config.capacity_bytes) is not None
        assert bytes(curve.outcome(config.capacity_bytes)) == _replayed_column(trace, config)


def test_byte_mode_with_fixed_sizes_is_one_pass(replays):
    @given(events=traces(), data=st.data())
    def check(events, data):
        trace = Trace.from_events(events)
        replays.clear()
        configs = _configs(data.draw(byte_capacities(trace)))
        _assert_matches_replays(trace, configs)
        assert replays == []
        _assert_columns_match_replays(trace, configs)

    check()


def test_count_mode_with_modifications_is_one_pass(replays):
    @given(events=traces(sizes="events"),
           caps=st.lists(st.sampled_from([1, 2, 3, 5, 2.5, 12, 40, math.inf]),
                         min_size=1, max_size=6))
    def check(events, caps):
        trace = Trace.from_events(events)
        replays.clear()
        configs = _configs(caps, count_mode=True)
        _assert_matches_replays(trace, configs)
        assert replays == []
        _assert_columns_match_replays(trace, configs)

    check()


def _trace(*events):
    return Trace.from_events(events)


def test_hand_walk_counts_stale_refetches_and_evictions(replays):
    # stack distances in count mode: a@2 is 2 (b above it), b@4 is 3
    # (a, c above it), a@5 is 3 (b, c above it); a was modified at 3
    events = _trace(req(0, "a"), req(1, "b"), req(2, "a"), mod(3, "a"), req(3, "c"),
                    req(4, "b"), req(5, "a"), req(6, "x", cacheable=False))
    two, three = _assert_matches_replays(events, _configs([2, 3], count_mode=True))
    assert (two.hits, two.stale_refetches, two.evictions) == (1, 0, 3)
    assert (three.hits, three.stale_refetches, three.evictions) == (2, 1, 0)
    assert three.demand_bytes == 700 - 200  # seven requests, two hits
    assert replays == []


def test_document_that_changes_size_is_replayed(replays):
    # a is requested at 100 bytes, modified to 300 and requested again
    events = _trace(req(0, "a", 100), req(1, "b", 50), mod(2, "a", 300),
                    req(3, "a", 300), req(4, "b", 50))
    _assert_matches_replays(events, _configs([350, 1000]))
    assert replays == [350, 1000]
    # count mode ignores sizes, so the same trace takes one pass
    replays.clear()
    _assert_matches_replays(events, _configs([1, 2], count_mode=True))
    assert replays == []


def test_document_larger_than_a_capacity_is_replayed_at_it(replays):
    events = _trace(req(0, "a", 500), req(1, "b", 100), req(2, "a", 500),
                    req(3, "b", 100))
    _assert_matches_replays(events, _configs([600, 400, 500]))
    assert replays == [400]
    # at 400 bytes LRU refuses a's copy, for which the pass has no code
    assert _LRUCurve(events, False).report(400) is None
    assert list(_replayed_column(events, CacheConfig(400, "lru"))) == [
        REFUSED, MISS, REFUSED, HIT]
    _assert_columns_match_replays(events, _configs([600, 500]))


def test_negative_size_is_refused(replays):
    # a trace holds no size below 1, so no size can shrink a stack prefix
    events = [req(0, "a", -50), req(1, "b", 100), req(2, "a", -50), req(3, "b", 100)]
    with pytest.raises(ValueError, match="size must be >= 1, got -50"):
        simulate_many(Trace.from_events(events), _configs([100, 1000]))
    assert replays == []


def test_count_mode_below_one_document_is_replayed(replays):
    events = _trace(req(0, "a"), req(1, "a"), req(2, "b"))
    _assert_matches_replays(events, _configs([3, 0.5, 1], count_mode=True))
    assert replays == [0.5]


@pytest.mark.parametrize("second", [4.0, math.nan, math.inf, 1e22])
def test_bad_timestamps_raise_what_simulate_raises(second, replays):
    # a time out of order, not finite or beyond 1e18 s is refused when the
    # trace is built, so neither entry point ever meets one
    events = [req(5.0, "a"), req(second, "b")]
    with pytest.raises(ValueError) as expected:
        simulate(Trace.from_events(events), CacheConfig(policy_id="lru"))
    with pytest.raises(ValueError) as got:
        simulate_many(Trace.from_events(events), _configs([1000, 2000]))
    assert str(got.value) == str(expected.value)
    assert replays == []


def test_far_timestamps_take_one_pass(replays):
    # every time a trace holds is within the range of distinct daily ticks
    events = _trace(req(-1e18, "a"), req(0.0, "b"), req(1e18, "a"))
    _assert_matches_replays(events, _configs([100, 200]))
    assert replays == []


def test_configs_are_checked_in_order(replays):
    with pytest.raises(ValueError, match="capacity must be > 0"):
        simulate_many(_trace(req(0, "a")), _configs([100, 0]))


# The `PrefetchLayer` arguments of the runs, None for runs without one.
LAYERS = (None, ("goodfetch", 0.3), ("lifetime",))


@st.composite
def run_lists(draw, largest):
    """1 to 6 configs of any policy and mode, and the layer arguments of
    them all."""
    rnd, configs = draw(randoms()), []
    for _ in range(rnd.randint(1, 6)):
        policy = rnd.choice(POLICY_IDS)
        count_mode = policy != "zbs-byte" and rnd.random() < 0.5
        unit = 1 if count_mode else largest  # the largest size, 1 in count mode
        capacity = rnd.choice((unit / 2, unit, 3 * unit + 7, 1e12))  # below and above it
        configs.append(CacheConfig(capacity, policy, object_count_mode=count_mode))
    return configs, rnd.choice(LAYERS)


def test_many_runs_equal_one_simulate_each():
    @given(events=st.sampled_from(["fixed", "modifications", "events"]).flatmap(
               lambda sizes: traces(sizes=sizes)),
           data=st.data())
    def check(events, data):
        trace = Trace.from_events(events)
        configs, layer = data.draw(run_lists(int(trace.size.max()) if len(trace) else 1))
        # one layer for every run of simulate_many, a fresh one for each simulate
        got = simulate_many(trace, configs, layer and PrefetchLayer(*layer))
        assert [r.to_dict() for r in got] == [
            simulate(trace, config, layer and PrefetchLayer(*layer)).to_dict()
            for config in configs]

    check()


def test_byte_mode_refuses_a_changed_size_before_the_pass(monkeypatch):
    # a modification redraws a size, so the pass is not exact in byte mode;
    # it says so before pairing any requests or summing any distances
    calls = []
    for name in ("_doc_order", "_dominance_sums"):
        def counting(*args, _name=name, _original=getattr(simcore, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(simcore, name, counting)

    @given(events=traces(sizes="modifications"), data=st.data())
    def check(events, data):
        end = events[-1].timestamp if events else 0.0
        resized = _trace(*events, req(end, "x", 20), mod(end, "x", 90), req(end, "x", 90))
        calls.clear()
        _assert_matches_replays(resized, _configs(data.draw(byte_capacities(resized))))
        assert not _LRUCurve(resized, False).exact
        assert calls == []

    check()


def test_a_sweep_counts_the_request_totals_once(monkeypatch, replays):
    # the request totals are the same at every capacity, so a sweep
    # counts them once, not once per size
    calls = []
    request_totals = simcore._request_totals

    def counting(trace):
        calls.append(len(trace))
        return request_totals(trace)

    monkeypatch.setattr(simcore, "_request_totals", counting)
    events = generate_trace(SyntheticSpec(
        n_objects=2_000, alpha=0.8, request_rate=2e4 / (10 * DAY), duration=10 * DAY,
        mu_p=1 / DAY, mu_u=1 / (10 * DAY), seed=3))
    reports = simulate_many(events, _configs([25 * 2**k for k in range(10)], count_mode=True))
    assert calls == [len(events)] and replays == []
    hits = [r.hits for r in reports]
    assert hits == sorted(hits) and hits[0] < hits[-1]


def test_empty_trace():
    _assert_matches_replays(_trace(), _configs([1, 100]))
    _assert_matches_replays(_trace(), _configs([1, 100], count_mode=True))


# Peak tracemalloc bytes per event of one byte-mode LRU run at 40 MB
# through `simulate_many` on _MEMORY_SPEC (99,588 events, the largest size
# 471,164 B) when the pass answered a capacity from sorted distances.
_SORTED_PASS_PEAK_BYTES_PER_EVENT = 42.08
_MEMORY_SPEC = SyntheticSpec(n_objects=20_000, alpha=0.8, request_rate=1e5 / (30 * DAY),
                             duration=30 * DAY, p_c=0.8, seed=11)


def test_one_capacity_peak_memory_per_event(replays):
    events = generate_trace(_MEMORY_SPEC)
    tracemalloc.start()
    try:
        simulate_many(events, _configs([40e6]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events) == 99_588 and replays == []
    assert peak / len(events) <= _SORTED_PASS_PEAK_BYTES_PER_EVENT


def test_renewal_fixture_in_count_mode(renewal_events, replays):
    req = renewal_events.kind == 0
    docs = len(np.unique(renewal_events.obj[req & renewal_events.cacheable]))
    caps = [round(f * docs) for f in (0.05, 0.10, 0.20, 0.40)]
    reports = _assert_matches_replays(renewal_events, _configs(caps, count_mode=True))
    assert replays == []
    assert all(r.stale_refetches > 0 for r in reports)
    hits = [r.hits for r in reports]
    assert hits == sorted(hits)
