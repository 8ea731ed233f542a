"""ZBS against a brute-force reference on small random traces.

`RefZBS` follows the placement rules of `ZBSCache` with plain dicts,
counts each admission's window by scanning the trace up to its request,
and finds each kernel victim by scanning the whole kernel for the
largest staleness metric, earlier admission (then admission sequence)
first on ties.  The optimized policy must choose the same victims in the
same order, produce the same `SimReport` and hold the same window count
at every cacheable request on every generated trace, with and without a
prefetch layer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import SIZES, randoms, recording
from zipfcache.policies import DAY, MAX_RETENTION, MIN_RETENTION, POLICY_IDS
from zipfcache.prefetch import PrefetchLayer
from zipfcache.simcore import CacheConfig, _Engine, simulate
from zipfcache.trace import MODIFICATION, REQUEST, Trace, TraceEvent


class RefZBS:
    def __init__(self, capacity, retention, byte_metric, accessory_fraction=0.10):
        self.acc_cap = accessory_fraction * capacity
        self.kern_cap = capacity - self.acc_cap
        self.retention, self.byte_metric = retention, byte_metric
        # obj -> [fresh, admitted, size, in the kernel, theta, last_modified,
        # admitted_at, seq], in admission order: the accessory area's oldest
        # copy is its first
        self.copies = {}
        self.seq = 0
        self.evictions = 0

    kernel_bytes = property(lambda self: sum(c[2] for c in self.copies.values() if c[3]))
    accessory_bytes = property(lambda self: sum(c[2] for c in self.copies.values()
                                                if not c[3]))

    def note_start(self, trace):
        # (time, document, a cacheable request?) of each event
        self.events = list(zip(trace.t.tolist(), trace.obj.tolist(),
                               ((trace.kind == 0) & trace.cacheable).tolist()))

    def count(self, i):
        """The cacheable requests of event i's document up to event i, on
        days from the one holding its time - retention on."""
        now, obj, _ = self.events[i]
        first = (now - self.retention) // DAY
        return sum(1 for t, o, counted in self.events[:i + 1]
                   if counted and o == obj and t // DAY >= first)

    def _to_kernel(self, copy, theta, last_modified):
        self.seq += 1
        copy[3:6] = [True, theta, last_modified]
        copy[7] = self.seq

    def on_miss_admit(self, obj, size, now, i):
        prior = self.count(i) - 1
        if prior:
            if size > self.kern_cap:
                return False
            self.copies[obj] = copy = [True, i, size, False, None, None, now, None]
            self._to_kernel(copy, prior + 1, now)
        elif size > self.acc_cap:
            return False
        else:
            self.copies[obj] = [True, i, size, False, None, None, now, None]
        self._evict(now)
        return True

    def on_hit(self, obj, now):
        copy = self.copies[obj]
        if copy[3]:
            copy[4] += 1
            return
        self._to_kernel(copy, 2, copy[6])
        self._evict(now)

    def on_modification_fetched(self, obj, size, now):
        if size > self.kern_cap:  # dropped
            del self.copies[obj]
            self.evictions += 1
            return
        copy = self.copies[obj]
        copy[2] = size
        if copy[3]:
            copy[4:6] = [1, now]
        else:
            self._to_kernel(copy, 1, now)
        self._evict(now)

    def metric(self, obj, now):
        # The same float expression as the policy, so ties are exact ties.
        _, _, size, _, theta, lm = self.copies[obj][:6]
        return (now - lm) * (1.0 / (theta * size if self.byte_metric else theta))

    def _evict(self, now):
        while self.accessory_bytes > self.acc_cap:
            del self.copies[next(o for o, c in self.copies.items() if not c[3])]
            self.evictions += 1
        while self.kernel_bytes > self.kern_cap:
            kernel = [o for o, c in self.copies.items() if c[3]]
            if not kernel:
                raise AssertionError("over the kernel cap with the kernel empty")
            del self.copies[max(kernel, key=lambda o: (
                self.metric(o, now), -self.copies[o][6], -self.copies[o][7]))]
            self.evictions += 1


def _assert_same(policy_id, events, capacity, retention, layer=None):
    """ZBSCache and RefZBS evict and drop the same documents in the same
    order, give the same report and hold the same window count at each cacheable request on one
    trace, each over a new `PrefetchLayer` of the arguments `layer`
    (None: none)."""
    config = CacheConfig(capacity_bytes=capacity, policy_id=policy_id,
                         stats_retention_seconds=retention)
    trace = Trace.from_events(events)
    counted = ((trace.kind == 0) & trace.cacheable).nonzero()[0].tolist()
    out = []
    for reference in (False, True):
        eng = _Engine(config, layer and PrefetchLayer(*layer))
        if reference:
            eng.policy = RefZBS(config.capacity_bytes, eng.policy.retention,
                                eng.policy.byte_metric, config.accessory_fraction)
        log = []
        recording(eng.policy, log)
        report = eng.run(trace)
        count = eng.policy.count if reference else eng.policy.window.__getitem__
        out.append((report, log, [count(i) for i in counted]))
    (report, victims, window), (ref_report, ref_victims, ref_window) = out
    assert victims == ref_victims
    assert report == ref_report
    assert window == ref_window


@st.composite
def traces(draw, gap, sizes, min_span=0.0, start=0.0):
    """Time-ordered events over a handful of documents from `start` on;
    `gap(rnd)` draws the time between two events."""
    rnd = draw(randoms())
    n_docs = rnd.choice((2, 5, 10, 20))
    events, t = [], start
    for _ in range(rnd.randint(20, 120)):
        t += gap(rnd)
        kind = MODIFICATION if rnd.random() < 0.25 else REQUEST
        events.append(TraceEvent(t, kind, f"d{rnd.randrange(n_docs)}",
                                 rnd.choice(sizes), rnd.random() < 0.9))
    if t < start + min_span:
        events.append(TraceEvent(start + min_span, REQUEST, "d0", sizes[0]))
    return events


@st.composite
def held_traces(draw):
    """Early documents that stay resident past their cutoff while one
    document keeps the clock going, then, from about the retention on, a
    dense burst of new documents that evicts them.  Early documents come
    back in the burst, some on the last day the window still counts their
    old requests, so a window that ended a day early would change the
    admission."""
    rnd = draw(randoms())
    events = []

    def add(t, obj):
        kind = MODIFICATION if rnd.random() < 0.1 else REQUEST
        events.append(TraceEvent(t, kind, obj, rnd.choice(SIZES[:3])))

    n_early = rnd.randint(2, 6)
    for t in sorted(rnd.uniform(0.0, 2 * DAY) for _ in range(3 * n_early)):
        add(t, f"e{rnd.randrange(n_early)}")
    t, burst = 2 * DAY, MIN_RETENTION + rnd.uniform(-1.0, 1.0) * DAY
    while t < burst:
        t += rnd.uniform(1.5, 0.2) * DAY  # shrinks toward the longest step
        add(t, "clock")
    for _ in range(rnd.randint(10, 80)):
        t += rnd.uniform(0.0, 0.15 * DAY)
        early = rnd.random() < 0.3
        add(t, f"e{rnd.randrange(n_early)}" if early else f"n{rnd.randrange(12)}")
    return events


CAPACITIES = st.sampled_from([400, 1000, 2500])
CASES = {  # name -> (trace, capacity, retention)
    "float-times": (traces(lambda r: r.uniform(0.0, 5_000.0), SIZES), CAPACITIES,
                    MAX_RETENTION),
    # integer seconds, two sizes and room for a few documents: many equal
    # metrics, so the tie-break decides, sometimes for several victims
    "ties": (traces(lambda r: float(r.randint(0, 2)), (50, 100)),
             st.sampled_from([300, 600]), MAX_RETENTION),
    # gaps of days under the shortest retention: statistics expire mid-trace
    "past-retention": (traces(lambda r: r.randint(0, 4) * DAY + 0.5, SIZES,
                              min_span=MIN_RETENTION + 2 * DAY),
                       CAPACITIES, MIN_RETENTION),
    # day numbers near 19,700 (epoch seconds) and below zero
    "epoch-times": (traces(lambda r: r.uniform(0.0, 1.5 * DAY), SIZES,
                           min_span=MIN_RETENTION + 2 * DAY, start=1.7e9),
                    CAPACITIES, MIN_RETENTION),
    "negative-times": (traces(lambda r: r.uniform(0.0, 1.5 * DAY), SIZES,
                              min_span=MIN_RETENTION + 2 * DAY, start=-45.3 * DAY),
                       CAPACITIES, MIN_RETENTION),
    # documents held past their cutoff by residency, back after eviction
    "held-past-cutoff": (held_traces(), st.sampled_from([300, 600, 1000]), MIN_RETENTION),
}


@pytest.mark.parametrize("policy_id", ["zbs", "zbs-byte"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_zbs_matches_reference(policy_id, case):
    trace, capacities, retention = CASES[case]

    @given(events=trace, capacity=capacities)
    def check(events, capacity):
        _assert_same(policy_id, events, capacity, retention)

    check()


# The `PrefetchLayer` arguments of each layered case.
LAYERS = {"goodfetch": ("goodfetch",), "api": ("api", 1.0), "lifetime": ("lifetime",)}


@pytest.mark.parametrize("policy_id", ["zbs", "zbs-byte"])
@pytest.mark.parametrize("scheme", sorted(LAYERS))
def test_zbs_matches_reference_with_prefetch(policy_id, scheme):
    # A prefetch is not a request: the window counts demand requests only.
    cases = [st.tuples(trace, capacities, st.just(retention))
             for trace, capacities, retention in CASES.values()]

    @settings(max_examples=25)
    @given(case=st.one_of(cases))
    def check(case):
        _assert_same(policy_id, *case, LAYERS[scheme])

    check()


def _assert_start_free(events, capacity, retention, delta):
    """A modification of a document no one requests, `delta` seconds
    before the trace, moves the trace start and must move no report: a
    run without a prefetch layer has no tick, and the window counts
    calendar days.  Runs with a layer are left out: `lifetime` fetches at
    ticks whole days from the start by design, and `goodfetch` and `api`
    select only modifications after the start."""
    shifted = Trace.from_events(
        [TraceEvent(events[0].timestamp - delta, MODIFICATION, "unrequested", 1)] + events)
    events = Trace.from_events(events)
    for policy_id in POLICY_IDS:
        for count_mode in (False, True):
            if policy_id == "zbs-byte" and count_mode:
                continue
            config = CacheConfig(capacity_bytes=capacity, policy_id=policy_id,
                                 stats_retention_seconds=retention,
                                 object_count_mode=count_mode)
            assert simulate(shifted, config) == simulate(events, config), \
                (policy_id, count_mode)


@pytest.mark.parametrize("case", sorted(CASES))
def test_earlier_trace_start_moves_no_report(case):
    trace, capacities, retention = CASES[case]

    @settings(max_examples=25)
    @given(events=trace, capacity=capacities,
           delta=st.floats(min_value=0.0, max_value=2 * DAY, exclude_min=True))
    def check(events, capacity, delta):
        _assert_start_free(events, capacity, retention, delta)

    check()


def test_earlier_start_moves_no_readmission():
    # a's first request is refused (150 B outgrows the accessory area) and
    # its second, at 30.6 days, is on the last day the window counts the
    # first: a goes to the kernel and hits at 30.7 days.  A start half a
    # day earlier puts whole days from it at 30.6 days, after a's request
    # of 0.1 days less the retention; the window must still count it.
    events = [TraceEvent(0.1 * DAY, REQUEST, "a", 150)]
    events += [TraceEvent(k * DAY, REQUEST, "clock", 10) for k in range(1, 31)]
    events += [TraceEvent(t * DAY, REQUEST, "a", 150) for t in (30.6, 30.7)]
    _assert_start_free(events, 1000, MIN_RETENTION, 0.5 * DAY)
