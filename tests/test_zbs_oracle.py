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
        self.kernel = {}  # obj -> [theta, last_modified, size, admitted_at, seq]
        self.accessory = {}  # obj -> [size, admitted_at], oldest first
        self.seq = 0

    kernel_bytes = property(lambda self: sum(e[2] for e in self.kernel.values()))
    accessory_bytes = property(lambda self: sum(a[0] for a in self.accessory.values()))
    over_limit = property(lambda self: self.kernel_bytes > self.kern_cap
                          or self.accessory_bytes > self.acc_cap)

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

    def _admit_kernel(self, obj, size, theta, last_modified, admitted_at):
        self.seq += 1
        self.kernel[obj] = [theta, last_modified, size, admitted_at, self.seq]

    def on_miss_admit(self, obj, size, now, i):
        prior = self.count(i) - 1
        if prior:
            if size > self.kern_cap:
                return False
            self._admit_kernel(obj, size, prior + 1, now, now)
        elif size > self.acc_cap:
            return False
        else:
            self.accessory[obj] = [size, now]
        return True

    def on_hit(self, obj, now):
        if obj in self.kernel:
            self.kernel[obj][0] += 1
            return
        size, admitted_at = self.accessory.pop(obj)
        self._admit_kernel(obj, size, 2, admitted_at, admitted_at)

    def on_modification_fetched(self, obj, size, now):
        if size > self.kern_cap:  # dropped
            if self.kernel.pop(obj, None) is None:
                del self.accessory[obj]
            return False
        if obj in self.kernel:
            self.kernel[obj][:3] = [1, now, size]
        else:
            self._admit_kernel(obj, size, 1, now, self.accessory.pop(obj)[1])
        return True

    def metric(self, obj, now):
        # The same float expression as the policy, so ties are exact ties.
        theta, lm, size = self.kernel[obj][:3]
        return (now - lm) * (1.0 / (theta * size if self.byte_metric else theta))

    def choose_victims(self, now):
        victims = []
        while self.accessory_bytes > self.acc_cap:
            victims.append(next(iter(self.accessory)))
            del self.accessory[victims[-1]]
        while self.kernel_bytes > self.kern_cap:
            if not self.kernel:
                raise AssertionError("over the kernel cap with the kernel empty")
            victims.append(max(self.kernel, key=lambda o: (
                self.metric(o, now), -self.kernel[o][3], -self.kernel[o][4])))
            del self.kernel[victims[-1]]
        return victims


def _assert_same(policy_id, events, capacity, retention, layer=None):
    """ZBSCache and RefZBS choose the same victims, give the same report
    and hold the same window count at each cacheable request on one
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
        t += rnd.uniform(0.2, 1.5) * DAY
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
def test_report_does_not_depend_on_tick_phase(case):
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
