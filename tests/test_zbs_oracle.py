"""ZBS against a brute-force reference on small random traces.

`RefZBS` follows the placement rules of `ZBSCache` with plain dicts and
finds each kernel victim by scanning the whole kernel for the largest
staleness metric, earlier admission (then admission sequence) first on
ties.  The optimized policy must choose the same victims in the same
order and produce the same `SimReport` on every generated trace.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zipfcache.policies import DAY, MIN_RETENTION, EvictionInfeasible
from zipfcache.simcore import CacheConfig, _Engine
from zipfcache.trace import MODIFICATION, REQUEST, TraceEvent


class RefZBS:
    def __init__(self, capacity, retention, byte_metric, accessory_fraction=0.10):
        self.acc_cap = accessory_fraction * capacity
        self.kern_cap = capacity - self.acc_cap
        self.retention, self.byte_metric = retention, byte_metric
        self.kernel = {}  # obj -> [theta, last_modified, size, admitted_at, seq]
        self.accessory = {}  # obj -> [size, admitted_at], oldest first
        self.seen = {}  # obj -> request times
        self.start = None
        self.seq = 0

    kernel_bytes = property(lambda self: sum(e[2] for e in self.kernel.values()))
    accessory_bytes = property(lambda self: sum(a[0] for a in self.accessory.values()))
    over_limit = property(lambda self: self.kernel_bytes > self.kern_cap
                          or self.accessory_bytes > self.acc_cap)

    def _note(self, obj, now):
        # Requests count by day: the window keeps the days from the one
        # holding now - retention onwards.
        cutoff = (now - self.retention) // DAY
        prior = sum(1 for t in self.seen.get(obj, ()) if t // DAY >= cutoff)
        self.start = now if self.start is None else self.start
        self.seen.setdefault(obj, []).append(now)
        return prior

    def _admit_kernel(self, obj, size, theta, last_modified, admitted_at):
        self.seq += 1
        self.kernel[obj] = [theta, last_modified, size, admitted_at, self.seq]

    def on_miss_admit(self, obj, size, now):
        prior = self._note(obj, now)
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
        self._note(obj, now)
        if obj in self.kernel:
            self.kernel[obj][0] += 1
            return
        size, admitted_at = acc = self.accessory.pop(obj)
        if size > self.kern_cap:
            self.accessory[obj] = acc  # requeued at the young end
        else:
            self._admit_kernel(obj, size, 2, admitted_at, admitted_at)

    def on_modification_fetched(self, obj, size, now):
        self._note(obj, now)
        if obj in self.kernel:
            self.kernel[obj][:3] = [1, now, size]
        else:
            self._admit_kernel(obj, size, 1, now, self.accessory.pop(obj)[1])

    def force_forget(self, obj):
        if self.kernel.pop(obj, None) is None:
            self.accessory.pop(obj, None)

    def on_expire_stats(self, now):
        if self.start is None or now - self.start <= self.retention:
            return
        for obj, times in list(self.seen.items()):
            if times[-1] < now - self.retention and obj not in self.kernel \
                    and obj not in self.accessory:
                del self.seen[obj]

    def metric(self, obj, now):
        # The same float expression as the policy, so ties are exact ties.
        theta, lm, size = self.kernel[obj][:3]
        return (now - lm) * (1.0 / (theta * size if self.byte_metric else theta))

    def choose_victims(self, bytes_needed, now):
        victims = []
        while self.accessory_bytes > self.acc_cap:
            victims.append(next(iter(self.accessory)))
            del self.accessory[victims[-1]]
        while self.kernel_bytes > self.kern_cap:
            if not self.kernel:
                raise EvictionInfeasible("kernel empty")
            victims.append(max(self.kernel, key=lambda o: (
                self.metric(o, now), -self.kernel[o][3], -self.kernel[o][4])))
            del self.kernel[victims[-1]]
        return victims


def _recording(policy, log):
    choose = policy.choose_victims

    def choose_victims(bytes_needed, now):
        victims = choose(bytes_needed, now)
        log.append((now, victims))
        return victims

    policy.choose_victims = choose_victims


def _replay_both(events, config):
    """(report, victim log) of ZBSCache and of RefZBS on one trace."""
    out = []
    for reference in (False, True):
        eng = _Engine(config)
        if reference:
            eng.policy = RefZBS(config.capacity_bytes, eng.policy.retention,
                                eng.policy.byte_metric, config.accessory_fraction)
        log = []
        _recording(eng.policy, log)
        out.append((eng.run(events), log))
    return out


@st.composite
def traces(draw, gap, sizes, min_span=0.0):
    """Time-ordered events over a handful of documents; `gap(rnd)` draws
    the time between two events."""
    rnd = draw(st.randoms(use_true_random=False))
    n_docs = rnd.choice((2, 5, 10, 20))
    events, t = [], 0.0
    for _ in range(rnd.randint(20, 120)):
        t += gap(rnd)
        kind = MODIFICATION if rnd.random() < 0.25 else REQUEST
        events.append(TraceEvent(t, kind, f"d{rnd.randrange(n_docs)}",
                                 rnd.choice(sizes), rnd.random() < 0.9))
    if t < min_span:
        events.append(TraceEvent(min_span, REQUEST, "d0", sizes[0]))
    return events


SIZES = (20, 50, 90, 150, 400, 700)
CAPACITIES = st.sampled_from([400, 1000, 2500])
CASES = {  # name -> (trace, capacity, retention)
    "float-times": (traces(lambda r: r.uniform(0.0, 5_000.0), SIZES), CAPACITIES, None),
    # integer seconds, two sizes and room for a few documents: many equal
    # metrics, so the tie-break decides, sometimes for several victims
    "ties": (traces(lambda r: float(r.randint(0, 2)), (50, 100)),
             st.sampled_from([300, 600]), None),
    # gaps of days under the shortest retention: statistics expire mid-trace
    "past-retention": (traces(lambda r: r.randint(0, 4) * DAY + 0.5, SIZES,
                              min_span=MIN_RETENTION + 2 * DAY),
                       CAPACITIES, MIN_RETENTION),
}


@pytest.mark.parametrize("policy_id", ["zbs", "zbs-byte"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_zbs_matches_reference(policy_id, case):
    trace, capacities, retention = CASES[case]

    @given(events=trace, capacity=capacities)
    def check(events, capacity):
        config = CacheConfig(capacity_bytes=capacity, policy_id=policy_id,
                             stats_retention_seconds=retention)
        (report, victims), (ref_report, ref_victims) = _replay_both(events, config)
        assert victims == ref_victims
        assert report == ref_report

    check()

