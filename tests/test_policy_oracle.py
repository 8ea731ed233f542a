"""lru, fifo and lfu against a brute-force reference on small random traces.

`RefSingleArea` keeps a plain dict of document -> [size, admission stamp,
access stamp, frequency] and finds each victim by scanning it: fifo
evicts the least admission stamp, lru the least access stamp, lfu the
least (frequency, access stamp).  Frequency counts per residency.  A hit
or a refetch is an access; fifo's order never looks at accesses.  The
optimized policies must choose the same victims in the same order and
produce the same `SimReport` on every trace, with and without a
prefetch layer.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zipfcache.policies import EvictionInfeasible
from zipfcache.prefetch import PrefetchLayer
from zipfcache.simcore import DAY_SECONDS as DAY
from zipfcache.simcore import CacheConfig, _Engine
from zipfcache.trace import MODIFICATION, REQUEST, TraceEvent

ORDER = {  # policy id -> eviction key of an entry [size, admitted, accessed, freq]
    "fifo": lambda e: e[1],
    "lru": lambda e: e[2],
    "lfu": lambda e: (e[3], e[2]),
}


class RefSingleArea:
    over_limit = False
    accessory_bytes = 0

    def __init__(self, policy_id, capacity):
        self.key = ORDER[policy_id]
        self.capacity = capacity
        self.entries = {}
        self.clock = 0

    def _access(self, entry):
        self.clock += 1
        entry[2] = self.clock
        entry[3] += 1

    def on_miss_admit(self, obj, size, now):
        if size > self.capacity:
            return False
        self.clock += 1
        self.entries[obj] = [size, self.clock, self.clock, 1]
        return True

    def on_hit(self, obj, now):
        self._access(self.entries[obj])

    def on_modification_fetched(self, obj, size, now):
        entry = self.entries[obj]
        entry[0] = size
        self._access(entry)

    def force_forget(self, obj):
        del self.entries[obj]

    def on_expire_stats(self, now):
        pass

    def choose_victims(self, bytes_needed, now):
        victims = []
        while bytes_needed > 0:
            if not self.entries:
                raise EvictionInfeasible("cache empty")
            victims.append(min(self.entries, key=lambda o: self.key(self.entries[o])))
            bytes_needed -= self.entries.pop(victims[-1])[0]
        return victims


def _recording(policy, log):
    choose = policy.choose_victims

    def choose_victims(bytes_needed, now):
        victims = choose(bytes_needed, now)
        log.append((now, victims))
        return victims

    policy.choose_victims = choose_victims


def _replay_both(events, config, scheme):
    """(report, victim log) of the policy and of RefSingleArea on one trace."""
    out = []
    for reference in (False, True):
        eng = _Engine(config, PrefetchLayer(scheme) if scheme else None)
        if reference:
            eng.policy = RefSingleArea(config.policy_id, config.capacity_bytes)
        log = []
        _recording(eng.policy, log)
        out.append((eng.run(events), log))
    return out


@st.composite
def traces(draw, sizes=(20, 50, 90, 150, 400, 700)):
    """Time-ordered events over a handful of documents, with ties, short
    gaps and gaps of up to two days, drawn from a seeded `Random`."""
    rnd = draw(st.randoms(use_true_random=True))
    n_docs = rnd.choice((2, 5, 10, 20))
    mod_share = rnd.choice((0.1, 0.25, 0.5))
    events, t = [], 0.0
    for _ in range(rnd.randint(20, 120)):
        t += rnd.choice((0.0, rnd.uniform(0.0, 600.0), rnd.uniform(0.0, 2 * DAY)))
        kind = MODIFICATION if rnd.random() < mod_share else REQUEST
        events.append(TraceEvent(t, kind, f"d{rnd.randrange(n_docs)}",
                                 rnd.choice(sizes), rnd.random() < 0.9))
    return events


@st.composite
def configs(draw, policy_id):
    if draw(st.booleans()):
        return CacheConfig(capacity_bytes=draw(st.sampled_from([2, 5, 1000])),
                           policy_id=policy_id, object_count_mode=True)
    return CacheConfig(capacity_bytes=draw(st.sampled_from([400, 1000, 2500, math.inf])),
                       policy_id=policy_id)


@pytest.mark.parametrize("scheme", [None, "lifetime", "goodfetch"])
@pytest.mark.parametrize("policy_id", sorted(ORDER))
def test_policy_matches_reference(policy_id, scheme):
    @given(events=traces(), config=configs(policy_id))
    def check(events, config):
        (report, victims), (ref_report, ref_victims) = _replay_both(events, config, scheme)
        assert victims == ref_victims
        assert report == ref_report

    check()
