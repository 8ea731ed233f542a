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

from support import configs, recording, traces
from zipfcache.prefetch import PrefetchLayer
from zipfcache.simcore import _Engine
from zipfcache.trace import Trace

ORDER = {  # policy id -> eviction key of an entry [size, admitted, accessed, freq]
    "fifo": lambda e: e[1],
    "lru": lambda e: e[2],
    "lfu": lambda e: (e[3], e[2]),
}


class RefSingleArea:
    accessory_bytes = 0
    kernel_bytes = property(lambda self: sum(e[0] for e in self.entries.values()))
    over_limit = property(lambda self: self.kernel_bytes > self.capacity)

    def __init__(self, policy_id, capacity):
        self.key = ORDER[policy_id]
        self.capacity = capacity
        self.entries = {}
        self.clock = 0

    def _access(self, entry):
        self.clock += 1
        entry[2] = self.clock
        entry[3] += 1

    def note_start(self, trace):
        pass

    def on_miss_admit(self, obj, size, now, i):
        if size > self.capacity:
            return False
        self.clock += 1
        self.entries[obj] = [size, self.clock, self.clock, 1]
        return True

    def on_hit(self, obj, now):
        self._access(self.entries[obj])

    def on_modification_fetched(self, obj, size, now):
        if size > self.capacity:
            del self.entries[obj]
            return False
        entry = self.entries[obj]
        entry[0] = size
        self._access(entry)
        return True

    def choose_victims(self, now):
        victims = []
        while self.over_limit:
            if not self.entries:
                raise AssertionError("over the cap with the cache empty")
            victims.append(min(self.entries, key=lambda o: self.key(self.entries[o])))
            del self.entries[victims[-1]]
        return victims


def _replay_both(events, config, scheme):
    """(report, victim log) of the policy and of RefSingleArea on one trace."""
    trace = Trace.from_events(events)
    out = []
    for reference in (False, True):
        eng = _Engine(config, PrefetchLayer(scheme) if scheme else None)
        if reference:
            eng.policy = RefSingleArea(config.policy_id, config.capacity_bytes)
        log = []
        recording(eng.policy, log)
        out.append((eng.run(trace), log))
    return out


@pytest.mark.parametrize("scheme", [None, "lifetime", "goodfetch"])
@pytest.mark.parametrize("policy_id", sorted(ORDER))
def test_policy_matches_reference(policy_id, scheme):
    @given(events=traces(mod_shares=(0.1, 0.25, 0.5)),
           config=configs(policy_id, (400, 1000, 2500, math.inf)))
    def check(events, config):
        (report, victims), (ref_report, ref_victims) = _replay_both(events, config, scheme)
        assert victims == ref_victims
        assert report == ref_report

    check()
