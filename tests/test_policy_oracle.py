"""lru, fifo and lfu against a brute-force reference on small random traces.

`RefSingleArea` keeps a plain dict of document -> [fresh, admitting
event, size, admission stamp, access stamp, frequency] and finds each
victim by scanning it: fifo evicts the least admission stamp, lru the
least access stamp, lfu the least (frequency, access stamp).  Frequency
counts per residency.  A hit or a refetch is an access; fifo's order
never looks at accesses.  The optimized policies must choose the same
victims in the same order and produce the same `SimReport` on every
trace, with and without a prefetch layer.
"""

import math

import pytest
from hypothesis import given

from support import configs, recording, traces
from zipfcache.prefetch import PrefetchLayer
from zipfcache.simcore import _Engine
from zipfcache.trace import Trace

ORDER = {  # policy id -> eviction key of a copy [.., .., size, admitted, accessed, freq]
    "fifo": lambda c: c[3],
    "lru": lambda c: c[4],
    "lfu": lambda c: (c[5], c[4]),
}


class RefSingleArea:
    accessory_bytes = 0
    kernel_bytes = property(lambda self: sum(c[2] for c in self.copies.values()))

    def __init__(self, policy_id, capacity):
        self.key = ORDER[policy_id]
        self.capacity = capacity
        self.copies = {}
        self.clock = 0
        self.evictions = 0

    def _access(self, copy):
        self.clock += 1
        copy[4] = self.clock
        copy[5] += 1

    def note_start(self, trace):
        pass

    def on_miss_admit(self, obj, size, now, i):
        if size > self.capacity:
            return False
        self.clock += 1
        self.copies[obj] = [True, i, size, self.clock, self.clock, 1]
        self._evict()
        return True

    def on_hit(self, obj, now):
        self._access(self.copies[obj])

    def on_modification_fetched(self, obj, size, now):
        if size > self.capacity:
            del self.copies[obj]
            self.evictions += 1
            return
        copy = self.copies[obj]
        copy[2] = size
        self._access(copy)
        self._evict()

    def _evict(self):
        while self.kernel_bytes > self.capacity:
            if not self.copies:
                raise AssertionError("over the cap with the cache empty")
            del self.copies[min(self.copies, key=lambda o: self.key(self.copies[o]))]
            self.evictions += 1


def _replay_both(events, config, scheme):
    """(report, the documents that left the cache, in order) of the policy
    and of RefSingleArea on one trace."""
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
