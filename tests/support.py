"""What several test files share: `randoms()`, the one random source of
every generated input, the traces and configurations of the policy and
prefetch oracles, event builders, a victim recorder and the fields of a
ZBS copy record."""

import random

from hypothesis import strategies as st

from zipfcache.analytic import DAY
from zipfcache.simcore import CacheConfig
from zipfcache.trace import MODIFICATION, REQUEST, TraceEvent

# The fields of a record in `ZBSCache.copies`; slot, theta and seq are
# None in the accessory area.
FRESH, ADMITTED, SIZE, SLOT, THETA, ADMITTED_AT, SEQ = range(7)

# Bytes drawn at a time, lazily, so that a short input draws few.
CHUNK = 256


class _Stream:
    """Bits read in order from bytes that Hypothesis draws `CHUNK` at a time."""

    def __init__(self, draw, whole_bytes):
        self._draw, self._whole_bytes = draw, whole_bytes
        self._bytes, self._at = b"", 0  # the bytes drawn, and the bits read

    def read(self, k):
        n = 8 * ((k + 7) // 8) if self._whole_bytes else k
        start, self._at = self._at, self._at + n
        while 8 * len(self._bytes) < self._at:
            self._bytes += self._draw(st.binary(min_size=CHUNK, max_size=CHUNK))
        first, last = start // 8, (self._at + 7) // 8
        bits = int.from_bytes(self._bytes[first:last], "big") >> (8 * last - self._at)
        return (bits & ((1 << n) - 1)) >> (n - k)


class DrawnRandom(random.Random):
    """A `random.Random` over bytes that Hypothesis draws and shrinks.
    `getrandbits(k)` and `random()` (53 bits) read a value's top 8 bits
    from one stream and the rest from another: the first holds what
    decides a choice or a comparison, and the shrinker can clear the
    second's chunks whole.  With `whole_bytes` each read starts on a
    byte, so that lowering a byte changes one value; without it the
    longest generated files fit in what Hypothesis allows one test
    case.  Zero bytes give 0.0, a `choice`'s first element and a
    `randint`'s lower bound."""

    def __init__(self, draw, whole_bytes=True):
        self._high, self._low = _Stream(draw, whole_bytes), _Stream(draw, whole_bytes)
        super().__init__(0)

    def getrandbits(self, k):
        if k <= 8:
            return self._high.read(k)
        return self._high.read(8) << (k - 8) | self._low.read(k - 8)

    def random(self):
        return self.getrandbits(53) * 2.0**-53


@st.composite
def randoms(draw, whole_bytes=True):
    """A `DrawnRandom` over the bytes of the test case."""
    return DrawnRandom(draw, whole_bytes)


SIZES = (20, 50, 90, 150, 400, 700)


@st.composite
def traces(draw, mod_shares=(0.25, 0.5, 0.75), max_gap=2 * DAY, tiny=False):
    """20 to 120 time-ordered events over a handful of documents, with a
    modification share drawn from `mod_shares`.  Gaps are ties, seconds
    or up to `max_gap`, so daily ticks meet stale copies that were
    modified a few times.  With `tiny`, the first few gaps are ties or
    the least subnormal float, so that modifications just past the start
    sit where any rule that divided by the elapsed time would meet a 0
    or an inf."""
    rnd = draw(randoms())
    n_docs = rnd.choice((2, 5, 10, 20))
    mod_share = rnd.choice(mod_shares)
    events, t = [], 0.0
    near_start = rnd.randint(0, 20) if tiny else 0
    for k in range(rnd.randint(20, 120)):
        t += rnd.choice((0.0, 5e-324) if k < near_start else
                        (0.0, rnd.uniform(0.0, 600.0), rnd.uniform(0.0, max_gap)))
        kind = MODIFICATION if rnd.random() < mod_share else REQUEST
        events.append(TraceEvent(t, kind, f"d{rnd.randrange(n_docs)}",
                                 rnd.choice(SIZES), rnd.random() < 0.9))
    return events


@st.composite
def configs(draw, policy_id, byte_capacities=(400, 1000, 2500)):
    if draw(st.booleans()):
        return CacheConfig(capacity_bytes=draw(st.sampled_from([2, 5, 1000])),
                           policy_id=policy_id, object_count_mode=True)
    return CacheConfig(capacity_bytes=draw(st.sampled_from(byte_capacities)),
                       policy_id=policy_id)


def req(t, obj, size=100, cacheable=True):
    return TraceEvent(t, REQUEST, obj, size, cacheable)


def mod(t, obj, size=100):
    return TraceEvent(t, MODIFICATION, obj, size)


def recording(policy, log):
    """Append to `log` each document that leaves the copy table of
    `policy`, evicted or dropped, in the order they leave; call it before
    the run, which reads the table once."""

    class Recorded(type(policy.copies)):
        def pop(self, key, *default):
            if key in self:
                log.append(key)
            return super().pop(key, *default)

        def popitem(self, *args, **kwargs):
            item = super().popitem(*args, **kwargs)
            log.append(item[0])
            return item

        def __delitem__(self, key):
            super().__delitem__(key)
            log.append(key)

    policy.copies = Recorded(policy.copies)
