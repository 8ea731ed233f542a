"""Replacement policies for the simulation engine.

A policy implements four operations the engine drives; `index` is the
request's position in the trace that `note_start` got:

    note_start(trace)                                       before the first event
    on_hit(object_id, now)
    on_miss_admit(object_id, size, now, index) -> bool      admitted
    on_modification_fetched(object_id, size, now)

The policy's `copies` maps each resident document to its record, and is
the one resident set of a run.  A record is a list whose first two
fields the engine and the prefetch layer read: the fresh flag, which the
engine keeps, and the index of the admitting event.  The size the engine
passes (1 in count mode) comes next, then the policy's own fields.  The
policy keeps the totals `kernel_bytes` and `accessory_bytes` (0 for
one-area policies) and counts `evictions`.  A call that takes an area
over its cap evicts, before it returns, until every area is within its
cap again.  A refetch of a stale copy counts as one access; a copy whose
new size exceeds the area it would occupy is dropped, and that counts as
an eviction.
"""

from __future__ import annotations

import math
from collections import OrderedDict, defaultdict

import numpy as np

from .analytic import DAY
from .trace import Trace, _doc_order

__all__ = [
    "POLICY_IDS",
    "SimulationError",
    "LRUCache",
    "LFUCache",
    "FIFOCache",
    "ZBSCache",
    "make_policy",
]

MIN_RETENTION = 30 * DAY
MAX_RETENTION = 183 * DAY

POLICY_IDS = ("zbs", "zbs-byte", "lru", "lfu", "fifo")


class SimulationError(RuntimeError):
    """The simulation cannot continue: a policy broke its capacity limits."""


class _Policy:
    """What every policy shares: the check that closes every eviction
    round, against `kern_cap` and `acc_cap`, the caps of the two areas,
    and `capacity`, that of the whole cache."""

    accessory_bytes = 0
    acc_cap = 0

    def note_start(self, trace: Trace) -> None:
        pass

    def _evict(self, now: float) -> None:
        """One eviction round: `_take_victims` until every area is within
        its cap, which a round that leaves an area over breaks off."""
        self._take_victims(now)
        if (self.kernel_bytes > self.kern_cap or self.accessory_bytes > self.acc_cap
                or self.kernel_bytes + self.accessory_bytes > self.capacity):
            raise SimulationError("policy failed to restore capacity limits")

    # No engine calls these; perfbench/tracing.py wraps them by name (ROADMAP item 3).
    def choose_victims(self, now: float) -> list[str]:
        return []

    def on_expire_stats(self, now: float) -> None:
        pass


class _SingleArea(_Policy):
    """Shared skeleton of the one-area baseline policies.

    `copies` maps each resident document to [fresh, admitted, size], next
    victim first, and `kernel_bytes` is the sum of their sizes.
    """

    def __init__(self, capacity: float):
        self.capacity = self.kern_cap = capacity
        self.copies: OrderedDict[str, list] = OrderedDict()
        self.kernel_bytes = 0
        self.evictions = 0

    def on_hit(self, obj: str, now: float) -> None:
        pass

    def on_miss_admit(self, obj: str, size: int, now: float, i: int) -> bool:
        capacity = self.capacity
        if size > capacity:
            return False
        self.copies[obj] = [True, i, size]
        self.kernel_bytes = held = self.kernel_bytes + size
        if held > capacity:
            self._evict(now)
        return True

    def on_modification_fetched(self, obj: str, size: int, now: float) -> None:
        if size > self.capacity:
            self.kernel_bytes -= self._remove(obj)
            self.evictions += 1
            return
        record = self._access(obj)
        self.kernel_bytes += size - record[2]
        record[2] = size
        if self.kernel_bytes > self.capacity:
            self._evict(now)

    def _access(self, obj: str) -> list:
        """The record of `obj`, whose copy a refetch has just accessed."""
        return self.copies[obj]

    def _remove(self, obj: str) -> int:
        return self.copies.pop(obj)[2]

    def _take_victims(self, now: float) -> None:
        copies = self.copies
        # kernel_bytes sums the copies, so over the cap there is one to pop.
        while self.kernel_bytes > self.capacity:
            self.kernel_bytes -= copies.popitem(False)[1][2]  # the oldest
            self.evictions += 1


class FIFOCache(_SingleArea):
    """Evict in admission order; requests never refresh position."""


class LRUCache(_SingleArea):
    """Evict the least recently used document."""

    def on_hit(self, obj: str, now: float) -> None:
        self.copies.move_to_end(obj)

    def _access(self, obj: str) -> list:
        self.copies.move_to_end(obj)
        return self.copies[obj]


class LFUCache(_SingleArea):
    """Evict the least frequently used document, oldest access first on ties.

    Frequency is counted per residency; it does not survive eviction.
    """

    def __init__(self, capacity: float):
        super().__init__(capacity)
        self.copies: dict[str, list] = {}  # obj -> [fresh, admitted, size, freq]
        # freq -> its documents, oldest access first; a lookup of a new
        # frequency makes its bucket.
        self.buckets: defaultdict[int, OrderedDict[str, None]] = defaultdict(OrderedDict)
        self.min_freq = 0  # at most the least frequency held; victims advance it

    def _bump(self, obj: str, record: list) -> None:
        freq = record[3]
        bucket = self.buckets[freq]
        del bucket[obj]
        if not bucket:
            del self.buckets[freq]
        record[3] = freq + 1
        self.buckets[freq + 1][obj] = None

    def on_hit(self, obj: str, now: float) -> None:
        self._bump(obj, self.copies[obj])

    def on_miss_admit(self, obj: str, size: int, now: float, i: int) -> bool:
        if size > self.capacity:
            return False
        self.copies[obj] = [True, i, size, 1]
        self.buckets[1][obj] = None
        self.min_freq = 1
        self.kernel_bytes += size
        if self.kernel_bytes > self.capacity:
            self._evict(now)
        return True

    def _access(self, obj: str) -> list:
        record = self.copies[obj]
        self._bump(obj, record)
        return record

    def _take_victims(self, now: float) -> None:
        buckets = self.buckets
        while self.kernel_bytes > self.capacity:
            while self.min_freq not in buckets:
                self.min_freq += 1
            bucket = buckets[self.min_freq]
            obj, _ = bucket.popitem(last=False)
            if not bucket:
                del buckets[self.min_freq]
            self.kernel_bytes -= self.copies.pop(obj)[2]
            self.evictions += 1

    def _remove(self, obj: str) -> int:
        _, _, size, freq = self.copies.pop(obj)
        bucket = self.buckets[freq]
        del bucket[obj]
        if not bucket:
            del self.buckets[freq]
        return size


def _days_below(days: np.ndarray, x: np.ndarray, dtype) -> np.ndarray:
    """For each value of the ascending `x`, the ascending `days` below it."""
    below = np.zeros(len(x) + 1, dtype)
    np.add.at(below, np.searchsorted(x, days, side="right"), 1)
    return np.cumsum(below, out=below)[:-1]


class ZBSCache(_Policy):
    """Two-area policy driven by long-horizon Zipf request statistics.

    The cache splits into a kernel for documents requested at least
    twice, and a small accessory area (at most `accessory_fraction` of
    capacity) that absorbs first-time requests.

    Placement: a request whose window count (see below), itself
    included, is at least 2 is admitted to the kernel with theta equal
    to that count; otherwise it goes to the accessory area (FIFO
    eviction).  A hit in the accessory area promotes the document to the
    kernel with theta = 2.  A stale document that gets re-fetched (on
    demand or by prefetch) is stored in the kernel with theta reset to
    1, or dropped if it outgrew the kernel.

    Kernel eviction removes the document with the largest staleness
    metric C = T_z / theta, where T_z is the time since the copy was
    fetched or last refreshed; in byte mode the metric is divided by the
    document size, favouring small popular documents per byte.  Ties
    evict the oldest admission first.

    The kernel index is one slot per kernel document holding its fetch
    time lm, the one copy of it, and its weight w = 1/theta
    (1/(theta * size) in byte mode), so C = (now - lm) * w.  C ages with
    `now` and no static order holds it, but `now` is fixed within one
    eviction round: the round scores every slot once and takes each
    victim by argmax over those scores.

    The window count of a request at t is its document's cacheable
    requests, refused ones included, on days (t // 86400) from the one
    holding t - retention up to this request.  A prefetch is not a
    request, so the count is a function of the trace: `note_start` reads
    it off one grouping by document and one search over (document, day).
    """

    def __init__(
        self,
        capacity: float,
        accessory_fraction: float = 0.10,
        retention: float = MAX_RETENTION,
        byte_metric: bool = False,
    ):
        self.capacity = capacity
        self.acc_cap = accessory_fraction * capacity
        self.kern_cap = capacity - self.acc_cap if math.isfinite(capacity) else math.inf
        self.retention = retention
        self.byte_metric = byte_metric
        # obj -> [fresh, admitted, size, slot, theta, admitted_at, seq]; a
        # copy in the accessory area has slot, theta and seq None.
        self.copies: dict[str, list] = {}
        self.accessory: OrderedDict[str, list] = OrderedDict()  # its records, oldest first
        self.window: memoryview | None = None  # by event index; see note_start
        self.kernel_bytes = 0
        self.accessory_bytes = 0
        self.evictions = 0
        self._seq = 0
        # Slot i holds lm and w of document _slot_obj[i]; a free slot holds
        # None and lm = inf, so it scores -inf.  _c is the score buffer.
        self._slot_obj: list = []
        self._free: list[int] = []
        self._lm = np.full(1024, math.inf)
        self._w = np.ones(1024)
        self._c = np.empty(1024)

    def note_start(self, trace: Trace) -> None:
        # Temporaries stay narrow and die young: their peak sets the cost.
        counted = (trace.kind == 0) & trace.cacheable
        order, first = _doc_order(trace.obj[counted])
        m = len(order)
        order = order.astype(np.int32 if m < 2**31 else np.int64, copy=False)
        # Each request's day, and its window's first day, as the count of
        # the requests' days below it; both columns ascend.
        day = np.floor_divide(trace.t[counted], DAY)
        days = np.r_[day[:1], day[1:][day[1:] != day[:-1]]]
        # A key (document group, day rank) is below (groups + 1) * days.
        key = np.int32 if (np.count_nonzero(first) + 1) * len(days) < 2**31 else np.int64
        rank = _days_below(days, day, key)
        del day
        t = trace.t[counted]
        t -= self.retention
        t //= DAY
        start = _days_below(days, t, key)
        del t
        # Keys ascend in grouped order, and each grouped position counts
        # from the first key at or after its start.
        group = np.cumsum(first, dtype=key)
        del first
        group *= len(days)
        rank = rank[order]
        rank += group
        start = start[order]
        start += group
        del group
        count = np.searchsorted(rank, start)
        del rank, start
        np.subtract(np.arange(1, m + 1), count, out=count)
        column = np.zeros(len(trace), np.min_scalar_type(int(count.max(initial=0))))
        in_order = np.empty(m, column.dtype)
        in_order[order] = count
        column[counted] = in_order
        self.window = memoryview(column)

    # -- kernel index -------------------------------------------------

    def _weight(self, record: list) -> float:
        return 1.0 / (record[4] * record[2] if self.byte_metric else record[4])

    def _take_slot(self, obj: str) -> int:
        if self._free:
            i = self._free.pop()
            self._slot_obj[i] = obj
            return i
        i = len(self._slot_obj)
        self._slot_obj.append(obj)
        if i == len(self._lm):
            self._lm = np.concatenate([self._lm, np.full(i, math.inf)])
            self._w = np.concatenate([self._w, np.ones(i)])
            self._c = np.empty(2 * i)
        return i

    def _release_slot(self, i: int) -> None:
        self._slot_obj[i] = None
        self._lm[i] = math.inf
        self._free.append(i)

    # -- placement ----------------------------------------------------

    def _to_kernel(self, obj: str, record: list, theta: int, last_modified: float,
                   now: float) -> None:
        """Place `record`, of a copy outside the kernel, in the kernel, and
        evict if that takes the kernel over its cap."""
        self._seq += 1
        record[3] = slot = self._take_slot(obj)
        record[4] = theta
        record[6] = self._seq
        self._lm[slot] = last_modified
        self._w[slot] = self._weight(record)
        self.kernel_bytes += record[2]
        if self.kernel_bytes > self.kern_cap:
            self._evict(now)

    def on_miss_admit(self, obj: str, size: int, now: float, i: int) -> bool:
        theta = self.window[i]
        if theta >= 2:
            if size > self.kern_cap:
                return False
            record = self.copies[obj] = [True, i, size, None, None, now, None]
            self._to_kernel(obj, record, theta, now, now)
        else:
            if size > self.acc_cap:
                return False
            self.copies[obj] = self.accessory[obj] = [True, i, size, None, None, now, None]
            self.accessory_bytes += size
            if self.accessory_bytes > self.acc_cap:
                self._evict(now)
        return True

    def on_hit(self, obj: str, now: float) -> None:
        record = self.copies[obj]
        slot = record[3]
        if slot is not None:
            record[4] += 1
            self._w[slot] = self._weight(record)
            return
        # The copy is in the accessory area; it joins the kernel.
        del self.accessory[obj]
        self.accessory_bytes -= record[2]
        self._to_kernel(obj, record, 2, record[5], now)

    def on_modification_fetched(self, obj: str, size: int, now: float) -> None:
        record = self.copies[obj]
        slot = record[3]
        if size > self.kern_cap:  # the copy no longer fits the kernel: drop it
            del self.copies[obj]
            if slot is None:
                del self.accessory[obj]
                self.accessory_bytes -= record[2]
            else:
                self.kernel_bytes -= record[2]
                self._release_slot(slot)
            self.evictions += 1
            return
        if slot is None:
            del self.accessory[obj]
            self.accessory_bytes -= record[2]
            record[2] = size
            self._to_kernel(obj, record, 1, now, now)
            return
        self.kernel_bytes += size - record[2]
        record[2] = size
        record[4] = 1
        self._lm[slot] = now
        self._w[slot] = self._weight(record)
        if self.kernel_bytes > self.kern_cap:
            self._evict(now)

    # -- eviction -----------------------------------------------------

    def _evict_kernel(self, now: float) -> None:
        n = len(self._slot_obj)
        c = self._c[:n]
        np.subtract(now, self._lm[:n], out=c)
        c *= self._w[:n]
        copies = self.copies
        slot_obj = self._slot_obj
        i = int(c.argmax())
        # Over the cap the kernel holds a copy, and a held copy scores at
        # least 0 (lm <= now, w > 0), above the -inf of a free slot or of
        # a victim already taken.
        while self.kernel_bytes > self.kern_cap:
            best = c.item(i)
            c[i] = -math.inf
            # The next argmax is the next victim, unless it ties with this
            # one; then the earliest admission (then sequence) goes first.
            j = int(c.argmax())
            if c.item(j) == best:
                tied = np.flatnonzero(c == best).tolist()
                tied.append(i)
                victim = min(tied, key=lambda s: copies[slot_obj[s]][5:])
                tied.remove(victim)
                c[i] = best
                c[victim] = -math.inf
                i, j = victim, tied[0]
            self.kernel_bytes -= copies.pop(slot_obj[i])[2]
            self._release_slot(i)
            self.evictions += 1
            i = j

    def _take_victims(self, now: float) -> None:
        while self.accessory_bytes > self.acc_cap:
            obj, record = self.accessory.popitem(last=False)
            del self.copies[obj]
            self.accessory_bytes -= record[2]
            self.evictions += 1
        if self.kernel_bytes > self.kern_cap:
            self._evict_kernel(now)


def make_policy(config) -> object:
    """Build the policy named by `config.policy_id` for the engine."""
    capacity = config.capacity_bytes
    pid = config.policy_id
    if pid == "lru":
        return LRUCache(capacity)
    if pid == "lfu":
        return LFUCache(capacity)
    if pid == "fifo":
        return FIFOCache(capacity)
    # "zbs" or "zbs-byte": a `CacheConfig` names no other policy.
    return ZBSCache(
        capacity,
        accessory_fraction=config.accessory_fraction,
        retention=config.stats_retention_seconds,
        byte_metric=pid == "zbs-byte",
    )
