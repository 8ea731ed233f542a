"""Replacement policies for the simulation engine.

A policy implements five operations the engine drives; `index` is the
request's position in the trace that `note_start` got:

    note_start(trace)                                       before the first event
    on_hit(object_id, now)
    on_miss_admit(object_id, size, now, index) -> bool      admitted
    choose_victims(now) -> [ids]                            evicted
    on_modification_fetched(object_id, size, now) -> bool   still resident

The policy is the one ledger of resident bytes: it keeps each copy's size
as the engine passes it (1 in count mode) and the totals `kernel_bytes`
and `accessory_bytes` (0 for one-area policies).  It sets `over_limit`
when an admission or a refetch takes an area over its cap; the engine
then calls choose_victims, which evicts until every area is within its
cap and clears the flag.  A refetch of a stale copy counts as one access;
it returns False when the new size exceeds the area the copy would
occupy, and the copy is then already dropped.
"""

from __future__ import annotations

import math
from collections import OrderedDict, defaultdict
from dataclasses import dataclass

import numpy as np

from .analytic import DAY
from .trace import Trace, _doc_order

__all__ = [
    "POLICY_IDS",
    "LRUCache",
    "LFUCache",
    "FIFOCache",
    "ZBSCache",
    "make_policy",
]

MIN_RETENTION = 30 * DAY
MAX_RETENTION = 183 * DAY

POLICY_IDS = ("zbs", "zbs-byte", "lru", "lfu", "fifo")


class _SingleArea:
    """Shared skeleton of the one-area baseline policies.

    `entries` maps each resident document to its size, next victim
    first, and `kernel_bytes` is their sum.
    """

    accessory_bytes = 0

    def __init__(self, capacity: float):
        self.capacity = capacity
        self.entries: OrderedDict[str, int] = OrderedDict()
        self.kernel_bytes = 0
        self.over_limit = False

    def note_start(self, trace: Trace) -> None:
        pass

    def on_hit(self, obj: str, now: float) -> None:
        pass

    def on_miss_admit(self, obj: str, size: int, now: float, i: int) -> bool:
        if size > self.capacity:
            return False
        self.entries[obj] = size
        self.kernel_bytes += size
        self.over_limit = self.kernel_bytes > self.capacity
        return True

    def on_modification_fetched(self, obj: str, size: int, now: float) -> bool:
        if size > self.capacity:
            self.kernel_bytes -= self._remove(obj)
            return False
        self.kernel_bytes += size - self._resize(obj, size)
        self.over_limit = self.kernel_bytes > self.capacity
        return True

    def _resize(self, obj: str, size: int) -> int:
        """Store the refetched copy's size and return the old one."""
        old = self.entries[obj]
        self.entries[obj] = size
        return old

    def _remove(self, obj: str) -> int:
        return self.entries.pop(obj)

    def _pop_victim(self) -> tuple[str, int]:
        return self.entries.popitem(last=False)

    def choose_victims(self, now: float) -> list[str]:
        victims: list[str] = []
        # kernel_bytes sums the entries, so over the cap there is one to pop.
        while self.kernel_bytes > self.capacity:
            obj, size = self._pop_victim()
            self.kernel_bytes -= size
            victims.append(obj)
        self.over_limit = False
        return victims

    # No engine calls it; perfbench/tracing.py wraps it by name (ROADMAP item 3).
    def on_expire_stats(self, now: float) -> None:
        pass


class FIFOCache(_SingleArea):
    """Evict in admission order; requests never refresh position."""


class LRUCache(_SingleArea):
    """Evict the least recently used document."""

    def on_hit(self, obj: str, now: float) -> None:
        self.entries.move_to_end(obj)

    def _resize(self, obj: str, size: int) -> int:
        old = self.entries.pop(obj)
        self.entries[obj] = size  # to the most recent end
        return old


class LFUCache(_SingleArea):
    """Evict the least frequently used document, oldest access first on ties.

    Frequency is counted per residency; it does not survive eviction.
    """

    def __init__(self, capacity: float):
        super().__init__(capacity)
        self.entries: dict[str, list] = {}  # obj -> [size, freq]
        # freq -> its documents, oldest access first; a lookup of a new
        # frequency makes its bucket.
        self.buckets: defaultdict[int, OrderedDict[str, None]] = defaultdict(OrderedDict)
        self.min_freq = 0  # at most the least frequency held; victims advance it

    def _bump(self, obj: str) -> None:
        entry = self.entries[obj]
        freq = entry[1]
        bucket = self.buckets[freq]
        del bucket[obj]
        if not bucket:
            del self.buckets[freq]
        entry[1] = freq + 1
        self.buckets[freq + 1][obj] = None

    def on_hit(self, obj: str, now: float) -> None:
        self._bump(obj)

    def on_miss_admit(self, obj: str, size: int, now: float, i: int) -> bool:
        if size > self.capacity:
            return False
        self.entries[obj] = [size, 1]
        self.buckets[1][obj] = None
        self.min_freq = 1
        self.kernel_bytes += size
        self.over_limit = self.kernel_bytes > self.capacity
        return True

    def _resize(self, obj: str, size: int) -> int:
        entry = self.entries[obj]
        old = entry[0]
        entry[0] = size
        self._bump(obj)
        return old

    def _pop_victim(self) -> tuple[str, int]:
        while self.min_freq not in self.buckets:
            self.min_freq += 1
        bucket = self.buckets[self.min_freq]
        obj, _ = bucket.popitem(last=False)
        if not bucket:
            del self.buckets[self.min_freq]
        return obj, self.entries.pop(obj)[0]

    def _remove(self, obj: str) -> int:
        size, freq = self.entries.pop(obj)
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


@dataclass(slots=True)
class _KernelEntry:
    theta: int
    size: int
    admitted_at: float
    seq: int
    slot: int


class ZBSCache:
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
        self.acc_cap = accessory_fraction * capacity
        self.kern_cap = capacity - self.acc_cap if math.isfinite(capacity) else math.inf
        self.retention = retention
        self.byte_metric = byte_metric
        self.kernel: dict[str, _KernelEntry] = {}
        self.accessory: OrderedDict[str, list] = OrderedDict()  # [size, admitted_at]
        self.window: memoryview | None = None  # by event index; see note_start
        self.kernel_bytes = 0
        self.accessory_bytes = 0
        self.over_limit = False
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

    # No engine calls it; perfbench/tracing.py wraps it by name (ROADMAP item 3).
    def on_expire_stats(self, now: float) -> None:
        pass

    # -- kernel index -------------------------------------------------

    def _weight(self, entry: _KernelEntry) -> float:
        return 1.0 / (entry.theta * entry.size if self.byte_metric else entry.theta)

    def _index(self, entry: _KernelEntry, last_modified: float) -> None:
        i = entry.slot
        self._lm[i] = last_modified
        self._w[i] = self._weight(entry)

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

    def _admit_kernel(self, obj: str, size: int, theta: int,
                      last_modified: float, admitted_at: float) -> None:
        self._seq += 1
        entry = _KernelEntry(theta, size, admitted_at, self._seq, self._take_slot(obj))
        self.kernel[obj] = entry
        self._index(entry, last_modified)
        self.kernel_bytes += size
        if self.kernel_bytes > self.kern_cap:
            self.over_limit = True

    def on_miss_admit(self, obj: str, size: int, now: float, i: int) -> bool:
        theta = self.window[i]
        if theta >= 2:
            if size > self.kern_cap:
                return False
            self._admit_kernel(obj, size, theta, now, now)
        else:
            if size > self.acc_cap:
                return False
            self.accessory[obj] = [size, now]
            self.accessory_bytes += size
            if self.accessory_bytes > self.acc_cap:
                self.over_limit = True
        return True

    def on_hit(self, obj: str, now: float) -> None:
        entry = self.kernel.get(obj)
        if entry is not None:
            entry.theta += 1
            self._w[entry.slot] = self._weight(entry)
            return
        # A hit finds the copy resident: here, in the accessory area.
        size, admitted_at = self.accessory.pop(obj)
        self.accessory_bytes -= size
        self._admit_kernel(obj, size, 2, admitted_at, admitted_at)

    def on_modification_fetched(self, obj: str, size: int, now: float) -> bool:
        entry = self.kernel.get(obj)
        if size > self.kern_cap:  # the copy no longer fits the kernel: drop it
            if entry is None:
                self.accessory_bytes -= self.accessory.pop(obj)[0]
            else:
                self.kernel_bytes -= self.kernel.pop(obj).size
                self._release_slot(entry.slot)
            return False
        if entry is not None:
            self.kernel_bytes += size - entry.size
            entry.size = size
            entry.theta = 1
            self._index(entry, now)
        else:
            size_was, admitted_at = self.accessory.pop(obj)
            self.accessory_bytes -= size_was
            self._admit_kernel(obj, size, 1, now, admitted_at)
        if self.kernel_bytes > self.kern_cap:
            self.over_limit = True
        return True

    # -- eviction -----------------------------------------------------

    def _evict_kernel(self, now: float, victims: list[str]) -> None:
        n = len(self._slot_obj)
        c = self._c[:n]
        np.subtract(now, self._lm[:n], out=c)
        c *= self._w[:n]
        kernel = self.kernel
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
                victim = min(tied, key=lambda s: (kernel[slot_obj[s]].admitted_at,
                                                  kernel[slot_obj[s]].seq))
                tied.remove(victim)
                c[i] = best
                c[victim] = -math.inf
                i, j = victim, tied[0]
            obj = slot_obj[i]
            self.kernel_bytes -= kernel.pop(obj).size
            self._release_slot(i)
            victims.append(obj)
            i = j

    def choose_victims(self, now: float) -> list[str]:
        victims: list[str] = []
        while self.accessory_bytes > self.acc_cap:
            obj, (size, _) = self.accessory.popitem(last=False)
            self.accessory_bytes -= size
            victims.append(obj)
        if self.kernel_bytes > self.kern_cap:
            self._evict_kernel(now, victims)
        self.over_limit = False
        return victims


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
