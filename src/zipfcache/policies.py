"""Replacement policies for the simulation engine.

A policy implements five operations the engine drives:

    on_hit(object_id, now)
    on_miss_admit(object_id, size, now) -> bool   admit decision
    choose_victims(bytes_needed, now) -> [ids]    eviction list
    on_modification_fetched(object_id, size, now)
    on_expire_stats(now)

The engine calls choose_victims whenever total occupancy exceeds
capacity or the policy has flagged `over_limit`; the returned objects
are gone and the policy must already have forgotten them.  A refetch of
a stale copy is delivered through on_modification_fetched and counts as
one access to the object.  Policies expose `accessory_bytes`; the
engine reports its occupancy net of `accessory_bytes` as kernel
occupancy.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque

import numpy as np

__all__ = [
    "POLICY_IDS",
    "EvictionInfeasible",
    "LRUCache",
    "LFUCache",
    "FIFOCache",
    "ZBSCache",
    "make_policy",
]

DAY = 86400.0
MIN_RETENTION = 30 * DAY
MAX_RETENTION = 183 * DAY

POLICY_IDS = ("zbs", "zbs-byte", "lru", "lfu", "fifo")


class EvictionInfeasible(RuntimeError):
    """The policy cannot free the requested space."""


class _SingleArea:
    """Shared skeleton of the one-area baseline policies.

    `entries` maps each resident document to its size, next victim
    first.  The engine's occupancy is the only byte total.
    """

    over_limit = False  # single-area policies only overflow engine capacity
    accessory_bytes = 0

    def __init__(self, capacity: float):
        self.capacity = capacity
        self.entries: OrderedDict[str, int] = OrderedDict()

    def on_hit(self, obj: str, now: float) -> None:
        pass

    def on_miss_admit(self, obj: str, size: int, now: float) -> bool:
        if size > self.capacity:
            return False
        self.entries[obj] = size
        return True

    def on_modification_fetched(self, obj: str, size: int, now: float) -> None:
        self.entries[obj] = size

    def _pop_victim(self) -> tuple[str, int]:
        return self.entries.popitem(last=False)

    def choose_victims(self, bytes_needed: float, now: float) -> list[str]:
        victims: list[str] = []
        while bytes_needed > 0:
            if not self.entries:
                raise EvictionInfeasible("cache empty but space still needed")
            obj, size = self._pop_victim()
            bytes_needed -= size
            victims.append(obj)
        return victims

    def force_forget(self, obj: str) -> None:
        del self.entries[obj]

    def on_expire_stats(self, now: float) -> None:
        pass


class FIFOCache(_SingleArea):
    """Evict in admission order; requests never refresh position."""


class LRUCache(_SingleArea):
    """Evict the least recently used document."""

    def on_hit(self, obj: str, now: float) -> None:
        self.entries.move_to_end(obj)

    def on_modification_fetched(self, obj: str, size: int, now: float) -> None:
        self.entries[obj] = size
        self.entries.move_to_end(obj)


class LFUCache(_SingleArea):
    """Evict the least frequently used document, oldest access first on ties.

    Frequency is counted per residency; it does not survive eviction.
    """

    def __init__(self, capacity: float):
        super().__init__(capacity)
        self.entries: dict[str, list] = {}  # obj -> [size, freq]
        self.buckets: dict[int, OrderedDict[str, None]] = {}
        self.min_freq = 0

    def _bump(self, obj: str) -> None:
        entry = self.entries[obj]
        freq = entry[1]
        bucket = self.buckets[freq]
        del bucket[obj]
        if not bucket:
            del self.buckets[freq]
            if self.min_freq == freq:
                self.min_freq = freq + 1
        entry[1] = freq + 1
        self.buckets.setdefault(freq + 1, OrderedDict())[obj] = None

    def on_hit(self, obj: str, now: float) -> None:
        self._bump(obj)

    def on_miss_admit(self, obj: str, size: int, now: float) -> bool:
        if size > self.capacity:
            return False
        self.entries[obj] = [size, 1]
        self.buckets.setdefault(1, OrderedDict())[obj] = None
        self.min_freq = 1
        return True

    def on_modification_fetched(self, obj: str, size: int, now: float) -> None:
        self.entries[obj][0] = size
        self._bump(obj)

    def _pop_victim(self) -> tuple[str, int]:
        while self.min_freq not in self.buckets:
            self.min_freq += 1
        bucket = self.buckets[self.min_freq]
        obj, _ = bucket.popitem(last=False)
        if not bucket:
            del self.buckets[self.min_freq]
        return obj, self.entries.pop(obj)[0]

    def force_forget(self, obj: str) -> None:
        freq = self.entries.pop(obj)[1]
        bucket = self.buckets[freq]
        del bucket[obj]
        if not bucket:
            del self.buckets[freq]


class _KernelEntry:
    __slots__ = ("theta", "last_modified", "size", "admitted_at", "seq", "slot")

    def __init__(self, theta, last_modified, size, admitted_at, seq, slot):
        self.theta = theta
        self.last_modified = last_modified
        self.size = size
        self.admitted_at = admitted_at
        self.seq = seq
        self.slot = slot


class _Stats:
    """Per-document request counts at day granularity."""

    __slots__ = ("days", "total", "last_seen")

    def __init__(self):
        self.days: deque = deque()  # [day_index, count] pairs
        self.total = 0
        self.last_seen = 0.0

    def window_total(self, now: float, retention: float) -> int:
        cutoff = int((now - retention) // DAY)
        days = self.days
        while days and days[0][0] < cutoff:
            self.total -= days.popleft()[1]
        return self.total


class ZBSCache:
    """Two-area policy driven by long-horizon Zipf request statistics.

    The cache splits into a kernel for documents requested at least
    twice, a small accessory area (at most `accessory_fraction` of
    capacity) that absorbs first-time requests, and a management record
    of per-document request counts kept for `retention` seconds, which
    survives eviction.

    Placement: a first-ever request is admitted to the accessory area
    (FIFO eviction).  A second request promotes the document to the
    kernel with theta = 2; if the document was meanwhile evicted but its
    statistics still show a request inside the retention window, it is
    re-admitted directly to the kernel.  A stale document that gets
    re-fetched (on demand or by prefetch) is stored in the kernel with
    theta reset to 1.

    Kernel eviction removes the document with the largest staleness
    metric C = T_z / theta, where T_z is the time since the copy was
    fetched or last refreshed; in byte mode the metric is divided by the
    document size, favouring small popular documents per byte.  Ties
    evict the oldest admission first.

    The kernel index is one slot per kernel document holding its fetch
    time lm and its weight w = 1/theta (1/(theta * size) in byte mode),
    so C = (now - lm) * w.  C ages with `now` and no static order holds
    it, but `now` is fixed within one eviction round: the round scores
    every slot once and takes each victim by argmax over those scores.
    """

    def __init__(
        self,
        capacity: float,
        accessory_fraction: float = 0.10,
        retention: float = MAX_RETENTION,
        byte_metric: bool = False,
    ):
        self.capacity = capacity
        if math.isinf(capacity):
            self.acc_cap = self.kern_cap = math.inf
        else:
            self.acc_cap = accessory_fraction * capacity
            self.kern_cap = capacity - self.acc_cap
        self.retention = retention
        self.byte_metric = byte_metric
        self.kernel: dict[str, _KernelEntry] = {}
        self.accessory: OrderedDict[str, list] = OrderedDict()  # [size, admitted_at]
        self.stats: dict[str, _Stats] = {}
        self.kernel_bytes = 0
        self.accessory_bytes = 0
        self.peak_accessory_bytes = 0
        self.over_limit = False
        self._seq = 0
        self._start: float | None = None
        # Slot i holds lm and w of document _slot_obj[i]; a free slot holds
        # None and lm = inf, so it scores -inf.  _c is the score buffer.
        self._slot_obj: list = []
        self._free: list[int] = []
        self._lm = np.full(1024, math.inf)
        self._w = np.ones(1024)
        self._c = np.empty(1024)

    # -- statistics ---------------------------------------------------

    def _note_request(self, obj: str, now: float) -> None:
        st = self.stats.get(obj)
        if st is None:
            if self._start is None:
                self._start = now
            st = self.stats[obj] = _Stats()
        day = int(now // DAY)
        days = st.days
        if days and days[-1][0] == day:
            days[-1][1] += 1
        else:
            days.append([day, 1])
        st.total += 1
        st.last_seen = now

    def on_expire_stats(self, now: float) -> None:
        if self._start is None or now - self._start <= self.retention:
            return
        cutoff = now - self.retention
        drop = [
            obj
            for obj, st in self.stats.items()
            if st.last_seen < cutoff and obj not in self.kernel and obj not in self.accessory
        ]
        for obj in drop:
            del self.stats[obj]

    # -- kernel index -------------------------------------------------

    def _index(self, entry: _KernelEntry) -> None:
        i = entry.slot
        self._lm[i] = entry.last_modified
        self._w[i] = 1.0 / (entry.theta * entry.size if self.byte_metric else entry.theta)

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

    def _admit_kernel(self, obj: str, size: int, now: float, theta: int,
                      last_modified: float, admitted_at: float) -> None:
        self._seq += 1
        entry = _KernelEntry(theta, last_modified, size, admitted_at, self._seq,
                             self._take_slot(obj))
        self.kernel[obj] = entry
        self._index(entry)
        self.kernel_bytes += size
        if self.kernel_bytes > self.kern_cap:
            self.over_limit = True

    def on_miss_admit(self, obj: str, size: int, now: float) -> bool:
        st = self.stats.get(obj)
        prior = st.window_total(now, self.retention) if st is not None else 0
        self._note_request(obj, now)
        if prior >= 1:
            if size > self.kern_cap:
                return False
            self._admit_kernel(obj, size, now, prior + 1, now, now)
        else:
            if size > self.acc_cap:
                return False
            self.accessory[obj] = [size, now]
            self.accessory_bytes += size
            if self.accessory_bytes > self.acc_cap:
                self.over_limit = True
            elif self.accessory_bytes > self.peak_accessory_bytes:
                # Peak tracks settled states; an over-limit admission is
                # drained within the same event before it can be observed.
                self.peak_accessory_bytes = self.accessory_bytes
        return True

    def on_hit(self, obj: str, now: float) -> None:
        self._note_request(obj, now)
        entry = self.kernel.get(obj)
        if entry is not None:
            entry.theta += 1
            self._index(entry)
            return
        acc = self.accessory.pop(obj, None)
        if acc is None:
            return
        size, admitted_at = acc
        self.accessory_bytes -= size
        if size > self.kern_cap:
            # A document too large for the kernel stays in the accessory
            # area rather than vanish on its second request.
            self.accessory[obj] = acc
            self.accessory_bytes += size
            return
        self._admit_kernel(obj, size, now, 2, admitted_at, admitted_at)

    def on_modification_fetched(self, obj: str, size: int, now: float) -> None:
        self._note_request(obj, now)
        entry = self.kernel.get(obj)
        if entry is not None:
            self.kernel_bytes += size - entry.size
            entry.size = size
            entry.theta = 1
            entry.last_modified = now
            self._index(entry)
        else:
            acc = self.accessory.pop(obj, None)
            if acc is None:
                return
            self.accessory_bytes -= acc[0]
            self._admit_kernel(obj, size, now, 1, now, acc[1])
        if self.kernel_bytes > self.kern_cap:
            self.over_limit = True

    def force_forget(self, obj: str) -> None:
        entry = self.kernel.pop(obj, None)
        if entry is not None:
            self.kernel_bytes -= entry.size
            self._release_slot(entry.slot)
            return
        acc = self.accessory.pop(obj, None)
        if acc is not None:
            self.accessory_bytes -= acc[0]

    # -- eviction -----------------------------------------------------

    def metric(self, obj: str, now: float) -> float:
        """Staleness metric C of a kernel-resident document."""
        e = self.kernel[obj]
        return float((now - e.last_modified) * self._w[e.slot])

    def _evict_kernel(self, now: float, victims: list[str]) -> None:
        n = len(self._slot_obj)
        c = self._c[:n]
        np.subtract(now, self._lm[:n], out=c)
        c *= self._w[:n]
        kernel = self.kernel
        slot_obj = self._slot_obj
        i = int(c.argmax())
        while self.kernel_bytes > self.kern_cap:
            best = c.item(i)
            if best == -math.inf:
                raise EvictionInfeasible("kernel empty but space still needed")
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

    def choose_victims(self, bytes_needed: float, now: float) -> list[str]:
        victims: list[str] = []
        while self.accessory_bytes > self.acc_cap:
            obj, (size, _) = self.accessory.popitem(last=False)
            self.accessory_bytes -= size
            victims.append(obj)
        if self.accessory_bytes > self.peak_accessory_bytes:
            self.peak_accessory_bytes = self.accessory_bytes
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
    if pid in ("zbs", "zbs-byte"):
        retention = config.stats_retention_seconds
        if retention is None:
            retention = MAX_RETENTION
        return ZBSCache(
            capacity,
            accessory_fraction=config.accessory_fraction,
            retention=retention,
            byte_metric=pid == "zbs-byte",
        )
    raise ValueError(f"unknown policy {pid!r}; valid ids: {', '.join(POLICY_IDS)}")
