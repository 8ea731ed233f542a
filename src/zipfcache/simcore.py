"""Trace-driven cache simulation engine.

The engine owns residency and freshness; replacement decisions and the
byte accounting of resident copies live in policy objects (see
`policies`).  Semantics:

* The events are a valid `Trace` (see `trace.Trace`); service and fetch
  latency are zero.
* A request to a fresh resident copy is a hit.  A request to a stale
  resident copy is a miss that immediately refetches the document in
  place (counted in `stale_refetches` and `demand_bytes`).
* A modification event only marks a resident copy stale; no traffic
  happens until the next request (or a prefetch refetch).
* Non-cacheable requests always miss, fetch from origin and are never
  admitted; cacheable misses are offered to the policy for admission.
* Capacity is accounted in bytes (set `object_count_mode` to count every
  document as one unit instead).

Both entry points take a `Trace` and `CacheConfig`s, each valid once
built, and check neither again.  Each run writes an outcome column, one
code per event (see `_codes`), which its report reduces against the
trace's columns.  `simulate` writes it by replaying the events one at a
time.  The policy and a prefetch layer (see `prefetch`) get the trace
when the replay starts; an admission names its index in it, and the
layer is called at each modification of a resident copy, with its
ordinal, and at each tick it names.
`simulate_many` gives the reports of many runs and alone decides how
each is computed: an LRU run without a prefetch layer reads its column
off one pass of stack distances (Mattson et al. 1970), where a request
hits at capacity C exactly when its stack distance is at most C.  The
pass is exact only when every cacheable request is admitted and each
document is requested at one size (in byte mode); every other run is
replayed by `simulate`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .analytic import DomainError
from .trace import _ROWS_PER_CHUNK, Trace, _doc_order
from . import policies

__all__ = [
    "SimulationError",
    "CacheConfig",
    "SimReport",
    "simulate",
    "simulate_many",
]

_INT64_MAX = int(np.iinfo(np.int64).max)


class SimulationError(RuntimeError):
    """The simulation cannot continue: a policy broke its capacity limits."""


@dataclass(frozen=True)
class CacheConfig:
    """One cache to simulate; a setting no run can use is refused with
    `DomainError` when the config is built."""

    capacity_bytes: float = math.inf
    policy_id: str = "lru"
    accessory_fraction: float = 0.10
    stats_retention_seconds: float = policies.MAX_RETENTION
    object_count_mode: bool = False

    def __post_init__(self) -> None:
        if not self.capacity_bytes > 0:
            raise DomainError(f"capacity must be > 0, got {self.capacity_bytes!r}")
        if not (0.0 < self.accessory_fraction <= 0.10):
            raise DomainError(
                f"accessory_fraction must be in (0, 0.10], got {self.accessory_fraction!r}"
            )
        lo, hi = policies.MIN_RETENTION, policies.MAX_RETENTION
        if not (lo <= self.stats_retention_seconds <= hi):
            raise DomainError(f"stats retention must be within [{lo:g}, {hi:g}] seconds")
        if self.policy_id not in policies.POLICY_IDS:
            raise DomainError(
                f"unknown policy {self.policy_id!r}; valid ids: "
                + ", ".join(policies.POLICY_IDS)
            )
        if self.policy_id == "zbs-byte" and self.object_count_mode:
            # Every copy counts 1 there, so w = 1/(theta * 1) is zbs's own weight.
            raise DomainError("the byte metric of policy 'zbs-byte' has no effect in "
                              "object count mode; use policy 'zbs'")


@dataclass(frozen=True)
class SimReport:
    """Counters of one simulation run; all byte fields are origin bytes."""

    requests: int
    cacheable_requests: int
    hits: int
    hit_ratio: float
    byte_hit_ratio: float
    unique_docs: int
    two_plus_docs: int
    evictions: int
    stale_refetches: int
    prefetch_fetches: int
    demand_bytes: int
    prefetch_bytes: int
    kernel_occupancy_bytes: int
    accessory_occupancy_bytes: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _exact_sum(values: np.ndarray) -> int:
    """The sum of a column of sizes, each at least 1, as a Python int,
    never wrapped."""
    n = len(values)
    if n == 0:
        return 0
    if int(values.max()) <= _INT64_MAX // n:
        return int(values.sum())
    return sum(values.tolist())


# What became of each event of a run: one byte each in its outcome column.
MISS, MODIFIED, NOT_CACHEABLE, HIT, STALE, REFUSED = range(6)


def _codes(kind: np.ndarray, cacheable: np.ndarray) -> np.ndarray:
    """The outcome column as far as the trace decides it: MISS (admitted)
    at each cacheable request, which a policy may turn into HIT, STALE (a
    stale copy refetched in place) or REFUSED (not admitted)."""
    code = kind.astype(np.uint8)
    code[(kind == 0) & ~cacheable] = NOT_CACHEABLE
    return code


def _request_totals(trace: Trace) -> tuple[int, int, int, int, int]:
    """What no policy decides: the trace's requests, their bytes, its
    cacheable requests, and the documents with one or more of those and
    with two or more."""
    request = trace.kind == 0
    per_doc = np.bincount(trace.obj[request & trace.cacheable])
    return (int(np.count_nonzero(request)), _exact_sum(trace.size[request]),
            int(per_doc.sum()), int(np.count_nonzero(per_doc)),
            int(np.count_nonzero(per_doc >= 2)))


def _report(trace: Trace, totals: tuple, outcome: np.ndarray, evictions: int,
            prefetch_fetches: int, prefetch_bytes: int, kernel_bytes: int,
            accessory_bytes: int) -> SimReport:
    """The report of a run: what the policy decided comes from its outcome
    column (see `_codes`), the rest from the trace's `_request_totals`."""
    requests, requested_bytes, cacheable_requests, unique_docs, two_plus_docs = totals
    hit = outcome == HIT
    hits = int(np.count_nonzero(hit))
    hit_bytes = _exact_sum(trace.size[hit])
    # Every request is a hit or fetched on demand: a miss, a stale
    # refetch, or not cacheable.
    return SimReport(
        requests=requests,
        cacheable_requests=cacheable_requests,
        hits=hits,
        hit_ratio=hits / requests if requests else 0.0,
        byte_hit_ratio=hit_bytes / requested_bytes if requested_bytes else 0.0,
        unique_docs=unique_docs,
        two_plus_docs=two_plus_docs,
        evictions=evictions,
        stale_refetches=int(np.count_nonzero(outcome == STALE)),
        prefetch_fetches=prefetch_fetches,
        demand_bytes=requested_bytes - hit_bytes,
        prefetch_bytes=prefetch_bytes,
        kernel_occupancy_bytes=int(kernel_bytes),
        accessory_occupancy_bytes=int(accessory_bytes),
    )


def _rows(trace: Trace):
    """(index, timestamp, code, object id, size) of the events, as plain
    values a chunk at a time; the code is MISS, MODIFIED or
    NOT_CACHEABLE (see `_codes`)."""
    ids = np.array(trace.ids, dtype=object)

    def chunk(lo: int):
        part = slice(lo, lo + _ROWS_PER_CHUNK)
        code = _codes(trace.kind[part], trace.cacheable[part])
        return zip(range(lo, lo + len(code)), trace.t[part].tolist(), code.tolist(),
                   ids[trace.obj[part]].tolist(), trace.size[part].tolist())

    return chain.from_iterable(map(chunk, range(0, len(trace), _ROWS_PER_CHUNK)))


class _Engine:
    def __init__(self, config: CacheConfig, prefetch_layer=None):
        self.capacity = config.capacity_bytes
        self.count_mode = config.object_count_mode
        self.policy = policies.make_policy(config)
        self.layer = prefetch_layer
        # object_id -> [fresh, admitted]; `admitted` is the index of the
        # admitting event, so it is unique and increasing in the dict's order.
        self.resident: dict[str, list] = {}
        self.evictions = 0
        self.prefetch_fetches = 0
        self.prefetch_bytes = 0

    def _drain(self, now: float) -> None:
        policy = self.policy
        victims = policy.choose_victims(now)
        for v in victims:
            del self.resident[v]
        self.evictions += len(victims)
        if policy.over_limit or policy.kernel_bytes + policy.accessory_bytes > self.capacity:
            raise SimulationError("policy failed to restore capacity limits")

    def _refetch(self, obj: str, size: int, now: float) -> None:
        """Re-fetch a stale resident copy in place at its current size; a
        copy that no longer fits the cache at all is dropped."""
        if self.policy.on_modification_fetched(obj, 1 if self.count_mode else size, now):
            self.resident[obj][0] = True
        else:
            del self.resident[obj]
            self.evictions += 1
        if self.policy.over_limit:
            self._drain(now)

    def _prefetch(self, obj: str, size: int, now: float) -> None:
        self.prefetch_fetches += 1
        self.prefetch_bytes += size
        self._refetch(obj, size, now)

    def run(self, trace: Trace) -> SimReport:
        policy = self.policy
        on_hit, on_miss_admit = policy.on_hit, policy.on_miss_admit
        resident = self.resident
        count_mode = self.count_mode
        layer = self.layer
        policy.note_start(trace)
        next_tick = math.inf  # the layer's next tick; no layer, no tick
        if len(trace) and layer is not None:
            layer.note_start(trace)
        modified = 0  # the modifications so far
        # The trace decides every outcome but those of cacheable requests.
        self.outcome = outcome = bytearray(_codes(trace.kind, trace.cacheable))
        for i, now, code, obj, size in _rows(trace):
            while now >= next_tick:
                for due, due_size in layer.tick_refetches(next_tick, resident):
                    if due in resident:
                        self._prefetch(due, due_size, next_tick)
                next_tick = layer.next_tick

            if code == MISS:  # a cacheable request
                entry = resident.get(obj)
                if entry is not None:
                    if entry[0]:
                        outcome[i] = HIT
                        on_hit(obj, now)
                        if policy.over_limit:
                            self._drain(now)
                    else:
                        outcome[i] = STALE
                        self._refetch(obj, size, now)
                else:
                    acct = 1 if count_mode else size
                    if on_miss_admit(obj, acct, now, i):
                        resident[obj] = [True, i]
                        if policy.over_limit:
                            self._drain(now)
                    else:
                        outcome[i] = REFUSED
            elif code == MODIFIED:
                entry = resident.get(obj)
                if entry is not None:
                    entry[0] = False
                    if layer is not None:
                        if layer.on_modification(obj, size, now, modified):
                            self._prefetch(obj, size, now)
                        next_tick = layer.next_tick
                modified += 1
        return _report(
            trace, _request_totals(trace), np.asarray(outcome), evictions=self.evictions,
            prefetch_fetches=self.prefetch_fetches, prefetch_bytes=self.prefetch_bytes,
            kernel_bytes=policy.kernel_bytes, accessory_bytes=policy.accessory_bytes,
        )


def simulate(trace: Trace, config: CacheConfig, prefetch_layer=None) -> SimReport:
    """Replay a trace against one cache configuration.

    `prefetch_layer` is a new `prefetch.PrefetchLayer` for each call, or
    None.  Identical inputs produce identical reports; there is no hidden
    clock or nondeterministic state.
    """
    return _Engine(config, prefetch_layer).run(trace)


def _dominance_sums(key: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """F[i] = the sum of weight[j] over j < i with key[j] < key[i], for
    every i whose key no other index shares; keys are >= 0, in an integer
    dtype that also holds every index.

    A bottom-up merge sort over the index, one level per NumPy pass.  At
    the level of blocks of s indices, block pair b holds indices
    [2bs, 2bs + 2s) sorted by key; every index of its right half gains
    the weights of the left half's smaller keys.  Summed over the levels
    that counts each j < i exactly once: at the level where i and j first
    share a block pair.  Only the order and the sums travel from level to
    level; keys and weights are read through the order.
    """
    m = len(key)
    index = np.arange(m, dtype=key.dtype)
    sums = np.zeros(m, dtype=np.int64)
    span = np.int64(int(key.max()) + 1 if m else 1)
    shift = 0
    while (1 << shift) < m:
        pair_key = (index >> (shift + 1)).astype(np.int64)
        pair_key *= span
        pair_key += key[index]
        # Each pair holds two sorted halves, which a stable sort merges.
        order = np.argsort(pair_key, kind="stable")
        del pair_key
        index = index[order]
        sums = sums[order]
        del order
        right = ((index >> shift) & 1) == 1
        below = weight[index].astype(np.int64)
        below[right] = 0
        np.cumsum(below, out=below)  # at a right position: left weights before it
        # ... less those before its pair
        step = 2 << shift
        base = np.r_[0, below[step - 1:m - 1:step]]
        whole = m - m % step
        below[:whole].reshape(-1, step)[...] -= base[:whole // step, None]
        if whole < m:
            below[whole:] -= base[-1]
        below *= right
        sums += below
        del below, right, base
        shift += 1
    out = np.empty(m, dtype=np.int64)
    out[index] = sums
    return out


class _LRUCurve:
    """The outcome column (see `_codes`), evictions and occupancy of LRU
    at any capacity, from the stack distances of one trace.

    With every cacheable request admitted and one size per document, LRU
    at capacity C holds the longest prefix of the recency stack whose
    sizes sum to at most C (Mattson et al. 1970).  A request with a
    previous one finds its copy resident exactly when its stack distance,
    the size sum of the stack down to it, is at most C.  It is a HIT if
    no modification came in between and a STALE refetch otherwise; every
    other cacheable request is an admitted MISS, and the admissions not
    resident at the end were evicted.
    """

    def __init__(self, trace: Trace, count_mode: bool):
        self.trace = trace
        counted = (trace.kind == 0) & trace.cacheable
        obj = trace.obj[counted]
        size = trace.size[counted]
        m = len(obj)
        self.min_capacity = 1 if count_mode else int(size.max(initial=0))
        # Each document is requested at one size exactly when its slot
        # reads back every size written to it, whichever write wins.
        slot = np.zeros(len(trace.ids), size.dtype)
        slot[obj] = size
        self.exact = ((count_mode or np.array_equal(slot[obj], size))
                      and _exact_sum(size) <= _INT64_MAX)
        del slot
        if not self.exact:
            return
        self.totals = _request_totals(trace)  # the same at every capacity
        # Each request paired with the previous request of its document,
        # both as positions among the cacheable requests, grouped with the
        # modifications: a request finds its copy stale exactly when its
        # group holds a modification just before it.
        modified = trace.kind == 1
        events = counted | modified
        modified = modified[events]
        grouped, _ = _doc_order(trace.obj[events])
        del events, counted
        requested = ~modified[grouped]
        after_mod = np.r_[False, ~requested[:-1]][requested]
        order = (np.cumsum(~modified, dtype=np.int64) - 1)[grouped[requested]]
        del grouped, requested, modified
        order = order.astype(np.int32 if m < 2**31 else np.int64, copy=False)
        same = obj[order[1:]] == obj[order[:-1]]
        del obj
        later, earlier = order[1:][same], order[:-1][same]
        # Each cacheable request's outcome, in request order, should it
        # find its copy resident; a first request has no copy to find.
        self.reuse = np.full(m, MISS, np.uint8)
        self.reuse[later] = np.where(after_mod[1:][same], STALE, HIT)
        del after_mod
        acct = np.ones(m, np.int64) if count_mode else size
        # The final recency stack, most recent first: each document at its
        # last request, and the size sum of its prefixes.
        is_last = np.ones(m, bool)
        is_last[:-1] = ~same
        self.stack = np.cumsum(acct[np.sort(order[is_last])[::-1]])
        del order, same, is_last
        # The stack distance of request i, whose previous request is p, is
        # acct[i] plus the acct of each document requested in (p, i), once:
        # at its first request there, the one j whose own previous request
        # is before p.  F(i), the acct sum over every j < i with
        # prev[j] < p, counts those and each j <= p, so the distance is
        # acct[i] + F(i) - cumsum(acct)[p].  The keys are prev + 1 >= 0.
        key = np.zeros(m, later.dtype)
        key[later] = earlier + 1
        self.dist = _dominance_sums(key, acct)
        del key
        self.dist += acct
        self.dist[later] -= np.cumsum(acct)[earlier]

    def outcome(self, cap: int) -> np.ndarray:
        """The outcome column at capacity `cap`, where the pass is exact."""
        column = _codes(self.trace.kind, self.trace.cacheable)
        column[column == MISS] = np.where(self.dist <= cap, self.reuse, MISS)
        return column

    def report(self, capacity: float) -> SimReport | None:
        """The report at `capacity`, or None where the pass is not exact:
        on this trace, or at a capacity too small to admit every cacheable
        request."""
        if not self.exact or not capacity >= self.min_capacity:
            return None
        cap = _INT64_MAX if capacity >= 2.0**63 else math.floor(capacity)
        column = self.outcome(cap)
        resident = int(np.searchsorted(self.stack, cap, side="right"))
        admissions = int(np.count_nonzero(column == MISS))
        return _report(
            self.trace, self.totals, column, evictions=admissions - resident,
            prefetch_fetches=0, prefetch_bytes=0,
            kernel_bytes=int(self.stack[resident - 1]) if resident else 0, accessory_bytes=0,
        )


def simulate_many(trace: Trace, configs: Sequence[CacheConfig],
                  prefetch_layers: Sequence | None = None) -> list[SimReport]:
    """`simulate(trace, config, layer)` for each config and its new layer
    or None (None for every run by default), in order.

    The LRU runs without a layer share one pass per mode (see `_LRUCurve`),
    read where it is exact: in count mode at a capacity of at least 1, in
    byte mode at a capacity of at least every cacheable size, with each
    document requested at one size.  Every other run is replayed.
    """
    layers = [None] * len(configs) if prefetch_layers is None else prefetch_layers
    if len(layers) != len(configs):
        raise ValueError(f"{len(layers)} prefetch layers for {len(configs)} configs")
    curves: dict[bool, _LRUCurve] = {}
    reports = []
    for config, layer in zip(configs, layers):
        report = None
        if config.policy_id == "lru" and layer is None:
            mode = config.object_count_mode
            if mode not in curves:
                curves[mode] = _LRUCurve(trace, mode)
            report = curves[mode].report(config.capacity_bytes)
        reports.append(report if report is not None else simulate(trace, config, layer))
    return reports
