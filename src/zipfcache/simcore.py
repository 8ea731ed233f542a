"""Trace-driven cache simulation engine.

The engine owns residency, freshness and byte accounting; replacement
decisions live in policy objects (see `policies`).  Semantics:

* Events must be time-ordered with finite timestamps; zero service and
  fetch latency.
* A request to a fresh resident copy is a hit.  A request to a stale
  resident copy is a miss that immediately refetches the document in
  place (counted in `stale_refetches` and `demand_bytes`).
* A modification event only marks a resident copy stale; no traffic
  happens until the next request (or a prefetch refetch).
* Non-cacheable requests always miss, fetch from origin and are never
  admitted; cacheable misses are offered to the policy for admission.
* Capacity is accounted in bytes (set `object_count_mode` to count every
  document as one unit instead).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .analytic import DAY, DomainError
from .trace import REQUEST, Trace, TraceEvent
from . import policies

__all__ = [
    "SimulationError",
    "CacheConfig",
    "SimReport",
    "simulate",
]


class SimulationError(RuntimeError):
    """The simulation cannot continue (bad input stream or policy state)."""


@dataclass(frozen=True)
class CacheConfig:
    capacity_bytes: float = math.inf
    policy_id: str = "lru"
    accessory_fraction: float = 0.10
    stats_retention_seconds: float | None = None
    object_count_mode: bool = False

    def validate(self) -> None:
        if not self.capacity_bytes > 0:
            raise DomainError(f"capacity must be > 0, got {self.capacity_bytes!r}")
        if not (0.0 < self.accessory_fraction <= 0.10):
            raise DomainError(
                f"accessory_fraction must be in (0, 0.10], got {self.accessory_fraction!r}"
            )
        if self.stats_retention_seconds is not None:
            lo, hi = policies.MIN_RETENTION, policies.MAX_RETENTION
            if not (lo <= self.stats_retention_seconds <= hi):
                raise DomainError(
                    f"stats retention must be within [{lo:g}, {hi:g}] seconds"
                )
        if self.policy_id not in policies.POLICY_IDS:
            raise DomainError(
                f"unknown policy {self.policy_id!r}; valid ids: "
                + ", ".join(policies.POLICY_IDS)
            )


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


class _Engine:
    def __init__(self, config: CacheConfig, prefetch_layer=None):
        config.validate()
        self.config = config
        self.capacity = config.capacity_bytes
        self.count_mode = config.object_count_mode
        self.policy = policies.make_policy(config)
        self.layer = prefetch_layer
        # object_id -> [acct_size, fresh, admitted]; `admitted` is the request
        # count at admission, unique and increasing in the dict's order.
        self.resident: dict[str, list] = {}
        self.req_counts: dict[str, int] = {}
        self.occupancy = 0
        self.requests = 0
        self.cacheable_requests = 0
        self.hits = 0
        self.hit_bytes = 0
        self.requested_bytes = 0
        self.evictions = 0
        self.stale_refetches = 0
        self.prefetch_fetches = 0
        self.demand_bytes = 0
        self.prefetch_bytes = 0

    def _drain(self, now: float) -> None:
        need = self.occupancy - self.capacity
        try:
            victims = self.policy.choose_victims(need if need > 0 else 0, now)
        except policies.EvictionInfeasible as exc:
            raise SimulationError(str(exc)) from exc
        if victims:
            pop = self.resident.pop
            for v in victims:
                self.occupancy -= pop(v)[0]
            self.evictions += len(victims)
        if self.occupancy > self.capacity or self.policy.over_limit:
            raise SimulationError("policy failed to restore capacity limits")

    def _refetch(self, obj: str, size: int, now: float, prefetch: bool) -> None:
        """Re-fetch a stale resident copy in place at its current size."""
        acct = 1 if self.count_mode else size
        entry = self.resident[obj]
        if acct > self.capacity:
            # The updated document no longer fits at all; drop it.
            self.occupancy -= entry[0]
            del self.resident[obj]
            self.policy.force_forget(obj)
            self.evictions += 1
        else:
            self.occupancy += acct - entry[0]
            entry[0] = acct
            entry[1] = True
            self.policy.on_modification_fetched(obj, acct, now)
        if prefetch:
            self.prefetch_fetches += 1
            self.prefetch_bytes += size
        else:
            self.stale_refetches += 1
            self.demand_bytes += size
        if self.occupancy > self.capacity or self.policy.over_limit:
            self._drain(now)

    def run(self, events: Iterable[TraceEvent]) -> SimReport:
        trace = Trace.from_events(events)
        policy = self.policy
        resident = self.resident
        req_counts = self.req_counts
        layer = self.layer
        # The events before the first one at a non-finite or decreasing
        # time replay; that one then raises.
        t = trace.t
        bad = np.flatnonzero(~np.isfinite(t) | np.r_[False, t[1:] < t[:-1]])
        end = int(bad[0]) if len(bad) else len(t)
        # Tick k falls at t0 + k days, so a jump lands on the same float as
        # a walk would.
        t0 = float(t[0]) if end else 0.0
        day = 1.0
        next_tick = t0 + DAY if end else math.inf
        if end and layer is not None:
            layer.note_start(t0)
        for now, kind, obj, size, cacheable in trace[:end].rows():
            while now >= next_tick:
                # No event changes residency until `now`, no prefetch does
                # before the layer's next copy can come due, and expiry is
                # monotone in time: one tick at the last boundary before
                # both does the work of every tick in the gap.  The margin
                # keeps rounding from skipping a due tick; from there the
                # lifetime rule decides tick by tick.
                next_due = math.inf if layer is None else layer.next_due
                edge = now if next_due == math.inf else min(
                    now, next_due - DAY - 1e-9 * (abs(next_due) + abs(t0)))
                last = (edge - t0) // DAY
                if last > day:
                    day = last
                    next_tick = t0 + day * DAY
                policy.on_expire_stats(next_tick)
                if layer is not None:
                    for due, due_size in layer.tick_refetches(next_tick, resident):
                        if due in resident:
                            self._refetch(due, due_size, now=next_tick, prefetch=True)
                day += 1.0
                following = t0 + day * DAY
                if following == next_tick:
                    # Beyond about 1.2e21 s a day is under half a float
                    # step: the clock would tick in place for ever.
                    raise SimulationError(
                        f"timestamp {now!r} is outside the daily clock's range "
                        "(|t| below about 1e21 s)"
                    )
                next_tick = following

            if kind == REQUEST:
                self.requests += 1
                self.requested_bytes += size
                if not cacheable:
                    self.demand_bytes += size
                    continue
                self.cacheable_requests += 1
                req_counts[obj] = req_counts.get(obj, 0) + 1
                entry = resident.get(obj)
                if entry is not None:
                    if entry[1]:
                        self.hits += 1
                        self.hit_bytes += size
                        policy.on_hit(obj, now)
                        if policy.over_limit:
                            self._drain(now)
                    else:
                        self._refetch(obj, size, now, prefetch=False)
                else:
                    self.demand_bytes += size
                    acct = 1 if self.count_mode else size
                    if policy.on_miss_admit(obj, acct, now):
                        resident[obj] = [acct, True, self.requests]
                        self.occupancy += acct
                        if self.occupancy > self.capacity or policy.over_limit:
                            self._drain(now)
            else:  # modification
                entry = resident.get(obj)
                if entry is not None:
                    entry[1] = False
                if layer is not None and layer.on_modification(
                    obj, size, now, entry is not None, req_counts, self.cacheable_requests
                ):
                    self._refetch(obj, size, now, prefetch=True)
        if end < len(t):
            now = float(t[end])
            if not math.isfinite(now):
                raise SimulationError(f"non-finite timestamp {now!r}")
            raise SimulationError(
                f"trace not time-ordered: {now!r} after {float(t[end - 1])!r}"
            )
        return self._report()

    def _report(self) -> SimReport:
        two_plus = sum(1 for v in self.req_counts.values() if v >= 2)
        return SimReport(
            requests=self.requests,
            cacheable_requests=self.cacheable_requests,
            hits=self.hits,
            hit_ratio=self.hits / self.requests if self.requests else 0.0,
            byte_hit_ratio=(
                self.hit_bytes / self.requested_bytes if self.requested_bytes else 0.0
            ),
            unique_docs=len(self.req_counts),
            two_plus_docs=two_plus,
            evictions=self.evictions,
            stale_refetches=self.stale_refetches,
            prefetch_fetches=self.prefetch_fetches,
            demand_bytes=self.demand_bytes,
            prefetch_bytes=self.prefetch_bytes,
            kernel_occupancy_bytes=int(self.occupancy - self.policy.accessory_bytes),
            accessory_occupancy_bytes=int(self.policy.accessory_bytes),
        )


def simulate(
    events: Iterable[TraceEvent],
    config: CacheConfig,
    prefetch_layer=None,
) -> SimReport:
    """Replay a trace against one cache configuration.

    `prefetch_layer` is a new `prefetch.PrefetchLayer` for each call, or
    None.  `events` is a `Trace`, or any iterable of `TraceEvent`, which
    is converted to one first.
    Identical inputs produce identical reports; there is no hidden clock
    or nondeterministic state.
    """
    return _Engine(config, prefetch_layer).run(events)
