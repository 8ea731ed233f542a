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
import json
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .analytic import DomainError
from .trace import REQUEST, TraceEvent
from . import policies

__all__ = [
    "DAY_SECONDS",
    "SimulationError",
    "PrefetchConfig",
    "CacheConfig",
    "SimReport",
    "simulate",
    "sweep_sizes",
]

DAY_SECONDS = 86400.0

# Prefetch schemes; see `prefetch`, which implements them.
SCHEME_IDS = ("goodfetch", "api", "lifetime")


class SimulationError(RuntimeError):
    """The simulation cannot continue (bad input stream or policy state)."""


@dataclass(frozen=True)
class PrefetchConfig:
    """Prefetch scheme selection; see `prefetch` for scheme semantics.

    `threshold` filters the goodfetch and api scores; lifetime takes
    none.  `simulate` builds the prefetch layer from it.
    """

    scheme: str
    threshold: float = float("-inf")


@dataclass(frozen=True)
class CacheConfig:
    capacity_bytes: float = math.inf
    policy_id: str = "lru"
    accessory_fraction: float = 0.10
    stats_retention_seconds: float | None = None
    object_count_mode: bool = False
    prefetch: PrefetchConfig | None = None

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
        pf = self.prefetch
        if pf is not None:
            if pf.scheme not in SCHEME_IDS:
                raise DomainError(
                    f"unknown prefetch scheme {pf.scheme!r}; valid ids: "
                    + ", ".join(SCHEME_IDS)
                )
            if math.isnan(pf.threshold):
                raise DomainError("prefetch threshold must not be NaN")
            if pf.scheme == "lifetime" and pf.threshold != -math.inf:
                raise DomainError("the lifetime scheme takes no threshold")


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

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


class _Engine:
    def __init__(self, config: CacheConfig, prefetch_layer=None):
        config.validate()
        self.config = config
        self.capacity = config.capacity_bytes
        self.count_mode = config.object_count_mode
        self.policy = policies.make_policy(config)
        if prefetch_layer is None and config.prefetch is not None:
            from .prefetch import PrefetchLayer  # prefetch imports this module

            prefetch_layer = PrefetchLayer(config.prefetch.scheme, config.prefetch.threshold)
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
        if self.layer is not None:
            self.layer.attach(self)

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
        policy = self.policy
        resident = self.resident
        req_counts = self.req_counts
        layer = self.layer
        inf = math.inf
        last_t = -sys.float_info.max  # the least finite time, so -inf is out of range
        next_tick = inf
        for ev in events:
            now = ev.timestamp
            if not last_t <= now < inf:
                if not math.isfinite(now):
                    raise SimulationError(f"non-finite timestamp {now!r}")
                raise SimulationError(
                    f"trace not time-ordered: {now!r} after {last_t!r}"
                )
            if next_tick == inf:
                next_tick = now + DAY_SECONDS
                if layer is not None:
                    layer.note_start(now)
            last_t = now
            while now >= next_tick:
                policy.on_expire_stats(next_tick)
                if layer is not None:
                    for obj, size in layer.tick_refetches(next_tick):
                        if obj in resident:
                            self._refetch(obj, size, now=next_tick, prefetch=True)
                next_tick += DAY_SECONDS

            obj = ev.object_id
            size = ev.size_bytes
            if ev.kind == REQUEST:
                self.requests += 1
                self.requested_bytes += size
                if not ev.cacheable:
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
                    obj, size, now, resident=entry is not None
                ):
                    self._refetch(obj, size, now, prefetch=True)
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

    `prefetch_layer` defaults to a layer built from `config.prefetch`.
    Identical inputs produce identical reports; there is no hidden clock
    or nondeterministic state.
    """
    return _Engine(config, prefetch_layer).run(events)


def sweep_sizes(
    events: Sequence[TraceEvent],
    config: CacheConfig,
    sizes: Sequence[float],
) -> list[tuple[float, SimReport]]:
    """Run the same trace at several capacities; one engine per size."""
    out = []
    for size in sizes:
        cfg = dataclasses.replace(config, capacity_bytes=size)
        out.append((size, simulate(events, cfg)))
    return out
