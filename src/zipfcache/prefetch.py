"""Long-term prefetching schemes layered over the simulation engine.

Three ways to decide which documents are worth keeping fresh at the
origin's expense:

* ``goodfetch``  fetch documents likely to be requested again before
  they change, P = 1 - (1 - p_i)^(a l_i);
* ``api``        fetch documents with a large a p_i l_i product;
* ``lifetime``   fetch a stale document once its copy age exceeds the
  mean observed interval between its modifications.

The first two are threshold filters re-evaluated whenever a resident
document changes.  The lifetime rule fires only on the engine's daily
ticks: at a modification the copy's age is zero and cannot exceed the
interval.  The layer keeps an index of the resident copies it saw go
stale, and a tick evaluates the rule on those alone, in the order the
engine admitted them.  Prefetched bytes are reported separately from
demand bytes so the added bandwidth is measurable against the hit-ratio
gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .simcore import SCHEME_IDS

__all__ = [
    "SCHEME_IDS",
    "ObjectPrefetchStats",
    "good_fetch_probability",
    "api_value",
    "freshness_factor",
    "select_prefetch_set",
    "lifetime_threshold",
    "PrefetchLayer",
]


@dataclass(frozen=True)
class ObjectPrefetchStats:
    """Per-document quantities the scoring rules consume.

    p_i is the document's share of all requests, l_i its mean lifetime
    between modifications in seconds, a_rate the aggregate request
    arrival rate in requests per second.  install_time is when tracking
    began (trace start unless earlier history is known) and mod_count
    the number of modifications observed since then.
    """

    object_id: str
    p_i: float
    l_i: float
    a_rate: float
    mod_count: int
    install_time: float
    last_modified: float

    def __post_init__(self):
        if not 0.0 <= self.p_i <= 1.0:
            raise ValueError(f"p_i must be within [0, 1], got {self.p_i!r}")
        if self.l_i <= 0.0:
            raise ValueError(f"l_i must be > 0, got {self.l_i!r}")
        if self.a_rate < 0.0:
            raise ValueError(f"a_rate must be >= 0, got {self.a_rate!r}")
        if self.mod_count < 0:
            raise ValueError(f"mod_count must be >= 0, got {self.mod_count!r}")


def _good_fetch(p_i: float, l_i: float, a_rate: float) -> float:
    exponent = a_rate * l_i
    if exponent == 0.0:
        return 0.0
    if p_i >= 1.0:
        return 1.0
    return -math.expm1(exponent * math.log1p(-p_i))


def _api(p_i: float, l_i: float, a_rate: float) -> float:
    return a_rate * p_i * l_i


def _lifetime_due(now: float, install_time: float, mod_count: int,
                  last_modified: float) -> bool:
    t_p = (now - install_time) / mod_count
    return (now - last_modified) > t_p


def good_fetch_probability(stats: ObjectPrefetchStats) -> float:
    """Probability the document is requested before its next change,
    1 - (1 - p_i)^(a l_i) for a l_i request opportunities per lifetime."""
    return _good_fetch(stats.p_i, stats.l_i, stats.a_rate)


def api_value(stats: ObjectPrefetchStats) -> float:
    """Expected requests per lifetime, a * p_i * l_i."""
    return _api(stats.p_i, stats.l_i, stats.a_rate)


def freshness_factor(stats: ObjectPrefetchStats) -> float:
    """Fraction of requests that find a prefetched copy fresh,
    a p_i l_i / (a p_i l_i + 1)."""
    apl = api_value(stats)
    return apl / (apl + 1.0)


# The threshold schemes' scores on plain floats (p_i, l_i, a_rate).
_SCORERS = {"goodfetch": _good_fetch, "api": _api}


def select_prefetch_set(
    stats_list: list[ObjectPrefetchStats],
    scheme: str,
    threshold: float,
) -> list[str]:
    """Object ids whose scheme score strictly exceeds `threshold`,
    highest score first (ties broken by id for determinism)."""
    try:
        score = _SCORERS[scheme]
    except KeyError:
        raise ValueError(
            f"unknown scheme {scheme!r}; threshold schemes: goodfetch, api"
        ) from None
    picked = [(score(st.p_i, st.l_i, st.a_rate), st.object_id) for st in stats_list]
    picked = [(s, obj) for s, obj in picked if s > threshold]
    picked.sort(key=lambda t: (-t[0], t[1]))
    return [obj for _, obj in picked]


def lifetime_threshold(stats: ObjectPrefetchStats, now: float) -> bool:
    """Fetch decision of the lifetime rule.

    The copy's age since the last known modification is compared against
    the mean inter-modification interval (now - install_time)/mod_count;
    fetch only on strict excess.  With no modification history the
    document is never prefetched.
    """
    if now < stats.install_time:
        raise ValueError("now precedes install_time")
    if stats.mod_count == 0:
        return False
    return _lifetime_due(now, stats.install_time, stats.mod_count, stats.last_modified)


class PrefetchLayer:
    """Adapter the engine drives at modification events and daily ticks.

    Estimates the scoring inputs from the run itself: p_i from the
    engine's per-document request counters, a from the aggregate request
    count over elapsed time, and l_i as the mean observed time between
    modifications since the trace start.  The inputs are plain floats
    computed per event; no `ObjectPrefetchStats` is built.

    For `lifetime`, `stale` indexes the documents whose resident copy the
    layer saw go stale.  A copy turns stale only through a modification
    the engine reports here, so every stale resident copy is indexed; an
    indexed document that was since evicted, refetched or re-admitted
    fresh is dropped at the next tick.
    """

    def __init__(self, scheme: str, threshold: float = -math.inf):
        if scheme not in SCHEME_IDS:
            raise ValueError(
                f"unknown scheme {scheme!r}; valid ids: {', '.join(SCHEME_IDS)}"
            )
        if math.isnan(threshold):
            raise ValueError("prefetch threshold must not be NaN")
        self.scheme = scheme
        self.threshold = threshold
        self.score = _SCORERS.get(scheme)  # None for lifetime
        self.engine = None
        self.start: float | None = None
        self.mod_counts: dict[str, int] = {}
        self.last_mod: dict[str, float] = {}
        self.cur_size: dict[str, int] = {}
        self.stale: dict[str, None] = {}

    def attach(self, engine) -> None:
        self.engine = engine

    def note_start(self, t: float) -> None:
        if self.start is None:
            self.start = t

    def on_modification(self, obj: str, size: int, now: float, resident: bool) -> bool:
        mods = self.mod_counts.get(obj, 0) + 1
        self.mod_counts[obj] = mods
        self.last_mod[obj] = now
        self.cur_size[obj] = size
        if not resident:
            return False
        score = self.score
        if score is None:
            # lifetime: the copy's age is now - last_mod = 0.0 here, which
            # never exceeds the positive interval (now - start) / mods, so
            # the rule can only fire on a daily tick.
            self.stale[obj] = None
            return False
        start = self.start
        if now <= start:
            return False
        elapsed = now - start
        engine = self.engine
        total = engine.cacheable_requests
        p_i = engine.req_counts.get(obj, 0) / total if total else 0.0
        return score(p_i, elapsed / mods, total / elapsed) > self.threshold

    def tick_refetches(self, now: float) -> list[tuple[str, int]]:
        """Stale resident copies the lifetime rule fetches at `now`, in the
        engine's admission order."""
        if not self.stale:
            return []
        resident = self.engine.resident
        start = self.start
        mod_counts = self.mod_counts
        last_mod = self.last_mod
        keep: dict[str, None] = {}
        picks = []
        for obj in self.stale:
            entry = resident.get(obj)
            if entry is None or entry[1]:
                continue  # evicted, refetched or re-admitted fresh
            keep[obj] = None
            if _lifetime_due(now, start, mod_counts[obj], last_mod[obj]):
                picks.append((entry[2], obj))
        self.stale = keep
        picks.sort()
        cur_size = self.cur_size
        return [(obj, cur_size[obj]) for _, obj in picks]

