"""Long-term prefetching schemes layered over the simulation engine.

Three ways to decide which documents are worth keeping fresh at the
origin's expense (Venkataramani et al., Computer Communications 2002):

* ``goodfetch``  fetch documents likely to be requested again before
  they change, P = 1 - (1 - p_i)^(a l_i);
* ``api``        fetch documents with a large a p_i l_i product;
* ``lifetime``   fetch a stale document once its copy age exceeds the
  mean observed interval between its modifications.

At a modification of document i, the layer estimates the request rate a
as K / T, where K counts the cacheable requests before it and T the time
elapsed since the trace start.  p_i is r_i / K, with r_i the document's
own cacheable requests before it, and l_i is T / m_i, with m_i its
modifications so far.  So a l_i = K / m_i and a p_i l_i = r_i / m_i: T
cancels, and each of the first two scores is a function of three counts.
The layer decides every modification once, when the run starts, from
the trace's columns: by such a score, or by the tick that would fetch
its copy under the lifetime rule.  That rule fires only at ticks whole
days after the trace start: at a modification the copy's age is zero
and cannot exceed the interval.
Prefetched bytes are reported separately from demand bytes so the added
bandwidth is measurable against the hit-ratio gain.
"""

from __future__ import annotations

import math

import numpy as np

from .analytic import DAY
from .trace import Trace, _doc_order, _doc_running_counts

SCHEME_IDS = ("goodfetch", "api", "lifetime")

__all__ = ["SCHEME_IDS", "PrefetchLayer"]


def _good_fetch(requests: np.ndarray, total: np.ndarray, mods: np.ndarray) -> np.ndarray:
    """1 - (1 - p_i)^(a l_i) per modification, with p_i = r_i / K and
    a l_i = K / m_i; NaN where K = 0, where no copy is resident."""
    with np.errstate(divide="ignore", invalid="ignore"):  # log1p(-1) is -inf
        return -np.expm1(total / mods * np.log1p(-requests / total))


class PrefetchLayer:
    """Adapter the engine drives at modifications of resident copies and
    at the ticks it names in `next_tick` (inf when none is due).

    For `goodfetch` and `api`, `note_start` decides each modification,
    by its ordinal in the trace, into the bool column `select`: true past
    the start where the score beats the threshold.  The counts come from
    one sort of (document, event index) keys and are dropped once scored.
    A resident copy was requested, so r_i >= 1 and its score is finite;
    at the default threshold of -inf the column is just t > start.

    For `lifetime`, it decides each modification into the column
    `fetch_day`: the day d of the tick start + d days that fetches its
    copy, or 0 for never.  After a document's only modification, at
    L >= start, the copy's age now - L never exceeds the interval
    now - start, so the rule cannot fire.  With m modifications, the last
    at L, the rule now - L > (now - start) / m holds in exact arithmetic
    iff now > (m L - start) / (m - 1), and a tick at L runs before the
    events at L: d is the least day whose tick is past both.  `stale`
    maps each copy the layer saw go stale to its tick and the size L set.

    A copy turns stale only through a modification reported here, so
    every stale resident copy that can come due is indexed, and each entry
    a tick keeps describes its document's latest modification.  One that
    finds the copy resident rewrites its entry.  One that finds it absent
    is followed by a fresh admission, and only a further modification
    while resident makes that copy stale again.  An entry whose copy was
    since evicted, refetched or re-admitted fresh is dropped at a tick.

    A layer is a rule: its decisions depend on the trace alone, and
    `note_start` starts each run afresh, so one layer serves any number
    of runs, one at a time.
    """

    def __init__(self, scheme: str, threshold: float = -math.inf):
        if scheme not in SCHEME_IDS:
            raise ValueError(
                f"unknown scheme {scheme!r}; valid ids: {', '.join(SCHEME_IDS)}"
            )
        if math.isnan(threshold):
            raise ValueError("prefetch threshold must not be NaN")
        if scheme == "lifetime" and threshold != -math.inf:
            raise ValueError("the lifetime scheme takes no threshold")
        self.scheme = scheme
        self.threshold = threshold

    def note_start(self, trace: Trace) -> None:
        """Start a run at the first event of `trace`, a non-empty trace,
        and derive what the scheme reads at each modification."""
        self.start = start = float(trace.t[0])
        # The column the scheme reads, by modification ordinal; the other is None.
        self.fetch_day = self.select = None
        self.stale: dict[str, tuple[float, int]] = {}
        self.next_tick = math.inf
        modified = trace.kind == 1
        if self.scheme != "lifetime":
            select = trace.t[modified] > start
            if self.threshold != -math.inf:
                select &= self._scores(trace, modified) > self.threshold
            self.select = memoryview(select)
            return
        order, first = _doc_order(trace.obj[modified])
        mods = _doc_running_counts(order, first, np.ones(len(order), bool))
        del order, first
        again = mods >= 2
        mods, at = mods[again], trace.t[modified][again]
        edge = np.maximum((mods * at - start) / (mods - 1), at)
        del mods, at
        # The first tick past the edge, on the floats on_modification
        # computes: from the floor quotient, corrected where it rounded.
        day = (edge - start) // DAY + 1
        day += start + day * DAY <= edge  # rounded down
        day -= start + (day - 1) * DAY > edge  # rounded up
        column = np.zeros(len(again), np.min_scalar_type(int(day.max(initial=0))))
        column[again] = day
        self.fetch_day = memoryview(column)

    def _scores(self, trace: Trace, modified: np.ndarray) -> np.ndarray:
        """Each modification's score from its counts r_i, K and m_i."""
        events = modified | ((trace.kind == 0) & trace.cacheable)
        modified = modified[events]
        order, first = _doc_order(trace.obj[events])
        del events
        mods = _doc_running_counts(order, first, modified)[modified]
        requests = _doc_running_counts(order, first, ~modified)[modified]
        if self.scheme == "api":
            return requests / mods
        # Each modification's position among the events, less the
        # modifications before it, is the count of requests before it.
        total = np.flatnonzero(modified) - np.arange(len(mods))
        return _good_fetch(requests, total, mods)

    def on_modification(self, obj: str, size: int, now: float, k: int) -> bool:
        """Whether to refetch the resident copy of `obj`, which the trace's
        modification `k` (counted from 0) has just made stale."""
        if self.select is not None:
            return self.select[k]
        # lifetime: a copy just modified is not due; index it for its tick.
        day = self.fetch_day[k]
        if day:
            tick = self.start + day * DAY
            self.stale[obj] = (tick, size)
            if tick < self.next_tick:
                self.next_tick = tick
        return False

    def tick_refetches(self, now: float, copies: dict[str, list]) -> list[tuple[str, int]]:
        """Stale copies the lifetime rule fetches at the tick `now`, in
        admission order; `copies` is the policy's copy table, whose
        records start [fresh, admitting event index]."""
        keep = {}
        picks = []
        next_tick = math.inf
        for obj, stale in self.stale.items():
            record = copies.get(obj)
            if record is None or record[0]:
                continue  # evicted, refetched or re-admitted fresh
            tick, size = stale
            if tick <= now:
                picks.append((record[1], obj, size))
            else:
                keep[obj] = stale
                if tick < next_tick:
                    next_tick = tick
        self.stale = keep
        self.next_tick = next_tick
        picks.sort()  # admission numbers are unique
        return [(obj, size) for _, obj, size in picks]
