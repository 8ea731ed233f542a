"""Long-term prefetching schemes layered over the simulation engine.

Three ways to decide which documents are worth keeping fresh at the
origin's expense:

* ``goodfetch``  fetch documents likely to be requested again before
  they change, P = 1 - (1 - p_i)^(a l_i);
* ``api``        fetch documents with a large a p_i l_i product;
* ``lifetime``   fetch a stale document once its copy age exceeds the
  mean observed interval between its modifications.

The engine calls the layer only where a modification makes a resident
copy stale.  What a scheme reads there comes from the trace's columns,
derived once when the run starts: each modification's count of its
document's modifications so far, and, for a threshold filter that can
refuse, the cacheable requests before it.  The first two schemes are
threshold filters evaluated at those calls; with the default threshold
of -inf they select every copy without scoring it.  The lifetime rule
fires only on the engine's daily ticks: at a modification the copy's age
is zero and cannot exceed the interval.  The layer keeps an index of the
resident copies it saw go stale, and a tick evaluates the rule on those
alone, in the order the engine admitted them.  Prefetched bytes are
reported separately from demand bytes so the added bandwidth is
measurable against the hit-ratio gain.
"""

from __future__ import annotations

import math

import numpy as np

from .trace import Trace, _doc_order, _doc_running_counts

SCHEME_IDS = ("goodfetch", "api", "lifetime")

__all__ = ["SCHEME_IDS", "PrefetchLayer"]


def _good_fetch(p_i: float, l_i: float, a_rate: float) -> float:
    """Probability of a request before the next change, 1 - (1 - p_i)^(a l_i)."""
    exponent = a_rate * l_i
    if exponent == 0.0:
        return 0.0
    if p_i >= 1.0:
        return 1.0
    return -math.expm1(exponent * math.log1p(-p_i))


def _api(p_i: float, l_i: float, a_rate: float) -> float:
    """Expected requests per lifetime, a p_i l_i."""
    return a_rate * p_i * l_i


def _lifetime_due(now: float, install_time: float, mod_count: int,
                  last_modified: float) -> bool:
    """Copy age strictly above the mean interval between modifications."""
    t_p = (now - install_time) / mod_count
    return (now - last_modified) > t_p


# The threshold schemes' scores on plain floats (p_i, l_i, a_rate).
_SCORERS = {"goodfetch": _good_fetch, "api": _api}


class PrefetchLayer:
    """Adapter the engine drives at modifications of resident copies and
    at daily ticks.

    `note_start` derives the scoring inputs from the trace, per
    modification by its ordinal in the trace: p_i from its document's
    share of the cacheable requests before it, a from their total over
    the time elapsed since the trace start, and l_i as that time over the
    document's modifications so far.  All of them come from one sort of
    (document, event index) keys.  A resident copy was requested, so p_i
    > 0; past the start every score is then finite and beats the default
    threshold of -inf, and the filters select without scoring.  The one
    exception is an elapsed time so small that elapsed / mods rounds to 0,
    where a l_i is 0 * inf; a trace with one makes the layer score.

    For `lifetime`, `stale` indexes the documents whose resident copy the
    layer saw go stale at their second or a later modification.  After
    only one, at L >= start, the copy's age now - L never exceeds the
    interval now - start, so the rule cannot fire.  With m modifications,
    the last at L, the rule now - L > (now - start) / m holds in exact
    arithmetic iff now > (m L - start) / (m - 1).  `stale` maps each copy
    to that due time, L, m and the size L set, which is all a tick reads;
    `next_due` is at or below the least due time (inf when no copy
    waits), so the engine can jump its clock to just before it.

    A copy turns stale only through a modification reported here, so
    every stale resident copy that can come due is indexed, and each entry
    a tick keeps describes its document's latest modification.  One that
    finds the copy resident rewrites its entry.  One that finds it absent
    is followed by a fresh admission, and only a further modification
    while resident makes that copy stale again.  An entry whose copy was
    since evicted, refetched or re-admitted fresh is dropped at a tick.

    A layer holds the state of one run: pass a new one to each
    `simulate` call.
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
        self.score = _SCORERS.get(scheme)  # None for lifetime
        self.start: float | None = None
        # Per modification, by ordinal, what the scheme reads: its
        # document's modifications so far, itself included, and the
        # cacheable requests before it, of its document and of all.
        # None where the scheme reads nothing.
        self.mods = self.requests = self.totals = None
        self.stale: dict[str, tuple[float, float, int, int]] = {}
        self.next_due = math.inf

    def note_start(self, trace: Trace) -> None:
        """Start the run at the first event of `trace`, a non-empty trace,
        and derive what the scheme reads at each modification."""
        if self.start is not None:
            raise ValueError("a PrefetchLayer runs once; pass a new one to each simulate call")
        self.start = float(trace.t[0])
        modified = trace.kind == 1
        if self.score is None:  # lifetime reads the modification counts alone
            order, first = _doc_order(trace.obj[modified])
            self.mods = memoryview(_doc_running_counts(order, first, np.ones(len(order), bool)))
            return
        # No document has more modifications than the trace, so where
        # elapsed / that count stays above 0, so does every l_i.
        elapsed = trace.t[modified] - self.start
        if self.threshold == -math.inf and not np.any(elapsed[elapsed > 0] / len(elapsed) == 0):
            return  # select every copy past the start (see the class docstring)
        del elapsed
        events = modified | ((trace.kind == 0) & trace.cacheable)
        modified = modified[events]
        # Each modification's position among the events, less the
        # modifications before it, is the count of requests before it.
        self.totals = memoryview(np.flatnonzero(modified) - np.arange(np.count_nonzero(modified)))
        order, first = _doc_order(trace.obj[events])
        del events
        self.mods = memoryview(_doc_running_counts(order, first, modified)[modified])
        self.requests = memoryview(_doc_running_counts(order, first, ~modified)[modified])

    def on_modification(self, obj: str, size: int, now: float, k: int) -> bool:
        """Whether to refetch the resident copy of `obj`, which the trace's
        modification `k` (counted from 0) has just made stale."""
        score = self.score
        if score is None:
            # lifetime: a copy just modified is not due; index it for the ticks.
            mods = self.mods[k]
            if mods >= 2:
                due = (mods * now - self.start) / (mods - 1)
                self.stale[obj] = (due, now, mods, size)
                if due < self.next_due:
                    self.next_due = due
            return False
        elapsed = now - self.start
        if elapsed <= 0:
            return False
        totals = self.totals
        if totals is None:
            return True
        total = totals[k]
        return score(self.requests[k] / total, elapsed / self.mods[k],
                     total / elapsed) > self.threshold

    def tick_refetches(self, now: float, resident: dict[str, list]) -> list[tuple[str, int]]:
        """Stale copies in `resident` the lifetime rule fetches at `now`, in
        the engine's admission order."""
        start = self.start
        keep = {}
        picks = []
        next_due = math.inf
        for obj, stale in self.stale.items():
            entry = resident.get(obj)
            if entry is None or entry[0]:
                continue  # evicted, refetched or re-admitted fresh
            keep[obj] = stale
            due, last_modified, mods, size = stale
            if _lifetime_due(now, start, mods, last_modified):
                picks.append((entry[1], obj, size))
            elif due < next_due:
                next_due = due
        self.stale = keep
        self.next_due = next_due
        picks.sort()  # admission numbers are unique
        return [(obj, size) for _, obj, size in picks]

