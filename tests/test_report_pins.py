"""Reports pinned by digest: a refactor must leave them byte-identical.

A fixed corpus of seeded traces is replayed under every policy, in byte
and count mode, with no prefetch layer and with each scheme; an LRU sweep
runs on each trace, each trace is written in the native format, and the
CLI runs `simulate`, `analyze` and `predict` on the bundled sample, and
single-capacity LRU `simulate` on a static trace.  Each
result is reduced to canonical JSON (or the exact text written) and its
SHA-256 is compared with the digest stored in `data/report_pins.json`.

A change that is meant to alter a report regenerates the file with

    PYTHONPATH=src python tests/test_report_pins.py

and says in its description which cases moved and why.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from zipfcache.analytic import DAY
from zipfcache.cli import main
from zipfcache.policies import POLICY_IDS
from zipfcache.prefetch import PrefetchLayer
from zipfcache.simcore import CacheConfig, simulate, simulate_many
from zipfcache.trace import SyntheticSpec, Trace, generate_trace, write_trace_file

PINS = Path(__file__).resolve().parent / "data" / "report_pins.json"

# The `PrefetchLayer` arguments of each run, None for a run without one.
LAYERS = (None, ("goodfetch", 0.3), ("api", 2.0), ("lifetime",))


def _random_trace(seed: int, start: float) -> Trace:
    """A few hundred events over 40 documents: ties, multi-day gaps,
    modifications that redraw the size, and requests that are not
    cacheable."""
    rng = np.random.default_rng(seed)
    n, docs = 400, 40
    gaps = rng.choice([0.0, 1.0, 600.0, 3 * DAY], size=n, p=[0.15, 0.5, 0.3, 0.05])
    gaps *= rng.random(n) + 0.5
    t = start + np.cumsum(gaps)
    obj = rng.integers(0, docs, n)
    kind = (rng.random(n) < 0.2).astype(np.int8)
    size = rng.integers(1, 5000, docs)[obj]
    mods = kind == 1
    size[mods] = rng.integers(1, 5000, int(mods.sum()))
    cacheable = (rng.random(n) < 0.9) | mods
    # Number the documents in order of first appearance.
    first = obj[np.sort(np.unique(obj, return_index=True)[1])]
    code = np.empty(docs, np.int32)
    code[first] = np.arange(len(first), dtype=np.int32)
    return Trace(t, kind, code[obj], size, cacheable, [f"doc{d}" for d in first.tolist()])


def _traces() -> dict[str, Trace]:
    traces = {f"random{seed}@{start:g}": _random_trace(seed, start)
              for seed, start in ((1, 0.0), (2, -3e5), (3, 1.7e9))}
    traces["generated"] = generate_trace(SyntheticSpec(
        n_objects=300, alpha=0.75, request_rate=2000 / (20 * DAY), duration=20 * DAY,
        mean_doc_size=2000.0, popular_boundary=30, mu_p=1 / (3 * DAY),
        mu_u=1 / (40 * DAY), p_c=0.9, seed=5))
    return traces


def _static_trace() -> Trace:
    """About 2,000 requests over 300 documents, none modified, so each
    document keeps one size; the largest is 22,065 bytes."""
    return generate_trace(SyntheticSpec(
        n_objects=300, alpha=0.75, request_rate=2000 / (20 * DAY), duration=20 * DAY,
        mean_doc_size=2000.0, p_c=0.9, seed=6))


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, allow_nan=False)


def _cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return f"exit {rc}\n{out.getvalue()}"


def _cases():
    """Yield (case name, text) for every pinned result."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, trace in _traces().items():
            path = Path(tmp) / "trace.csv"
            write_trace_file(trace, path)
            yield f"{name}/written", path.read_text()
            total_bytes = int(trace.size.sum())
            for count_mode, capacities in ((False, (0.05 * total_bytes, 0.2 * total_bytes)),
                                           (True, (5, 0.4 * len(trace.ids)))):
                mode = "count" if count_mode else "byte"
                for policy in POLICY_IDS:
                    if policy == "zbs-byte" and count_mode:
                        continue
                    for capacity in capacities:
                        config = CacheConfig(capacity, policy, object_count_mode=count_mode)
                        for layer in LAYERS:
                            report = simulate(trace, config, layer and PrefetchLayer(*layer))
                            scheme = layer[0] if layer else "none"
                            yield (f"{name}/{policy}/{mode}/{capacity:g}/{scheme}",
                                   _canonical(report.to_dict()))
                sweep = [CacheConfig(c, "lru", object_count_mode=count_mode)
                         for c in (*capacities, 3.0, float("inf"))]
                yield (f"{name}/lru-sweep/{mode}",
                       _canonical([r.to_dict() for r in simulate_many(trace, sweep)]))
            zbs = CacheConfig(0.2 * total_bytes, "zbs-byte", accessory_fraction=0.05,
                              stats_retention_seconds=30 * DAY)
            yield f"{name}/zbs-byte/retention30/acc0.05", _canonical(simulate(trace, zbs).to_dict())
        # The bundled sample redraws sizes at modifications, so the one-pass
        # LRU curve serves byte mode only on a trace without them.
        write_trace_file(_static_trace(), Path(tmp) / "static.csv")
        static_runs = [["simulate", "--policy", "lru", "--capacity", capacity, "-t", "static.csv"]
                       for capacity in ("10KB", "50KB", "200KB")]
        static_runs.append([*static_runs[1], "--format", "csv"])
        cwd = os.getcwd()
        os.chdir(tmp)  # the report echoes the trace path
        try:
            texts = [_cli(argv) for argv in static_runs]
        finally:
            os.chdir(cwd)
        for argv, text in zip(static_runs, texts):
            yield "cli/" + " ".join(argv), text
    cli_runs = [
        ["analyze"], ["analyze", "--format", "csv"], ["analyze", "--hit-ratio", "0.4"],
        ["predict", "--alpha", "0.8", "--tch-days", "10", "--bandwidth", "1MB",
         "--mean-size", "10KB", "--alpha-r", "0.7"],
        ["predict", "--alpha", "0.7", "--h1", "0.3", "--s1", "1GB", "--s2", "4GB",
         "--format", "csv"],
    ]
    for policy in POLICY_IDS:
        cli_runs.append(["simulate", "--policy", policy, "--capacity", "200KB"])
        cli_runs.append(["simulate", "--policy", policy, "--sweep", "50KB,1MB",
                         "--format", "csv"])
        if policy != "zbs-byte":
            cli_runs.append(["simulate", "--policy", policy, "--count-mode",
                             "--capacity", "40"])
    cli_runs += [
        ["simulate", "--policy", "lru", "--count-mode", "--sweep", "1,20,500"],
        ["simulate", "--policy", "zbs", "--prefetch", "goodfetch", "--threshold", "0.2"],
        ["simulate", "--policy", "lru", "--prefetch", "api", "--threshold", "1"],
        ["simulate", "--policy", "fifo", "--prefetch", "lifetime", "--format", "csv"],
    ]
    for argv in cli_runs:
        yield "cli/" + " ".join(argv), _cli(argv)


def _digests() -> dict[str, str]:
    digests = {}
    for name, text in _cases():
        assert name not in digests, f"case {name!r} named twice"
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def test_reports_match_pinned_digests():
    pinned = json.loads(PINS.read_text())
    digests = _digests()
    assert sorted(digests) == sorted(pinned), "the corpus's case names changed"
    moved = [name for name, digest in digests.items() if pinned[name] != digest]
    assert not moved, f"{len(moved)} pinned results changed: {moved}"


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(_digests(), indent=1, sort_keys=True) + "\n")
