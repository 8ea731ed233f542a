"""How fast the oracle tests catch planted bugs, and how small a trace
they report.

For each planted mutation (file, old text, new text, oracle test file),
this copies a checkout's `src/`, `tests/` and `pyproject.toml` to a
temporary directory, replaces the old text (which must occur exactly
once) in the copy of `src/`, and runs `python -m pytest -x -q` on the
oracle file there with a timeout.  It prints the seconds to the failure,
the failing tests and the most events that any trace Hypothesis reported
holds.  Each run starts with an empty Hypothesis example database, and
the runs are sequential.

    python tools/mutation_check.py [--repo DIR] [--timeout S] [--seed N]
                                   [--full] [MUTATION ...]

`--repo` names the checkout whose `src/` and `tests/` are used (default:
this one), so the same mutations can be run on another commit's tests.
`--full` runs the whole oracle file without `-x` and without shrinking,
to list every test a mutation fails: which tests fail does not depend on
shrinking, which only picks the example to report.  MUTATION numbers
select mutations (default: all).
"""

import argparse
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# A pytest plugin that loads a Hypothesis profile with no shrink phase.
NO_SHRINK = """from hypothesis import Phase, settings
settings.register_profile("no_shrink", phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("no_shrink")
"""

# (name, file under src/zipfcache, old text, new text, oracle test file)
MUTATIONS = [
    ("tie-break-max", "policies.py", "victim = min(tied,", "victim = max(tied,",
     "test_zbs_oracle.py"),
    ("window-side-right", "policies.py", "count = np.searchsorted(rank, start)",
     'count = np.searchsorted(rank, start, side="right")', "test_zbs_oracle.py"),
    ("window-day-early", "policies.py", "        t //= DAY\n",
     "        t //= DAY\n        t -= 1\n", "test_zbs_oracle.py"),
    ("lru-pass-strict", "simcore.py", "self.dist <= cap", "self.dist < cap",
     "test_lru_sweep.py"),
    ("round-up-ge", "prefetch.py", "day -= start + (day - 1) * DAY > edge",
     "day -= start + (day - 1) * DAY >= edge", "test_prefetch_oracle.py"),
    ("lfu-pop-newest", "policies.py", "obj, _ = bucket.popitem(last=False)",
     "obj, _ = bucket.popitem(last=True)", "test_policy_oracle.py"),
]


def planted(repo: Path, work: Path, file: str, old: str, new: str) -> None:
    """Copy the checkout to `work` and replace `old` by `new` in `file`."""
    shutil.copytree(repo / "src", work / "src")
    shutil.copytree(repo / "tests", work / "tests",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(repo / "pyproject.toml", work)
    path = work / "src" / "zipfcache" / file
    text = path.read_text()
    count = text.count(old)
    assert count == 1, f"{file}: {old!r} occurs {count} times"
    path.write_text(text.replace(old, new))


def reported_events(output: str) -> list:
    """The events of each trace in a Hypothesis falsifying example, which
    pytest prints as a call whose closing parenthesis stands alone on a
    line of the traceback; None for a `Trace` printed without its events."""
    counts = []
    for block in output.split("Falsifying example")[1:]:
        call = re.split(r"^E?\s*\)$", block, maxsplit=1, flags=re.MULTILINE)[0]
        counts.append(None if "Trace object at" in call else call.count("TraceEvent("))
    return counts


def run(repo: Path, mutation, timeout: float, seed: int, full: bool) -> dict:
    name, file, old, new, oracle = mutation
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        planted(repo, work, file, old, new)
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                f"--hypothesis-seed={seed}", f"tests/{oracle}"]
        if full:
            (work / "no_shrink.py").write_text(NO_SHRINK)
            argv[4:4] = ["-p", "no_shrink"]
        else:
            argv.insert(4, "-x")
        start = time.perf_counter()
        try:
            done = subprocess.run(argv, cwd=work, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"name": name, "oracle": oracle, "seconds": None, "failed": [],
                    "events": []}
        seconds = time.perf_counter() - start
    failed = re.findall(r"^FAILED (\S+)", done.stdout, re.MULTILINE)
    return {"name": name, "oracle": oracle, "seconds": seconds, "failed": failed,
            "events": reported_events(done.stdout), "returncode": done.returncode}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mutations", nargs="*", type=int,
                        help=f"mutation numbers, 1 to {len(MUTATIONS)} (default: all)")
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and tests/ are used (default: this one)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="seconds before a run counts as not caught (default 300)")
    parser.add_argument("--seed", type=int, default=0,
                        help="Hypothesis seed of every run (default 0)")
    parser.add_argument("--full", action="store_true",
                        help="run the whole oracle file, not up to the first failure")
    args = parser.parse_args(argv)
    picked = args.mutations or range(1, len(MUTATIONS) + 1)
    caught_all = True
    for number in picked:
        result = run(args.repo, MUTATIONS[number - 1], args.timeout, args.seed, args.full)
        if result["seconds"] is None:
            caught_all = False
            verdict = f"not caught in {args.timeout:g} s"
        elif not result["failed"]:
            caught_all = False
            verdict = f"not caught: pytest exit {result['returncode']} after " \
                      f"{result['seconds']:.1f} s"
        else:
            shown = [n for n in result["events"] if n is not None]
            verdict = (f"failed after {result['seconds']:.1f} s; longest reported trace "
                       f"{max(shown) if shown else '-'} events")
            if len(shown) < len(result["events"]):
                verdict += f", {len(result['events']) - len(shown)} printed without events"
        print(f"{number} {result['name']} ({result['oracle']}): {verdict}")
        for test in result["failed"]:
            print(f"    {test}")
        sys.stdout.flush()
    return 0 if caught_all else 1


if __name__ == "__main__":
    sys.exit(main())
