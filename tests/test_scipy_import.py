"""No CLI path imports SciPy: NumPy is the one runtime dependency.

The pytest process has SciPy loaded already (test_analytic imports it as
an oracle), so the check runs in a fresh interpreter: every CLI command,
`predict --universe --rate --tch-days` included, and the library
`simulate` must leave `sys.modules` without SciPy.  Only that `predict`
loads `numpy.polynomial`, for the nodes of the renewal hit-ratio rule.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = r"""
import contextlib, io, sys, tempfile
from pathlib import Path

from zipfcache import cli, simcore, trace
from zipfcache.analytic import DomainError, wolman_hit_ratio

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0, argv
    return out.getvalue()

with tempfile.TemporaryDirectory() as tmp:
    csv = str(Path(tmp) / "t.csv")
    log = Path(tmp) / "access.log"
    log.write_text("100.0 5 c TCP_MISS/200 4000 GET http://x/1 -\n"
                   "101.0 5 c TCP_MISS/200 4000 GET http://x/1 -\n")
    run("generate", "-o", csv, "--objects", "200", "--requests", "3000",
        "--popular-lifetime-days", "2", "--unpopular-lifetime-days", "20")
    run("analyze", csv)
    run("analyze", "--squid", str(log))
    run("simulate", "-t", csv, "--sweep", "100KB,1MB")
    run("simulate", "-t", csv, "--policy", "zbs", "--capacity", "200KB")
    run("simulate", "-t", csv, "--prefetch", "lifetime", "--capacity", "200KB")
    simcore.simulate(trace.parse_trace_file(csv),
                     simcore.CacheConfig(capacity_bytes=2e5, policy_id="zbs-byte"))
try:
    wolman_hit_ratio(1e6, 0.8, 10.0, float("nan"))
except DomainError:
    pass
else:
    raise AssertionError("a NaN mu was accepted")
assert "numpy.polynomial" not in sys.modules
sys.stdout.write(run("predict", "--alpha", "0.8", "--universe", "1e6", "--rate", "5000",
                     "--tch-days", "30"))
assert "scipy" not in sys.modules
"""

# `predict --alpha 0.8 --universe 1e6 --rate 5000 --tch-days 30`.  Another
# quadrature rule may round `wolman_hit_ratio` differently in its last digit.
_PREDICT = {
    "alpha": 0.8,
    "p_c": 0.6,
    "hit_bound_closed": 0.8408964152537146,
    "tau_days": 0.9665476037399015,
    "eff_hit_bound": 0.35676213450081634,
    "wolman_hit_ratio": 0.9999228550741405,
}


def test_no_cli_path_imports_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == json.dumps(_PREDICT, indent=2) + "\n"
