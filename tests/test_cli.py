"""Command-line interface: subcommands, formats, exit codes, schemas."""

import csv
import json
from importlib import resources

import pytest

from zipfcache import cli
from zipfcache.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, main, parse_size
from zipfcache.trace import TRACE_HEADER


def _schema(name):
    ref = resources.files("zipfcache").joinpath(f"data/schemas/{name}.schema.json")
    return json.loads(ref.read_text())


def _check_type(value, expected):
    kinds = expected if isinstance(expected, list) else [expected]
    for kind in kinds:
        if kind == "null" and value is None:
            return True
        if kind == "object" and isinstance(value, dict):
            return True
        if kind == "array" and isinstance(value, list):
            return True
        if kind == "string" and isinstance(value, str):
            return True
        if kind == "boolean" and isinstance(value, bool):
            return True
        if kind == "integer" and isinstance(value, int) and not isinstance(value, bool):
            return True
        if (
            kind == "number"
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
        ):
            return True
    return False


def _validate(instance, schema):
    """Just enough of json-schema for the shipped report schemas."""
    assert isinstance(instance, dict)
    for key in schema.get("required", ()):
        assert key in instance, f"missing required key {key}"
    for key, rule in schema.get("properties", {}).items():
        if key in instance and "type" in rule:
            assert _check_type(instance[key], rule["type"]), (
                f"{key}={instance[key]!r} does not match {rule['type']}"
            )


def _run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    return json.loads(out)


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "small.csv"
    rc = main([
        "generate", "-o", str(path), "--objects", "500", "--requests", "20000",
        "--alpha", "0.8", "--mean-size", "1KB", "--duration-days", "10",
        "--seed", "11",
    ])
    assert rc == EXIT_OK
    return path


# ---------------------------------------------------------------- generate


def test_generate_is_deterministic(tmp_path, capsys):
    args = ["generate", "--objects", "200", "--requests", "3000", "--seed", "4"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*args, "-o", str(p1)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "events " in out and f"wrote {p1}" in out
    assert main([*args, "-o", str(p2)]) == EXIT_OK
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == TRACE_HEADER


def test_generate_seed_changes_trace(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["generate", "--objects", "200", "--requests", "3000", "--seed", "1", "-o", str(p1)])
    main(["generate", "--objects", "200", "--requests", "3000", "--seed", "2", "-o", str(p2)])
    assert p1.read_bytes() != p2.read_bytes()


def test_parse_size_units():
    assert parse_size("100MB") == 1e8
    assert parse_size("1.5KB") == 1500.0
    assert parse_size("2e3") == 2000.0
    assert parse_size("7") == 7.0
    with pytest.raises(Exception):
        parse_size("12XB")


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--alpha", "1.2"],
        ["generate", "--alpha", "abc"],
        ["simulate", "--policy", "belady"],
        ["simulate", "--capacity", "10QB"],
        ["predict"],  # --alpha is required
        ["frobnicate"],
        ["simulate", "--prefetch", "bogus"],
        ["simulate", "--seed", "1"],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# ----------------------------------------------------------------- analyze


def test_analyze_bundled_sample(capsys):
    report = _run_json(capsys, ["analyze"])
    _validate(report, _schema("analyze"))
    assert report["input"] == "bundled-sample"
    assert report["total_requests"] > 5000
    assert 0.70 < report["alpha_loglog"] < 0.87
    assert report["t_u_days"] is not None
    assert report["config"] == {"window_days": None, "hit_ratio": None}


def test_analyze_with_measured_hit_ratio(capsys):
    report = _run_json(capsys, ["analyze", "--hit-ratio", "0.30"])
    _validate(report, _schema("analyze"))
    assert report["hit_ratio_used"] == 0.30
    assert 0.0 < report["alpha_r"] < 1.0
    assert "delta_h" in report


def test_analyze_csv_format(capsys):
    rc = main(["analyze", "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    rows = list(csv.reader(out.splitlines()))
    assert all(len(r) == 2 for r in rows)
    keys = [r[0] for r in rows]
    assert "total_requests" in keys
    assert "config.window_days" in keys  # nested dicts flatten with a dot


def test_analyze_missing_file_exit_3(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.csv")]) == EXIT_IO


def test_analyze_squid_log(tmp_path, capsys):
    log = tmp_path / "access.log"
    log.write_text(
        "100.0 5 c TCP_MISS/200 4000 GET http://x/1 -\n"
        "101.0 5 c TCP_MISS/200 4000 GET http://x/1 -\n"
        "junk\n"
        "102.0 5 c TCP_MISS/503 99 GET http://x/2 -\n"
    )
    report = _run_json(capsys, ["analyze", "--squid", str(log)])
    assert report["input"] == f"squid:{log}"
    assert report["skipped_lines"] == 1
    assert report["filtered_requests"] == 1
    assert report["total_requests"] == 2


# ----------------------------------------------------------------- predict


def test_predict_refresh_interval(capsys):
    report = _run_json(capsys, ["predict", "--alpha", "0.8", "--tch-days", "186"])
    _validate(report, _schema("predict"))
    assert report["tau_days"] == pytest.approx(5.9926, abs=1e-3)
    assert report["eff_hit_bound"] == pytest.approx(0.3568, abs=1e-3)


def test_predict_hit_bounds(capsys):
    report = _run_json(capsys, ["predict", "--alpha", "0.7"])
    assert report["hit_bound_closed"] == pytest.approx(0.7430, abs=1e-4)
    assert "hit_bound_counts" not in report
    report = _run_json(
        capsys,
        ["predict", "--alpha", "0.7", "--p", "500", "--m", "100", "--k", "2000"],
    )
    assert report["hit_bound_counts"] == pytest.approx(0.8)


def test_predict_freshness_pair(capsys):
    report = _run_json(capsys, ["predict", "--alpha", "0.72", "--alpha-r", "0.70"])
    _validate(report, _schema("predict"))
    assert report["freshness_factor"] == pytest.approx(0.9333, abs=1e-4)
    assert report["extra_bandwidth_fraction"] == pytest.approx(0.0667, abs=1e-4)


def test_predict_scaling_and_rate_model(capsys):
    report = _run_json(
        capsys,
        ["predict", "--alpha", "0.8", "--h1", "0.30", "--s1", "1GB", "--s2", "2GB",
         "--tch-days", "186", "--universe", "1e6", "--rate", "10",
         "--bandwidth", "1MB", "--mean-size", "10KB"],
    )
    _validate(report, _schema("predict"))
    assert report["scaled_hit_ratio"] == pytest.approx(0.34461, abs=1e-4)
    assert 0.0 < report["wolman_hit_ratio"] <= 1.0
    assert report["max_kernel_docs"] > 0


def test_predict_domain_error_exit_4(capsys):
    assert main(["predict", "--alpha", "1.5"]) == EXIT_DOMAIN
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- simulate


def test_simulate_json_report(small_trace, capsys):
    report = _run_json(
        capsys,
        ["simulate", "-t", str(small_trace), "--policy", "lru", "--capacity", "100KB"],
    )
    _validate(report, _schema("simulate"))
    cfg = report["config"]
    assert cfg["policy"] == "lru"
    assert cfg["capacity_bytes"] == 1e5
    assert cfg["prefetch_scheme"] is None
    assert cfg["prefetch_threshold"] is None
    assert report["requests"] > 0
    assert 0.0 < report["hit_ratio"] < 1.0


def test_simulate_zbs_default(small_trace, capsys):
    report = _run_json(capsys, ["simulate", "-t", str(small_trace), "--capacity", "100KB"])
    assert report["config"]["policy"] == "zbs"
    assert report["accessory_occupancy_bytes"] <= 0.10 * 1e5
    assert report["kernel_occupancy_bytes"] > 0


def test_simulate_sweep_and_plot_data(small_trace, tmp_path, capsys):
    out = tmp_path / "sweep.json"
    plot = tmp_path / "plot.csv"
    rc = main([
        "simulate", "-t", str(small_trace), "--policy", "lru",
        "--sweep", "50KB,100KB,200KB", "--plot-data", str(plot), "-o", str(out),
    ])
    assert rc == EXIT_OK
    runs = json.loads(out.read_text())
    assert len(runs) == 3
    for flat in runs:
        _validate(flat, _schema("simulate"))
    ratios = [r["hit_ratio"] for r in runs]
    assert ratios == sorted(ratios)

    rows = list(csv.reader(plot.read_text().splitlines()))
    assert [r[0] for r in rows] == ["50000", "100000", "200000"]
    assert [float(r[1]) for r in rows] == ratios


def test_simulate_sweep_csv_format(small_trace, capsys):
    rc = main([
        "simulate", "-t", str(small_trace), "--policy", "lru",
        "--sweep", "50KB,100KB", "--format", "csv",
    ])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    rows = list(csv.reader(out.splitlines()))
    assert rows[0][0] == "capacity_bytes"
    assert "hit_ratio" in rows[0]
    assert len(rows) == 3


def test_simulate_prefetch_on_bundled_sample(capsys):
    report = _run_json(
        capsys,
        ["simulate", "--prefetch", "lifetime", "--policy", "lru", "--capacity", "100MB"],
    )
    assert report["config"]["prefetch_scheme"] == "lifetime"
    assert report["prefetch_fetches"] > 0
    assert report["prefetch_bytes"] > 0


def test_simulate_threshold_recorded_when_finite(small_trace, capsys):
    report = _run_json(
        capsys,
        ["simulate", "-t", str(small_trace), "--prefetch", "goodfetch",
         "--threshold", "0.25", "--capacity", "100KB"],
    )
    assert report["config"]["prefetch_threshold"] == 0.25


def test_simulate_missing_trace_exit_3(tmp_path):
    assert main(["simulate", "-t", str(tmp_path / "nope.csv")]) == EXIT_IO


@pytest.mark.parametrize("squid", [False, True])
def test_non_finite_timestamp_exit_3(tmp_path, squid):
    if squid:
        path = tmp_path / "access.log"
        path.write_text("nan 5 c TCP_MISS/200 400 GET http://a/x -\n")
    else:
        path = tmp_path / "t.csv"
        path.write_text(f"{TRACE_HEADER}\n0.0,R,a,100,1\ninf,R,a,100,1\n")
    flag = "--squid" if squid else "-t"
    assert main(["simulate", flag, str(path), "--capacity", "1KB"]) == EXIT_IO


def test_simulate_domain_error_exit_4(small_trace):
    assert main(["simulate", "-t", str(small_trace), "--capacity", "0"]) == EXIT_DOMAIN
    assert (
        main(["simulate", "-t", str(small_trace), "--retention-days", "10"])
        == EXIT_DOMAIN
    )
    # lifetime has no score to filter; a threshold would be echoed unused
    assert (
        main(["simulate", "-t", str(small_trace), "--prefetch", "lifetime",
              "--threshold", "1e9"])
        == EXIT_DOMAIN
    )


def test_simulate_nan_threshold_exit_4(small_trace, capsys):
    rc = main(["simulate", "-t", str(small_trace), "--prefetch", "goodfetch",
               "--threshold", "nan"])
    assert rc == EXIT_DOMAIN
    assert "NaN" in capsys.readouterr().err


def test_single_report_to_file(small_trace, tmp_path):
    out = tmp_path / "report.json"
    rc = main([
        "simulate", "-t", str(small_trace), "--capacity", "100KB", "-o", str(out),
    ])
    assert rc == EXIT_OK
    _validate(json.loads(out.read_text()), _schema("simulate"))
