"""Command-line interface: subcommands, formats, exit codes, schemas."""

import csv
import json
from importlib import resources

import pytest

from zipfcache import cli, simcore
from zipfcache.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, main, parse_size
from zipfcache.prefetch import PrefetchLayer
from zipfcache.analytic import DAY
from zipfcache.trace import TRACE_HEADER, SyntheticSpec, generate_trace, write_trace_file


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


def _run_csv(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    return list(csv.reader(out.splitlines()))


def _refused(capsys, argv):
    """The error `main(argv)` prints when it refuses a setting, exit 4."""
    assert main(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


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


def test_generate_boundary_is_the_spec_boundary(tmp_path):
    argv = ["generate", "--objects", "300", "--requests", "3000", "--duration-days", "20",
            "--popular-lifetime-days", "1", "--unpopular-lifetime-days", "30", "--seed", "5"]
    default, moved, want = tmp_path / "default.csv", tmp_path / "b7.csv", tmp_path / "want.csv"
    assert main([*argv, "-o", str(default)]) == EXIT_OK
    assert main([*argv, "--boundary", "7", "-o", str(moved)]) == EXIT_OK
    write_trace_file(generate_trace(SyntheticSpec(
        n_objects=300, alpha=0.8, request_rate=3000 / (20 * DAY), duration=20 * DAY,
        popular_boundary=7, mu_p=1 / DAY, mu_u=1 / (30 * DAY), seed=5)), want)
    assert moved.read_bytes() == want.read_bytes()
    # the analytic boundary is another rank, so other documents change daily
    assert moved.read_bytes() != default.read_bytes()


@pytest.mark.parametrize("days", ["0", "-1", "nan", "inf"])
def test_generate_bad_duration_exit_4(days, tmp_path, capsys):
    out = tmp_path / "t.csv"
    argv = ["generate", "--objects", "100", "--requests", "500", "--duration-days", days]
    assert main([*argv, "-o", str(out)]) == EXIT_DOMAIN
    assert "--duration-days must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (["--requests", "nan"], "request_rate"),
    (["--requests", "inf"], "request_rate"),
    (["--size-spread", "nan"], "size_spread"),
    (["--size-spread", "inf"], "size_spread"),
    (["--popular-lifetime-days", "nan"], "mu_p"),
    (["--unpopular-lifetime-days", "nan"], "mu_u"),
])
def test_generate_non_finite_setting_exit_4(argv, field, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["generate", "--objects", "100", *argv, "-o", str(out)]) == EXIT_DOMAIN
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, setting", [
    (["--requests", "1e300"], "request_rate * duration"),
    (["--requests", "1e300", "--even-arrivals"], "request_rate * duration"),
    (["--requests", "100", "--unpopular-lifetime-days", "1e-15"], "mu_p and mu_u over duration"),
])
def test_generate_too_many_expected_events_exit_4(argv, setting, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["generate", "--objects", "50", *argv, "-o", str(out)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith(f"error: {setting} expect") and "Traceback" not in err
    assert not out.exists()


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
        ["generate", "--format", "csv"],
        ["simulate", "--capacity", "1e400"],  # overflows to inf, like the text inf
        ["simulate", "--sweep", "1MB,1e300TB"],
        ["simulate", "--sweep", ","],  # a sweep that names no size
        ["simulate", "--sweep", ",", "--capacity", "1KB"],
        # one input: a trace path or a squid log, not both
        ["analyze", "t.csv", "--squid", "a.log"],
        ["analyze", "--squid", "a.log", "t.csv"],
        ["simulate", "-t", "t.csv", "--squid", "a.log"],
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


def test_analyze_hit_ratio_too_low_for_alpha_r_keeps_the_report(capsys):
    # 2 m >= h K here: alpha_r is null with a note, where alpha3, the same
    # 1 - 2 m / (h K), reads below 0; delta_h and the rest stay
    report = _run_json(capsys, ["analyze", "--hit-ratio", "0.2"])
    _validate(report, _schema("analyze"))
    assert report["alpha_r"] is None
    assert "must stay below h*K" in report["alpha_r_note"]
    assert report["alpha3"] < 0.0
    assert isinstance(report["delta_h"], float)


@pytest.mark.parametrize("name, text", [
    ("t.csv", f"{TRACE_HEADER}\n"), ("t.csv", f"{TRACE_HEADER}\n0.0,M,a,100,1\n"),
    ("access.log", "0.0 5 c TCP_MISS/404 400 GET http://a/x -\n"),
], ids=["header-only", "one-modification", "squid-no-get-2xx"])
def test_analyze_hit_ratio_without_requests_keeps_the_report(tmp_path, capsys, name, text):
    # K = 0: delta_h is null with a note, as alpha_r and the alpha estimates are
    (tmp_path / name).write_text(text)
    source = ["--squid"] * (name == "access.log") + [str(tmp_path / name)]
    report = _run_json(capsys, ["analyze", *source, "--hit-ratio", "0.5"])
    _validate(report, _schema("analyze"))
    assert report["total_requests"] == 0 and report["alpha_r"] is None
    assert report["delta_h"] is None and "big_k must be > 0" in report["delta_h_note"]


def test_analyze_csv_format(capsys):
    rows = _run_csv(capsys, ["analyze", "--format", "csv"])
    assert all(len(r) == 2 for r in rows)
    keys = [r[0] for r in rows]
    assert "total_requests" in keys
    assert "config.window_days" in keys  # nested dicts flatten with a dot


@pytest.mark.parametrize(
    "argv",
    [
        ["--window-days", "nan"],  # would be written as NaN, which is not JSON
        ["--window-days", "-1"],  # would give null lifetimes
        ["--window-days", "0"],  # would run as the full span but echo 0.0
        ["--window-days", "inf"],
        ["--hit-ratio", "1.5"],  # would give a negative delta_h
        ["--hit-ratio", "0"],
        ["--hit-ratio", "nan"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_analyze_bad_setting_exit_4(argv, capsys):
    assert "must be" in _refused(capsys, ["analyze", *argv])


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


def test_predict_renewal_hit_ratio_matches_schema(capsys):
    report = _run_json(capsys, ["predict", "--alpha", "0.8", "--universe", "1e6",
                                "--rate", "5000", "--tch-days", "30"])
    _validate(report, _schema("predict"))
    assert report["wolman_hit_ratio"] == pytest.approx(0.9999228550741405, rel=1e-12)


def test_predict_domain_error_exit_4(capsys):
    assert main(["predict", "--alpha", "1.5"]) == EXIT_DOMAIN
    assert "error:" in capsys.readouterr().err
    for days in ("0", "-5", "nan", "inf"):
        assert main(["predict", "--alpha", "0.8", "--tch-days", days]) == EXIT_DOMAIN
        assert "error:" in capsys.readouterr().err
    # --p-c is checked with or without --tch-days
    for argv in (["--p-c", "5"], ["--p-c", "0"], ["--p-c", "nan", "--format", "csv"],
                 ["--p-c", "5", "--tch-days", "30"]):
        assert "p_c must be in (0, 1]" in _refused(capsys, ["predict", "--alpha", "0.8", *argv])
    # the renewal hit model refuses a non-finite universe or rate
    for universe, rate in (("inf", "5000"), ("1e6", "inf"), ("1e6", "nan")):
        argv = ["--universe", universe, "--rate", rate, "--tch-days", "30"]
        assert "must be finite" in _refused(capsys, ["predict", "--alpha", "0.8", *argv])


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--p", "500", "--m", "100"], "--m"),
        (["--k", "2000"], "--k"),
        (["--h1", "0.3", "--s1", "1GB"], "--s1"),
        (["--s2", "2GB", "--h1", "0.3"], "--h1"),
        (["--rate", "10", "--tch-days", "30"], "--rate"),
        (["--universe", "1e6", "--rate", "10"], "--universe"),
        (["--bandwidth", "1MB"], "--bandwidth"),
        (["--mean-size", "10KB", "--tch-days", "30"], "--mean-size"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else value,
)
def test_predict_refuses_a_flag_it_would_drop(argv, flag, capsys):
    err = _refused(capsys, ["predict", "--alpha", "0.8", *argv])
    assert f"error: {flag} has no effect without" in err


def test_report_never_holds_nan(capsys):
    # --p-c is echoed without --tch-days; JSON has no NaN, so the run fails
    assert "error:" in _refused(capsys, ["predict", "--alpha", "0.8", "--p-c", "nan"])


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
    rows = _run_csv(capsys, ["simulate", "-t", str(small_trace), "--policy", "lru",
                             "--sweep", "50KB,100KB", "--format", "csv"])
    assert rows[0][0] == "capacity_bytes"
    assert "hit_ratio" in rows[0]
    assert len(rows) == 3


@pytest.mark.parametrize("sizes,mode", [(("50KB", "100KB", "200KB"), []),
                                         (("20", "50", "200"), ["--count-mode"])])
def test_lru_sweep_emits_the_capacity_runs(small_trace, tmp_path, capsys, monkeypatch,
                                           sizes, mode):
    argv = ["simulate", "-t", str(small_trace), "--policy", "lru", *mode]
    singles = [_run_json(capsys, [*argv, "--capacity", size]) for size in sizes]
    replays = []
    real = simcore.simulate
    monkeypatch.setattr(simcore, "simulate", lambda *a: replays.append(a) or real(*a))
    sweep = [*argv, "--sweep", ",".join(sizes)]
    plot = tmp_path / "plot.csv"
    assert _run_json(capsys, [*sweep, "--plot-data", str(plot)]) == singles
    assert replays == []  # one pass, no replay
    assert list(csv.reader(plot.read_text().splitlines())) == [
        [str(int(r["config"]["capacity_bytes"])), repr(r["hit_ratio"])] for r in singles]

    header, *rows = _run_csv(capsys, [*sweep, "--format", "csv"])
    for size, row in zip(sizes, rows, strict=True):
        single = dict(_run_csv(capsys, [*argv, "--capacity", size, "--format", "csv"]))
        assert row[0] == str(int(float(single["config.capacity_bytes"])))
        assert row[1:] == [single[key] for key in header[1:]]


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
    assert main(["simulate", "-t", str(tmp_path / "nope.csv"), "--prefetch", "goodfetch",
                 "--threshold", "0.5"]) == EXIT_IO


@pytest.mark.parametrize("argv", [
    ["--policy", "zbs-byte", "--count-mode"],
    ["--policy", "lru", "--capacity", "0"],
    ["--policy", "lru", "--sweep", "1KB,0"],
    ["--policy", "lru", "--prefetch", "lifetime", "--threshold", "0.5"],
    ["--policy", "lru", "--prefetch", "api", "--threshold", "inf"],
    ["--policy", "zbs", "--retention-days", "10"],
], ids=" ".join)
@pytest.mark.parametrize("flag", ["-t", "--squid"])
def test_simulate_setting_refused_before_load_exit_4(tmp_path, monkeypatch, argv, flag):
    # every setting is checked before the trace is read, so a missing file
    # cannot hide a refused one and a refused one costs no parse
    def load(args):
        raise AssertionError("the trace was read")

    monkeypatch.setattr(cli, "_load_events", load)
    assert main(["simulate", flag, str(tmp_path / "nope.csv"), *argv]) == EXIT_DOMAIN


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


def test_timestamp_beyond_1e18_s_exit_3(tmp_path, capsys):
    # no trace holds a time beyond 1e18 s, so the line is a format error
    native = tmp_path / "t.csv"
    native.write_text(f"{TRACE_HEADER}\n0.0,R,a,100,1\n1e22,R,b,100,1\n")
    squid = tmp_path / "access.log"
    squid.write_text("0.0 5 c TCP_MISS/200 400 GET http://a/x -\n"
                     "0.5 5 c TCP_MISS/200 400 GET http://a/y -\n"
                     "1e22 5 c TCP_MISS/200 400 GET http://a/x -\n")
    for flag, path in (("-t", native), ("--squid", squid)):
        assert main(["simulate", flag, str(path), "--policy", "lru"]) == EXIT_IO
        assert ":3: timestamp must be within +-1e+18 s, got '1e22'" in capsys.readouterr().err


def test_simulate_domain_error_exit_4(small_trace, capsys):
    assert main(["simulate", "-t", str(small_trace), "--capacity", "0"]) == EXIT_DOMAIN
    # the configuration is checked before the prefetch layer
    assert main(["simulate", "-t", str(small_trace), "--capacity", "0", "--prefetch",
                 "lifetime", "--threshold", "0.5"]) == EXIT_DOMAIN
    assert "capacity must be > 0" in capsys.readouterr().err
    for days in ("10", "0"):
        assert (
            main(["simulate", "-t", str(small_trace), "--retention-days", days])
            == EXIT_DOMAIN
        )
    # lifetime has no score to filter; a threshold would be echoed unused
    assert (
        main(["simulate", "-t", str(small_trace), "--prefetch", "lifetime",
              "--threshold", "1e9"])
        == EXIT_DOMAIN
    )
    # so would a threshold without a scheme, or a zbs setting under another policy
    for argv in (["--threshold", "0.5"], ["--policy", "zbs", "--threshold", "0.5"],
                 ["--policy", "lru", "--retention-days", "60"],
                 ["--policy", "fifo", "--accessory-fraction", "0.05"],
                 ["--policy", "lfu", "--accessory-fraction", "0.1"],
                 ["--capacity", "1KB", "--sweep", "100KB"],
                 # every copy counts 1, so the byte metric is zbs's own
                 ["--policy", "zbs-byte", "--count-mode", "--capacity", "50"]):
        capsys.readouterr()
        assert main(["simulate", "-t", str(small_trace), *argv]) == EXIT_DOMAIN
        assert "has no effect" in capsys.readouterr().err


def test_each_simulate_call_gets_the_one_layer(small_trace, monkeypatch, capsys):
    # the benchmark's tracer reads the layer as simulate's third positional
    # argument
    layers = []
    real = simcore.simulate

    def recording(events, config, *args, **kwargs):
        assert not kwargs and len(args) == 1
        layers.append(args[0])
        return real(events, config, *args)

    monkeypatch.setattr(simcore, "simulate", recording)
    assert main(["simulate", "-t", str(small_trace), "--policy", "lru",
                 "--prefetch", "goodfetch", "--sweep", "50KB,100KB"]) == EXIT_OK
    assert len(layers) == 2 and layers[0] is layers[1]
    assert isinstance(layers[0], PrefetchLayer)


def test_simulate_zbs_settings_echoed(small_trace, capsys):
    argv = ["simulate", "-t", str(small_trace), "--capacity", "100KB"]
    cfg = _run_json(capsys, [*argv, "--policy", "lru"])["config"]
    assert (cfg["accessory_fraction"], cfg["stats_retention_days"]) == (0.1, None)
    cfg = _run_json(capsys, [*argv, "--policy", "zbs-byte", "--retention-days", "60",
                             "--accessory-fraction", "0.05"])["config"]
    assert (cfg["accessory_fraction"], cfg["stats_retention_days"]) == (0.05, 60.0)


@pytest.mark.parametrize("scheme", ["goodfetch", "api"])
def test_simulate_infinite_threshold_exit_4(small_trace, capsys, scheme):
    # no score is above +inf, so the layer would fetch nothing, and the
    # echo would read null, as for the select-everything default
    rc = main(["simulate", "-t", str(small_trace), "--prefetch", scheme,
               "--threshold", "inf"])
    assert rc == EXIT_DOMAIN
    assert "--threshold inf has no effect" in capsys.readouterr().err


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
