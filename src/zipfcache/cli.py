"""Command-line front end: generate / analyze / predict / simulate.

Human units at the boundary (days, decimal MB = 10^6 bytes), seconds and
bytes internally.  Reports are JSON by default (`--format csv` for
two-column metric rows) and embed the resolved configuration.  Exit
codes: 0 success, 2 usage, 3 I/O, 4 domain.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from importlib import resources

from . import analytic, simcore, trace
from .analytic import DAY, DomainError
from .policies import POLICY_IDS
from .simcore import SCHEME_IDS

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DOMAIN = 4

_SIZE_SUFFIXES = {
    "": 1.0,
    "B": 1.0,
    "KB": 1e3,
    "MB": 1e6,
    "GB": 1e9,
    "TB": 1e12,
}


def parse_size(text: str):
    """'100MB' -> 1e8; bare numbers are bytes; decimal units."""
    m = re.fullmatch(r"([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)([A-Za-z]*)", text.strip())
    if m is None:
        raise argparse.ArgumentTypeError(f"cannot parse size {text!r}")
    try:
        mult = _SIZE_SUFFIXES[m.group(2).upper()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown size unit {m.group(2)!r} (use B, KB, MB, GB or TB)"
        ) from None
    return float(m.group(1)) * mult


def parse_size_list(text: str):
    return [parse_size(part) for part in text.split(",") if part.strip()]


def alpha_arg(text: str):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"alpha must be within (0, 1) exclusive, got {text}"
        )
    return value


def _bundled_sample():
    return resources.as_file(
        resources.files("zipfcache").joinpath("data/sample_trace.csv")
    )


def _load_events(args):
    """Events plus ingestion metadata from --squid, a path, or the sample."""
    if getattr(args, "squid", None):
        result = trace.parse_proxy_log(args.squid)
        return result.events, {
            "input": f"squid:{args.squid}",
            "skipped_lines": result.skipped,
            "filtered_requests": result.filtered,
        }
    path = getattr(args, "trace", None)
    if path:
        return trace.parse_trace_file(path), {"input": str(path)}
    with _bundled_sample() as sample:
        return trace.parse_trace_file(sample), {"input": "bundled-sample"}


def _emit(report, args) -> None:
    """Write one report, or a sweep's list of reports, to -o or stdout as
    JSON or as CSV: two-column metric rows, or one row per capacity."""
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        if isinstance(report, list):
            keys = [k for k in report[0] if k != "config"]
            rows = [["capacity_bytes", *keys]]
            rows += ([int(r["config"]["capacity_bytes"]), *(r[k] for k in keys)]
                     for r in report)
        else:
            rows = []
            for key, value in report.items():
                if isinstance(value, dict):
                    rows.extend((f"{key}.{k}", v) for k, v in value.items())
                else:
                    rows.append((key, value))
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_generate(args) -> int:
    spec = trace.SyntheticSpec(
        n_objects=args.objects,
        alpha=args.alpha,
        request_rate=args.requests / (args.duration_days * DAY),
        duration=args.duration_days * DAY,
        mean_doc_size=args.mean_size,
        size_spread=args.size_spread,
        popular_boundary=args.boundary,
        mu_p=1.0 / (args.popular_lifetime_days * DAY)
        if args.popular_lifetime_days
        else 0.0,
        mu_u=1.0 / (args.unpopular_lifetime_days * DAY)
        if args.unpopular_lifetime_days
        else 0.0,
        p_c=args.p_c,
        seed=args.seed,
        poisson_arrivals=not args.even_arrivals,
    )
    events = trace.generate_trace(spec)
    out = args.output or "trace.csv"
    trace.write_trace_file(events, out)
    n_req = sum(1 for e in events if e.kind == trace.REQUEST)
    print(f"events {len(events)} ({n_req} requests, {len(events) - n_req} modifications)")
    try:
        hist = trace.popularity_histogram(events)
        print(f"alpha_loglog {analytic.fit_alpha_loglog(hist.counts):.4f}")
    except DomainError:
        print("alpha_loglog n/a")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    events, meta = _load_events(args)
    hist = trace.popularity_histogram(events)
    window = args.window_days * DAY if args.window_days else None
    lives = trace.lifetime_stats(events, window)

    k = hist.total_requests
    p = hist.unique_docs
    m = hist.two_plus_docs
    # Without a measured hit ratio, alpha3 uses the trace's own
    # unbounded-cache hit ratio (k - p)/k.
    h = args.hit_ratio if args.hit_ratio is not None else (k - p) / k if k else 0.0
    report = dict(meta)
    report.update(
        total_requests=k,
        unique_docs=p,
        two_plus_docs=m,
        hit_ratio_used=h,
    )
    try:
        est = analytic.fit_alpha_three_ways(p=p, k=k, m=m, h=h, big_k=k)
        report.update(alpha1=est.alpha1, alpha2=est.alpha2, alpha3=est.alpha3)
    except DomainError as exc:
        report.update(alpha1=None, alpha2=None, alpha3=None, alpha_note=str(exc))
    try:
        report["alpha_loglog"] = analytic.fit_alpha_loglog(hist.counts)
    except DomainError as exc:
        report.update(alpha_loglog=None, alpha_loglog_note=str(exc))
    report["t_u_days"] = lives.t_u / DAY if lives.t_u is not None else None
    report["t_eff_days"] = lives.t_eff / DAY if lives.t_eff is not None else None
    if args.hit_ratio is not None:
        theta_sum = hist.theta_sum_top(m)
        report["alpha_r"] = analytic.renewal_alpha_r(m, args.hit_ratio, k)
        report["delta_h"] = analytic.renewal_delta_h(theta_sum, args.hit_ratio, k)
    report["config"] = {
        "window_days": args.window_days,
        "hit_ratio": args.hit_ratio,
    }
    _emit(report, args)
    return EXIT_OK


def cmd_predict(args) -> int:
    report: dict = {"alpha": args.alpha, "p_c": args.p_c}
    counts = (args.p, args.m, args.k)
    bounds = analytic.ideal_hit_bounds(
        args.alpha, *(counts if all(v is not None for v in counts) else (None,) * 3)
    )
    report["hit_bound_closed"] = bounds.closed_form
    if bounds.from_counts is not None:
        report["hit_bound_counts"] = bounds.from_counts
    if args.tch_days is not None:
        mu_u = 1.0 / (args.tch_days * DAY)
        sizing = analytic.optimal_tau(
            mu_u, args.alpha, p_c=args.p_c,
            nu_out=args.bandwidth, mean_doc_size=args.mean_size,
        )
        report["tau_days"] = sizing.tau_seconds / DAY
        report["eff_hit_bound"] = sizing.eff_hit_bound
        if sizing.m_max is not None:
            key = "max_kernel_docs" if args.mean_size else "max_kernel_bytes"
            report[key] = sizing.m_max
        if args.universe is not None and args.rate is not None:
            report["wolman_hit_ratio"] = analytic.wolman_hit_ratio(
                args.universe, args.alpha, args.rate, mu_u
            )
    if args.h1 is not None and args.s1 is not None and args.s2 is not None:
        report["scaled_hit_ratio"] = analytic.hit_scaling(
            args.h1, args.s1, args.s2, args.alpha
        )
    if args.alpha_r is not None:
        ff = analytic.freshness_from_exponents(args.alpha, args.alpha_r)
        report["freshness_factor"] = ff
        report["extra_bandwidth_fraction"] = analytic.extra_prefetch_bandwidth(ff, 1.0)
    _emit(report, args)
    return EXIT_OK


def _run_config(args, capacity: float) -> simcore.CacheConfig:
    pf = (
        simcore.PrefetchConfig(scheme=args.prefetch, threshold=args.threshold)
        if args.prefetch
        else None
    )
    return simcore.CacheConfig(
        capacity_bytes=capacity,
        policy_id=args.policy,
        accessory_fraction=args.accessory_fraction,
        stats_retention_seconds=args.retention_days * DAY
        if args.retention_days
        else None,
        object_count_mode=args.count_mode,
        prefetch=pf,
    )


def cmd_simulate(args) -> int:
    events, meta = _load_events(args)
    runs = []
    for size in args.sweep or [args.capacity]:
        flat = simcore.simulate(events, _run_config(args, size)).to_dict()
        flat["config"] = {
            **meta,
            "policy": args.policy,
            "capacity_bytes": size,
            "accessory_fraction": args.accessory_fraction,
            "stats_retention_days": args.retention_days,
            "object_count_mode": args.count_mode,
            "prefetch_scheme": args.prefetch,
            # None stands for the select-everything default threshold
            "prefetch_threshold": args.threshold
            if args.prefetch and math.isfinite(args.threshold)
            else None,
        }
        runs.append(flat)

    if args.plot_data:
        with open(args.plot_data, "w", newline="") as fh:
            csv.writer(fh).writerows(
                [int(flat["config"]["capacity_bytes"]), flat["hit_ratio"]] for flat in runs
            )
    _emit(runs if args.sweep else runs[0], args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="report format (default json)",
    )
    common.add_argument(
        "-o", "--output", metavar="PATH", default=None,
        help="output path (default: trace.csv for generate, stdout otherwise)",
    )

    parser = argparse.ArgumentParser(
        prog="zipfcache",
        description="Zipf-law cache modeling: synthetic traces, log analysis, "
        "closed-form predictions and replacement-policy simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", parents=[common], help="write a synthetic trace")
    g.add_argument("--objects", type=int, default=10_000,
                   help="document universe size (default 10000)")
    g.add_argument("--alpha", type=alpha_arg, default=0.8,
                   help="popularity exponent in (0, 1) (default 0.8)")
    g.add_argument("--requests", type=float, default=100_000.0,
                   help="expected request count (default 100000)")
    g.add_argument("--duration-days", type=float, default=30.0,
                   help="trace span in days (default 30)")
    g.add_argument("--mean-size", type=parse_size, default=10_000.0,
                   help="mean document size (default 10KB)")
    g.add_argument("--size-spread", type=float, default=1.0,
                   help="log-space size spread; 0 for constant sizes (default 1)")
    g.add_argument("--boundary", type=int, default=None,
                   help="popular/unpopular boundary rank (default: analytic)")
    g.add_argument("--popular-lifetime-days", type=float, default=0.0,
                   help="mean days between changes of popular documents (0: static)")
    g.add_argument("--unpopular-lifetime-days", type=float, default=0.0,
                   help="mean days between changes of unpopular documents (0: static)")
    g.add_argument("--p-c", type=float, default=1.0,
                   help="probability a request is cacheable (default 1)")
    g.add_argument("--even-arrivals", action="store_true",
                   help="evenly spaced arrivals instead of Poisson")
    g.add_argument("--seed", type=int, default=0,
                   help="random seed (default 0)")
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", parents=[common],
                       help="popularity and lifetime statistics of a trace")
    a.add_argument("trace", nargs="?", default=None,
                   help="native trace path (default: bundled sample)")
    a.add_argument("--squid", metavar="PATH", default=None,
                   help="read a squid-style proxy access log instead")
    a.add_argument("--window-days", type=float, default=None,
                   help="lifetime statistics window (default: full span)")
    a.add_argument("--hit-ratio", type=float, default=None,
                   help="measured hit ratio; enables alpha_r and delta_h")
    a.set_defaults(func=cmd_analyze)

    p = sub.add_parser("predict", parents=[common],
                       help="closed-form hit-ratio and sizing predictions")
    p.add_argument("--alpha", type=float, required=True,
                   help="popularity exponent")
    p.add_argument("--p-c", type=float, default=0.6,
                   help="cacheable fraction of requests (default 0.6)")
    p.add_argument("--tch-days", type=float, default=None,
                   help="mean document lifetime in days; enables tau")
    p.add_argument("--bandwidth", type=parse_size, default=None,
                   help="external bandwidth in bytes/s; enables max kernel size")
    p.add_argument("--mean-size", type=parse_size, default=None,
                   help="mean document size; reports kernel size in documents")
    p.add_argument("--alpha-r", type=float, default=None,
                   help="renewal-depressed exponent; enables freshness factor")
    p.add_argument("--h1", type=float, default=None,
                   help="hit ratio measured at cache size --s1")
    p.add_argument("--s1", type=parse_size, default=None,
                   help="cache size where --h1 was measured")
    p.add_argument("--s2", type=parse_size, default=None,
                   help="cache size to scale the hit ratio to")
    p.add_argument("--universe", type=float, default=None,
                   help="object universe size; enables the request-rate hit model")
    p.add_argument("--rate", type=float, default=None,
                   help="aggregate request rate in requests/s for the same model")
    p.add_argument("--p", type=float, default=None,
                   help="unique document count for the counting hit bound")
    p.add_argument("--m", type=float, default=None,
                   help="two-request rank for the counting hit bound")
    p.add_argument("--k", type=float, default=None,
                   help="total request count for the counting hit bound")
    p.set_defaults(func=cmd_predict)

    s = sub.add_parser("simulate", parents=[common],
                       help="replay a trace against a cache policy")
    s.add_argument("-t", "--trace", default=None,
                   help="native trace path (default: bundled sample)")
    s.add_argument("--squid", metavar="PATH", default=None,
                   help="read a squid-style proxy access log instead")
    s.add_argument("--policy", choices=POLICY_IDS, default="zbs",
                   help="replacement policy (default zbs)")
    s.add_argument("--capacity", type=parse_size, default=5e6,
                   help="cache capacity (default 5MB)")
    s.add_argument("--sweep", type=parse_size_list, default=None, metavar="S1,S2,...",
                   help="run once per capacity in the comma list")
    s.add_argument("--plot-data", metavar="PATH", default=None,
                   help="also write capacity,hit_ratio CSV rows for plotting")
    s.add_argument("--prefetch", choices=SCHEME_IDS, default=None,
                   help="layer a prefetching scheme over the cache")
    s.add_argument("--threshold", type=float, default=-math.inf,
                   help="prefetch selection threshold (default: select all)")
    s.add_argument("--accessory-fraction", type=float, default=0.10,
                   help="accessory share of capacity for zbs (default 0.10)")
    s.add_argument("--retention-days", type=float, default=None,
                   help="request-statistics retention for zbs, 30..183 days")
    s.add_argument("--count-mode", action="store_true",
                   help="count documents instead of bytes against capacity")
    s.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (trace.TraceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, simcore.SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
