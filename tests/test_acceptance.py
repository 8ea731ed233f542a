"""Acceptance gate: one verdict line per criterion.

Each test prints `[ACCEPT] name: PASS/FAIL` (bypassing capture so the
line always reaches the terminal) and then asserts.  All ten criteria
are expected to pass on the pinned workloads; the printed detail carries
the measured numbers.
"""

import json
import math

import numpy as np
import pytest

from zipfcache import analytic
from zipfcache.analytic import DAY, ZipfLaw, special_points
from zipfcache.cli import main
from zipfcache.policies import ZBSCache
from zipfcache.prefetch import ObjectPrefetchStats, lifetime_threshold
from zipfcache.simcore import CacheConfig, PrefetchConfig, _Engine, simulate, sweep_sizes
from zipfcache.trace import (
    REQUEST,
    SyntheticSpec,
    generate_trace,
    popularity_histogram,
)

RATE = 1e6 / (30 * DAY)  # one million requests over thirty days


def _verdict(capsys, name, ok, detail=""):
    line = f"[ACCEPT] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(flush=True)
        print(line, flush=True)
    assert ok, f"{name}: {detail}"


def _footprint(events):
    seen = {}
    for e in events:
        if e.kind == REQUEST and e.object_id not in seen:
            seen[e.object_id] = e.size_bytes
    return sum(seen.values())


@pytest.fixture(scope="session")
def static_events():
    spec = SyntheticSpec(
        n_objects=100_000, alpha=0.8, request_rate=RATE, duration=30 * DAY,
        mean_doc_size=10_000.0, size_spread=1.0, seed=11,
    )
    return generate_trace(spec)


@pytest.fixture(scope="session")
def renewal_events():
    spec = SyntheticSpec(
        n_objects=400_000, alpha=0.72, request_rate=RATE, duration=30 * DAY,
        mean_doc_size=10_000.0, size_spread=1.0, popular_boundary=5_000,
        mu_p=1.0 / (6.2 * DAY), mu_u=1.0 / (202.0 * DAY), seed=23,
    )
    return generate_trace(spec)


@pytest.fixture(scope="session")
def renewal_unbounded(renewal_events):
    return simulate(renewal_events, CacheConfig(policy_id="lru"))


def test_optimal_size_formula(capsys):
    tau = analytic.optimal_tau(1.0 / (186 * DAY), 0.8).tau_days
    _verdict(
        capsys, "optimal-size-formula", abs(tau - 6.0) <= 0.1,
        f"tau={tau:.4f} days, target 6.0 +/- 0.1",
    )


def test_ideal_hit_bound(capsys):
    bound = analytic.ideal_hit_bounds(0.7).closed_form
    _verdict(
        capsys, "ideal-hit-bound", abs(bound - 0.7430) <= 1e-4,
        f"bound={bound:.6f}, target 0.7430 +/- 1e-4",
    )


def test_freshness_bandwidth_pair(capsys):
    ff = analytic.freshness_from_exponents(0.72, 0.70)
    frac = analytic.extra_prefetch_bandwidth(ff, 1.0)
    ok = abs(ff - 0.933) <= 1e-3 and abs(frac - 0.067) <= 1e-3
    _verdict(
        capsys, "freshness-bandwidth-pair", ok,
        f"ff={ff:.5f} (target 0.933 +/- 0.001), "
        f"extra={frac:.5f} (target 0.067 +/- 0.001)",
    )


def test_fundamental_system_consistency(capsys):
    rng = np.random.default_rng(2024)
    worst_resub = 0.0
    gap_ok = True
    for _ in range(100):
        alpha = rng.uniform(0.5, 0.9)
        k = 10 ** rng.uniform(4, 7)
        pts = special_points(ZipfLaw(alpha=alpha, a=1.0, k=k))
        a = analytic.normalization_constant(alpha, pts.p)
        at_p = k * a * pts.p ** -alpha
        at_m = k * a * pts.m ** -alpha
        worst_resub = max(worst_resub, abs(at_p - 1.0), abs(at_m - 2.0) / 2.0)
        rel = abs(pts.p_approx - pts.p) / pts.p
        gap_ok = gap_ok and rel <= pts.p ** (alpha - 1.0) * (1 + 1e-9)
    ok = worst_resub <= 1e-6 and gap_ok
    _verdict(
        capsys, "fundamental-system-consistency", ok,
        f"worst re-substitution residual {worst_resub:.2e} (limit 1e-6) "
        f"over 100 draws; closed-form gap bound {'held' if gap_ok else 'broken'}",
    )


def test_static_simulation_vs_count_bound(capsys, static_events):
    # The count bound credits the first request of every repeated document
    # as a hit; a cold demand cache misses it, and on a static, fully
    # cacheable stream it hits everything else.  So the unbounded cache
    # sits below the bound by exactly m/k, the share of first requests to
    # documents requested at least twice.
    report = simulate(static_events, CacheConfig(policy_id="lru"))
    k = report.cacheable_requests
    p = report.unique_docs
    m = report.two_plus_docs
    bound = analytic.ideal_hit_bounds(0.8, p=p, m=m, k=k).from_counts
    gap = bound - report.hit_ratio
    ok = report.hit_ratio <= bound and abs(gap - m / k) <= 1e-9
    _verdict(
        capsys, "static-simulation-vs-count-bound", ok,
        f"H={report.hit_ratio:.4f}, count bound={bound:.4f}, gap={gap:.4f}, "
        f"m/k={m / k:.4f}; H <= bound and |gap - m/k| <= 1e-9",
    )


def test_power_law_scaling_exponent(capsys, static_events):
    footprint = _footprint(static_events)
    sizes = [round(f * footprint) for f in (0.05, 0.10, 0.20, 0.40)]
    # H ~ C**(1 - alpha) is the law of a cache holding the most popular
    # documents, so sweep the frequency policy: LRU admits every
    # single-request document and runs steeper at these sizes.
    runs = sweep_sizes(static_events, CacheConfig(policy_id="lfu"), sizes)
    ratios = [r.hit_ratio for _, r in runs]
    logs = np.log(sizes)
    logh = np.log(ratios)
    slope_mid = float((logh[2] - logh[1]) / (logs[2] - logs[1]))
    slope_all = float(np.polyfit(logs, logh, 1)[0])
    target = 1.0 - 0.8
    _verdict(
        capsys, "power-law-scaling-exponent", abs(slope_mid - target) <= 0.1,
        f"mid-range slope={slope_mid:.3f}, full fit={slope_all:.3f}, "
        f"target {target:.1f} +/- 0.1; "
        f"lfu H={', '.join(f'{h:.4f}' for h in ratios)} at 5/10/20/40% of footprint",
    )


def test_renewal_accounting(capsys, renewal_events, renewal_unbounded):
    alpha_fit = analytic.fit_alpha_loglog(popularity_histogram(renewal_events).counts)
    rep = renewal_unbounded
    alpha_r = analytic.renewal_alpha_r(
        rep.two_plus_docs, rep.hit_ratio, rep.cacheable_requests
    )
    twin = [e for e in renewal_events if e.kind == REQUEST]
    h_static = simulate(twin, CacheConfig(policy_id="lru")).hit_ratio
    delta_h = h_static - rep.hit_ratio
    ok = alpha_r < alpha_fit and 0.005 <= delta_h <= 0.06
    _verdict(
        capsys, "renewal-accounting", ok,
        f"alpha_fit={alpha_fit:.4f}, alpha_r={alpha_r:.4f}, "
        f"delta_h={delta_h:.4f} (window [0.005, 0.06])",
    )


def test_zbs_behavior(capsys, renewal_events):
    capacity = round(0.20 * _footprint(renewal_events))
    lru = simulate(renewal_events, CacheConfig(capacity_bytes=capacity, policy_id="lru"))
    eng = _Engine(CacheConfig(capacity_bytes=capacity, policy_id="zbs"))
    zbs = eng.run(renewal_events)
    peak_frac = eng.policy.peak_accessory_bytes / capacity

    micro = ZBSCache(10_000)
    micro.on_miss_admit("doc", 100, 0.0)
    micro.on_hit("doc", 10.0)
    assert micro.kernel["doc"].theta == 2
    micro.on_modification_fetched("doc", 100, 20.0)
    theta_after = micro.kernel["doc"].theta

    ok = (
        zbs.hit_ratio >= lru.hit_ratio - 0.005
        and peak_frac <= 0.10 + 1e-9
        and theta_after == 1
    )
    _verdict(
        capsys, "zbs-behavior", ok,
        f"zbs H={zbs.hit_ratio:.4f} vs lru H={lru.hit_ratio:.4f} (margin -0.005), "
        f"peak accessory {peak_frac:.4f} of capacity (limit 0.10), "
        f"theta after refetch={theta_after}",
    )


def test_prefetch_dominance_and_cost(capsys, renewal_events, renewal_unbounded):
    plain = renewal_unbounded
    pf = simulate(
        renewal_events,
        CacheConfig(policy_id="lru", prefetch=PrefetchConfig("goodfetch", -math.inf)),
    )
    extra = (pf.demand_bytes + pf.prefetch_bytes - plain.demand_bytes) / plain.demand_bytes
    ref = analytic.REFERENCE_OPERATING_POINT
    target = 1.0 - analytic.freshness_from_exponents(ref["alpha"], ref["alpha_r"])

    micro = ObjectPrefetchStats(
        object_id="doc", p_i=0.01, l_i=10 * DAY, a_rate=1.0,
        mod_count=10, install_time=0.0, last_modified=89 * DAY,
    )
    fires = lifetime_threshold(micro, 100 * DAY)  # copy age 11 d, mean 10 d

    ok = pf.hit_ratio >= plain.hit_ratio and abs(extra - target) <= 0.03 and fires
    _verdict(
        capsys, "prefetch-dominance-and-cost", ok,
        f"H {plain.hit_ratio:.4f} -> {pf.hit_ratio:.4f}, extra bytes "
        f"{extra:.4f} of demand vs (1-ff)={target:.4f} (margin 0.03), "
        f"lifetime micro fetch={fires}",
    )


def test_determinism(capsys, tmp_path):
    gen = ["generate", "--objects", "2000", "--requests", "20000", "--seed", "5"]
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main([*gen, "-o", str(t1)]) == 0
    assert main([*gen, "-o", str(t2)]) == 0
    same_trace = t1.read_bytes() == t2.read_bytes()

    sim = ["simulate", "-t", str(t1), "--capacity", "2MB", "--prefetch", "goodfetch"]
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main([*sim, "-o", str(r1)]) == 0
    assert main([*sim, "-o", str(r2)]) == 0
    same_report = r1.read_bytes() == r2.read_bytes()
    json.loads(r1.read_text())  # and the payload is valid JSON

    _verdict(
        capsys, "determinism", same_trace and same_report,
        f"generate byte-identical={same_trace}, simulate byte-identical={same_report}",
    )
