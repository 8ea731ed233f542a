"""Closed-form layer: frozen anchor values, independent numeric oracles,
and seeded property loops over the valid domain."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from zipfcache import analytic
from zipfcache.analytic import (
    DAY,
    DomainError,
    ModelInconsistencyError,
    SaturationError,
    ZipfLaw,
)


# ---------------------------------------------------- normalization constant


def test_normalization_constant_frozen():
    assert analytic.normalization_constant(0.5, 1e6) == pytest.approx(0.5 / 999)


def test_normalization_constant_rejects_degenerate_p():
    with pytest.raises(DomainError):
        analytic.normalization_constant(0.5, 1.0)
    with pytest.raises(DomainError):
        analytic.normalization_constant(0.5, 0.5)


def test_normalization_defining_property():
    rng = np.random.default_rng(101)
    for _ in range(25):
        alpha = rng.uniform(0.1, 0.95)
        p = 10 ** rng.uniform(1, 7)
        a = analytic.normalization_constant(alpha, p)
        integral, _ = quad(lambda x: a * x**-alpha, 1.0, p, epsabs=0.0, epsrel=1e-11, limit=300)
        assert abs(integral - 1.0) < 1e-9


# ------------------------------------------------------------ special points


def test_special_points_against_root_oracle():
    law = ZipfLaw(alpha=0.75, k=1e6)
    pts = analytic.special_points(law)
    p_oracle = brentq(lambda p: p - p**0.75 - 1e6 * 0.25, 1.0, 2e6, xtol=1e-9)
    assert pts.p == pytest.approx(p_oracle, rel=1e-9)
    assert pts.m == pytest.approx(pts.p * 2 ** (-1 / 0.75), rel=1e-12)
    assert pts.p_approx == pytest.approx(250_000.0)


def test_special_points_closed_form_gap():
    pts = analytic.special_points(ZipfLaw(alpha=0.75, k=1e6))
    rel = abs(pts.p_approx - pts.p) / pts.p
    assert rel < 0.05
    assert rel <= pts.p ** (0.75 - 1.0) * (1 + 1e-9)


def test_special_points_ordering_property():
    rng = np.random.default_rng(77)
    for _ in range(40):
        alpha = rng.uniform(0.3, 0.95)
        k = 10 ** rng.uniform(3, 7)
        pts = analytic.special_points(ZipfLaw(alpha=alpha, k=k))
        assert 1.0 <= pts.m < pts.p < k


def test_special_points_rejects_subunit_m():
    # k(1-alpha) small enough pushes the two-request rank below 1
    with pytest.raises(ModelInconsistencyError):
        analytic.special_points(ZipfLaw(alpha=0.5, k=3.0))


# ------------------------------------------------------------- alpha fitting


def test_fit_alpha_three_ways_identities():
    est = analytic.fit_alpha_three_ways(p=200.0, k=1000.0, m=100.0, h=0.5, big_k=1000.0)
    assert est.alpha1 == pytest.approx(1.0)
    est = analytic.fit_alpha_three_ways(p=1000.0, k=1000.0, m=100.0, h=0.5, big_k=1000.0)
    assert est.alpha2 == 0.0
    est = analytic.fit_alpha_three_ways(p=300.0, k=1000.0, m=50.0, h=0.4, big_k=1000.0)
    assert est.alpha3 == pytest.approx(1.0 - 100.0 / 400.0)


def test_fit_alpha_three_ways_rejects_degenerate():
    with pytest.raises(DomainError):
        analytic.fit_alpha_three_ways(p=100.0, k=1000.0, m=100.0, h=0.5, big_k=1000.0)
    with pytest.raises(DomainError):
        analytic.fit_alpha_three_ways(p=100.0, k=50.0, m=10.0, h=0.5, big_k=50.0)


def test_fit_alpha_loglog_recovers_pure_power_law():
    ranks = np.arange(1, 2001, dtype=float)
    for alpha in (0.5, 0.72, 0.9):
        counts = 1e6 * ranks**-alpha
        assert analytic.fit_alpha_loglog(counts) == pytest.approx(alpha, abs=1e-10)


def test_fit_alpha_loglog_validation():
    with pytest.raises(DomainError):
        analytic.fit_alpha_loglog([5.0])
    with pytest.raises(DomainError):
        analytic.fit_alpha_loglog([1.0, 2.0, 3.0])  # ascending


# --------------------------------------------------------- hit ratio pieces


def test_ideal_hit_bounds_frozen():
    bounds = analytic.ideal_hit_bounds(0.7)
    assert bounds.closed_form == pytest.approx(2 ** (-3 / 7), abs=1e-12)
    assert bounds.closed_form == pytest.approx(0.7430, abs=1e-4)
    assert bounds.from_counts is None


def test_ideal_hit_bounds_from_counts():
    bounds = analytic.ideal_hit_bounds(0.7, p=500.0, m=100.0, k=2000.0)
    assert bounds.from_counts == pytest.approx(1.0 - 400.0 / 2000.0)


def test_ideal_hit_bounds_near_one_limit():
    assert analytic.ideal_hit_bounds(0.998).closed_form > 0.998


def test_hit_scaling():
    assert analytic.hit_scaling(0.4, 10.0, 10.0, 0.8) == pytest.approx(0.4)
    assert analytic.hit_scaling(0.30, 1.0, 2.0, 0.8) == pytest.approx(0.34460950649911, rel=1e-10)
    h2 = analytic.hit_scaling(0.25, 3.0, 17.0, 0.6)
    back = analytic.hit_scaling(h2, 17.0, 3.0, 0.6)
    assert back == pytest.approx(0.25, abs=1e-12)


def test_hit_scaling_saturates():
    with pytest.raises(SaturationError):
        analytic.hit_scaling(0.9, 1.0, 100.0, 0.5)


def test_kernel_share_frozen():
    assert analytic.kernel_share(1.0, 1.0, 0.7) == pytest.approx(0.591, abs=1e-3)
    assert analytic.kernel_share(1.0, 1.0, 1 / math.log2(3)) == pytest.approx(0.5, rel=1e-12)
    assert analytic.kernel_share(2.0, 1.0, 0.7) == pytest.approx(1.182, abs=2e-3)


# ------------------------------------------------------------ optimal sizing


def test_optimal_tau_frozen_anchor():
    sizing = analytic.optimal_tau(1.0 / (186 * DAY), 0.8)
    assert sizing.tau_seconds / DAY == pytest.approx(6.0, abs=0.1)
    assert sizing.tau_days == pytest.approx(sizing.tau_seconds / DAY)


def test_optimal_tau_alpha_07():
    sizing = analytic.optimal_tau(1.0 / (186 * DAY), 0.7)
    # direct evaluation: 2**(1/0.7) * 2**(-5/3) * 0.3 * 186 / 2.61 days
    direct = 2 ** (1 / 0.7) * 2 ** (1 / (2 * (0.7 - 1))) * 0.3 * 186 / 2.61
    assert sizing.tau_seconds / DAY == pytest.approx(direct, rel=1e-12)
    assert sizing.tau_seconds / DAY == pytest.approx(18.1, abs=0.1)


def test_optimal_tau_linear_in_lifetime():
    t1 = analytic.optimal_tau(1.0 / (100 * DAY), 0.8).tau_seconds
    t2 = analytic.optimal_tau(1.0 / (200 * DAY), 0.8).tau_seconds
    assert t2 == pytest.approx(2 * t1, rel=1e-12)


def test_optimal_tau_exposes_intermediates():
    sizing = analytic.optimal_tau(
        1.0 / (186 * DAY), 0.8, p_c=0.6, nu_out=1e6, mean_doc_size=1e4
    )
    h_i = 2 ** ((0.8 - 1) / 0.8)
    assert sizing.eff_hit_bound == pytest.approx(0.6 * h_i / math.sqrt(2), rel=1e-12)
    expected = (1 - 0.8) * 0.6 * h_i / 2 * 1e6 * 186 * DAY / 1e4
    assert sizing.m_max == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------- request-rate model


def _simpson(ys, h):
    return float(h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum()))


def test_wolman_mu_zero_is_one():
    assert analytic.wolman_hit_ratio(1e6, 0.8, 10.0, 0.0) == pytest.approx(1.0, abs=1e-9)


def test_wolman_staleness_dominates():
    # mu C x^alpha / lambda >= 1e9 at x=1 drives the ratio to ~0
    val = analytic.wolman_hit_ratio(1e4, 0.8, 1e-6, 1e7)
    assert val < 1e-6


def test_wolman_against_simpson_oracle():
    # fixed-grid Simpson after x = e^u, deliberately not an adaptive scheme
    n, alpha, lam, mu = 1e6, 0.8, 10.0, 1.0 / (186 * DAY)
    val = analytic.wolman_hit_ratio(n, alpha, lam, mu)

    c = (n ** (1 - alpha) - 1) / (1 - alpha)
    us = np.linspace(0.0, math.log(n), 200_001)
    x = np.exp(us)
    ys = x ** (1 - alpha) / c / (1.0 + mu * c * x**alpha / lam)
    oracle = _simpson(ys, us[1] - us[0])
    assert val == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("n", [1e8, 1e10, 1e15, 1e300])
def test_wolman_large_universe_against_simpson_oracle(n):
    # On a linear axis quad misses the mass near x = 1 here: 1.0182, 0.7229,
    # -8.7e-7 and 0.0.
    alpha, lam, mu = 0.8, 5000.0, 1.0 / (30 * DAY)
    val = analytic.wolman_hit_ratio(n, alpha, lam, mu)
    assert 0.0 <= val <= 1.0

    c = (n ** (1 - alpha) - 1) / (1 - alpha)
    us = np.linspace(0.0, math.log(n), 200_001)
    ys = np.exp((1 - alpha) * us) / c / (1.0 + mu * c * np.exp(alpha * us) / lam)
    oracle = _simpson(ys, us[1] - us[0])
    assert val == pytest.approx(oracle, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("n, lam, mu", [
    (math.inf, 10.0, 1e-6), (1e6, math.inf, 1e-6), (1e6, 10.0, math.inf),
    (1e6, 10.0, math.nan),
])
def test_wolman_refuses_non_finite_arguments(n, lam, mu):
    with pytest.raises(DomainError, match="must be finite"):
        analytic.wolman_hit_ratio(n, 0.8, lam, mu)


def test_wolman_monotone_in_mu():
    vals = [
        analytic.wolman_hit_ratio(1e5, 0.75, 5.0, mu)
        for mu in (0.0, 1e-8, 1e-7, 1e-6, 1e-5)
    ]
    assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(vals, vals[1:]))


# ------------------------------------------------------------- renewal math


def test_renewal_alpha_r():
    assert analytic.renewal_alpha_r(1e-9, 0.5, 1e6) == pytest.approx(1.0, abs=1e-6)
    assert analytic.renewal_alpha_r(1e4, 0.35, 1e6) == pytest.approx(1 - 2e4 / 3.5e5, rel=1e-12)
    with pytest.raises(DomainError):
        analytic.renewal_alpha_r(2e5, 0.35, 1e6)


def test_renewal_delta_h():
    assert analytic.renewal_delta_h(3.5e5, 0.35, 1e6) == pytest.approx(0.0, abs=1e-12)
    assert analytic.renewal_delta_h(3.73e5, 0.35, 1e6) == pytest.approx(0.023)


def test_freshness_from_exponents():
    assert analytic.freshness_from_exponents(0.72, 0.70) == pytest.approx(0.9333, abs=1e-4)
    assert analytic.freshness_from_exponents(0.8, 0.8) == 1.0
    rng = np.random.default_rng(3)
    for _ in range(30):
        alpha = rng.uniform(0.3, 0.95)
        alpha_r = alpha - rng.uniform(0.0, alpha - 0.05)
        assert analytic.freshness_from_exponents(alpha, alpha_r) <= 1.0


def test_extra_prefetch_bandwidth():
    assert analytic.extra_prefetch_bandwidth(1.0, 5e6) == 0.0
    assert analytic.extra_prefetch_bandwidth(0.0, 5e6) == 5e6
    frac = analytic.extra_prefetch_bandwidth(0.9333333, 1.0)
    assert frac == pytest.approx(0.0667, abs=1e-4)


def test_reference_operating_point_shape():
    ref = analytic.REFERENCE_OPERATING_POINT
    assert ref["alpha"] == 0.72 and ref["alpha_r"] == 0.70
    assert 0.0 < ref["delta_h"] < ref["hit_ratio"] < 1.0


def test_alpha_domain_guard():
    for bad in (0.005, 0.9995, 1.0, -0.2):
        with pytest.raises(DomainError):
            analytic.ideal_hit_bounds(bad)
