"""Closed-form cache performance laws for Zipf-like request popularity.

Request popularity is modelled by a continuous rank-frequency law
``f(x) = A / x**alpha`` with ``0 < alpha < 1``, normalised so that the
density integrates to one over the unique-document range ``[1, p]``.
From that single assumption the module derives the special ranks of the
popularity curve, steady-state hit-ratio expressions and bounds, cache
part sizing, refresh (renewal) accounting and the optimal refresh
interval for a bounded cache.

All rates are per second and all sizes are bytes unless a name says
otherwise.  Exponents close to the degenerate ends of ``(0, 1)`` are
rejected rather than extrapolated.  `wolman_hit_ratio`, the one law
integrated numerically, uses a fixed Gauss-Legendre rule in NumPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "DomainError",
    "ModelInconsistencyError",
    "SaturationError",
    "ZipfLaw",
    "SpecialPoints",
    "AlphaEstimates",
    "HitBounds",
    "OptimalSizing",
    "REFERENCE_OPERATING_POINT",
    "normalization_constant",
    "special_points",
    "fit_alpha_three_ways",
    "fit_alpha_loglog",
    "ideal_hit_bounds",
    "hit_scaling",
    "kernel_share",
    "optimal_tau",
    "wolman_hit_ratio",
    "renewal_alpha_r",
    "renewal_delta_h",
    "freshness_from_exponents",
    "extra_prefetch_bandwidth",
]

DAY = 86400.0

# Exponents outside this open interval make the continuous model useless
# (the normalisation blows up near 1, the curve flattens near 0).
ALPHA_MIN = 0.01
ALPHA_MAX = 0.999


class DomainError(ValueError):
    """An argument is outside the model's domain."""


class ModelInconsistencyError(DomainError):
    """The model equations have no solution for these inputs."""


class SaturationError(ValueError):
    """A scaled hit ratio exceeded 1; the target size is past saturation."""


def _check_alpha(alpha: float) -> None:
    if not (ALPHA_MIN < alpha < ALPHA_MAX):
        raise DomainError(
            f"alpha={alpha!r} outside supported range ({ALPHA_MIN}, {ALPHA_MAX})"
        )


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if not value > 0:
            raise DomainError(f"{name} must be > 0, got {value!r}")


@dataclass(frozen=True)
class ZipfLaw:
    """Popularity law f(x) = A / x**alpha over document ranks x.

    ``k`` is the number of cacheable requests the law describes; the
    normaliser A follows from alpha and the unique-document rank p (see
    `normalization_constant`).
    """

    alpha: float
    k: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k!r}")


@dataclass(frozen=True)
class SpecialPoints:
    """Characteristic ranks of the popularity curve.

    m         rank whose expected request count is 2
    p         rank whose expected request count is 1 (unique documents)
    k         cacheable requests that produced the curve
    p_approx  closed-form estimate k * (1 - alpha) of p
    """

    m: float
    p: float
    k: float
    p_approx: float


#: Measured operating point of a regional proxy used as a reference for
#: defaults and tolerance checks: exponent pair, hit ratio, loss and the
#: modification rates of the popular / unpopular document classes.
REFERENCE_OPERATING_POINT = {
    "alpha": 0.72,
    "alpha_r": 0.70,
    "hit_ratio": 0.3204,
    "delta_h": 0.023,
    "mu_p": 1.0 / (6.2 * DAY),
    "mu_u": 1.0 / (202.0 * DAY),
}


class AlphaEstimates(NamedTuple):
    """Exponent recovered from three different trace statistics."""

    alpha1: float
    alpha2: float
    alpha3: float


class HitBounds(NamedTuple):
    """Upper bounds on the cacheable hit ratio."""

    closed_form: float
    from_counts: float | None


@dataclass(frozen=True)
class OptimalSizing:
    """Refresh interval that balances hit value against refresh traffic.

    tau_seconds    optimal refresh interval
    eff_hit_bound  upper bound on the effective hit ratio, p_c * H_i / sqrt(2)
    m_max          kernel document budget implied by the bound, when the
                   origin bandwidth was supplied (otherwise None)
    """

    tau_seconds: float
    eff_hit_bound: float
    m_max: float | None = None

    @property
    def tau_days(self) -> float:
        return self.tau_seconds / DAY


def normalization_constant(alpha: float, p: float) -> float:
    """Normalisation A = (1 - alpha) / (p**(1 - alpha) - 1) of the law.

    Chosen so that the integral of A * x**-alpha over [1, p] equals 1.
    """
    _check_alpha(alpha)
    if not p > 1:
        raise DomainError(f"p must be > 1, got {p!r}")
    return (1.0 - alpha) / (p ** (1.0 - alpha) - 1.0)


def special_points(law: ZipfLaw) -> SpecialPoints:
    """Solve for the one-request and two-request ranks of the curve.

    The unique-document rank p satisfies p - p**alpha = k * (1 - alpha),
    found by bisection on [1, 2k]; the two-request rank is then
    m = p * 2**(-1/alpha).  The closed-form estimate k * (1 - alpha)
    neglects the p**alpha term and is reported alongside the root.
    """
    alpha, k = law.alpha, law.k
    rhs = k * (1.0 - alpha)

    def f(x: float) -> float:
        return x - x ** alpha - rhs

    lo, hi = 1.0, 2.0 * k
    if f(lo) > 0.0 or f(hi) < 0.0:
        raise ModelInconsistencyError(
            f"no unique-document rank in [1, {2 * k:g}] for alpha={alpha}, k={k}"
        )
    # Bisect essentially to machine precision; the re-substitution checks
    # downstream want relative residuals below 1e-6 even at alpha = 0.9,
    # which a coarser absolute tolerance cannot deliver.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    p = 0.5 * (lo + hi)
    m = p * 2.0 ** (-1.0 / alpha)
    if m < 1.0:
        raise ModelInconsistencyError(
            f"two-request rank {m:g} below 1; model breaks down for these inputs"
        )
    return SpecialPoints(m=m, p=p, k=k, p_approx=rhs)


def fit_alpha_three_ways(
    p: float, k: float, m: float, h: float, big_k: float
) -> AlphaEstimates:
    """Recover the exponent from trace statistics three independent ways.

    alpha1 from the ratio of the special ranks, alpha2 from the share of
    unique documents, alpha3 from the two-request rank and the hit ratio:

        alpha1 = ln 2 / ln (p / m)
        alpha2 = 1 - p / k
        alpha3 = 1 - 2 m / (h K)
    """
    _check_positive(p=p, k=k, m=m, h=h, big_k=big_k)
    if p <= m:
        raise DomainError(f"need p > m, got p={p!r}, m={m!r}")
    if k < p:
        raise DomainError(f"need k >= p, got k={k!r}, p={p!r}")
    alpha1 = math.log(2.0) / math.log(p / m)
    alpha2 = 1.0 - p / k
    alpha3 = 1.0 - 2.0 * m / (h * big_k)
    return AlphaEstimates(alpha1, alpha2, alpha3)


def fit_alpha_loglog(counts) -> float:
    """Least-squares exponent of a descending rank-count histogram.

    Fits log(count) against log(rank) over the head tenth of the ranks
    (at least the first two), where the power law is cleanest, and
    returns the negated slope.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1 or counts.size < 2:
        raise DomainError("need a 1-d histogram with at least two ranks")
    if np.any(np.diff(counts) > 0):
        raise DomainError("histogram counts must be sorted descending")
    head = counts[:max(2, counts.size // 10)]
    if np.any(head <= 0):
        raise DomainError("head counts must be positive for a log fit")
    ranks = np.arange(1, head.size + 1, dtype=float)
    slope, _ = np.polyfit(np.log(ranks), np.log(head), 1)
    return -float(slope)


def ideal_hit_bounds(
    alpha: float,
    p: float | None = None,
    m: float | None = None,
    k: float | None = None,
) -> HitBounds:
    """Upper bounds on the ideal (cacheable) hit ratio.

    The closed form 2**((alpha - 1)/alpha) needs only the exponent; the
    count form 1 - (p - m)/k discounts the single-request documents and
    is returned when all three counts are supplied.

    Both credit the first request of each repeated document as a hit,
    which a demand cache always misses.  On a static, fully cacheable
    stream the count form therefore sits exactly m/k above the hit ratio
    (k - p)/k of a cold, unbounded demand cache.
    """
    _check_alpha(alpha)
    closed = 2.0 ** ((alpha - 1.0) / alpha)
    from_counts = None
    if p is not None and m is not None and k is not None:
        _check_positive(p=p, m=m, k=k)
        if p < m:
            raise DomainError(f"need p >= m, got p={p!r}, m={m!r}")
        from_counts = 1.0 - (p - m) / k
    return HitBounds(closed, from_counts)


def hit_scaling(h1: float, s1: float, s2: float, alpha: float) -> float:
    """Hit ratio after resizing a cache from s1 to s2 bytes.

    Applies the power law H2 = H1 * (s2 / s1)**(1 - alpha).  Raises
    SaturationError when the scaled value exceeds 1; the caller decides
    how to clamp.

    The exponent comes from integrating the popularity law over the top
    ranks, so the law describes a cache that holds the most popular
    documents.  LRU on a cold trace runs steeper, because it also admits
    documents requested only once.
    """
    _check_alpha(alpha)
    _check_positive(h1=h1, s1=s1, s2=s2)
    h2 = h1 * (s2 / s1) ** (1.0 - alpha)
    if h2 > 1.0:
        raise SaturationError(
            f"scaled hit ratio {h2:.4f} exceeds 1; size {s2:g} is past saturation"
        )
    return h2


def kernel_share(t_eff: float, t_u: float, alpha: float) -> float:
    """Ratio of kernel to accessory document counts.

    S_k / S_u = t_eff / ((2**(1/alpha) - 1) * t_u), where t_eff and t_u
    are the observed lifetimes of two-request and single-request
    documents.  Near t_eff = t_u the kernel stays well under half of the
    combined population for realistic exponents.
    """
    _check_alpha(alpha)
    _check_positive(t_eff=t_eff, t_u=t_u)
    return t_eff / ((2.0 ** (1.0 / alpha) - 1.0) * t_u)


def optimal_tau(
    mu_u: float,
    alpha: float,
    p_c: float = 0.6,
    nu_out: float | None = None,
    mean_doc_size: float | None = None,
) -> OptimalSizing:
    """Optimal refresh interval for a cache of long-lived documents.

    tau = 2**(1/alpha) * 2**(1/(2(alpha-1))) * (1 - alpha) / (2.61 mu_u)

    mu_u is the modification rate of the stored (unpopular-class)
    documents, per second.  The effective-hit bound p_c * H_i / sqrt(2)
    is always reported; the kernel document budget m_max is derived from
    it when the origin bandwidth nu_out (bytes/s) is given, counted in
    documents if mean_doc_size is also given and in bytes otherwise.
    """
    _check_alpha(alpha)
    _check_positive(mu_u=mu_u)
    if not (0.0 < p_c <= 1.0):
        raise DomainError(f"p_c must be in (0, 1], got {p_c!r}")
    tau = (
        2.0 ** (1.0 / alpha)
        * 2.0 ** (1.0 / (2.0 * (alpha - 1.0)))
        * (1.0 - alpha)
        / (2.61 * mu_u)
    )
    h_i = 2.0 ** ((alpha - 1.0) / alpha)
    eff_bound = p_c * h_i / math.sqrt(2.0)
    m_max = None
    if nu_out is not None:
        _check_positive(nu_out=nu_out)
        t_ch = 1.0 / mu_u
        m_max = (1.0 - alpha) * p_c * h_i / 2.0 * nu_out * t_ch
        if mean_doc_size is not None:
            _check_positive(mean_doc_size=mean_doc_size)
            m_max /= mean_doc_size
    return OptimalSizing(tau_seconds=tau, eff_hit_bound=eff_bound, m_max=m_max)


def wolman_hit_ratio(n: float, alpha: float, lambda_n: float, mu: float) -> float:
    """Steady-state hit ratio of a population-wide cache with renewal.

    Integrates the per-rank hit probability of a document requested at
    aggregate rate lambda_n and invalidated at rate mu:

        C_N = integral_1^n  1/(C x**alpha) * 1/(1 + mu C x**alpha / lambda_n) dx

    with C the normalisation integral of x**-alpha over [1, n].  mu = 0
    collapses the multiplier to 1 and the integral to the normalised
    popularity mass, i.e. C_N = 1.  The integral is taken over u = ln x,
    where the integrand stays smooth however large n is, by a fixed
    32-node Gauss-Legendre rule on each of 64 equal panels over
    [0, ln n].  The multiplier falls from 1 to 0 around u* = -ln(r) / alpha,
    where r = mu C / lambda_n; when mu > 0, panels also end at
    u* +- 1, 2, 4 and 8 / alpha, where these fall inside [0, ln n].
    """
    _check_alpha(alpha)
    for name, value in (("n", n), ("lambda_n", lambda_n), ("mu", mu)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
    if not n > 1:
        raise DomainError(f"n must be > 1, got {n!r}")
    _check_positive(lambda_n=lambda_n)
    if mu < 0:
        raise DomainError(f"mu must be >= 0, got {mu!r}")
    c = (n ** (1.0 - alpha) - 1.0) / (1.0 - alpha)
    ratio = mu * c / lambda_n
    top = math.log(n)
    edges = np.linspace(0.0, top, 64 + 1)
    if ratio > 0:
        step = -math.log(ratio) / alpha + np.array([-8, -4, -2, -1, 1, 2, 4, 8]) / alpha
        edges = np.union1d(edges, np.clip(step, 0.0, top))
    # numpy.polynomial loads here, not with the package: no other law needs it
    nodes, weights = np.polynomial.legendre.leggauss(32)
    half = np.diff(edges) / 2
    u = (edges[:-1] + half)[:, None] + half[:, None] * nodes  # one row per panel
    # dx = x du, so the integrand is x / (C x**alpha) / (1 + r x**alpha);
    # r x**alpha overflows to inf near n = 1e300, where the term is 0
    with np.errstate(over="ignore"):
        values = np.exp((1.0 - alpha) * u) / c / (1.0 + ratio * np.exp(alpha * u))
    return float(half @ (values @ weights))


def renewal_alpha_r(m: float, h: float, big_k: float) -> float:
    """Depressed popularity exponent implied by measured cache statistics.

    alpha_r = 1 - 2 m / (h K), with m the two-request document count,
    h the measured hit ratio and K the total request count.
    """
    _check_positive(m=m, h=h, big_k=big_k)
    if 2.0 * m >= h * big_k:
        raise DomainError(
            f"2*m={2 * m:g} must stay below h*K={h * big_k:g} for a positive exponent"
        )
    return 1.0 - 2.0 * m / (h * big_k)


def renewal_delta_h(theta_sum: float, h: float, big_k: float) -> float:
    """Hit-ratio gap between ideal and measured service of the kernel.

    delta_h = (sum of kernel request counts - h K) / K.
    """
    _check_positive(big_k=big_k)
    if theta_sum < 0 or h < 0:
        raise DomainError("theta_sum and h must be >= 0")
    return (theta_sum - h * big_k) / big_k


def freshness_from_exponents(alpha: float, alpha_r: float) -> float:
    """Aggregate freshness factor (1 - alpha) / (1 - alpha_r).

    The fraction of cache-served documents that are still current given
    the nominal exponent and its renewal-depressed counterpart.
    """
    _check_alpha(alpha)
    _check_alpha(alpha_r)
    if alpha_r > alpha:
        raise DomainError("alpha_r cannot exceed alpha")
    return (1.0 - alpha) / (1.0 - alpha_r)


def extra_prefetch_bandwidth(ff: float, nu_int: float) -> float:
    """Added origin bandwidth for keeping selected documents fresh.

    (1 - ff) * nu_int, where ff is the freshness factor and nu_int the
    demand bandwidth of the external links, bytes per second.
    """
    if not (0.0 <= ff <= 1.0):
        raise DomainError(f"ff must be in [0, 1], got {ff!r}")
    if nu_int < 0:
        raise DomainError(f"nu_int must be >= 0, got {nu_int!r}")
    return (1.0 - ff) * nu_int
