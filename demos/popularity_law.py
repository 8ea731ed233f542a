"""Walk through the closed-form layer: from an exponent and a request
count to cache sizing numbers.

Run with: python3 demos/popularity_law.py
"""

from zipfcache.analytic import (
    DAY,
    REFERENCE_OPERATING_POINT,
    ZipfLaw,
    extra_prefetch_bandwidth,
    freshness_from_exponents,
    ideal_hit_bounds,
    kernel_share,
    normalization_constant,
    optimal_tau,
    special_points,
    wolman_hit_ratio,
)

K = 1e6  # cacheable requests in the observation span

print(f"popularity law f(x) = A / x^alpha over {K:.0e} requests")
print()
print(f"{'alpha':>6} {'p (unique)':>12} {'m (2-req)':>12} {'A':>10} "
      f"{'H bound':>8} {'tau days':>9}")
for alpha in (0.6, 0.7, 0.72, 0.8, 0.9):
    pts = special_points(ZipfLaw(alpha=alpha, k=K))
    a = normalization_constant(alpha, pts.p)
    bound = ideal_hit_bounds(alpha).closed_form
    tau = optimal_tau(1.0 / (186 * DAY), alpha).tau_days
    print(f"{alpha:>6.2f} {pts.p:>12.0f} {pts.m:>12.0f} {a:>10.2e} "
          f"{bound:>8.4f} {tau:>9.2f}")

print()
alpha = 0.8
pts = special_points(ZipfLaw(alpha=alpha, k=K))
print(f"at alpha={alpha}: the closed-form estimate k(1-alpha) = {pts.p_approx:.0f}")
print(f"overshoots the exact unique-document rank {pts.p:.0f} by "
      f"{abs(pts.p_approx - pts.p) / pts.p:.1%},")
print(f"exactly the predicted relative gap p^(alpha-1) = {pts.p ** (alpha - 1):.3f}")

print()
share = kernel_share(1.0, 1.0, alpha)
print(f"with equal observed lifetimes the kernel holds {share:.3f} documents")
print("per accessory document, so two-request documents stay the minority")

print()
ref = REFERENCE_OPERATING_POINT
ff = freshness_from_exponents(ref["alpha"], ref["alpha_r"])
extra = extra_prefetch_bandwidth(ff, 1.0)
print(f"reference proxy pair alpha={ref['alpha']}, alpha_r={ref['alpha_r']}:")
print(f"  freshness factor {ff:.3f}, keeping everything fresh costs "
      f"{extra:.1%} extra bandwidth")

print()
lam = 10.0
for t_ch_days in (1e9, 186, 14):
    mu = 1.0 / (t_ch_days * DAY)
    h = wolman_hit_ratio(1e6, 0.8, lam, mu)
    label = "effectively static" if t_ch_days > 1e6 else f"{t_ch_days:g}-day lifetime"
    print(f"population-wide hit ratio at {lam:.0f} req/s, {label}: {h:.4f}")
