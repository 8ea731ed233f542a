"""Measure what prefetching buys on a workload with document renewal:
hit ratio gained versus origin bytes spent.

Run with: python3 demos/prefetch_payoff.py
"""

from zipfcache.analytic import DAY
from zipfcache.simcore import CacheConfig, PrefetchConfig, simulate
from zipfcache.trace import SyntheticSpec, generate_trace

spec = SyntheticSpec(
    n_objects=20_000,
    alpha=0.72,
    request_rate=200_000 / (30 * DAY),
    duration=30 * DAY,
    mean_doc_size=10_000.0,
    size_spread=1.0,
    mu_p=1.0 / (6.2 * DAY),
    mu_u=1.0 / (202 * DAY),
    popular_boundary=1_000,
    seed=13,
)
events = generate_trace(spec)
config = CacheConfig(policy_id="lru")  # unbounded: isolate staleness effects

plain = simulate(events, config)
print(f"demand-only baseline: H={plain.hit_ratio:.4f}, "
      f"{plain.stale_refetches} stale refetches, "
      f"{plain.demand_bytes / 1e6:.0f} MB demand traffic")

print()
print(f"{'scheme':>18} {'H':>8} {'prefetches':>11} {'extra MB':>9} {'extra %':>8}")
runs = [
    ("goodfetch all", PrefetchConfig("goodfetch")),
    ("goodfetch > 0.6", PrefetchConfig("goodfetch", 0.6)),
    ("api value > 5", PrefetchConfig("api", 5.0)),
    ("lifetime rule", PrefetchConfig("lifetime")),
]
for label, pf in runs:
    report = simulate(events, CacheConfig(policy_id="lru", prefetch=pf))
    extra_bytes = report.demand_bytes + report.prefetch_bytes - plain.demand_bytes
    extra = extra_bytes / plain.demand_bytes
    print(f"{label:>18} {report.hit_ratio:>8.4f} {report.prefetch_fetches:>11} "
          f"{extra_bytes / 1e6:>9.1f} {extra:>8.2%}")

print()
print("fetching everything tops the hit ratio; thresholds trade a little of")
print("that gain for most of the bandwidth, and the lifetime rule needs no")
print("popularity estimate at all")
