"""Shared test settings and fixtures.

Property tests run derandomized and without a per-example deadline, so the
suite explores the same examples on every run and a slow host cannot turn
a pass into a failure.
"""

import pytest
from hypothesis import settings

from zipfcache.analytic import DAY
from zipfcache.trace import SyntheticSpec, generate_trace

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def renewal_events():
    """The acceptance renewal fixture: one million requests over thirty days."""
    spec = SyntheticSpec(
        n_objects=400_000, alpha=0.72, request_rate=1e6 / (30 * DAY), duration=30 * DAY,
        mean_doc_size=10_000.0, size_spread=1.0, popular_boundary=5_000,
        mu_p=1.0 / (6.2 * DAY), mu_u=1.0 / (202.0 * DAY), seed=23,
    )
    return generate_trace(spec)
