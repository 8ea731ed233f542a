"""Shared test settings.

Property tests run derandomized and without a per-example deadline, so the
suite explores the same examples on every run and a slow host cannot turn
a pass into a failure.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
