"""Zipf-law cache modeling: analytic hit-ratio formulas, synthetic
traces, a replay engine with pluggable replacement policies, and
long-term prefetching schemes."""

__version__ = "0.1.0"

from . import analytic, policies, prefetch, simcore, trace
from .analytic import ZipfLaw, special_points
from .simcore import CacheConfig, SimReport, simulate
from .trace import SyntheticSpec, generate_trace, parse_trace_file, write_trace_file

__all__ = [
    "__version__",
    "analytic",
    "policies",
    "prefetch",
    "simcore",
    "trace",
    "ZipfLaw",
    "special_points",
    "CacheConfig",
    "SimReport",
    "simulate",
    "SyntheticSpec",
    "generate_trace",
    "parse_trace_file",
    "write_trace_file",
]
