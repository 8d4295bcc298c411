"""Numerical certification of contraction-semigroup approximation bounds.

The package measures, on dense complex matrices, how fast powers of a
contraction track the matching exponential semigroup, certifies
quasi-sectorial geometry through the numerical range, and checks every
closed-form error bound (square-root, cube-root, telescopic, Ritt-type,
resolvent-power, exponential-step, split-step product) against seeded
random ensembles, emitting machine-readable reports.
"""

from . import approximants, bounds, contour, ensembles, harness, linalg, numrange, poisson, report
from .harness import ErrorRecord, ExperimentConfig, RateEstimate, run_experiment

__version__ = "0.1.0"

__all__ = [
    "approximants",
    "bounds",
    "contour",
    "ensembles",
    "harness",
    "linalg",
    "numrange",
    "poisson",
    "report",
    "ErrorRecord",
    "ExperimentConfig",
    "RateEstimate",
    "run_experiment",
    "__version__",
]
