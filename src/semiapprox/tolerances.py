"""Central table of numerical tolerances.

Every bound comparison and geometric membership test in the package reads its
tolerance from here, so that acceptance runs are reproducible and the slack
convention is stated exactly once.
"""

# Geometric membership: absolute distance to a region of the complex plane.
TOL_GEO = 1e-9

# Bound-check slack: empirical <= bound * (1 + REL_SLACK) + ABS_SLACK.
REL_SLACK = 1e-8
ABS_SLACK = 1e-10

# Inputs to routines that require a contraction may exceed norm 1 by this much.
CONTRACTION_INPUT_TOL = 1e-9

# Matrix inversion refuses condition numbers above this.
MAX_CONDITION = 1e14

# Matrix exponential refuses spectral norms above this.
MAX_EXPM_NORM = 1e6

# Poisson series are truncated once the omitted probability mass is below this.
POISSON_MASS_TOL = 1e-14

# Contour quadrature: each value's proved truncation error must lie below this.
CONTOUR_QUAD_TOL = 1e-8

# Numerical-range sweeps take at most this many angles (an even count).
MAX_SWEEP_ANGLES = 65536

# Contour resolvent majorants: ||(z - C)^{-1}|| over the majorant on the arc and
# lines, and times dist(z, D(alpha)), may exceed 1 by at most these.
MAJORANT_TOL = 1e-8
MAJORANT_DIST_TOL = 1e-6

# Bisection tolerance for the smallest certified semi-angle.
SEMI_ANGLE_TOL = 1e-6


def passes(empirical: float, bound: float) -> bool:
    """Single slack convention for every empirical-vs-bound comparison."""
    return empirical <= bound * (1.0 + REL_SLACK) + ABS_SLACK
