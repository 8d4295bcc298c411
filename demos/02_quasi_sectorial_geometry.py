"""Numerical-range geometry: certify W(C) inside the ice-cream cone D(alpha).

Builds a sector-confined generator A, forms the resolvent contraction
(1 + tA)^{-1}, sweeps its numerical-range boundary, and certifies the
smallest semi-angle that contains it.
"""

import math

import numpy as np

from semiapprox import approximants, ensembles, linalg, numrange

alpha = math.pi / 8
a = ensembles.random_m_sectorial(6, alpha, seed=7)
print(f"generator A: dim 6, numerical range confined to |arg z| <= {alpha:.4f}")

pts = numrange.numerical_range_boundary(a, 64)
print(f"  boundary arg range: [{np.angle(pts).min():+.4f}, {np.angle(pts).max():+.4f}]")

for t in (0.1, 1.0, 10.0):
    f = approximants.resolvent_family(a)(t)
    pts = numrange.numerical_range_boundary(f, 256)
    violation = np.max(numrange.distance_to_D_alpha(pts, alpha))
    est = numrange.min_semi_angle(f, pts)
    print(
        f"t={t:5.1f}  ||F(t)||={linalg.op_norm(f):.6f}  certified at alpha={alpha:.4f}: "
        f"{numrange.quasi_sectorial(f, alpha)}  max violation={violation:.2e}  "
        f"min semi-angle~{est:.4f}"
    )

print("\na matrix that is NOT quasi-sectorial for small alpha:")
c = np.diag([-0.5, 0.3]).astype(complex)
pts = numrange.numerical_range_boundary(c, 64)
dists = numrange.distance_to_D_alpha(pts, 0.3)
worst = int(np.argmax(dists))
print(
    f"diag(-0.5, 0.3) at alpha=0.3: passed={numrange.quasi_sectorial(c, 0.3)}, "
    f"worst point={complex(pts[worst]):.3f}, distance={dists[worst]:.4f}"
)
est = numrange.min_semi_angle(c, numrange.numerical_range_boundary(c, 256))
print(f"its smallest certified semi-angle: {est:.4f} (needs sin(alpha) >= 0.5)")
