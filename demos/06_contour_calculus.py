"""Functional calculus along the boundary of D(alpha').

Reconstructs C^n (1-C) for a certified quasi-sectorial contraction by
resolvent quadrature along the contour and compares against direct matrix
computation.  Each f comes with a bound on |f| over discs, from which the
quadrature's truncation error is proved below CONTOUR_QUAD_TOL before any
node is solved, and the first trial contour so proved is the one solved.
The resolvent majorants are then checked node by node on that contour:
each node's resolvent norm is bounded by 1/dist(z, W(C)) from the outer
polygon of W(C), and exactly where that bound cannot prove the check, so the
three majorant lines print proved upper bounds on the ratios.
"""

import math

import numpy as np

from semiapprox import approximants, contour, ensembles, linalg, numrange

alpha = math.pi / 8
a = ensembles.random_m_sectorial(5, alpha, seed=61)
c = approximants.resolvent_family(a)(1.0)
assert numrange.quasi_sectorial(c, alpha)

alpha_prime = 0.5 * (alpha + math.pi / 2)
nodes = contour.build_contour(alpha_prime)
print(f"contour at alpha' = {alpha_prime:.4f}: {len(nodes)} nodes "
      f"(arc radius {math.sin(alpha_prime):.4f}, line length {math.cos(alpha_prime):.4f})")
print(f"interior winding check at z=0.2: "
      f"{contour.winding_number(nodes, 0.2 + 0j):.12f}")

# one resolvent sweep of the proved contour gives all three reconstructions
# and the nodewise resolvent-majorant check reported below; each f_bounds
# entry bounds |z^n (1 - z)| on the discs |z - center| <= radius
eye = np.eye(5)
ns = (1, 4, 16)
recons, report = contour.riesz_dunford_many(
    [lambda z, n=n: z**n * (1 - z) for n in ns], c, alpha_prime, alpha,
    [lambda z, r, n=n: (np.abs(z) + r) ** n * (np.abs(1 - z) + r) for n in ns],
)
for n, recon in zip(ns, recons):
    direct = linalg.mat_pow(c, n) @ (eye - c)
    print(f"n={n:>3}: ||reconstructed C^n(1-C) - direct|| = "
          f"{linalg.op_norm(recon - direct):.2e}")


def worst_integrand(n):
    """max |z^n - e^(n(z-1))| over the nodes of build_contour(alpha')."""
    gap = nodes.z**n - np.exp(n * (nodes.z - 1.0))
    return float(np.max(np.hypot(gap.real, gap.imag)))


print("\nresolvent majorants on the contour solved:")
print(f"  arc ratio   <= {report.worst_ratio_arc:.6f}")
print(f"  line ratio  <= {report.worst_ratio_lines:.6f}")
print(f"  dist ratio  <= {report.worst_dist_ratio:.6f}")
print(f"  max |z^n - e^(n(z-1))| on contour (n=16): {worst_integrand(16):.4f}")
print("\nthe nodewise integrand gap decays with n, which is exactly why the")
print("norm convergence follows from dominated convergence along the contour:")
for n in (16, 256, 4096):
    print(f"  n={n:>5}: max integrand gap = {worst_integrand(n):.6f}")
