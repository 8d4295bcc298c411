"""The probabilistic engine: Poisson averages of contraction powers.

C^n - e^{n(C-1)} is the Poisson(n) average of C^n - C^m over m.  Splitting
the average at |m - n| <= eps gives a central part controlled by the
one-step difference and a tail controlled by Tchebychev's inequality.
"""

import math

import numpy as np

from semiapprox import bounds, ensembles, linalg, poisson

print("exact tails vs the Tchebychev ceiling n/eps^2:")
for n in (1, 4, 16, 64):
    eps = math.sqrt(n)
    tail = poisson.poisson_tail(n, eps)
    print(f"  n={n:>3}, eps=sqrt(n): exact tail = {tail:.6f} <= {bounds.tchebychev_bound(n, eps):.1f}")

print("\nmoment identities (variance = n, first absolute moment <= sqrt(n)):")
for n in (1, 10, 100):
    print(f"  n={n:>4}: sum pmf (m-n)^2 = {poisson.poisson_second_moment(n):.10f},"
          f"  sum pmf |m-n| = {poisson.poisson_first_abs_moment(n):.6f}")

print("\nsplitting the weighted power sum for a random contraction:")
dim = 5
c = ensembles.random_contraction(dim, seed=71)
rng = np.random.default_rng(72)
x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
x /= np.linalg.norm(x)
d1 = float(np.linalg.norm((np.eye(dim) - c) @ x))

n = 16
gap = float(np.linalg.norm(
    (linalg.mat_pow(c, n) - linalg.expm(n * (c - np.eye(dim)))) @ x
))
print(f"  n={n}, ||(1-C)x||={d1:.4f}, true gap={gap:.6f}")
print(f"  {'eps':>8} {'central':>10} {'<= eps*d1':>10} {'tail':>10} {'<= 2n/eps^2':>12}")
eps_grid = (1.0, 2.0, 4.0, 8.0, 16.0)
for eps, (central, tail) in zip(eps_grid, poisson.chernoff_split_sum(c, x, n, eps_grid)):
    print(f"  {eps:>8.1f} {central:>10.6f} {eps * d1:>10.4f} "
          f"{tail:>10.6f} {2 * n / eps**2:>12.4f}")
print("  (central + tail always dominates the true gap, by the triangle inequality)")
