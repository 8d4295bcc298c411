"""Split-step (Lie-Trotter) products: exact for commuting pairs, O(1/n) otherwise.

The product (e^{-tA/n} e^{-tB/n})^n is the Chernoff power Phi(t/n)^n of the
split-step family Phi(s) = e^{-sA} e^{-sB}; its exponential partner
e^{n(Phi(t/n)-1)} is formed from the same step.
"""

import numpy as np

from semiapprox import approximants, ensembles, linalg
from semiapprox.harness import fit_rate, pow2_grid

print("commuting diagonal pair: the product formula is exact for every n")
a = np.diag([1.0, 0.3, 0.7]).astype(complex)
b = np.diag([0.2, 2.0, 0.9]).astype(complex)
phi = approximants.trotter_family(a, b)
ref = approximants.semigroup_family(a + b)(1.0)
for n in (1, 8, 512):
    err = linalg.op_norm(approximants.chernoff_power(phi(1.0 / n), n) - ref)
    print(f"  n={n:>4}: error = {err:.2e}")

print("\nnon-commuting Hermitian pair: error decays like 1/n")
a = ensembles.random_m_sectorial(4, 0.0, seed=41)
b = ensembles.random_m_sectorial(4, 0.0, seed=43)
phi = approximants.trotter_family(a, b)
ref = approximants.semigroup_family(a + b)(1.0)
cells = []
for n in pow2_grid(512):
    err = linalg.op_norm(approximants.chernoff_power(phi(1.0 / n), n) - ref)
    cells.append((n, err))
    print(f"  n={n:>4}: error = {err:.6e}")
est = fit_rate(cells)
print(f"fitted slope: n^-{est.exponent_p:.3f} (r^2={est.r_squared:.5f})")

print("\nthe product against its exponential partner, both from one step Phi(t/n):")
for n in (1, 16, 256):
    step = phi(1.0 / n)
    power = approximants.chernoff_power(step, n)
    partner = approximants.chernoff_exp(step, n)
    print(f"  n={n:>4}: ||Phi(t/n)^n - e^(n(Phi(t/n)-1))|| = "
          f"{linalg.op_norm(power - partner):.2e}")
