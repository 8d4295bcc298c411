"""Euler (resolvent-power) and Dunford-Segal (exponential-step) approximants.

Both are Chernoff pairs: Euler is the power Phi(t/n)^n of the resolvent family
Phi(s) = (1 + sA)^{-1}, Dunford-Segal the exponential partner e^{n(Phi(t/n)-1)}
of the semigroup family Phi(s) = e^{-sA}.  Both converge to e^{-tA} at first order in 1/n for sector-confined A; the
script measures the errors, compares them against the certified ceilings,
and fits the observed convergence rates.
"""

import math

from semiapprox import approximants, bounds, ensembles, linalg
from semiapprox.harness import fit_rate, pow2_grid

alpha = math.pi / 4
a = ensembles.random_m_sectorial(6, alpha, seed=31)
t = 1.0
l_val = bounds.l_alpha(alpha)
resolvent = approximants.resolvent_family(a)
semigroup = approximants.semigroup_family(a)
ref = semigroup(t)

print(f"sector semi-angle alpha = pi/4, t = {t}")
print(f"{'n':>6} {'euler err':>12} {'euler bound':>12} {'ds err':>12} {'L/n^(1/3)':>12}")
euler_cells, ds_cells = [], []
for n in pow2_grid(1024):
    euler = approximants.chernoff_power(resolvent(t / n), n)
    ds = approximants.chernoff_exp(semigroup(t / n), n)
    e_err = linalg.op_norm(euler - ref)
    d_err = linalg.op_norm(ds - ref)
    euler_cells.append((n, e_err))
    ds_cells.append((n, d_err))
    print(f"{n:>6} {e_err:>12.2e} {bounds.euler_bound(n, alpha):>12.2e} "
          f"{d_err:>12.2e} {l_val / n ** (1 / 3):>12.2e}")

e_fit = fit_rate(euler_cells)
d_fit = fit_rate(ds_cells)
print(f"\nfitted euler rate:  n^-{e_fit.exponent_p:.3f}  (r^2={e_fit.r_squared:.5f})")
print(f"fitted ds rate:     n^-{d_fit.exponent_p:.3f}  (r^2={d_fit.r_squared:.5f})")
print(f"empirical N_hat = max n cos(alpha)^2 err = "
      f"{max(n * math.cos(alpha) ** 2 * e for n, e in ds_cells):.4f}")
print("\nboth schemes converge like 1/n even though the one-step certified")
print("ceiling for the exponential-step scheme only decays like n^(-1/3).")
