"""Operator-norm decay for quasi-sectorial contractions.

Two estimates drive everything: the Ritt-type product bound
(n+1) ||C^n (1-C)|| <= K_alpha and the uniform power-vs-exponential bound
||C^n - e^{n(C-1)}|| <= (2 K_alpha + 2) / n^(1/3).  This script prints both
sides along a sweep, plus the constants behind them.
"""

import math

import numpy as np

from semiapprox import approximants, bounds, ensembles, linalg

alpha = math.pi / 8
k = bounds.k_alpha(alpha)
l_val = bounds.l_alpha(alpha)
print(f"alpha = pi/8: K_alpha = {k.value:.6f} at alpha' = {k.alpha_prime:.6f}, "
      f"L_alpha = 2K+2 = {l_val:.6f}")

a = ensembles.random_m_sectorial(8, alpha, seed=99)
c = approximants.resolvent_family(a)(1.0)
eye = np.eye(8)
e = linalg.expm(c - eye)

print(f"\n{'n':>6} {'(n+1)||C^n(1-C)||':>20} {'K_alpha':>10} "
      f"{'||C^n-e^..||':>14} {'L/n^(1/3)':>12}")
for n in (1, 2, 4, 16, 64, 256, 1024, 4096):
    p_cur = linalg.mat_pow(c, n)
    q_cur = linalg.mat_pow(e, n)
    ritt = (n + 1) * linalg.op_norm(p_cur - p_cur @ c)
    gap = linalg.op_norm(p_cur - q_cur)
    print(f"{n:>6} {ritt:>20.6f} {k.value:>10.4f} {gap:>14.8f} "
          f"{bounds.norm_chernoff_bound(n, alpha):>12.6f}")

print("\nself-adjoint contractions admit the optimal versions 1/(n+1) and e^{-1}/n:")
c = ensembles.self_adjoint_contraction(np.linspace(0, 1, 8), seed=100)
e = linalg.expm(c - np.eye(8))
for n in (1, 16, 256):
    ritt = linalg.op_norm(linalg.mat_pow(c, n) - linalg.mat_pow(c, n + 1))
    gap = linalg.op_norm(linalg.mat_pow(c, n) - linalg.mat_pow(e, n))
    print(f"n={n:>4}: ||C^n(1-C)||={ritt:.6f} <= {bounds.selfadjoint_ritt_bound(n):.6f}; "
          f"gap={gap:.6f} <= {bounds.selfadjoint_chernoff_bound(n):.6f}")
