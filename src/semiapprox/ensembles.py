"""Seeded, reproducible operator ensembles.

All randomness flows through numpy's PCG64 generator (``default_rng``), so a
factory called with the same arguments and seed always produces the
bit-identical matrix.  Independent draws inside an experiment derive their
seeds through ``child_seed``: a splitmix64 hash of the trial index XORed into
the base seed.  The factories draw contractions and m-sectorial generators
and depend on ``linalg`` alone; the resolvent (1 + tA)^{-1} of a generator
is ``approximants.resolvent_family(A)(t)``.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .errors import InvalidInputError

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 step; the documented hash behind seed splitting."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def child_seed(seed: int, index: int) -> int:
    """Seed for draw ``index`` of an experiment rooted at ``seed``."""
    return (seed & _MASK64) ^ splitmix64(index)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed & _MASK64)


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    q, r = np.linalg.qr(_ginibre(dim, rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_contraction(dim: int, seed: int) -> np.ndarray:
    """Gaussian matrix scaled to spectral norm 1, then shrunk by U[0.5, 1)."""
    if dim < 1:
        raise InvalidInputError(f"dim must be >= 1, got {dim}")
    rng = _rng(seed)
    g = _ginibre(dim, rng)
    g /= linalg.op_norm(g)
    return g * rng.uniform(0.5, 1.0)


def self_adjoint_contraction(spectrum, seed: int) -> np.ndarray:
    """Hermitian contraction with the given eigenvalues in [0, 1]."""
    spec = np.asarray(spectrum, dtype=float)
    if spec.ndim != 1 or spec.size < 1:
        raise InvalidInputError("spectrum must be a nonempty 1-d list of reals")
    if np.any(spec < 0.0) or np.any(spec > 1.0):
        raise InvalidInputError("spectrum values must lie in [0, 1]")
    u = haar_unitary(spec.size, _rng(seed))
    c = (u * spec) @ u.conj().T
    return (c + c.conj().T) / 2.0


def random_m_sectorial(dim: int, alpha: float, seed: int) -> np.ndarray:
    """Random operator with numerical range in the closed sector of semi-angle alpha.

    Built as A = H^{1/2} (1 + iK) H^{1/2} with H positive semidefinite and K
    Hermitian of norm tan(alpha): then x*Ax = |y|^2 + i y*Ky for y = H^{1/2}x,
    so |arg(x*Ax)| <= alpha by construction, not merely by sampling.  The
    result is normalized to spectral norm 1.
    """
    if not 0.0 <= alpha < math.pi / 2:
        raise InvalidInputError(f"alpha must lie in [0, pi/2), got {alpha}")
    if dim < 1:
        raise InvalidInputError(f"dim must be >= 1, got {dim}")
    rng = _rng(seed)
    g = _ginibre(dim, rng)
    h = g.conj().T @ g
    h /= linalg.op_norm(h)
    w, v = np.linalg.eigh(h)
    h_sqrt = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T

    if alpha > 0.0:
        b = _ginibre(dim, rng)
        k = (b + b.conj().T) / 2.0
        k *= math.tan(alpha) / linalg.op_norm(k)
        core = np.eye(dim) + 1j * k
    else:
        core = np.eye(dim)

    a = h_sqrt @ core @ h_sqrt
    return a / linalg.op_norm(a)

