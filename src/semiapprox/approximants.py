"""Approximation schemes for the matrix semigroup e^{-tA}.

Every scheme is a Chernoff pair of one contraction family Phi: the power
Phi(t/n)^n and its exponential partner e^{n(Phi(t/n) - 1)}.  Euler is the
power of the resolvent family, Dunford-Segal the partner of the semigroup
family, Lie-Trotter the power of the split-step family.  A ContractionFamily
is a closure s -> Phi(s), kept as an evaluator rather than a sampled table so
that t/n stays exact for large n.  The pair is formed from one evaluated step
Phi(t/n), so a caller that needs the power and the partner evaluates the step
once.  The families are the only constructors of Phi(s), e^{-tA} and
(1 + tA)^{-1} in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .bounds import _check_n
from .errors import DomainError


@dataclass
class ContractionFamily:
    """Map s >= 0 -> contraction Phi(s) with Phi(0) = identity."""

    evaluator: Callable[[float], np.ndarray]

    def __call__(self, s: float) -> np.ndarray:
        if s < 0.0:
            raise DomainError(f"family argument must be >= 0, got {s}")
        return self.evaluator(s)


def semigroup_family(a) -> ContractionFamily:
    """Phi(s) = e^{-sA}: the exact semigroup itself, the target of every approximant."""
    a = linalg.as_operator(a)
    return ContractionFamily(lambda s: linalg.expm(-s * a))


def resolvent_family(a) -> ContractionFamily:
    """Phi(s) = (1 + sA)^{-1}: the resolvent (implicit Euler) family."""
    a = linalg.as_operator(a)
    eye = np.eye(a.shape[0])
    return ContractionFamily(
        lambda s: linalg.inverse(eye + s * a) if s > 0.0 else eye.astype(complex)
    )


def trotter_family(a, b) -> ContractionFamily:
    """Phi(s) = e^{-sA} e^{-sB}: the split-step product family."""
    a = linalg.as_operator(a)
    b = linalg.as_operator(b)
    linalg.check_same_dim(a, b)
    return ContractionFamily(lambda s: linalg.expm(-s * a) @ linalg.expm(-s * b))


def chernoff_power(step, n: int) -> np.ndarray:
    """Phi(t/n)^n from the step Phi(t/n)."""
    _check_n(n)
    return linalg.mat_pow(step, n)


def chernoff_exp(step, n: int) -> np.ndarray:
    """exp(n (Phi(t/n) - 1)) from the step Phi(t/n): the exponential partner."""
    _check_n(n)
    return linalg.expm(n * (step - np.eye(step.shape[0])))


def discrete_generator(phi: ContractionFamily, s: float) -> np.ndarray:
    """(1 - Phi(s)) / s, the bounded approximation of the generator."""
    if s <= 0.0:
        raise DomainError(f"s must be positive, got {s}")
    step = phi(s)
    return (np.eye(step.shape[0]) - step) / s
