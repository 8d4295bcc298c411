"""Approximation schemes for the matrix semigroup e^{-tA}.

Every scheme is a Chernoff pair of one contraction family Phi: the power
Phi(t/n)^n and its exponential partner e^{n(Phi(t/n) - 1)}.  Euler is the
power of the resolvent family, Dunford-Segal the partner of the semigroup
family, Lie-Trotter the power of the split-step family.  A ContractionFamily
is a closure s -> Phi(s), kept as an evaluator rather than a sampled table so
that t/n stays exact for large n.  A sequence of s values evaluates to one
(k, d, d) stack of steps, and ``chernoff_power`` and ``chernoff_exp`` take
such a stack with one n per step, so a caller forms the pairs of many n from
one stacked step evaluation, one ``linalg.mat_pow`` (a
``np.linalg.matrix_power`` per distinct n) and one ``linalg.expm``.
A family's generator may itself be a (k, d, d) stack, for the split-step
family a pair of stacks; Phi(s) is then the stack of its members' Phi(s),
and a sequence of k values of s gives each member its own s.  The families
are the only constructors of Phi(s), e^{-tA} and (1 + tA)^{-1} in the
package.
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
    """Map s >= 0 -> contraction Phi(s) with Phi(0) = identity.

    ``s`` is a number, giving Phi(s), or a sequence, giving the stack of
    Phi(s_j).  The evaluator takes s as an array of shape (1, 1) or (k, 1, 1),
    so that it broadcasts against the generator.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]

    def __call__(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        if (s < 0.0).any():
            raise DomainError(f"family argument must be >= 0, got {s[s < 0.0].flat[0]}")
        return self.evaluator(s[..., None, None])


def _generator(a) -> np.ndarray:
    """a as one operator, or as a (k, d, d) stack of them."""
    a = np.asarray(a, dtype=np.complex128)
    return linalg.as_operator_stack(a) if a.ndim == 3 else linalg.as_operator(a)


def semigroup_family(a) -> ContractionFamily:
    """Phi(s) = e^{-sA}: the exact semigroup itself, the target of every approximant."""
    a = _generator(a)
    return ContractionFamily(lambda s: linalg.expm(-s * a))


def resolvent_family(a) -> ContractionFamily:
    """Phi(s) = (1 + sA)^{-1}: the resolvent (implicit Euler) family."""
    a = _generator(a)
    eye = np.eye(a.shape[-1])

    def evaluate(s: np.ndarray) -> np.ndarray:
        steps = eye + s * a
        # Phi(0) is the identity itself; only the s > 0 steps are inverted
        # (for one matrix, positive is 0-d and indexes it as a stack of one)
        positive = np.broadcast_to(s > 0.0, steps.shape)[..., 0, 0]
        steps[~positive] = eye
        if positive.any():
            steps[positive] = linalg.inverse(steps[positive])
        return steps

    return ContractionFamily(evaluate)


def trotter_family(a, b) -> ContractionFamily:
    """Phi(s) = e^{-sA} e^{-sB}: the split-step product family.

    a and b are two operators, or two (k, d, d) stacks paired member by member.
    """
    a = _generator(a)
    b = _generator(b)
    linalg.check_same_dim(a, b)
    return ContractionFamily(lambda s: linalg.expm(-s * a) @ linalg.expm(-s * b))


def _check_each_n(step, n) -> None:
    """Check the n of one step, or each n of a (k, d, d) stack of steps."""
    for m in n if np.ndim(step) == 3 else [n]:
        _check_n(m)


def chernoff_power(step, n) -> np.ndarray:
    """Phi(t/n)^n from the step Phi(t/n); a (k, d, d) stack of steps takes one n per step."""
    _check_each_n(step, n)
    return linalg.mat_pow(step, n)


def chernoff_exp(step, n) -> np.ndarray:
    """exp(n (Phi(t/n) - 1)) from the step Phi(t/n): the exponential partner.

    A (k, d, d) stack of steps takes one n per step.
    """
    _check_each_n(step, n)
    scale = np.asarray(n, dtype=np.float64)[..., None, None]
    return linalg.expm(scale * (step - np.eye(np.shape(step)[-1])))


def discrete_generator(phi: ContractionFamily, s) -> np.ndarray:
    """(1 - Phi(s)) / s, the bounded approximation of the generator; a sequence of s gives a stack."""
    s = np.asarray(s, dtype=np.float64)
    if (s <= 0.0).any():
        raise DomainError(f"s must be positive, got {s[s <= 0.0].flat[0]}")
    step = phi(s)
    return (np.eye(step.shape[-1]) - step) / s[..., None, None]
