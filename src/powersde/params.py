"""Time-dependent model parameters from a small closed-form family.

Every family member evaluates pointwise (scalars or arrays) and knows its
exact range on a finite horizon, which is how theta is checked to stay
positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConstantParam",
    "AffineParam",
    "SinusoidalParam",
    "as_param",
]


def _is_scalar(t) -> bool:
    """Whether t is a scalar time.  The Euler kernel passes a Python float
    every step, so the type test runs first and np.ndim only for the rest."""
    return type(t) is float or type(t) is int or np.ndim(t) == 0


@dataclass(frozen=True)
class ConstantParam:
    """t -> value."""

    value: float

    def __call__(self, t):
        return float(self.value) if _is_scalar(t) else self.value + 0.0 * np.asarray(t, dtype=float)

    def bounds(self, horizon: float) -> tuple[float, float]:
        return (self.value, self.value)


@dataclass(frozen=True)
class AffineParam:
    """t -> p + q * t."""

    p: float
    q: float

    def __call__(self, t):
        out = self.p + self.q * np.asarray(t, dtype=float)
        return float(out) if _is_scalar(t) else out

    def bounds(self, horizon: float) -> tuple[float, float]:
        a = self.p
        b = self.p + self.q * horizon
        return (min(a, b), max(a, b))


def _sin_range(omega: float, horizon: float) -> tuple[float, float]:
    """Exact range of sin(omega * t) for t in [0, horizon]."""
    u = abs(omega) * horizon
    hi = 1.0 if u >= 0.5 * math.pi else math.sin(u)
    lo = -1.0 if u >= 1.5 * math.pi else min(0.0, math.sin(u))
    if omega < 0.0:
        lo, hi = -hi, -lo
    return lo, hi


@dataclass(frozen=True)
class SinusoidalParam:
    """t -> p + q * sin(omega * t)."""

    p: float
    q: float
    omega: float

    def __call__(self, t):
        if type(t) is float:  # the clock build's path: the same operations
            return float(self.p + self.q * np.sin(self.omega * t))
        out = self.p + self.q * np.sin(self.omega * np.asarray(t, dtype=float))
        return float(out) if _is_scalar(t) else out

    def bounds(self, horizon: float) -> tuple[float, float]:
        lo, hi = _sin_range(self.omega, horizon)
        vals = (self.p + self.q * lo, self.p + self.q * hi)
        return (min(vals), max(vals))


def as_param(value):
    """Coerce a number into a ConstantParam; pass family members through."""
    if isinstance(value, (ConstantParam, AffineParam, SinusoidalParam)):
        return value
    if isinstance(value, (int, float)):
        return ConstantParam(float(value))
    raise TypeError(f"cannot interpret {value!r} as a time-dependent parameter")
