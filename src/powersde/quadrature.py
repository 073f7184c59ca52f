"""Deterministic quadrature helpers: adaptive Simpson and monotone inversion.

Everything here is fixed-rule and tolerance-driven so that two runs, or two
implementations following the same description, produce the same tables.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import PowerSdeError

__all__ = ["QuadratureError", "adaptive_simpson", "CumulativeTable", "build_cumulative"]


class QuadratureError(PowerSdeError):
    """Integrand misbehaved (non-finite values or no convergence)."""


def _simpson(fa, fm, fb, h):
    return (fa + 4.0 * fm + fb) * h / 6.0


def adaptive_simpson(f, a, b, tol, max_depth=50):
    """Adaptive Simpson integral of f over [a, b] to absolute tolerance tol.

    Classic bisection with Richardson correction; deterministic evaluation
    order.  Non-finite integrand values raise QuadratureError.
    """
    if a == b:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    if not (math.isfinite(fa) and math.isfinite(fm) and math.isfinite(fb)):
        raise QuadratureError(f"non-finite integrand on [{a}, {b}]")
    whole = _simpson(fa, fm, fb, b - a)
    return _adaptive(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    if not (math.isfinite(flm) and math.isfinite(frm)):
        raise QuadratureError(f"non-finite integrand near [{a}, {b}]")
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if depth <= 0:
        raise QuadratureError(f"adaptive refinement exhausted on [{a}, {b}]")
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _adaptive(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _adaptive(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


@dataclass(frozen=True)
class CumulativeTable:
    """Strictly increasing cumulative integral F(x) = F(x_0) + int_{x_0}^x f.

    xs are uniform table nodes, ys the cumulative values.  Evaluation between
    nodes re-integrates the stored integrand from the bracketing node, so
    accuracy between nodes matches the table itself.  The nodes are also kept
    as Python floats, which bisect searches without numpy's per-call cost.
    """

    xs: np.ndarray
    ys: np.ndarray
    integrand: object
    seg_tol: float
    _xs: list = field(init=False, repr=False, compare=False)
    _ys: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ValueError("table needs matching xs/ys with at least 2 nodes")
        if np.any(np.diff(self.ys) <= 0.0):
            raise ValueError("cumulative values must be strictly increasing")
        self.xs.setflags(write=False)
        self.ys.setflags(write=False)
        object.__setattr__(self, "_xs", self.xs.tolist())
        object.__setattr__(self, "_ys", self.ys.tolist())

    @property
    def total(self) -> float:
        return float(self.ys[-1])

    def forward(self, x: float) -> float:
        xs, ys = self._xs, self._ys
        if not xs[0] <= x <= xs[-1]:
            raise ValueError(f"{x} outside [{xs[0]}, {xs[-1]}]")
        i = max(min(bisect_right(xs, x) - 1, len(xs) - 2), 0)
        if x == xs[i]:
            return ys[i]
        return ys[i] + adaptive_simpson(self.integrand, xs[i], x, self.seg_tol)

    def inverse(self, y: float, tol: float) -> float:
        """Solve F(x) = y by bracketed Newton with bisection fallback."""
        xs, ys = self._xs, self._ys
        if not ys[0] <= y <= ys[-1]:
            raise ValueError(f"{y} outside cumulative range [{ys[0]}, {ys[-1]}]")
        i = max(min(bisect_right(ys, y) - 1, len(ys) - 2), 0)
        lo, hi = xs[i], xs[i + 1]
        flo, fhi = ys[i], ys[i + 1]
        # linear seed, then Newton; derivative is the integrand itself
        x = lo + (hi - lo) * (y - flo) / (fhi - flo)
        for _ in range(100):
            fx = self.forward(x)
            err = fx - y
            d = self.integrand(x)
            if hi - lo <= tol or (d > 0.0 and abs(err) <= d * tol):
                break
            if err > 0.0:
                hi = x
            else:
                lo = x
            if d > 0.0:
                step = x - err / d
                x = step if lo < step < hi else 0.5 * (lo + hi)
            else:
                x = 0.5 * (lo + hi)
        return min(max(x, xs[0]), xs[-1])


REL_TOL = 1e-12
SEGMENTS = 1024


def build_cumulative(f, a, b) -> CumulativeTable:
    """Tabulate F(x) = int_a^x f on SEGMENTS uniform segments of [a, b].

    Each segment is integrated adaptively to an absolute tolerance that keeps
    the accumulated error below REL_TOL times a rough estimate of the total.
    f must be positive (the cumulative must be strictly increasing).
    """
    xs = np.linspace(a, b, SEGMENTS + 1)
    rough = abs(adaptive_simpson(f, a, b, 1e-6 * max(abs(b - a), 1.0)))
    seg_tol = REL_TOL * max(rough, 1e-300) / SEGMENTS
    ys = np.empty(SEGMENTS + 1)
    ys[0] = 0.0
    for i in range(SEGMENTS):
        ys[i + 1] = ys[i] + adaptive_simpson(f, float(xs[i]), float(xs[i + 1]), seg_tol)
    return CumulativeTable(xs=xs, ys=ys, integrand=f, seg_tol=seg_tol)
