"""Scalar SDE models with fractional-power diffusion.

The objects here describe

    dX_t = a(t, X_t) dt + sigma(t, X_t)^gamma dW_t,      gamma in [1/2, 1),

where a is Lipschitz in x and 1/2-Hoelder in t with linear growth, and the
base coefficient sigma is nonnegative.  The effective diffusion is always
c(t, x) = max(sigma(t, x), 0)^gamma with the convention 0^gamma = 0; models
never evaluate a bare fractional power of a possibly-negative number.

One family of prototypes, declared once in KINDS, covers the mean-reverting
square-root process on (0, inf), the bounded [0, 1] allele-frequency process,
and the constant elasticity family with exponent gamma in (1/2, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .params import as_param

__all__ = [
    "KINDS",
    "CoefficientFn",
    "SdeModel",
    "PrototypeParams",
    "make_prototype",
    "clamped_power",
]


@dataclass(frozen=True)
class CoefficientFn:
    """A coefficient (t, x) -> value, elementwise and broadcast-safe.

    A coefficient may declare a time-only part: time(t) returns a tuple of
    the factors that depend on t alone, and the coefficient is then
    fn(*time(t), x).  Without one, time(t) is (t,) and fn(t, x) is the
    coefficient.  Either way the Euler kernel evaluates time once per grid
    node (tabulate) and fn once per step, with the same arithmetic as a
    direct call at that node.
    """

    fn: Callable
    time: Optional[Callable] = None

    def __call__(self, t, x):
        if self.time is None:
            return self.fn(t, x)
        return self.fn(*self.time(t), x)

    def tabulate(self, times: np.ndarray) -> np.ndarray:
        """The arguments fn takes before x, one row per entry of times.

        Each time is passed on its own, as a Python float, exactly as a
        direct call at that time would pass it.
        """
        times = np.asarray(times, dtype=float)
        if self.time is None:
            return times[:, None]
        table = None
        for k, t in enumerate(times):
            row = self.time(float(t))
            if table is None:
                table = np.empty((len(times), len(row)))
            table[k] = row
        return table


@dataclass(frozen=True)
class SdeModel:
    """Drift, base diffusion and power exponent for one scalar SDE.

    domain, when given, only bounds x0: no criterion reads it, and
    simulation runs on all of the real line and relies on the clamps inside
    sigma, never on projection.
    A plain callable (t, x) -> value given as drift or base_sigma is wrapped
    in a CoefficientFn with no time-only part.
    """

    drift: CoefficientFn
    base_sigma: CoefficientFn
    gamma: float
    x0: float
    domain: Optional[tuple[float, float]] = None
    name: str = ""

    def __post_init__(self):
        for role in ("drift", "base_sigma"):
            coef = getattr(self, role)
            if not isinstance(coef, CoefficientFn):
                object.__setattr__(self, role, CoefficientFn(coef))
        if not 0.5 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [1/2, 1), got {self.gamma}")
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")
        if self.domain is not None:
            lo, hi = self.domain
            if not lo < hi:
                raise ValueError(f"empty domain ({lo}, {hi})")
            if not lo < self.x0 < hi:
                raise ValueError(f"x0={self.x0} outside domain ({lo}, {hi})")


def clamped_power(sig, gamma: float):
    """max(sig, 0)^gamma, the one diffusion clamp of the package.

    sig - sig is +0 where sig is finite and NaN elsewhere, so finite values
    clamp exactly as np.maximum(sig, 0.0) does, while a -inf sigma maps to
    NaN instead of 0 and stays visible to the Euler kernel's checks.
    """
    return np.maximum(sig, sig - sig) ** gamma


def _positive_part(x):
    return np.maximum(x, 0.0)


def _unit_interval_part(x):
    return np.maximum(x * (1.0 - x), 0.0)


# The prototype family, one entry per kind: the state space and the clamped
# state factor shape(x) of the base coefficient sigma = scale(theta) shape(x).
KINDS = {
    "cir": ((0.0, math.inf), _positive_part),
    "wf": ((0.0, 1.0), _unit_interval_part),
    "ckls": ((0.0, math.inf), _positive_part),
}


def _check_horizon(horizon: float) -> None:
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")


@dataclass(frozen=True)
class PrototypeParams:
    """Parameters for the three named prototype models.

    kind is one of the keys of KINDS.  kappa, lam, theta accept numbers or
    members of the params family.  gamma is the diffusion exponent: given
    for "ckls" only, in (1/2, 1), and 1/2 for the other kinds.  horizon,
    finite and positive, is the interval on which theta must stay positive.
    """

    kind: str
    kappa: object
    lam: object
    theta: object
    x0: float
    gamma: Optional[float] = None
    horizon: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown prototype kind {self.kind!r}")
        object.__setattr__(self, "kappa", as_param(self.kappa))
        object.__setattr__(self, "lam", as_param(self.lam))
        object.__setattr__(self, "theta", as_param(self.theta))
        _check_horizon(self.horizon)
        if self.kind == "ckls":
            if self.gamma is None or not 0.5 < self.gamma < 1.0:
                raise ValueError("ckls requires gamma in (1/2, 1)")
        elif self.gamma is not None and self.gamma != 0.5:
            raise ValueError(f"{self.kind} has gamma fixed at 1/2")
        object.__setattr__(self, "gamma", 0.5 if self.gamma is None else float(self.gamma))

    def scale(self, th):
        """The diffusion scale at a value th of theta: th^(1/gamma), so that
        (scale shape)^gamma = th shape^gamma."""
        return th * th if self.gamma == 0.5 else th ** (1.0 / self.gamma)


def _theta_positive(theta, horizon: float) -> None:
    lo, _ = theta.bounds(horizon)
    grid = np.linspace(0.0, horizon, 1001)
    vals = np.asarray(theta(grid), dtype=float)
    if lo <= 0.0 or np.any(vals <= 0.0):
        raise ValueError("theta must be strictly positive on [0, horizon]")


def make_prototype(params: PrototypeParams) -> SdeModel:
    """Build the SdeModel for one of the named prototypes.

    Drift is kappa(t) (lam(t) - x) in every case.  The base coefficient is
    sigma(t, x) = params.scale(theta(t)) shape(x), with the kind's shape:

        cir   sigma(t,x) = theta(t)^2 max(x, 0)            gamma = 1/2
        wf    sigma(t,x) = theta(t)^2 max(x (1 - x), 0)    gamma = 1/2
        ckls  sigma(t,x) = theta(t)^{1/gamma} max(x, 0)    gamma in (1/2, 1)

    so that sigma^gamma reproduces theta sqrt(x+), theta sqrt((x(1-x))+),
    and theta (x+)^gamma respectively.  Storing the 1/gamma power for the
    elasticity family keeps a single c = sigma^gamma code path; theta is
    bounded away from zero so the reparametrization stays 1/2-Hoelder.
    """
    domain, shape = KINDS[params.kind]
    _theta_positive(params.theta, params.horizon)
    # module-level functions bound by partial, so a model pickles
    return SdeModel(
        drift=CoefficientFn(_mean_reverting, time=partial(_drift_time, params.kappa, params.lam)),
        base_sigma=CoefficientFn(partial(_scaled_shape, shape), time=partial(_sigma_time, params)),
        gamma=params.gamma,
        x0=float(params.x0),
        domain=domain,
        name=params.kind,
    )


def _drift_time(kappa, lam, t):
    return kappa(t), lam(t)


def _mean_reverting(k, l, x):
    return k * (l - x)


def _sigma_time(params, t):
    return (params.scale(params.theta(t)),)


def _scaled_shape(shape, scale, x):
    return scale * shape(x)
