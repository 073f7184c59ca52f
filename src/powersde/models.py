"""Scalar SDE models with fractional-power diffusion.

The objects here describe

    dX_t = a(t, X_t) dt + sigma(t, X_t)^gamma dW_t,      gamma in [1/2, 1),

where a is Lipschitz in x and 1/2-Hoelder in t with linear growth, and the
base coefficient sigma is nonnegative.  The effective diffusion is always
c(t, x) = max(sigma(t, x), 0)^gamma with the convention 0^gamma = 0; models
never evaluate a bare fractional power of a possibly-negative number.

Three prototype constructors cover the mean-reverting square-root process on
(0, inf), the bounded [0, 1] allele-frequency process, and the constant
elasticity family with exponent gamma in (1/2, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidCoefficientError
from .params import as_param

__all__ = [
    "CoefficientMeta",
    "CoefficientFn",
    "SdeModel",
    "PrototypeParams",
    "make_prototype",
    "eval_diffusion",
]


@dataclass(frozen=True)
class CoefficientMeta:
    """Declared regularity constants; None means unknown.

    lipschitz_K bounds |f(t,x)-f(t,y)| / |x-y|; holder_half_K bounds
    |f(t,x)-f(s,x)| / ((1+|x|) |t-s|^{1/2}); nonnegative claims f >= 0.
    Sampling validators falsify these claims, they cannot prove them.
    """

    lipschitz_K: Optional[float] = None
    holder_half_K: Optional[float] = None
    nonnegative: bool = False


@dataclass(frozen=True)
class CoefficientFn:
    """A coefficient (t, x) -> value, elementwise and broadcast-safe."""

    fn: Callable
    meta: CoefficientMeta = field(default_factory=CoefficientMeta)
    name: str = ""

    def __call__(self, t, x):
        return self.fn(t, x)


@dataclass(frozen=True)
class SdeModel:
    """Drift, base diffusion and power exponent for one scalar SDE.

    domain is metadata for the boundary criteria; simulation runs on all of
    the real line and relies on the clamps inside sigma, never on projection.
    """

    drift: CoefficientFn
    base_sigma: CoefficientFn
    gamma: float
    x0: float
    domain: Optional[tuple[float, float]] = None
    name: str = ""

    def __post_init__(self):
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

    def diffusion(self, t, x):
        return eval_diffusion(self, t, x)


def eval_diffusion(model: SdeModel, t, x):
    """Effective diffusion c(t, x) = max(sigma(t, x), 0)^gamma.

    Clamping before the power keeps c real when a user sigma rounds a hair
    below zero, and gives exactly 0 at the degeneracy set.
    """
    sig = np.asarray(model.base_sigma(t, x), dtype=float)
    if not np.all(np.isfinite(sig)):
        bad = np.argwhere(~np.isfinite(np.atleast_1d(sig)))
        idx = tuple(bad[0]) if bad.size else ()
        with np.errstate(invalid="ignore"):
            t_bad = np.atleast_1d(np.broadcast_arrays(np.asarray(t, dtype=float), sig)[0])[idx] if idx else t
            x_bad = np.atleast_1d(np.broadcast_arrays(np.asarray(x, dtype=float), sig)[0])[idx] if idx else x
        raise InvalidCoefficientError(
            f"base sigma returned a non-finite value at (t={t_bad}, x={x_bad})",
            t=t_bad,
            x=x_bad,
        )
    c = np.maximum(sig, 0.0) ** model.gamma
    return c if sig.ndim else float(c)


@dataclass(frozen=True)
class PrototypeParams:
    """Parameters for the three named prototype models.

    kind is one of "cir", "wf", "ckls".  kappa, lam, theta accept numbers or
    members of the params family; gamma applies to "ckls" only and must lie
    in (1/2, 1).  horizon is the interval on which theta-positivity and the
    regularity constants are certified.
    """

    kind: str
    kappa: object
    lam: object
    theta: object
    x0: float
    gamma: Optional[float] = None
    horizon: float = 1.0

    def __post_init__(self):
        if self.kind not in ("cir", "wf", "ckls"):
            raise ValueError(f"unknown prototype kind {self.kind!r}")
        object.__setattr__(self, "kappa", as_param(self.kappa))
        object.__setattr__(self, "lam", as_param(self.lam))
        object.__setattr__(self, "theta", as_param(self.theta))
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.kind == "ckls":
            if self.gamma is None or not 0.5 < self.gamma < 1.0:
                raise ValueError("ckls requires gamma in (1/2, 1)")
        elif self.gamma is not None and self.gamma != 0.5:
            raise ValueError(f"{self.kind} has gamma fixed at 1/2")


def _theta_positive(theta, horizon: float) -> None:
    lo, _ = theta.bounds(horizon)
    grid = np.linspace(0.0, horizon, 1001)
    vals = np.asarray(theta(grid), dtype=float)
    if lo <= 0.0 or np.any(vals <= 0.0):
        raise ValueError("theta must be strictly positive on [0, horizon]")


def _abs_sup(param, horizon: float) -> float:
    lo, hi = param.bounds(horizon)
    return max(abs(lo), abs(hi))


def make_prototype(params: PrototypeParams) -> SdeModel:
    """Build the SdeModel for one of the named prototypes.

    Drift is kappa(t) (lam(t) - x) in every case.  The base coefficient is

        cir   sigma(t,x) = theta(t)^2 max(x, 0)            gamma = 1/2
        wf    sigma(t,x) = theta(t)^2 max(x (1 - x), 0)    gamma = 1/2
        ckls  sigma(t,x) = theta(t)^{1/gamma} max(x, 0)    gamma in (1/2, 1)

    so that sigma^gamma reproduces theta sqrt(x+), theta sqrt((x(1-x))+),
    and theta (x+)^gamma respectively.  Storing the 1/gamma power for the
    elasticity family keeps a single c = sigma^gamma code path; theta is
    bounded away from zero so the reparametrization stays 1/2-Hoelder.
    """
    kind = params.kind
    T = params.horizon
    kappa, lam, theta = params.kappa, params.lam, params.theta
    _theta_positive(theta, T)

    if kind in ("cir", "ckls"):
        domain = (0.0, math.inf)
        if not params.x0 > 0.0:
            raise ValueError("x0 must be positive")
    else:
        domain = (0.0, 1.0)
        if not 0.0 < params.x0 < 1.0:
            raise ValueError("x0 must lie in (0, 1)")

    sup_kappa = _abs_sup(kappa, T)
    sup_lam = _abs_sup(lam, T)
    sup_theta = theta.bounds(T)[1]
    hol_kappa = kappa.holder_half(T)
    hol_lam = lam.holder_half(T)
    hol_theta = theta.holder_half(T)

    def drift_fn(t, x):
        return kappa(t) * (lam(t) - x)

    hol_product = sup_kappa * hol_lam + sup_lam * hol_kappa
    drift = CoefficientFn(
        drift_fn,
        CoefficientMeta(
            lipschitz_K=sup_kappa,
            holder_half_K=max(hol_product, hol_kappa),
            nonnegative=False,
        ),
        name=f"{kind}-drift",
    )

    if kind == "cir":
        gamma = 0.5

        def sigma_fn(t, x):
            th = theta(t)
            return th * th * np.maximum(x, 0.0)

        sigma_meta = CoefficientMeta(
            lipschitz_K=sup_theta**2,
            holder_half_K=2.0 * sup_theta * hol_theta,
            nonnegative=True,
        )
    elif kind == "wf":
        gamma = 0.5

        def sigma_fn(t, x):
            th = theta(t)
            x = np.asarray(x, dtype=float)
            out = th * th * np.maximum(x * (1.0 - x), 0.0)
            return out if out.ndim else float(out)

        # x(1-x) is capped at 1/4, so the time-increment bound tightens by 4
        sigma_meta = CoefficientMeta(
            lipschitz_K=sup_theta**2,
            holder_half_K=0.5 * sup_theta * hol_theta,
            nonnegative=True,
        )
    else:
        gamma = float(params.gamma)
        inv_gamma = 1.0 / gamma

        def sigma_fn(t, x):
            return theta(t) ** inv_gamma * np.maximum(x, 0.0)

        sigma_meta = CoefficientMeta(
            lipschitz_K=sup_theta**inv_gamma,
            holder_half_K=inv_gamma * sup_theta ** (inv_gamma - 1.0) * hol_theta,
            nonnegative=True,
        )

    base_sigma = CoefficientFn(sigma_fn, sigma_meta, name=f"{kind}-sigma")
    return SdeModel(
        drift=drift,
        base_sigma=base_sigma,
        gamma=gamma,
        x0=float(params.x0),
        domain=domain,
        name=kind,
    )
