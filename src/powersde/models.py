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
    "clamped_power",
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
    """A coefficient (t, x) -> value, elementwise and broadcast-safe.

    A coefficient may declare a time-only part: time(t) returns a tuple of
    the factors that depend on t alone, and the coefficient is then
    fn(*time(t), x).  Without one, time(t) is (t,) and fn(t, x) is the
    coefficient.  Either way the Euler kernel evaluates time once per grid
    node (tabulate) and fn once per step, with the same arithmetic as a
    direct call at that node.
    """

    fn: Callable
    meta: CoefficientMeta = field(default_factory=CoefficientMeta)
    name: str = ""
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

    domain is metadata for the boundary criteria; simulation runs on all of
    the real line and relies on the clamps inside sigma, never on projection.
    A plain callable (t, x) -> value given as drift or base_sigma is wrapped
    in a CoefficientFn with no declared constants.
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
    c = clamped_power(sig, model.gamma)
    return c if sig.ndim else float(c)


def clamped_power(sig, gamma: float):
    """max(sig, 0)^gamma, the one diffusion clamp of the package.

    sig - sig is +0 where sig is finite and NaN elsewhere, so finite values
    clamp exactly as np.maximum(sig, 0.0) does, while a -inf sigma maps to
    NaN instead of 0 and stays visible to the Euler kernel's checks.
    """
    return np.maximum(sig, sig - sig) ** gamma


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

    def drift_time(t):
        return kappa(t), lam(t)

    def drift_fn(k, l, x):
        return k * (l - x)

    hol_product = sup_kappa * hol_lam + sup_lam * hol_kappa
    drift = CoefficientFn(
        drift_fn,
        CoefficientMeta(
            lipschitz_K=sup_kappa,
            holder_half_K=max(hol_product, hol_kappa),
            nonnegative=False,
        ),
        name=f"{kind}-drift",
        time=drift_time,
    )

    def theta_squared(t):
        th = theta(t)
        return (th * th,)

    if kind == "cir":
        gamma = 0.5
        sigma_time = theta_squared

        def sigma_fn(th2, x):
            return th2 * np.maximum(x, 0.0)

        sigma_meta = CoefficientMeta(
            lipschitz_K=sup_theta**2,
            holder_half_K=2.0 * sup_theta * hol_theta,
            nonnegative=True,
        )
    elif kind == "wf":
        gamma = 0.5
        sigma_time = theta_squared

        def sigma_fn(th2, x):
            x = np.asarray(x, dtype=float)
            out = th2 * np.maximum(x * (1.0 - x), 0.0)
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

        def theta_power(t):
            return (theta(t) ** inv_gamma,)

        sigma_time = theta_power

        def sigma_fn(scale, x):
            return scale * np.maximum(x, 0.0)

        sigma_meta = CoefficientMeta(
            lipschitz_K=sup_theta**inv_gamma,
            holder_half_K=inv_gamma * sup_theta ** (inv_gamma - 1.0) * hol_theta,
            nonnegative=True,
        )

    base_sigma = CoefficientFn(sigma_fn, sigma_meta, name=f"{kind}-sigma", time=sigma_time)
    return SdeModel(
        drift=drift,
        base_sigma=base_sigma,
        gamma=gamma,
        x0=float(params.x0),
        domain=domain,
        name=kind,
    )
