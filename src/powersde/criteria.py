"""Theoretical rate criteria: boundary-drift ratios, the state-space drift
criterion, the boundary classification test, and the deterministic clock
change for non-autonomous prototypes.

Each tool answers the question "what strong convergence order can the Euler
scheme be expected to reach for this model" from a different angle:

* predict_rate reads the order off the normalized boundary drifts mu0 (and
  mu1 for the two-sided state space), the quantities controlling how strongly
  the solution is pushed away from the degeneracy points of sigma.
* theorem_rate converts a compensation exponent s into the generic order
  1/2 - s.
* ito_criterion evaluates the drift of log-type functionals of sigma along
  the state axis; if it stays bounded below, no compensation is needed and
  1/2 is in reach.
* feller_test classifies whether the solution can reach the ends of its
  state interval at all, by divergence of the classical nested integral v
  built from the scale density.
* build_timechange / time_changed_model remove a time-dependent diffusion
  scale theta(t) by the clock change int theta^2, producing an autonomous-
  scale model whose endpoint law must match the original's.

The prototypes' coefficients are not written out here: autonomous_from_prototype
and time_changed_model take each kind's state space and state factor from
models.KINDS and its diffusion scale from PrototypeParams.scale.

Improper integrals and limits are classified by their trend over geometric
refinements toward the endpoint, never by one magic evaluation; knife-edge
cases come out inconclusive, which is the honest answer for a logarithmic
divergence no finite grid can settle.  The refinement budgets and thresholds
are the module constants below, the same for every model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import HypothesisError
from .models import KINDS, PrototypeParams, SdeModel, CoefficientFn, _theta_positive, clamped_power
from .params import as_param
from .quadrature import CumulativeTable, QuadratureError, adaptive_simpson, build_cumulative

__all__ = [
    "RatePrediction",
    "predict_rate",
    "theorem_rate",
    "AutonomousModel",
    "autonomous_from_prototype",
    "CriterionReport",
    "ito_criterion",
    "EndpointProbe",
    "FellerResult",
    "feller_test",
    "TimeChange",
    "build_timechange",
    "time_changed_model",
]

V_THRESHOLD = 1e8
TREND_WINDOW = 5
MAX_SEGMENTS = 320
RATIO_CUT = 0.999
MIN_SEGMENTS = 8
G_DIVERGED = -1e6
MAX_REFINE = 60
INTERIOR_POINTS = 257


# ---------------------------------------------------------------------------
# rate predictions from boundary drift ratios


@dataclass(frozen=True)
class RatePrediction:
    """Predicted strong order: every lambda < lambda_sup is guaranteed."""

    mu0: Optional[float]
    mu1: Optional[float]
    s_exponent: float
    lambda_sup: float
    provenance: str

    def __post_init__(self):
        if not 0.0 < self.lambda_sup <= 0.5:
            raise ValueError(f"lambda_sup must lie in (0, 1/2], got {self.lambda_sup}")


def _refined_min(fn: Callable[[np.ndarray], np.ndarray], horizon: float) -> float:
    """min of fn over [0, horizon] by grid doubling until stable to 1e-6."""
    prev = None
    for j in range(8, 25):
        grid = np.linspace(0.0, horizon, (1 << j) + 1)
        cur = float(np.min(fn(grid)))
        if prev is not None and abs(cur - prev) <= 1e-6 * max(1.0, abs(cur)):
            return min(cur, prev)
        prev = cur
    return prev


def predict_rate(params: PrototypeParams) -> RatePrediction:
    """Order prediction for a prototype from its boundary drift ratios.

    mu0 = min_t kappa(t) lam(t) / theta(t)^2 is the inward drift at 0 in
    diffusion units; the two-sided state space adds
    mu1 = min_t kappa(t) (1 - lam(t)) / theta(t)^2 at the upper end.  The
    supremum of provable orders is min(1/2, mu0) for cir, min(1/2, mu0, mu1)
    for wf, and 1/2 for ckls.  Positive mu values are a hypothesis; when they
    fail there is no prediction and the violated ratio is named.
    """
    kappa, lam, theta = params.kappa, params.lam, params.theta
    T = params.horizon

    def ratio0(t):
        th = theta(t)
        return kappa(t) * lam(t) / (th * th)

    mu0 = _refined_min(ratio0, T)
    if not mu0 > 0.0:
        raise HypothesisError(f"mu0 <= 0 (got {mu0:.6g}); no order prediction applies")

    mu1 = None
    if params.kind == "wf":

        def ratio1(t):
            th = theta(t)
            return kappa(t) * (1.0 - lam(t)) / (th * th)

        mu1 = _refined_min(ratio1, T)
        if not mu1 > 0.0:
            raise HypothesisError(f"mu1 <= 0 (got {mu1:.6g}); no order prediction applies")

    if params.kind == "cir":
        lambda_sup = min(0.5, mu0)
        provenance = "cir-boundary-rate"
    elif params.kind == "wf":
        lambda_sup = min(0.5, mu0, mu1)
        provenance = "wf-boundary-rate"
    else:
        lambda_sup = 0.5
        provenance = "ckls-rate"

    s_exponent = max(0.0, 0.5 - lambda_sup)
    return RatePrediction(
        mu0=mu0, mu1=mu1, s_exponent=s_exponent, lambda_sup=lambda_sup, provenance=provenance
    )


def theorem_rate(gamma: float, s_exponent: float) -> float:
    """The generic guaranteed order 1/2 - s for a compensation exponent s.

    s may range over [0, 1 - gamma]; at the upper end the order degrades to
    gamma - 1/2, and at s = 1/2 (only possible for gamma = 1/2) the
    prediction is vacuous and a warning is emitted.
    """
    if not 0.5 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [1/2, 1), got {gamma}")
    if not 0.0 <= s_exponent <= 1.0 - gamma:
        raise ValueError(f"s must lie in [0, {1.0 - gamma}], got {s_exponent}")
    rate = 0.5 - s_exponent
    if rate == 0.0:
        warnings.warn("s = 1/2 gives order 0: the prediction is vacuous", stacklevel=2)
    return rate


# ---------------------------------------------------------------------------
# autonomous models on an interval


@dataclass(frozen=True)
class AutonomousModel:
    """Time-homogeneous coefficients on an interval, with derivatives.

    a is the drift and sigma the base coefficient.  sigma_prime and
    sigma_prime2 are user-supplied first and second derivatives of sigma
    (numerical differentiation is too fragile near the interval ends, where
    these criteria do their work); they are cross-checked against finite
    differences at interior points before use.  No criterion needs the
    derivative of a.  All callables must be elementwise on arrays.  x0, the
    origin of every criterion's approach to the ends, lies inside domain.
    """

    a: Callable
    sigma: Callable
    sigma_prime: Callable
    sigma_prime2: Callable
    gamma: float
    domain: tuple[float, float]
    x0: float

    def __post_init__(self):
        if not 0.5 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [1/2, 1), got {self.gamma}")
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError(f"empty domain ({lo}, {hi})")
        if not lo < self.x0 < hi:
            raise ValueError(f"x0={self.x0} outside domain ({lo}, {hi})")

    def c_squared(self, x):
        return clamped_power(self.sigma(x), 2.0 * self.gamma)


def autonomous_from_prototype(params: PrototypeParams) -> AutonomousModel:
    """Freeze a constant-parameter prototype into an autonomous model.

    Requires kappa, lam, theta to be constants; interior expressions are used
    (no positive-part clamps), which is valid because the criteria only ever
    evaluate strictly inside the domain.
    """
    vals = {}
    for label, p in (("kappa", params.kappa), ("lam", params.lam), ("theta", params.theta)):
        lo, hi = p.bounds(params.horizon)
        if lo != hi:
            raise ValueError(f"{label} must be constant in time for autonomous criteria")
        vals[label] = lo
    kap, lam = vals["kappa"], vals["lam"]
    scale = params.scale(vals["theta"])

    def a(x):
        return kap * (lam - x)

    if params.kind == "wf":
        # scale x (1 - x), in this order: the rounding of g's infimum depends on it
        sigma = lambda x: scale * np.asarray(x, dtype=float) * (1.0 - np.asarray(x, dtype=float))
        sigma_prime = lambda x: scale * (1.0 - 2.0 * np.asarray(x, dtype=float))
        sigma_prime2 = lambda x: -2.0 * scale + 0.0 * np.asarray(x, dtype=float)
    else:
        sigma = lambda x: scale * np.asarray(x, dtype=float)
        sigma_prime = lambda x: scale + 0.0 * np.asarray(x, dtype=float)
        sigma_prime2 = lambda x: 0.0 * np.asarray(x, dtype=float)
    return AutonomousModel(
        a=a,
        sigma=sigma,
        sigma_prime=sigma_prime,
        sigma_prime2=sigma_prime2,
        gamma=params.gamma,
        domain=KINDS[params.kind][0],
        x0=params.x0,
    )


def _endpoint_sequence(origin: float, endpoint: float, n: int) -> float:
    """The n-th probe point of the geometric approach from origin to endpoint."""
    if math.isinf(endpoint):
        scale = max(1.0, abs(origin))
        return origin + math.copysign(scale * 2.0 ** (n - 1), endpoint)
    return endpoint - (endpoint - origin) * 2.0 ** (-n)


def _check_derivatives(model: AutonomousModel, points: np.ndarray) -> None:
    """Reject declared derivatives that disagree with central differences."""
    for x in points:
        scale = max(1.0, abs(x))
        h1 = 1e-6 * scale
        h2 = 1e-4 * scale
        lo, hi = model.domain
        if not (lo < x - h2 and x + h2 < hi):
            continue
        fd1 = (model.sigma(x + h1) - model.sigma(x - h1)) / (2.0 * h1)
        d1 = model.sigma_prime(x)
        tol1 = 1e-4 * max(abs(d1), abs(fd1), 1.0)
        if abs(fd1 - d1) > tol1:
            raise ValueError(
                f"sigma_prime({x}) = {d1} disagrees with finite difference {fd1}"
            )
        fd2 = (model.sigma(x + h2) - 2.0 * model.sigma(x) + model.sigma(x - h2)) / (h2 * h2)
        d2 = model.sigma_prime2(x)
        tol2 = 1e-4 * max(abs(d2), abs(fd2), 1.0)
        if abs(fd2 - d2) > tol2:
            raise ValueError(
                f"sigma_prime2({x}) = {d2} disagrees with finite difference {fd2}"
            )


# ---------------------------------------------------------------------------
# the state-axis drift criterion


@dataclass(frozen=True)
class CriterionReport:
    """Infimum estimate and endpoint trends of the criterion function g."""

    inf_estimate: float
    classification: str  # bounded-below | diverging-to-neg-infinity | inconclusive
    left_trend: str
    right_trend: str
    s_exponent: Optional[float]
    lambda_sup: Optional[float]
    n_points: int


def _g_function(model: AutonomousModel, x: np.ndarray) -> np.ndarray:
    sig = np.asarray(model.sigma(x), dtype=float)
    if np.any(sig <= 0.0):
        bad = float(np.asarray(x)[np.argmax(sig <= 0.0)])
        raise ValueError(f"sigma must be positive inside the domain; sigma({bad}) <= 0")
    sp = np.asarray(model.sigma_prime(x), dtype=float)
    spp = np.asarray(model.sigma_prime2(x), dtype=float)
    a = np.asarray(model.a(x), dtype=float)
    g = (
        sp * a / sig
        + 0.5 * spp * sig ** (2.0 * model.gamma - 1.0)
        + (model.gamma - 1.5) * sp * sp * sig ** (2.0 * model.gamma - 2.0)
    )
    return g


def _trend(values: list[float]) -> str:
    if len(values) < TREND_WINDOW:
        return "inconclusive"
    last = values[-TREND_WINDOW:]
    diffs = np.diff(last)
    if np.all(diffs < 0.0) and last[-1] <= G_DIVERGED:
        return "diverging"
    if np.all(np.abs(diffs) <= 1e-9 * np.maximum(1.0, np.abs(last[1:]))):
        return "bounded"
    return "inconclusive"


def ito_criterion(model: AutonomousModel) -> CriterionReport:
    """Classify the criterion function g along the state axis.

        g = sigma' a / sigma + sigma'' sigma^{2 gamma - 1} / 2
            + (gamma - 3/2) (sigma')^2 sigma^{2 gamma - 2}

    g bounded below means the scheme needs no compensation (s = 0, every
    order below 1/2 is attainable); g falling to -infinity toward an endpoint
    means this criterion, by itself, certifies nothing.  The verdict comes
    from the trend of g over the last TREND_WINDOW points of a geometric
    sequence approaching each end from x0, at most MAX_REFINE points long:
    it falls past G_DIVERGED, or it is stable (bounded).  g is also taken at
    INTERIOR_POINTS points between the first points of both sequences.
    """
    origin = model.x0
    vals = ([], [])
    trends = ["inconclusive", "inconclusive"]
    for m in range(1, MAX_REFINE + 1):
        for side, end in enumerate(model.domain):
            if trends[side] == "inconclusive":
                x = _endpoint_sequence(origin, end, m)
                vals[side].append(float(_g_function(model, np.asarray([x]))[0]))
                trends[side] = _trend(vals[side])
        if "inconclusive" not in trends:
            break

    span_lo, span_hi = (_endpoint_sequence(origin, end, 1) for end in model.domain)
    interior = np.linspace(span_lo, span_hi, INTERIOR_POINTS)
    _check_derivatives(model, np.linspace(span_lo, span_hi, 9)[1:-1])
    g_interior = _g_function(model, interior)

    all_vals = np.concatenate([g_interior, np.asarray(vals[0]), np.asarray(vals[1])])
    inf_estimate = float(np.min(all_vals))
    n_points = len(all_vals)

    if "diverging" in trends:
        classification = "diverging-to-neg-infinity"
    elif trends == ["bounded", "bounded"]:
        classification = "bounded-below"
    else:
        classification = "inconclusive"

    bounded = classification == "bounded-below"
    return CriterionReport(
        inf_estimate=inf_estimate,
        classification=classification,
        left_trend=trends[0],
        right_trend=trends[1],
        s_exponent=0.0 if bounded else None,
        lambda_sup=0.5 if bounded else None,
        n_points=n_points,
    )


# ---------------------------------------------------------------------------
# boundary classification by the nested scale integral


@dataclass(frozen=True)
class EndpointProbe:
    """Divergence classification of v at one endpoint."""

    side: str
    boundary: float
    classification: str  # divergent | finite | inconclusive
    v_values: np.ndarray
    v_estimate: Optional[float]
    n_segments: int


@dataclass(frozen=True)
class FellerResult:
    left: EndpointProbe
    right: EndpointProbe
    conclusion: str  # no-exit | exit-possible | inconclusive

    def __post_init__(self):
        both_div = self.left.classification == "divergent" and self.right.classification == "divergent"
        if (self.conclusion == "no-exit") != both_div:
            raise ValueError("conclusion must be no-exit exactly when both endpoints diverge")


_trapz = getattr(np, "trapezoid", None) or np.trapz


def _cumtrapz(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(f)
    out[0] = 0.0
    np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(x), out=out[1:])
    return out


def _segment_integral(a_fn, c2_fn, y0, y1, lp0, m0):
    """v-contribution of the oriented segment [y0, y1], with feed-forward state.

    Returns (v_seg, lp_end, m_end, converged).  lp is the log scale density
    accumulated from the origin, m the inner integral; both continue across
    segments.  The segment is refined by node doubling until two passes agree
    to 1e-6 relative, which is far tighter than the trend classification
    needs and stays affordable even when the integrand spans many decades.
    """
    prev = None
    n = 64
    while n <= (1 << 14):
        ys = np.linspace(y0, y1, n + 1)
        c2 = np.asarray(c2_fn(ys), dtype=float)
        if np.any(c2 <= 0.0) or not np.all(np.isfinite(c2)):
            raise QuadratureError("diffusion vanished inside the interval")
        dlp = -2.0 * np.asarray(a_fn(ys), dtype=float) / c2
        lp = lp0 + _cumtrapz(dlp, ys)
        with np.errstate(over="ignore", under="ignore"):
            pprime = np.exp(lp)
            q = 2.0 * np.exp(-lp) / c2
        m = m0 + _cumtrapz(q, ys)
        integrand = pprime * m
        v_seg = float(_trapz(integrand, ys))
        state = (v_seg, float(lp[-1]), float(m[-1]))
        if not all(math.isfinite(s) for s in state):
            return v_seg, float(lp[-1]), float(m[-1]), False
        if prev is not None:
            ok = all(
                abs(s - p) <= 1e-6 * max(1.0, abs(s)) for s, p in zip(state, prev)
            )
            if ok:
                return state[0], state[1], state[2], True
        prev = state
        n *= 2
    return prev[0], prev[1], prev[2], False


def _grows(v: float, incs: list[float]) -> bool:
    """Sustained growth of v past V_THRESHOLD: its last TREND_WINDOW
    increments are all positive."""
    return v > V_THRESHOLD and len(incs) >= TREND_WINDOW and all(i > 0.0 for i in incs[-TREND_WINDOW:])


def _probe_endpoint(a_fn, c2_fn, origin: float, endpoint: float, side: str) -> EndpointProbe:
    v = 0.0
    incs: list[float] = []
    v_hist: list[float] = []
    lp, m = 0.0, 0.0
    start = origin
    classification = "inconclusive"
    v_estimate = None
    for seg in range(1, MAX_SEGMENTS + 1):
        target = _endpoint_sequence(origin, endpoint, seg)
        try:
            v_seg, lp, m, converged = _segment_integral(a_fn, c2_fn, start, target, lp, m)
        except QuadratureError:
            break
        if not math.isfinite(v_seg) or not converged:
            # the integral escaped floating point or the panel budget; if the
            # accumulated value, or a segment that overflowed to +inf,
            # shows sustained growth past the threshold the divergence
            # verdict stands, otherwise be honest
            if _grows(v_seg if v_seg == math.inf else v, incs):
                classification = "divergent"
            break
        v += v_seg
        incs.append(v_seg)
        v_hist.append(v)
        start = target
        if _grows(v, incs):
            classification = "divergent"
            break
        if seg >= max(MIN_SEGMENTS, TREND_WINDOW + 1):
            last = incs[-TREND_WINDOW:]
            if all(i >= 0.0 for i in last) and all(i > 0.0 for i in last[:-1]):
                ratios = [last[j + 1] / last[j] for j in range(TREND_WINDOW - 1)]
                if max(ratios) <= RATIO_CUT:
                    rho = max(ratios)
                    tail = last[-1] * rho / (1.0 - rho)
                    classification = "finite"
                    v_estimate = v + tail
                    break
    return EndpointProbe(
        side=side,
        boundary=endpoint,
        classification=classification,
        v_values=np.asarray(v_hist),
        v_estimate=v_estimate,
        n_segments=len(v_hist),
    )


def feller_test(model: AutonomousModel) -> FellerResult:
    """Can the solution reach the ends of its interval in finite time?

    Builds v(x), the expected-time-like nested integral of the scale density
    p'(y) = exp(-2 int a/c^2) against 2/(p' c^2), outward from the origin
    x0.  An endpoint where v diverges is unreachable; if v diverges at both
    ends the process stays in the open interval with probability one.
    Divergence is decided by the trend of v over geometric endpoint
    approaches, at most MAX_SEGMENTS segments each: TREND_WINDOW positive
    increments in a row with v past V_THRESHOLD is divergent, increments
    whose ratios stay below RATIO_CUT (a geometrically decaying tail) are
    finite, anything else (including logarithmically slow growth) is
    inconclusive.
    """
    lo, hi = model.domain
    o = model.x0

    a_fn = model.a
    c2_fn = model.c_squared

    # local integrability spot-check near the origin
    if math.isfinite(lo):
        delta = 0.01 * (o - lo)
    else:
        delta = 0.01 * max(1.0, abs(o))
    if math.isfinite(hi):
        delta = min(delta, 0.01 * (hi - o))

    def integrability(y):
        return (1.0 + abs(a_fn(y))) / c2_fn(y)

    try:
        spot = adaptive_simpson(integrability, o - delta, o + delta, 1e-6)
    except QuadratureError as exc:
        raise HypothesisError(f"local integrability check failed near {o}: {exc}") from exc
    if not math.isfinite(spot):
        raise HypothesisError(f"(1+|a|)/c^2 not integrable near the origin {o}")

    left = _probe_endpoint(a_fn, c2_fn, o, lo, "left")
    right = _probe_endpoint(a_fn, c2_fn, o, hi, "right")

    if left.classification == "divergent" and right.classification == "divergent":
        conclusion = "no-exit"
    elif "finite" in (left.classification, right.classification):
        conclusion = "exit-possible"
    else:
        conclusion = "inconclusive"
    return FellerResult(left=left, right=right, conclusion=conclusion)


# ---------------------------------------------------------------------------
# deterministic clock change


@dataclass(frozen=True)
class TimeChange:
    """The clock Theta(t) = int_0^t theta^2 and its inverse A on [0, T]."""

    theta: object
    table: CumulativeTable
    horizon: float
    horizon_image: float

    def Theta(self, t: float) -> float:
        return self.table.forward(t)

    def A(self, tau: float) -> float:
        return self.table.inverse(tau, tol=1e-10 * self.horizon)


def _squared(f, s):
    v = f(s)
    return v * v


def build_timechange(theta, horizon: float) -> TimeChange:
    """Tabulate the clock change for a strictly positive theta."""
    theta = as_param(theta)
    _theta_positive(theta, horizon)

    table = build_cumulative(partial(_squared, theta), 0.0, horizon)
    return TimeChange(
        theta=theta,
        table=table,
        horizon=float(horizon),
        horizon_image=table.total,
    )


def time_changed_model(params: PrototypeParams, tc: TimeChange) -> SdeModel:
    """The prototype rewritten on the changed clock, with unit diffusion scale.

    On [0, Theta(T)] the drift becomes a(A(s), x) / theta(A(s))^2 and the
    base coefficient drops its theta factor entirely; the endpoint law of the
    result at Theta(T) must agree with the original's at T.
    """
    domain, shape = KINDS[params.kind]
    # the clock inversion is time-only, so the Euler kernel runs it once per
    # grid node when it tabulates the drift, never once per step
    return SdeModel(
        drift=CoefficientFn(_changed_drift, time=partial(_changed_drift_time, tc, params)),
        base_sigma=CoefficientFn(partial(_shape_only, shape)),
        gamma=params.gamma,
        x0=params.x0,
        domain=domain,
        name=f"{params.kind}-timechanged",
    )


def _changed_drift_time(tc, params, s):
    t = tc.A(float(s))
    th = params.theta(t)
    return params.kappa(t), params.lam(t), th * th


def _changed_drift(k, l, th2, x):
    return k * (l - x) / th2


def _shape_only(shape, s, x):
    return shape(x)
