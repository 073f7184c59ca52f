"""Monte Carlo estimators: strong error curves, inverse-moment diagnostics,
pathwise comparison and clock-change distribution checks.

Determinism contract
--------------------
Every estimator is a per-batch kernel run by one engine, _map_paths.  Work is
split into fixed-size path batches; batch i always covers the same path
indices, every batch is a pure function of (seed, batch index), and the
kernels' partial sums are merged in batch-index order.  Results are therefore
byte-identical for any worker count, including the serial fallback.  A
different batch size regroups the partial sums, which moves results by
rounding only.

Explosion policy
----------------
A path that goes non-finite at any of the grids a kernel runs is left out of
every partial sum.  The engine counts such paths for all four estimators:
on_explosion="abort" raises SimulationAbort if there is any, "drop" reports
how many were dropped, and a run with no surviving path always aborts.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np
from scipy.special import ndtri

from .brownian import MAX_LEVEL, coarsen_increments, sample_increment_batch
from .criteria import build_timechange, time_changed_model
from .errors import HypothesisError, SimulationAbort
from .models import PrototypeParams, SdeModel, make_prototype
from .schemes import euler_batch

__all__ = [
    "ExperimentConfig",
    "ConvergenceReport",
    "MomentEstimate",
    "ComparisonReport",
    "TimeChangeReport",
    "estimate_strong_error",
    "estimate_inverse_moment",
    "comparison_check",
    "timechange_check",
]

DEFAULT_BATCH = 512
REF_GAP = 4
Z_SIGNIFICANCE = 1e-3


# ---------------------------------------------------------------------------
# worker pool: fork-based, scheduling-independent

_WORKER_TASK = None


def _invoke_task(i):
    return _WORKER_TASK(i)


def _run_batches(task, n_batches: int, workers: Optional[int]):
    """Map task over batch indices, merging nothing; order is preserved."""
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(int(workers), n_batches))
    use_pool = workers > 1 and hasattr(os, "fork")
    if not use_pool:
        return [task(i) for i in range(n_batches)]
    global _WORKER_TASK
    _WORKER_TASK = task
    try:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            return pool.map(_invoke_task, range(n_batches), chunksize=1)
    finally:
        _WORKER_TASK = None


def _add_partials(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _map_paths(kernel, paths, batch_size, workers, on_explosion, merge=_add_partials):
    """Run kernel over fixed path batches and merge its partials in batch order.

    kernel(first_path, n_paths) simulates one batch and returns
    (partial, n_bad): partial is a tuple of sums over the batch's surviving
    paths, reduced inside the worker, and n_bad counts the paths that went
    non-finite.  Partials are folded left to right in batch-index order with
    merge (slotwise addition by default).  Returns (total, dropped).
    """
    if on_explosion not in ("abort", "drop"):
        raise ValueError("on_explosion must be 'abort' or 'drop'")
    ranges = [(p0, min(p0 + batch_size, paths)) for p0 in range(0, paths, batch_size)]

    def task(i):
        p0, p1 = ranges[i]
        return kernel(p0, p1 - p0)

    partials = _run_batches(task, len(ranges), workers)
    dropped = sum(n_bad for _, n_bad in partials)
    if dropped and on_explosion == "abort":
        raise SimulationAbort(
            f"{dropped} of {paths} paths produced non-finite values; "
            "aborting (set the explosion policy to 'drop' to discard them)",
            n_flagged=dropped,
        )
    if dropped == paths:
        raise SimulationAbort("every path exploded", n_flagged=dropped)
    return reduce(merge, (partial for partial, _ in partials)), dropped


# ---------------------------------------------------------------------------
# experiment configuration and the error-curve estimator


@dataclass(frozen=True)
class ExperimentConfig:
    """What to simulate for one error curve.

    The reference level must sit at least REF_GAP levels above the finest
    studied level so the reference's own bias is a small fraction of the
    errors being measured.
    """

    model: SdeModel
    horizon: float
    levels: tuple[int, ...]
    ref_level: int
    paths: int
    master_seed: int
    batch_size: int = DEFAULT_BATCH
    on_explosion: str = "abort"

    def __post_init__(self):
        levels = tuple(sorted(set(int(l) for l in self.levels)))
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise ValueError("at least one level is required")
        if levels[0] < 0:
            raise ValueError("levels must be nonnegative")
        if self.ref_level < max(levels) + REF_GAP:
            raise ValueError(
                f"ref_level must be at least max(levels) + {REF_GAP} "
                f"(= {max(levels) + REF_GAP}), got {self.ref_level}"
            )
        if self.ref_level > MAX_LEVEL:
            raise ValueError(f"ref_level {self.ref_level} exceeds the memory guard {MAX_LEVEL}")
        if self.paths < 1:
            raise ValueError("paths must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.on_explosion not in ("abort", "drop"):
            raise ValueError("on_explosion must be 'abort' or 'drop'")


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-level strong errors and the fitted convergence order.

    errors[i] is the largest per-node mean of |reference - scheme| over the
    level's own grid; stderrs[i] is the Monte Carlo standard error at the
    node attaining it.  The order fit is unweighted least squares of
    log2(error) against level, excluding levels whose stderr exceeds a
    quarter of the error; lambda_hat is minus the slope.  Fit fields are
    None when fewer than three levels survive exclusion.
    """

    levels: tuple[int, ...]
    errors: np.ndarray
    stderrs: np.ndarray
    argmax_nodes: tuple[int, ...]
    paths: int
    dropped: int
    excluded_levels: tuple[int, ...]
    lambda_hat: Optional[float]
    lambda_stderr: Optional[float]
    r_squared: Optional[float]

    def __post_init__(self):
        if np.any(self.errors < 0.0) or np.any(self.stderrs < 0.0):
            raise ValueError("errors and stderrs must be nonnegative")
        self.errors.setflags(write=False)
        self.stderrs.setflags(write=False)


def _fit_order(levels, errors, stderrs):
    """(lambda_hat, stderr, r2, excluded) from the log2 error regression."""
    levels = np.asarray(levels, dtype=float)
    errors = np.asarray(errors, dtype=float)
    stderrs = np.asarray(stderrs, dtype=float)
    keep = (errors > 0.0) & (stderrs <= 0.25 * errors)
    excluded = tuple(int(l) for l in levels[~keep])
    if keep.sum() < 3:
        return None, None, None, excluded
    ls = levels[keep]
    ys = np.log2(errors[keep])
    n = len(ls)
    lbar = ls.mean()
    sxx = float(((ls - lbar) ** 2).sum())
    slope = float(((ls - lbar) * (ys - ys.mean())).sum() / sxx)
    intercept = float(ys.mean() - slope * lbar)
    resid = ys - (intercept + slope * ls)
    ssr = float((resid**2).sum())
    sst = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 if sst <= 1e-30 else 1.0 - ssr / sst
    slope_se = math.sqrt(ssr / (n - 2) / sxx) if n > 2 else 0.0
    return -slope, slope_se, r2, excluded


def estimate_strong_error(config: ExperimentConfig, workers: Optional[int] = None) -> ConvergenceReport:
    """Coupled strong L1 error of the scheme at each level against the
    fine-grid reference, with a fitted convergence order.

    Every path is simulated once at the reference level and once per studied
    level, all from one Brownian lattice, so differences are pathwise.  The
    reference trajectory is streamed: only its values on the finest studied
    grid are kept.  Each batch's lattice is sampled once and walked down a
    halving ladder, finest studied level first, each level coarsened from
    the one above it; only the current rung is held.
    """
    model = config.model
    T = config.horizon
    levels = config.levels
    lmax = max(levels)
    ref_stride = 1 << (config.ref_level - lmax)

    def kernel(p0, b):
        inc = sample_increment_batch(config.master_seed, p0, b, config.ref_level, T)
        ref_kept, ref_bad = euler_batch(model, inc, T, keep_stride=ref_stride)
        bad = ref_bad >= 0
        diffs = [None] * len(levels)
        above = config.ref_level
        for i in reversed(range(len(levels))):
            inc = coarsen_increments(inc, above - levels[i])
            above = levels[i]
            xs, lev_bad = euler_batch(model, inc, T)
            bad |= lev_bad >= 0
            diffs[i] = np.abs(ref_kept[:, :: 1 << (lmax - levels[i])] - xs)
        sums = []
        for diff in diffs:
            diff = diff[~bad]
            sums += [diff.sum(axis=0), (diff * diff).sum(axis=0)]
        return tuple(sums), int(bad.sum())

    sums, dropped = _map_paths(kernel, config.paths, config.batch_size, workers, config.on_explosion)
    m_eff = config.paths - dropped

    errors, stderrs, argmaxes = [], [], []
    for i in range(len(levels)):
        s1, s2 = sums[2 * i], sums[2 * i + 1]
        mean = s1 / m_eff
        k = int(np.argmax(mean))
        e = float(mean[k])
        var = max(s2[k] / m_eff - e * e, 0.0)
        errors.append(e)
        stderrs.append(math.sqrt(var / m_eff))
        argmaxes.append(k)

    lam, lam_se, r2, excluded = _fit_order(levels, errors, stderrs)
    return ConvergenceReport(
        levels=levels,
        errors=np.asarray(errors),
        stderrs=np.asarray(stderrs),
        argmax_nodes=tuple(argmaxes),
        paths=config.paths,
        dropped=dropped,
        excluded_levels=excluded,
        lambda_hat=lam,
        lambda_stderr=lam_se,
        r_squared=r2,
    )


# ---------------------------------------------------------------------------
# inverse-moment diagnostic


@dataclass(frozen=True)
class MomentEstimate:
    """The time-integrated moment of sigma^q along reference paths.

    One estimate per reference level (coarsest first).  The integrand is
    capped; by default the cap grows with resolution (cap = 1/dt), which
    makes a divergent moment show up as monotone growth of the estimates
    while a finite moment stays put.  divergence_flag is that growth test.
    """

    q: float
    ref_levels: tuple[int, ...]
    estimates: np.ndarray
    stderrs: np.ndarray
    cap_hits: tuple[int, ...]
    caps: tuple[float, ...]
    growth_factor: float
    divergence_flag: bool

    def __post_init__(self):
        if np.any(self.estimates < 0.0):
            raise ValueError("estimates must be nonnegative")
        self.estimates.setflags(write=False)
        self.stderrs.setflags(write=False)


def estimate_inverse_moment(
    model: SdeModel,
    q: float,
    horizon: float,
    ref_level: int,
    paths: int,
    seed: int,
    cap: Optional[float] = None,
    growth_factor: float = 1.2,
    batch_size: int = DEFAULT_BATCH,
    on_explosion: str = "abort",
    workers: Optional[int] = None,
) -> MomentEstimate:
    """Estimate int_0^T E[sigma(t, X_t)^q] dt on reference paths.

    The integrand is evaluated at the left endpoint of every step of the
    reference grid and averaged over paths.  Values above the cap (including
    the infinite values where sigma = 0) contribute the cap and are counted.
    cap=None couples the cap to resolution as 1/dt; a fixed numeric cap
    applies unchanged at every level.  The same lattices are re-run at the
    two next-coarser reference levels, each halved from the level above it,
    and the divergence flag fires when the three estimates grow
    monotonically by more than growth_factor.
    """
    if q > 0.0:
        raise ValueError("q must be nonpositive")
    if ref_level < 2:
        raise ValueError("ref_level must be at least 2 for the refinement diagnostic")
    if ref_level > MAX_LEVEL:
        raise ValueError(f"ref_level {ref_level} exceeds the memory guard {MAX_LEVEL}")
    ref_levels = (ref_level - 2, ref_level - 1, ref_level)

    caps = []
    for level in ref_levels:
        dt = horizon / (1 << level)
        caps.append((1.0 / dt) if cap is None else float(cap))

    if q == 0.0:
        # integrand identically one: the integral is the horizon, exactly
        return MomentEstimate(
            q=0.0,
            ref_levels=ref_levels,
            estimates=np.full(3, float(horizon)),
            stderrs=np.zeros(3),
            cap_hits=(0, 0, 0),
            caps=tuple(caps),
            growth_factor=growth_factor,
            divergence_flag=False,
        )

    def kernel(p0, b):
        inc = sample_increment_batch(seed, p0, b, ref_level, horizon)
        bad = np.zeros(b, dtype=bool)
        per_level = [None] * len(ref_levels)
        for i in reversed(range(len(ref_levels))):
            level, level_cap = ref_levels[i], caps[i]
            if level < ref_level:
                inc = coarsen_increments(inc, 1)
            n = 1 << level
            dt = horizon / n
            kept, lev_bad = euler_batch(model, inc, horizon)
            bad |= lev_bad >= 0
            t_row = np.arange(n) * dt
            sig = np.maximum(np.asarray(model.base_sigma(t_row, kept[:, :-1]), dtype=float), 0.0)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                integrand = sig**q
            over = ~(integrand <= level_cap)
            per_path = np.where(over, level_cap, integrand).sum(axis=1) * dt
            per_level[i] = (per_path, int(over.sum()))
        sums = []
        for per_path, n_over in per_level:
            good = per_path[~bad]
            sums += [float(good.sum()), float((good * good).sum()), n_over]
        return tuple(sums), int(bad.sum())

    sums, dropped = _map_paths(kernel, paths, batch_size, workers, on_explosion)
    m_eff = paths - dropped

    estimates, stderrs, hits = [], [], []
    for i in range(len(ref_levels)):
        s1, s2, h = sums[3 * i : 3 * i + 3]
        mean = s1 / m_eff
        var = max(s2 / m_eff - mean * mean, 0.0)
        estimates.append(mean)
        stderrs.append(math.sqrt(var / m_eff))
        hits.append(h)

    grows = all(
        estimates[i + 1] > growth_factor * estimates[i] for i in range(len(estimates) - 1)
    )
    return MomentEstimate(
        q=q,
        ref_levels=ref_levels,
        estimates=np.asarray(estimates),
        stderrs=np.asarray(stderrs),
        cap_hits=tuple(hits),
        caps=tuple(caps),
        growth_factor=growth_factor,
        divergence_flag=grows,
    )


# ---------------------------------------------------------------------------
# pathwise comparison of drift-ordered models


@dataclass(frozen=True)
class ComparisonReport:
    """Order violations of a drift-ordered pair at one level.

    dropped paths went non-finite under either model and are left out of
    n_violating, max_violation and violation_fraction.
    """

    level: int
    paths: int
    dropped: int
    tolerance: float
    n_violating: int
    max_violation: float

    @property
    def violation_fraction(self) -> float:
        return self.n_violating / (self.paths - self.dropped)


def _sampled_close(f, g, horizon, x_range, n=1000, seed=0, tol=1e-10):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, horizon, n)
    x = rng.uniform(x_range[0], x_range[1], n)
    fv = np.asarray(f(t, x), dtype=float)
    gv = np.asarray(g(t, x), dtype=float)
    return np.max(np.abs(fv - gv)) <= tol * max(1.0, float(np.max(np.abs(fv))))


def comparison_check(
    model_lo: SdeModel,
    model_hi: SdeModel,
    horizon: float,
    level: int,
    paths: int,
    seed: int,
    tolerance: float = 1e-3,
    batch_size: int = DEFAULT_BATCH,
    on_explosion: str = "abort",
    workers: Optional[int] = None,
) -> ComparisonReport:
    """Drive two drift-ordered models with identical noise and count order
    violations.

    For the continuous equations, a_lo <= a_hi with shared diffusion and
    ordered starting points keeps the paths ordered with probability one.
    The discrete scheme only satisfies this approximately, so the check is
    statistical: the fraction of paths whose minimum gap dips below
    -tolerance should be small and should shrink as the level grows.
    """
    if model_lo.x0 > model_hi.x0:
        raise HypothesisError("model_lo must start at or below model_hi")
    if model_lo.gamma != model_hi.gamma:
        raise HypothesisError("models must share the diffusion exponent")
    x_probe = (model_lo.x0 - 2.0, model_hi.x0 + 2.0)
    if not _sampled_close(model_lo.base_sigma, model_hi.base_sigma, horizon, x_probe):
        raise HypothesisError("models must share the identical base diffusion")
    rng = np.random.default_rng(1)
    t = rng.uniform(0.0, horizon, 1000)
    x = rng.uniform(x_probe[0], x_probe[1], 1000)
    alo = np.asarray(model_lo.drift(t, x), dtype=float)
    ahi = np.asarray(model_hi.drift(t, x), dtype=float)
    if np.any(alo > ahi + 1e-10 * np.maximum(1.0, np.abs(ahi))):
        raise HypothesisError("sampled drift ordering a_lo <= a_hi fails")

    def kernel(p0, b):
        inc = sample_increment_batch(seed, p0, b, level, horizon)
        lo_kept, lo_bad = euler_batch(model_lo, inc, horizon)
        hi_kept, hi_bad = euler_batch(model_hi, inc, horizon)
        good = (lo_bad < 0) & (hi_bad < 0)
        worst = (hi_kept - lo_kept)[good].min(axis=1)
        violating = int((worst < -tolerance).sum())
        max_violation = max(0.0, -float(worst.min(initial=np.inf)))
        return (violating, max_violation), b - int(good.sum())

    def merge(a, b):
        return a[0] + b[0], max(a[1], b[1])

    (n_violating, max_violation), dropped = _map_paths(kernel, paths, batch_size, workers, on_explosion, merge)
    return ComparisonReport(
        level=level,
        paths=paths,
        dropped=dropped,
        tolerance=tolerance,
        n_violating=n_violating,
        max_violation=max_violation,
    )


# ---------------------------------------------------------------------------
# clock-change distribution check


@dataclass(frozen=True)
class TimeChangeReport:
    """Two-sample endpoint comparison of a prototype and its clock-changed
    version.

    The laws of X_T and of the changed model at Theta(T) coincide; the check
    compares empirical means and variances with z-statistics against the
    two-sided threshold for the requested significance.
    """

    horizon_image: float
    mean_original: float
    mean_changed: float
    var_original: float
    var_changed: float
    z_mean: float
    z_var: float
    threshold: float
    passed: bool
    dropped: int


def _endpoint_moments(model, horizon, level, paths, seed, batch_size, workers, on_explosion):
    def kernel(p0, b):
        inc = sample_increment_batch(seed, p0, b, level, horizon)
        kept, bad = euler_batch(model, inc, horizon, keep_stride=1 << level)
        good = kept[bad < 0, -1]
        powers = (float(good.sum()), float((good**2).sum()), float((good**3).sum()), float((good**4).sum()))
        return powers, b - len(good)

    (s1, s2, s3, s4), dropped = _map_paths(kernel, paths, batch_size, workers, on_explosion)
    m = paths - dropped
    mean = s1 / m
    m2 = s2 / m - mean**2
    # central fourth moment from raw power sums
    m4 = s4 / m - 4.0 * mean * s3 / m + 6.0 * mean**2 * s2 / m - 3.0 * mean**4
    return m, mean, m2, m4


def timechange_check(
    params: PrototypeParams,
    level: int,
    paths: int,
    seed: int,
    significance: float = Z_SIGNIFICANCE,
    batch_size: int = DEFAULT_BATCH,
    on_explosion: str = "abort",
    workers: Optional[int] = None,
) -> TimeChangeReport:
    """Simulate the prototype and its clock-changed version independently and
    compare endpoint laws.

    The original runs on [0, T] and the changed model on [0, Theta(T)], both
    at the given dyadic level; the runs use unrelated noise streams, so the
    two samples are independent and plain two-sample z-tests apply.  dropped
    counts the paths of both samples that went non-finite.
    """
    from .brownian import derive_seed

    model = make_prototype(params)
    tc = build_timechange(params.theta, params.horizon)
    changed = time_changed_model(params, tc)

    m_x, mean_x, var_x, m4_x = _endpoint_moments(
        model, params.horizon, level, paths, derive_seed(seed, "original"), batch_size, workers, on_explosion
    )
    m_y, mean_y, var_y, m4_y = _endpoint_moments(
        changed, tc.horizon_image, level, paths, derive_seed(seed, "changed"), batch_size, workers, on_explosion
    )

    se_mean = math.sqrt(var_x / m_x + var_y / m_y)
    z_mean = (mean_x - mean_y) / se_mean if se_mean > 0.0 else 0.0
    var_of_var_x = max(m4_x - var_x**2, 0.0) / m_x
    var_of_var_y = max(m4_y - var_y**2, 0.0) / m_y
    se_var = math.sqrt(var_of_var_x + var_of_var_y)
    z_var = (var_x - var_y) / se_var if se_var > 0.0 else 0.0
    threshold = float(ndtri(1.0 - significance / 2.0))
    passed = abs(z_mean) <= threshold and abs(z_var) <= threshold
    return TimeChangeReport(
        horizon_image=tc.horizon_image,
        mean_original=mean_x,
        mean_changed=mean_y,
        var_original=var_x,
        var_changed=var_y,
        z_mean=z_mean,
        z_var=z_var,
        threshold=threshold,
        passed=passed,
        dropped=2 * paths - m_x - m_y,
    )
