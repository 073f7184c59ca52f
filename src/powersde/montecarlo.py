"""Monte Carlo estimators: strong error curves, inverse-moment diagnostics,
pathwise comparison and clock-change distribution checks.

Determinism contract
--------------------
Every estimator is a simulate/reduce pair run by one engine, _map_paths.
Paths are split into fixed blocks of BLOCK_PATHS; block i always covers the
same path indices, and no setting changes the blocks.  A task is a run of
whole blocks, about TASK_PATHS paths wide, swept together one time chunk at
a time; each block is then reduced on its own, exactly as if it had been
simulated alone, and the engine folds the block partials in block-index
order.  Every block partial is a pure function of (seed, block index), so
results are byte-identical for any worker count, including the serial
fallback, and for any grouping of blocks into tasks.

Each estimator tabulates its grids' time-only coefficient parts in the
calling process before dispatch, and the engine grows the spare Philox
generators there to the task width, so workers inherit the tables and the
generators and only re-key them.  Within a task the sweeps advance through
each chunk in a fixed order, their rank (reference first, then coarser
levels).  A task that meets a bad coefficient stops and hands back the
error, keyed by (chunk, sweep rank, step, path); the engine raises the
error with the smallest key, which is the one a single task over all paths
would raise, so the reported (t, x) does not depend on the worker count or
the task width either.

Explosion policy
----------------
A path that goes non-finite at any of the grids an estimator runs is left
out of every partial sum.  The engine counts such paths for all four estimators:
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

from .brownian import PathStreams, coarsen_increments, reserve_generators, sample_increment_batch
from .criteria import build_timechange, time_changed_model
from .errors import HypothesisError, InvalidCoefficientError, SimulationAbort
from .models import PrototypeParams, SdeModel, make_prototype
from .schemes import MAX_LEVEL, EulerGrid, EulerSweep, euler_batch

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

BLOCK_PATHS = 512  # paths per accumulation block
REF_GAP = 4
Z_SIGNIFICANCE = 1e-3
TASK_PATHS = 4096  # paths one task sweeps together, in whole blocks
# Fine steps per time chunk.  At least 512, so the inverse-moment chunks at
# ref_level - 2 hold 128 steps, the leaf size of numpy's pairwise sum.
CHUNK_STEPS = 512
# Steps of the inverse-moment integrand built at a time, so its temporaries
# stay a small fraction of a chunk.
SLAB_STEPS = 64


# ---------------------------------------------------------------------------
# worker pool: fork-based, scheduling-independent

_WORKER_TASK = None


def _invoke_task(i):
    return _WORKER_TASK(i)


def _run_batches(task, n_tasks: int, workers: int):
    """Map task over task indices, merging nothing; order is preserved."""
    workers = max(1, min(workers, n_tasks))
    use_pool = workers > 1 and hasattr(os, "fork")
    if not use_pool:
        return [task(i) for i in range(n_tasks)]
    global _WORKER_TASK
    _WORKER_TASK = task
    try:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            return pool.map(_invoke_task, range(n_tasks), chunksize=1)
    finally:
        _WORKER_TASK = None


def _add_partials(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _task_runs(n_blocks: int, workers: int) -> list[int]:
    """Block indices cutting the blocks into balanced runs, one per task.

    Runs hold about TASK_PATHS paths at most (one block when a block is
    wider), and their number is a multiple of the worker count when there
    are enough blocks, so the workers get even shares.
    """
    per_task = max(1, TASK_PATHS // BLOCK_PATHS)
    n_tasks = -(-n_blocks // per_task)
    n_tasks = min(n_blocks, -(-n_tasks // workers) * workers)
    return [n_blocks * i // n_tasks for i in range(n_tasks + 1)]


def _map_paths(simulate, reduce_block, paths, workers, on_explosion, merge=_add_partials):
    """Simulate runs of fixed path blocks and merge their block partials in
    block order.

    simulate(first_path, n_paths, width) sweeps one run of paths together
    and returns its per-path results; width is the widest run's path count,
    the same for every task of the call.  reduce_block(results, block)
    reduces the paths of one block (a slice of the run) to (partial, n_bad),
    exactly as a run of that block alone would: partial is a tuple of sums
    over the block's surviving paths, reduced inside the worker, and n_bad
    counts the block's paths that went non-finite.  Partials are folded left
    to right in block-index order with merge (slotwise addition by default).
    Returns (total, dropped).  Of the bad coefficients the tasks meet, the
    one first in order (path being the global index) is raised.
    """
    if on_explosion not in ("abort", "drop"):
        raise ValueError("on_explosion must be 'abort' or 'drop'")
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, int(workers))
    n_blocks = -(-paths // BLOCK_PATHS)
    cuts = [min(cut * BLOCK_PATHS, paths) for cut in _task_runs(n_blocks, workers)]
    width = max(b - a for a, b in zip(cuts, cuts[1:]))

    def task(i):
        p0 = cuts[i]
        n = cuts[i + 1] - p0
        try:
            results = simulate(p0, n, width)
        except InvalidCoefficientError as exc:
            chunk, rank, step, path = exc.order
            exc.order = (chunk, rank, step, p0 + path)
            return exc
        return [reduce_block(results, slice(q, min(q + BLOCK_PATHS, n))) for q in range(0, n, BLOCK_PATHS)]

    reserve_generators(width)  # forked workers inherit them and only re-key
    runs = _run_batches(task, len(cuts) - 1, workers)
    failures = [run for run in runs if isinstance(run, InvalidCoefficientError)]
    if failures:
        raise min(failures, key=lambda exc: exc.order)
    partials = [block for run in runs for block in run]
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


def _chunk_steps(level: int, coarsest: int) -> int:
    """Fine steps per chunk of a level-`level` lattice whose coarsest grid
    is level `coarsest`: CHUNK_STEPS, widened to hold one coarsest step,
    capped at the whole lattice."""
    return min(1 << level, max(CHUNK_STEPS, 1 << (level - coarsest)))


def _chunks(streams: PathStreams, chunk: int, width: int):
    """The lattice of streams in time order, chunk steps at a time.

    Every chunk is written into the same buffer, so a chunk is valid until
    the next one is drawn.  The buffer is allocated width paths wide, the
    same for every task of a call, and only its first columns are used: when
    a worker's tasks asked for chunk buffers of different sizes, the C heap
    could keep a freed one resident while mapping the next, doubling the
    worker's peak memory.
    """
    buf = np.empty((chunk, width))[:, : len(streams.generators)]
    for _ in range(streams.n_steps // chunk):
        yield sample_increment_batch(streams, chunk, out=buf)


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
                f"ref_level: the reference gap rule requires ref_level >= "
                f"max(levels) + {REF_GAP} = {max(levels) + REF_GAP}, got {self.ref_level}"
            )
        if self.ref_level > MAX_LEVEL:
            raise ValueError(f"ref_level {self.ref_level} exceeds the memory guard {MAX_LEVEL}")
        if self.paths < 1:
            raise ValueError("paths must be at least 1")
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
    level, all from one Brownian lattice, so differences are pathwise.  Each
    task's lattice is streamed in time chunks, and each chunk is walked down
    a halving ladder, finest studied level first, each level coarsened from
    the one above it; only the current chunk and rung are held, plus each
    level's per-node errors.  The reference trajectory keeps only its values
    on the finest studied grid, one chunk at a time.
    """
    model = config.model
    T = config.horizon
    levels = config.levels
    lmax = max(levels)
    ref_stride = 1 << (config.ref_level - lmax)
    ref_grid = EulerGrid(model, T, 1 << config.ref_level)
    grids = [EulerGrid(model, T, 1 << level) for level in levels]
    chunk = _chunk_steps(config.ref_level, levels[0])

    def simulate(p0, b, width):
        streams = PathStreams(config.master_seed, p0, b, config.ref_level, T)
        ref_sweep = EulerSweep(ref_grid, b, keep_stride=ref_stride)
        # run finest first, right after the reference
        sweeps = [EulerSweep(grid, b, rank=len(grids) - i) for i, grid in enumerate(grids)]
        # |reference - scheme| at every node of each level, path-major so a
        # block's path sums add row after row as a one-block run would;
        # node 0 is x0 on both, a zero error
        diffs = [np.zeros((b, (1 << level) + 1)) for level in levels]
        for inc in _chunks(streams, chunk, width):
            ref_nodes = euler_batch(ref_sweep, inc)
            above = config.ref_level
            for i in reversed(range(len(levels))):
                inc = coarsen_increments(inc, above - levels[i])
                above = levels[i]
                k0 = sweeps[i].step
                nodes = euler_batch(sweeps[i], inc)
                step = 1 << (lmax - levels[i])
                diffs[i][:, k0 + 1 : k0 + 1 + len(nodes)] = np.abs(ref_nodes[step - 1 :: step] - nodes).T
        bad = ref_sweep.first_bad >= 0
        for sweep in sweeps:
            bad |= sweep.first_bad >= 0
        return diffs, bad

    def reduce_block(results, block):
        diffs, bad = results
        good = ~bad[block]
        sums = []
        for diff in diffs:
            diff = diff[block][good]
            sums += [diff.sum(axis=0), (diff * diff).sum(axis=0)]
        return tuple(sums), int(bad[block].sum())

    sums, dropped = _map_paths(simulate, reduce_block, config.paths, workers, config.on_explosion)
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
    cap_hits[i] counts the capped nodes of the surviving paths at level
    ref_levels[i]; dropped paths went non-finite at any level and are left
    out of every field.
    """

    q: float
    ref_levels: tuple[int, ...]
    estimates: np.ndarray
    stderrs: np.ndarray
    cap_hits: tuple[int, ...]
    caps: tuple[float, ...]
    growth_factor: float
    divergence_flag: bool
    dropped: int

    def __post_init__(self):
        if np.any(self.estimates < 0.0):
            raise ValueError("estimates must be nonnegative")
        self.estimates.setflags(write=False)
        self.stderrs.setflags(write=False)


def _sigma_rows(grid: EulerGrid, k0: int, x: np.ndarray):
    """Base sigma at nodes k0 .. k0 + len(x) - 1 of grid, for the steps-major
    states x, from the grid's table of time-only parts."""
    rows = grid.sigma[k0 : k0 + len(x)]
    return grid.model.base_sigma.fn(*(column[:, None] for column in rows.T), x)


def _capped_row_sums(grid, k0, last, nodes, q, cap, hits, scratch, slab):
    """Each path's sum of the capped integrand over one chunk's steps.

    The integrand min(max(sigma, 0)^q, cap) is taken at the left end of
    each step k0 .. k0 + len(nodes) - 1: node k0 is last, the rest are the
    chunk's nodes but its final one.  It is built SLAB_STEPS rows at a time
    in the flat buffer slab and written transposed into the flat buffer
    scratch, so that each path's chunk is summed along one contiguous row.
    Values above the cap (NaN included) count in hits, per path.
    """
    n, b = nodes.shape
    rows = scratch[: b * n].reshape(b, n)
    for r0 in range(0, n, SLAB_STEPS):
        r1 = min(r0 + SLAB_STEPS, n)
        left = nodes[r0 - 1 : r1 - 1] if r0 else np.concatenate([last, nodes[: r1 - 1]])
        # our own array, since sigma may return its x (a view of the nodes)
        # or a scalar; contiguous, so numpy runs the loops a whole chunk took
        sig = slab[: (r1 - r0) * b].reshape(r1 - r0, b)
        np.maximum(_sigma_rows(grid, k0 + r0, left), 0.0, out=sig)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            sig **= q
        over = ~(sig <= cap)
        hits += over.sum(axis=0)
        np.copyto(sig, cap, where=over)
        rows[:, r0:r1] = sig.T
    return rows.sum(axis=1)


def _merge_partial(partials: list, part: np.ndarray) -> None:
    """Push one chunk's sums onto partials, a stack of (chunks, sums) with
    the oldest at the bottom, adding equal-size neighbours like a binary
    counter, the older on the left.

    After a power-of-two count of chunks the stack holds one entry, the
    sums combined in a binary tree.  numpy sums a contiguous row pairwise,
    halving down to 128-element leaves, so for chunks of at least 128 steps
    (or a single chunk) this equals the sum of the whole row bit for bit.
    """
    size = 1
    while partials and partials[-1][0] == size:
        part = partials.pop()[1] + part
        size *= 2
    partials.append((size, part))


def estimate_inverse_moment(
    model: SdeModel,
    q: float,
    horizon: float,
    ref_level: int,
    paths: int,
    seed: int,
    cap: Optional[float] = None,
    growth_factor: float = 1.2,
    on_explosion: str = "abort",
    workers: Optional[int] = None,
) -> MomentEstimate:
    """Estimate int_0^T E[sigma(t, X_t)^q] dt on reference paths.

    The integrand max(sigma, 0)^q is evaluated at the left endpoint of
    every step of the reference grid and averaged over the surviving paths.
    Values above the cap (including the infinite values where sigma = 0)
    contribute the cap and are counted.  cap=None couples the cap to
    resolution as 1/dt; a fixed numeric cap applies unchanged at every
    level.  The same lattices are re-run at the two next-coarser reference
    levels, each halved from the level above it, and the divergence flag
    fires when the three estimates grow monotonically by more than
    growth_factor.  q = 0 simulates nothing: every estimate is the horizon.

    Memory: besides its lattice chunk and each level's kept nodes in turn,
    a task holds one path-major chunk of integrand values, filled
    SLAB_STEPS steps at a time, and per path and level the chunk sums,
    merged as they arrive: at most 1 + log2(chunks) of them.
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
            dropped=0,
        )

    grids = [EulerGrid(model, horizon, 1 << level) for level in ref_levels]
    chunk = _chunk_steps(ref_level, ref_levels[0])

    def simulate(p0, b, width):
        streams = PathStreams(seed, p0, b, ref_level, horizon)
        # run finest first
        sweeps = [EulerSweep(grid, b, rank=len(grids) - 1 - i) for i, grid in enumerate(grids)]
        # the node before each sweep's next chunk: x_{k0}, the first left end
        last = [np.full((1, b), float(model.x0)) for _ in ref_levels]
        partials = [[] for _ in ref_levels]
        cap_hits = [np.zeros(b, dtype=np.int64) for _ in ref_levels]
        # width wide, like the chunk buffer, so every task asks for the same sizes
        scratch = np.empty(width * chunk)
        slab = np.empty(width * SLAB_STEPS)
        for inc in _chunks(streams, chunk, width):
            for i in reversed(range(len(ref_levels))):
                if ref_levels[i] < ref_level:
                    inc = coarsen_increments(inc, 1)
                k0 = sweeps[i].step
                nodes = euler_batch(sweeps[i], inc)
                sums = _capped_row_sums(grids[i], k0, last[i], nodes, q, caps[i], cap_hits[i], scratch, slab)
                _merge_partial(partials[i], sums)
                # copied, so that no view keeps this level's nodes alive
                # through the next level's sweep
                last[i] = nodes[-1:].copy()
                del nodes
        bad = np.zeros(b, dtype=bool)
        for sweep in sweeps:
            bad |= sweep.first_bad >= 0
        # the chunk count is a power of two, so one partial is left per level
        per_path = [total * grid.dt for [(_, total)], grid in zip(partials, grids)]
        return per_path, cap_hits, bad

    def reduce_block(results, block):
        per_path, cap_hits, bad = results
        good = ~bad[block]
        sums = []
        for integral, hits in zip(per_path, cap_hits):
            kept = integral[block][good]
            sums += [float(kept.sum()), float((kept * kept).sum()), int(hits[block][good].sum())]
        return tuple(sums), int(bad[block].sum())

    sums, dropped = _map_paths(simulate, reduce_block, paths, workers, on_explosion)
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
        dropped=dropped,
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

    grid_lo = EulerGrid(model_lo, horizon, 1 << level)
    grid_hi = EulerGrid(model_hi, horizon, 1 << level)
    chunk = _chunk_steps(level, level)

    def simulate(p0, b, width):
        streams = PathStreams(seed, p0, b, level, horizon)
        lo = EulerSweep(grid_lo, b)
        hi = EulerSweep(grid_hi, b, rank=1)
        # each path's smallest gap over all nodes, node 0 included; min is
        # exact, so taking it chunk by chunk changes no bit
        worst = np.full(b, float(model_hi.x0) - float(model_lo.x0))
        for inc in _chunks(streams, chunk, width):
            lo_nodes = euler_batch(lo, inc)
            gaps = euler_batch(hi, inc) - lo_nodes
            np.minimum(worst, gaps.min(axis=0), out=worst)
        return worst, (lo.first_bad < 0) & (hi.first_bad < 0)

    def reduce_block(results, block):
        worst, good = results
        kept = worst[block][good[block]]
        violating = int((kept < -tolerance).sum())
        max_violation = max(0.0, -float(kept.min(initial=np.inf)))
        return (violating, max_violation), len(worst[block]) - len(kept)

    def merge(a, b):
        return a[0] + b[0], max(a[1], b[1])

    (n_violating, max_violation), dropped = _map_paths(
        simulate, reduce_block, paths, workers, on_explosion, merge
    )
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


def _endpoint_moments(model, horizon, level, paths, seed, workers, on_explosion):
    grid = EulerGrid(model, horizon, 1 << level)
    chunk = _chunk_steps(level, level)

    def simulate(p0, b, width):
        streams = PathStreams(seed, p0, b, level, horizon)
        sweep = EulerSweep(grid, b, keep_stride=1 << level)
        for inc in _chunks(streams, chunk, width):
            kept = euler_batch(sweep, inc)
        return kept[-1], sweep.first_bad < 0

    def reduce_block(results, block):
        end, ok = results
        good = end[block][ok[block]]
        powers = (float(good.sum()), float((good**2).sum()), float((good**3).sum()), float((good**4).sum()))
        return powers, len(end[block]) - len(good)

    (s1, s2, s3, s4), dropped = _map_paths(simulate, reduce_block, paths, workers, on_explosion)
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
        model, params.horizon, level, paths, derive_seed(seed, "original"), workers, on_explosion
    )
    m_y, mean_y, var_y, m4_y = _endpoint_moments(
        changed, tc.horizon_image, level, paths, derive_seed(seed, "changed"), workers, on_explosion
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
