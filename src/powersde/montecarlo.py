"""Monte Carlo estimators: strong error curves, inverse-moment diagnostics,
pathwise comparison and clock-change distribution checks.

Determinism contract
--------------------
Every estimator is a plan of sweeps and a simulate/reduce pair, run by one
engine, _map_paths.  Paths are split into fixed blocks of BLOCK_PATHS; block
i always covers the same path indices, and no setting changes the blocks.  A
task is a run of whole blocks, about TASK_PATHS paths wide, swept together
one time chunk at a time; each block is then reduced on its own, exactly as
if it had been simulated alone, and the engine folds the block partials in
block-index order.  Every block partial is a pure function of (seed, block
index), so results are byte-identical for any worker count, including the
serial fallback, and for any grouping of blocks into tasks.

The engine walks the lattice: it keys each task's Philox streams and runs
the plan's sweeps through each time chunk in plan order.  Each estimator
tabulates its grids' time-only coefficient parts in the calling process
before dispatch.  A task carries every value its worker reads: the plan's
grids with those tables, the seed, the cuts and width, the chunk size, and
the estimator's module-level simulate/reduce pair.  A task that meets a bad
coefficient stops and hands back the error, keyed by (chunk, sweep index,
step, path): the kernel sets (step, path) and the engine the rest.  It
raises the error with the smallest key, which is the one a single task over
all paths would raise, so the reported (t, x) does not depend on the worker
count or the task width either.

Every estimator first calls _check_run, the engine's one check of paths,
workers and on_explosion; each grid refuses a bad level or horizon before it
builds a table, estimate_strong_error makes that check for every level it
plans before it builds the first grid, and each estimator checks only its
own arguments.

Worker pool
-----------
A process has one pool, started by the first call that needs two or more
workers and reused by calls of the same size; its workers keep their Philox
generators from call to call and only re-key them.  Tasks reach the workers
through pickle; a task that does not pickle runs serially (_run_batches).

Explosion policy
----------------
A path that goes non-finite at any of the grids an estimator runs is left
out of every partial sum.  The engine applies this one rule for all four
estimators: it reads each task's sweeps, hands reduce_block only the
surviving paths and counts the rest.  on_explosion="abort" raises
SimulationAbort if there is any, "drop" reports how many were dropped, and
a run with no surviving path always aborts.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
import pickle
import warnings
from dataclasses import dataclass
from functools import partial, reduce
from typing import Optional

import numpy as np
from scipy.special import ndtri

from .brownian import PathStreams, coarsen_increments, derive_seed, sample_increment_batch
from .criteria import build_timechange, time_changed_model
from .errors import HypothesisError, InvalidCoefficientError, SimulationAbort
from .models import PrototypeParams, SdeModel, make_prototype
from .schemes import EulerGrid, EulerSweep, _check_grid, euler_batch

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
# worker pool: one per process, reused while its size holds

# fork where the platform has one, so workers start with the parent's modules
# loaded; the platform's default start method elsewhere
_START_METHOD = "fork" if hasattr(os, "fork") else None
_POOL = None  # ((size, start method), pool, its worker processes), once started


def _close_pool():
    """Terminate the process's pool, if it has one, and wait for its workers."""
    global _POOL
    if _POOL is not None:
        pool = _POOL[1]
        _POOL = None
        pool.terminate()
        pool.join()


atexit.register(_close_pool)


def _pool(size: int):
    """(pool, workers): the process's pool of size workers, started on first
    use.  A pool of another size or start method, or one that lost a worker,
    is closed before a new one starts."""
    global _POOL
    key = (size, _START_METHOD)
    if _POOL is not None and (_POOL[0] != key or not all(p.is_alive() for p in _POOL[2])):
        _close_pool()
    if _POOL is None:
        before = set(multiprocessing.active_children())
        pool = multiprocessing.get_context(_START_METHOD).Pool(size)
        _POOL = (key, pool, [p for p in multiprocessing.active_children() if p not in before])
    return _POOL[1], _POOL[2]


def _call_pickled(blob: bytes, i: int):
    """Task i of the task pickled into blob, in a pool worker."""
    return pickle.loads(blob)(i)


def _run_batches(task, n_tasks: int, workers: int):
    """Map task over task indices, merging nothing; order is preserved.

    With more than one worker the task goes, pickled once, to the process's
    pool.  A task that does not pickle (a model with a lambda coefficient,
    say) runs serially instead, with a RuntimeWarning and the same results.
    Any exception while the pool maps, a worker that dies or a Ctrl-C say,
    terminates the pool; a task's own result never does.
    """
    workers = max(1, min(workers, n_tasks))
    if workers > 1:
        try:
            blob = pickle.dumps(task, pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            warnings.warn(f"the batch tasks do not pickle, so they run serially: {exc}", RuntimeWarning)
        else:
            pool, procs = _pool(workers)
            try:
                result = pool.starmap_async(_call_pickled, [(blob, i) for i in range(n_tasks)], chunksize=1)
                while not result.ready():
                    if not all(p.is_alive() for p in procs):
                        raise RuntimeError("a pool worker died while its tasks ran")
                    result.wait(0.25)
                return result.get()
            except BaseException:
                _close_pool()
                raise
    return [task(i) for i in range(n_tasks)]


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


def _walk(streams: PathStreams, sweeps: list, width: int, chunk_steps: int):
    """Run the sweeps through the lattice of streams a time chunk at a time;
    after sweep i, yield (i, k0, nodes): the global index of the chunk's first
    step on its grid and the kept nodes the sweep reached.

    A chunk is drawn at the first sweep's level, chunk_steps steps widened to
    one coarsest step and capped at the lattice, into one buffer width paths
    wide for every task of a call (buffers of different sizes could double a
    worker's resident peak).  Each later sweep runs on the previous one's
    increments halved down to its own level.  A bad coefficient's (step,
    path) is widened to (chunk, i, step, path).
    """
    levels = [sweep.grid.level for sweep in sweeps]
    chunk = min(streams.n_steps, max(chunk_steps, 1 << (levels[0] - min(levels))))
    buf = np.empty((chunk, width))[:, : len(streams.generators)]
    for c in range(streams.n_steps // chunk):
        inc = sample_increment_batch(streams, chunk, out=buf)
        for i, sweep in enumerate(sweeps):
            if i and levels[i] < levels[i - 1]:
                inc = coarsen_increments(inc, levels[i - 1] - levels[i])
            try:  # yielded straight: a local would keep them through the next sweep
                yield i, sweep.step, euler_batch(sweep, inc)
            except InvalidCoefficientError as exc:
                exc.order = (c, i, *exc.order)
                raise


def _check_run(paths, workers, on_explosion):
    """Refuse a bad paths, workers or on_explosion, before any grid is built."""
    if paths < 1:
        raise ValueError(f"paths must be at least 1, got {paths}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if on_explosion not in ("abort", "drop"):
        raise ValueError(f"on_explosion must be 'abort' or 'drop', got {on_explosion!r}")


def _run_task(seed, plan, simulate, reduce_block, cuts, width, chunk_steps, i):
    """Task i of a _map_paths call: its blocks' partials and drop counts, or
    the InvalidCoefficientError it met.  Every value it reads is an argument,
    so that it runs the same in any worker."""
    p0 = cuts[i]
    n = cuts[i + 1] - p0
    lattice = plan[0][0]
    streams = PathStreams(seed, p0, n, lattice.level, lattice.horizon)
    sweeps = [EulerSweep(grid, n, keep_stride) for grid, keep_stride in plan]
    try:
        results = simulate(_walk(streams, sweeps, width, chunk_steps), n, width)
    except InvalidCoefficientError as exc:
        exc.order = (*exc.order[:3], p0 + exc.order[3])
        return exc
    bad = np.any([sweep.first_bad >= 0 for sweep in sweeps], axis=0)
    blocks = []
    for q in range(0, n, BLOCK_PATHS):
        block = bad[q : q + BLOCK_PATHS]
        blocks.append((reduce_block(results, q + np.flatnonzero(~block)), int(block.sum())))
    return blocks


def _map_paths(seed, plan, simulate, reduce_block, paths, workers, on_explosion, merge=_add_partials):
    """Simulate runs of fixed path blocks and merge their block partials in
    block order.

    plan lists (grid, keep_stride) pairs, finest first: each task walks its
    paths' lattice, at the first grid's level and horizon, under seed through
    one EulerSweep per pair (see _walk).  simulate(walk, n_paths, width)
    consumes the walk and returns its per-path results; width is the widest
    run's path count.  A path is dropped if it went non-finite in any sweep.
    reduce_block(results, rows) reduces the surviving paths of one block,
    rows being their indices into the run in path order, to a tuple of sums,
    inside the worker and exactly as a run of that block alone would.
    simulate and reduce_block go to the workers pickled, with the plan.
    Partials are folded left to right in block-index order with merge
    (slotwise addition by default).  Returns (total, dropped).  Of the bad
    coefficients the tasks meet, the one first in order (path being the
    global index) is raised.
    """
    workers = (os.cpu_count() or 1) if workers is None else int(workers)
    n_blocks = -(-paths // BLOCK_PATHS)
    cuts = [min(cut * BLOCK_PATHS, paths) for cut in _task_runs(n_blocks, workers)]
    width = max(b - a for a, b in zip(cuts, cuts[1:]))
    task = partial(_run_task, seed, plan, simulate, reduce_block, cuts, width, CHUNK_STEPS)
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
    return reduce(merge, (sums for sums, _ in partials)), dropped


# ---------------------------------------------------------------------------
# experiment configuration and the error-curve estimator


@dataclass(frozen=True)
class ExperimentConfig:
    """What to simulate for one error curve.

    The reference level must sit at least REF_GAP levels above the finest
    studied level so the reference's own bias is a small fraction of the
    errors being measured.  The other fields are checked when
    estimate_strong_error runs it.
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
        if self.ref_level < max(levels) + REF_GAP:
            raise ValueError(
                f"ref_level: the reference gap rule requires ref_level >= "
                f"max(levels) + {REF_GAP} = {max(levels) + REF_GAP}, got {self.ref_level}"
            )


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


def _strong_error_simulate(levels, walk, b, width):
    # |reference - scheme| at every node of each level, path-major so a
    # block's path sums add row after row as a one-block run would;
    # node 0 is x0 on both, a zero error
    lmax = max(levels)
    diffs = [np.zeros((b, (1 << level) + 1)) for level in levels]
    for i, k0, nodes in walk:
        if i == 0:
            ref_nodes = nodes
            continue
        j = len(levels) - i
        step = 1 << (lmax - levels[j])
        diffs[j][:, k0 + 1 : k0 + 1 + len(nodes)] = np.abs(ref_nodes[step - 1 :: step] - nodes).T
    return diffs


def _strong_error_reduce(diffs, rows):
    sums = []
    for diff in diffs:
        diff = diff[rows]
        sums += [diff.sum(axis=0), (diff * diff).sum(axis=0)]
    return tuple(sums)


def estimate_strong_error(config: ExperimentConfig, workers: Optional[int] = None) -> ConvergenceReport:
    """Coupled strong L1 error of the scheme at each level against the
    fine-grid reference, with a fitted convergence order.

    Every path is simulated once at the reference level and once per studied
    level, all from one Brownian lattice, so differences are pathwise.  The
    engine walks each chunk of the lattice through the reference and then
    the studied levels, finest first, each coarsened from the one above it;
    only the current chunk and rung are held, plus each level's per-node
    errors.  The reference keeps only its values on the finest studied grid.
    """
    _check_run(config.paths, workers, config.on_explosion)
    levels = config.levels
    lmax = max(levels)
    # every level, before any grid is tabulated: a bad one may sit anywhere
    for level in (config.ref_level, *reversed(levels)):
        _check_grid(level, config.horizon)
    # the reference, kept on the finest studied grid, then finest first
    plan = [(EulerGrid(config.model, config.horizon, config.ref_level), 1 << (config.ref_level - lmax))]
    plan += [(EulerGrid(config.model, config.horizon, level), 1) for level in reversed(levels)]

    simulate = partial(_strong_error_simulate, levels)
    sums, dropped = _map_paths(
        config.master_seed, plan, simulate, _strong_error_reduce, config.paths, workers, config.on_explosion
    )
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
    chunk's nodes but its final one.  It is built len(slab) rows at a time
    in the (rows, width) buffer slab, used flat, and written transposed into
    the flat buffer scratch, so that each path's chunk is summed along one
    contiguous row.  Values above the cap (NaN included) count in hits, per
    path.
    """
    n, b = nodes.shape
    rows = scratch[: b * n].reshape(b, n)
    for r0 in range(0, n, len(slab)):
        r1 = min(r0 + len(slab), n)
        left = nodes[r0 - 1 : r1 - 1] if r0 else np.concatenate([last, nodes[: r1 - 1]])
        # our own array, since sigma may return its x (a view of the nodes)
        # or a scalar; contiguous, so numpy runs the loops a whole chunk took
        sig = slab.reshape(-1)[: (r1 - r0) * b].reshape(r1 - r0, b)
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


def _moment_simulate(x0, grids, q, caps, slab_steps, walk, b, width):
    # grids and caps coarsest first, the walk's sweeps finest first; the
    # node before each sweep's next chunk: x_{k0}, the first left end
    last = [np.full((1, b), x0) for _ in grids]
    partials = [[] for _ in grids]
    cap_hits = [np.zeros(b, dtype=np.int64) for _ in grids]
    scratch = None
    for i, k0, nodes in walk:
        if scratch is None:
            # one finest chunk, width wide so every task asks for the same sizes
            scratch = np.empty(width * len(nodes))
            slab = np.empty((slab_steps, width))
        j = len(grids) - 1 - i
        sums = _capped_row_sums(grids[j], k0, last[j], nodes, q, caps[j], cap_hits[j], scratch, slab)
        _merge_partial(partials[j], sums)
        # copied, so that no view keeps this level's nodes alive
        # through the next level's sweep
        last[j] = nodes[-1:].copy()
        del nodes
    # the chunk count is a power of two, so one partial is left per level
    per_path = [total * grid.dt for [(_, total)], grid in zip(partials, grids)]
    return per_path, cap_hits


def _moment_reduce(results, rows):
    sums = []
    for integral, hits in zip(*results):
        kept = integral[rows]
        sums += [float(kept.sum()), float((kept * kept).sum()), int(hits[rows].sum())]
    return tuple(sums)


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
    growth_factor.

    Memory: besides its lattice chunk and each level's kept nodes in turn,
    a task holds one path-major chunk of integrand values, filled
    SLAB_STEPS steps at a time, and per path and level the chunk sums,
    merged as they arrive: at most 1 + log2(chunks) of them.
    """
    _check_run(paths, workers, on_explosion)
    if not q <= 0.0:
        raise ValueError(f"q must be nonpositive, got {q}")
    if cap is not None and not cap > 0.0:
        raise ValueError(f"cap must be positive, got {cap}")
    if not growth_factor > 1.0:
        raise ValueError(f"growth_factor must exceed 1, got {growth_factor}")
    if ref_level < 2:
        raise ValueError("ref_level must be at least 2 for the refinement diagnostic")
    ref_levels = (ref_level - 2, ref_level - 1, ref_level)
    # finest first, so a level past the memory guard is refused before any table
    plan = [(EulerGrid(model, horizon, level), 1) for level in reversed(ref_levels)]
    grids = [grid for grid, _ in reversed(plan)]
    caps = [1.0 / grid.dt if cap is None else float(cap) for grid in grids]

    simulate = partial(_moment_simulate, float(model.x0), grids, q, caps, SLAB_STEPS)
    sums, dropped = _map_paths(seed, plan, simulate, _moment_reduce, paths, workers, on_explosion)
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


def _gap_simulate(gap0, walk, b, width):
    # each path's smallest gap over all nodes, node 0 included; min is
    # exact, so taking it chunk by chunk changes no bit
    worst = np.full(b, gap0)
    for i, _, nodes in walk:
        if i == 0:
            lo_nodes = nodes
        else:
            np.minimum(worst, (nodes - lo_nodes).min(axis=0), out=worst)
        del nodes  # only lo's nodes stay alive while the walk resumes
    return worst


def _gap_reduce(tolerance, worst, rows):
    kept = worst[rows]
    violating = int((kept < -tolerance).sum())
    max_violation = max(0.0, -float(kept.min(initial=np.inf)))
    return violating, max_violation


def _count_and_max(a, b):
    return a[0] + b[0], max(a[1], b[1])


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
    _check_run(paths, workers, on_explosion)
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be nonnegative, got {tolerance}")
    # before the probes, so the grid names a bad horizon or level first
    plan = [(EulerGrid(model, horizon, level), 1) for model in (model_lo, model_hi)]
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

    simulate = partial(_gap_simulate, float(model_hi.x0) - float(model_lo.x0))
    reduce_block = partial(_gap_reduce, tolerance)
    (n_violating, max_violation), dropped = _map_paths(
        seed, plan, simulate, reduce_block, paths, workers, on_explosion, _count_and_max
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


def _endpoint_simulate(walk, b, width):
    for _, _, kept in walk:  # only the last chunk keeps a node
        pass
    return kept[-1]


def _endpoint_reduce(end, rows):
    good = end[rows]
    return (float(good.sum()), float((good**2).sum()), float((good**3).sum()), float((good**4).sum()))


def _endpoint_moments(model, horizon, level, paths, seed, workers, on_explosion):
    plan = [(EulerGrid(model, horizon, level), 1 << level)]
    (s1, s2, s3, s4), dropped = _map_paths(
        seed, plan, _endpoint_simulate, _endpoint_reduce, paths, workers, on_explosion
    )
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
    _check_run(paths, workers, on_explosion)
    if not 0.0 < significance < 1.0:
        raise ValueError(f"significance must lie in (0, 1), got {significance}")
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
