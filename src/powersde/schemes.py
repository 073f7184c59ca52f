"""The equidistant Euler scheme and its fine-grid reference solver.

The recursion, for a model dX = a dt + sigma^gamma dW on a level-l grid, is

    x_{k+1} = x_k + a(t_k, x_k) dt + max(sigma(t_k, x_k), 0)^gamma dW_k

evaluated exactly as written, left to right, into buffers allocated once per
chunk.  Every trajectory, including the reference, is one column of the
batched kernel euler_batch; columns never interact, so batching never
changes results.

A sweep is resumable: euler_batch advances an EulerSweep through one
steps-major chunk of increments at a time, so a lattice streamed in time
chunks gives the same trajectories, bit for bit, as one call on the whole
lattice.  The time-only parts of the coefficients are tabulated once per
grid (EulerGrid), so each step makes one call per coefficient and no
per-step evaluation of time functions.

The reference solution is the same scheme run at the lattice's finest level.
It is a proxy for the exact solution whose own error is of the order under
study, which is why callers must keep a resolution gap between the finest
studied level and the reference level (enforced in the estimator layer).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidCoefficientError
from .models import SdeModel, _check_horizon, clamped_power

__all__ = ["EulerGrid", "EulerSweep", "euler_batch"]

# The finest level any grid may have.  Lattices are streamed in chunks, so
# what grows with the level is a grid's tables (a few doubles per step; at
# 2^26 steps each table takes 512 MiB) and converge's per-node errors
# (2^level + 1 doubles per path and studied level).
MAX_LEVEL = 26


def _check_grid(level: int, horizon: float) -> None:
    """The one check of a grid's level and horizon, which EulerGrid makes
    before it builds a table; a caller planning several grids makes it for
    each before building any."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must lie in [0, {MAX_LEVEL}] (the memory guard), got {level}")
    _check_horizon(horizon)


class EulerGrid:
    """A model on the 2^level-step equidistant grid of [0, horizon]; a level
    outside [0, MAX_LEVEL] or a horizon that is not finite and positive is
    refused before any table is built.

    drift and sigma hold the coefficients' time-only parts at the left end
    t_k = k * dt of every step, one row per step, so building a grid is
    where time functions (a clock inversion, say) are evaluated: once per
    node, in the process that builds it.
    """

    def __init__(self, model: SdeModel, horizon: float, level: int):
        _check_grid(level, horizon)
        self.model = model
        self.horizon = horizon
        self.level = level
        self.n_steps = 1 << level
        self.dt = horizon / self.n_steps
        times = np.arange(self.n_steps) * self.dt
        self.drift = model.drift.tabulate(times)
        self.sigma = model.base_sigma.tabulate(times)

    def sigma_rows(self, k0: int, x: np.ndarray):
        """Base sigma at nodes k0 .. k0 + len(x) - 1 for the steps-major states x, from the grid's table."""
        return self.model.base_sigma.fn(*(column[:, None] for column in self.sigma[k0 : k0 + len(x)].T), x)


class EulerSweep:
    """The state of one batched Euler run on a grid, between chunks.

    x holds the current node of every path (0.0 on frozen paths), step the
    global index of the next step, and first_bad[i] the first node index at
    which path i went non-finite, or -1.
    """

    def __init__(self, grid: EulerGrid, n_paths: int, keep_stride: int = 1):
        if keep_stride < 1 or grid.n_steps % keep_stride != 0:
            raise ValueError("keep_stride must divide the step count")
        self.grid = grid
        self.keep_stride = keep_stride
        self.x = np.full(n_paths, float(grid.model.x0))
        self.first_bad = np.full(n_paths, -1, dtype=np.int64)
        self.step = 0


def euler_batch(sweep: EulerSweep, increments: np.ndarray) -> np.ndarray:
    """Advance sweep through an (m, n_paths) chunk of increments.

    Returns the kept nodes the chunk reaches, steps-major: one row for each
    global node index k + 1 in the chunk that keep_stride divides (node 0,
    the start, is never returned).  Frozen paths read NaN in kept rows after
    the node where they went non-finite, while the rest of the batch
    continues.  A non-finite sigma(t_k, x_k) on a live path is a bad
    coefficient, not an explosion, and raises InvalidCoefficientError with
    order (step, path): the global step k and the path's column.

    A chunk that starts with every path alive tests finiteness once, at its
    end.  Each step adds to x_k, so a non-finite node makes every later one
    non-finite, and a non-finite sigma makes the clamped power, and so the
    next node, NaN.  Only if that test fails is the chunk replayed from
    sweep.x, testing every step, so the result is the same either way.
    Coefficients must therefore not write into the x they are given.
    sweep.x never shares memory with the returned rows, which the caller may
    overwrite.
    """
    increments = np.asarray(increments, dtype=float)
    n_paths = len(sweep.x)
    if increments.ndim != 2 or increments.shape[1] != n_paths:
        raise ValueError(f"increments must have shape (steps, {n_paths}), got {increments.shape}")
    k0 = sweep.step
    n = increments.shape[0]
    if k0 + n > sweep.grid.n_steps:
        raise ValueError(f"{n} increments run past step {sweep.grid.n_steps} from step {k0}")
    stride = sweep.keep_stride
    kept = np.empty(((k0 + n) // stride - k0 // stride, n_paths))
    all_alive = not (sweep.first_bad >= 0).any()
    x = _steps(sweep, increments, kept, checked=not all_alive)
    if all_alive and not np.isfinite(x).all():
        x = _steps(sweep, increments, kept, checked=True)
    sweep.x = x.copy()
    sweep.step = k0 + n
    return kept


def _steps(sweep: EulerSweep, increments: np.ndarray, kept: np.ndarray, checked: bool) -> np.ndarray:
    """Run the chunk's steps from sweep.x, filling kept; returns the last x.

    Each step writes x + a dt, then c dW, then their sum into buffers of its
    own, which is x + a * dt + c * dW evaluated left to right.  checked
    tests every step: it raises on a bad sigma, freezes exploded paths at
    0.0 (NaN in kept rows) and records them in sweep.first_bad.  Unchecked,
    every path is taken to stay alive, so a kept node is written straight
    into its row and is the next step's x.
    """
    grid = sweep.grid
    k0 = sweep.step
    dt = grid.dt
    gamma = grid.model.gamma
    drift = grid.model.drift.fn
    sigma = grid.model.base_sigma.fn
    stride = sweep.keep_stride
    # as Python floats: cheap to unpack, and the values the time parts returned
    drift_args = grid.drift[k0 : k0 + len(increments)].tolist()
    sigma_args = grid.sigma[k0 : k0 + len(increments)].tolist()
    x = sweep.x
    drift_term, noise_term, *states = np.empty((4, len(x)))
    first_bad = sweep.first_bad
    alive = first_bad < 0
    all_alive = bool(alive.all())
    j = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, inc in enumerate(increments):
            k = k0 + i
            a = drift(*drift_args[i], x)
            sig = sigma(*sigma_args[i], x)
            keep = (k + 1) % stride == 0
            x_next = kept[j] if keep and not checked else states[i & 1]
            np.multiply(a, dt, drift_term)
            np.add(x, drift_term, drift_term)
            np.multiply(clamped_power(sig, gamma), inc, noise_term)
            np.add(drift_term, noise_term, x_next)
            if checked:
                finite = np.isfinite(x_next)
                if not finite.all():
                    bad_sig = alive & ~np.isfinite(sig)
                    if bad_sig.any():
                        t = k * dt
                        p = int(np.argmax(bad_sig))
                        x_bad = float(x[p])
                        raise InvalidCoefficientError(
                            f"base sigma returned a non-finite value at (t={t}, x={x_bad})",
                            t=t,
                            x=x_bad,
                            order=(k, p),
                        )
                    newly = alive & ~finite
                    if newly.any():
                        first_bad[newly] = k + 1
                        alive &= finite
                        all_alive = False
                    x_next[~finite] = 0.0
                if keep:
                    kept[j] = x_next if all_alive else np.where(alive, x_next, np.nan)
            x = x_next
            j += keep
    return x
