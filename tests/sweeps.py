"""Whole-lattice Euler runs for tests, on top of the resumable kernel."""

import numpy as np

from powersde.schemes import EulerGrid, EulerSweep, euler_batch


def euler_run(model, increments, horizon, keep_stride=1, chunk=None):
    """Sweep steps-major increments through the kernel, chunk steps at a
    time (all at once by default).

    Returns (kept, first_bad) with kept path-major, node 0 included: row i
    is path i's trajectory on every keep_stride-th node.
    """
    increments = np.asarray(increments, dtype=float)
    n_steps, n_paths = increments.shape
    level = n_steps.bit_length() - 1
    assert n_steps == 1 << level, "the kernel runs on dyadic grids"
    sweep = EulerSweep(EulerGrid(model, horizon, level), n_paths, keep_stride)
    chunk = chunk or n_steps
    rows = [np.full((1, n_paths), float(model.x0))]
    for k in range(0, n_steps, chunk):
        rows.append(euler_batch(sweep, increments[k : k + chunk]))
    return np.concatenate(rows).T, sweep.first_bad
