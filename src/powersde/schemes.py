"""The equidistant Euler scheme and its fine-grid reference solver.

The recursion, for a model dX = a dt + sigma^gamma dW on a level-l grid, is

    x_{k+1} = x_k + a(t_k, x_k) dt + max(sigma(t_k, x_k), 0)^gamma dW_k

evaluated exactly as written, left to right, one fused numpy expression per
step.  Every trajectory, including the reference, is one row of the batched
kernel euler_batch; rows never interact, so batching never changes results.

The reference solution is the same scheme run at the lattice's finest level.
It is a proxy for the exact solution whose own error is of the order under
study, which is why callers must keep a resolution gap between the finest
studied level and the reference level (enforced in the estimator layer).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidCoefficientError
from .models import SdeModel

__all__ = ["euler_batch"]


def euler_batch(
    model: SdeModel,
    increments: np.ndarray,
    horizon: float,
    keep_stride: int = 1,
):
    """Run the scheme on a (B, N) batch of increments.

    Only every keep_stride-th node is stored (plus node 0), so a fine
    reference can be streamed against coarse grids without holding all
    2^L_ref values per path.  Returns (kept, first_bad): kept has shape
    (B, N // keep_stride + 1); first_bad[i] is the first node index at which
    path i went non-finite, or -1.  Frozen paths keep NaN in later kept slots
    while the rest of the batch continues.  A non-finite sigma(t_k, x_k) on a
    live path is a bad coefficient, not an explosion, and raises
    InvalidCoefficientError.
    """
    increments = np.atleast_2d(np.asarray(increments, dtype=float))
    n_paths, n_steps = increments.shape
    if keep_stride < 1 or n_steps % keep_stride != 0:
        raise ValueError("keep_stride must divide the step count")
    dt = horizon / n_steps
    gamma = model.gamma
    drift = model.drift
    sigma = model.base_sigma

    x = np.full(n_paths, float(model.x0))
    kept = np.empty((n_paths, n_steps // keep_stride + 1))
    kept[:, 0] = x
    first_bad = np.full(n_paths, -1, dtype=np.int64)
    alive = np.ones(n_paths, dtype=bool)
    j = 1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(n_steps):
            t = k * dt
            a = drift(t, x)
            sig = sigma(t, x)
            # sig - sig is +0 where sig is finite and NaN elsewhere, so the
            # clamp maps a -inf sigma to NaN instead of 0 and the step goes
            # non-finite, to be reported below like a NaN or +inf sigma
            c = np.maximum(sig, sig - sig) ** gamma
            x_next = x + a * dt + c * increments[:, k]
            finite = np.isfinite(x_next)
            if not finite.all():
                bad_sig = alive & ~np.isfinite(sig)
                if bad_sig.any():
                    x_bad = float(x[np.argmax(bad_sig)])
                    raise InvalidCoefficientError(
                        f"base sigma returned a non-finite value at (t={t}, x={x_bad})", t=t, x=x_bad
                    )
                newly = alive & ~finite
                if newly.any():
                    first_bad[newly] = k + 1
                    alive &= finite
                x_next = np.where(finite, x_next, 0.0)
            x = x_next
            if (k + 1) % keep_stride == 0:
                kept[:, j] = np.where(alive, x, np.nan)
                j += 1
    return kept, first_bad
