"""Reproducible Brownian increments on dyadic grids.

One logical Brownian path is generated once, at the finest level, and every
coarser grid's increments are exact pairwise sums of the finest ones.  Any
scheme driven by any level of the same lattice therefore sees the same
underlying path, which is what makes pathwise error measurement meaningful.

Randomness contract
-------------------
Increment j of path p under master seed m comes from a counter-based Philox
stream keyed by (m mod 2^64, p): the j-th 64-bit draw r_j is mapped to the
open unit interval by u = (floor(r_j / 2^11) + 1/2) * 2^-53 and then through
the inverse normal CDF, scaled by sqrt(T / 2^level).  Every value is a pure
function of (m, p, j), so paths can be generated in any order, on any number
of workers, with bit-identical results.

Summation order
---------------
Coarsening halves adjacent pairs, so a level-l increment is a fixed binary
tree over the finest increments it spans, the same for every batch layout.
The estimators coarsen each batch rung by rung: the finest increments are
halved to the finest level they study, and each coarser level is halved from
the level just above it.  Halving is exact pairwise addition, so the rung a
level is reached from never changes its bits.
"""

from __future__ import annotations

from hashlib import sha256

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

__all__ = ["sample_increment_batch", "coarsen_increments", "derive_seed"]

MAX_LEVEL = 26  # 2^26 doubles is ~512 MiB per path; refuse beyond this
_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, label: str) -> int:
    """A 64-bit sub-seed tied to master_seed by a fixed labeled hash.

    Distinct labels give statistically unrelated streams, so one user-facing
    seed can feed several independent experiments reproducibly.
    """
    digest = sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sample_increment_batch(
    master_seed: int,
    first_path: int,
    n_paths: int,
    level: int,
    horizon: float,
    max_level: int = MAX_LEVEL,
) -> np.ndarray:
    """Finest-level increments for paths first_path .. first_path+n_paths-1.

    Returns an (n_paths, 2^level) array.  Row i depends only on
    (master_seed, first_path + i), never on the batch layout.  The uniforms
    are mapped to increments in place, so the output is the only
    batch-sized allocation.
    """
    if level > max_level:
        raise ValueError(f"level {level} exceeds the memory guard {max_level}")
    if level < 0:
        raise ValueError("level must be nonnegative")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    n = 1 << level
    key0 = master_seed & _MASK64
    u = np.empty((n_paths, n))
    for i in range(n_paths):
        raw = Philox(key=[key0, (first_path + i) & _MASK64]).random_raw(n)
        u[i] = (np.right_shift(raw, 11) + 0.5) * (2.0**-53)
    ndtri(u, out=u)
    u *= np.sqrt(horizon / n)
    return u


def coarsen_increments(increments: np.ndarray, n_halvings: int) -> np.ndarray:
    """Sum adjacent pairs n_halvings times along the last axis."""
    if n_halvings < 0:
        raise ValueError("cannot refine, only coarsen")
    out = increments
    for _ in range(n_halvings):
        out = out[..., ::2] + out[..., 1::2]
    return out
