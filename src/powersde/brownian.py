"""Reproducible Brownian increments on dyadic grids.

One logical Brownian path is generated once, at the finest level, and every
coarser grid's increments are exact pairwise sums of the finest ones.  Any
scheme driven by any level of the same lattice therefore sees the same
underlying path, which is what makes pathwise error measurement meaningful.

Randomness contract
-------------------
Increment j of path p under master seed m comes from a counter-based Philox
stream keyed by (m mod 2^64, p mod 2^64): the j-th 64-bit draw r_j is mapped
to the open unit interval by u = fl(floor(r_j / 2^11) + 1/2) * 2^-53, where
fl rounds to float64, ties to even (so for r_j >= 2^63 the sum is an even
integer), and then through the inverse normal CDF, scaled by
sqrt(T / 2^level).  The draws r_j >= 2^64 - 2^11, whose sum rounds to 2^53,
take u = 1 - 2^-53, the largest double below 1, instead.  No two pairs (m, p)
in [0, 2^64)^2 share a key.  Every value is a pure function of (m, p, j), so
paths can be generated in any order, on any number of workers, with
bit-identical results.

A keyed counter stream depends only on its key and counter, so a used
generator re-keyed with a fresh state draws exactly what a new one would.
Each process keeps the generators no live PathStreams owns and re-keys
them, which costs a small fraction of building one.

Layout and chunking
-------------------
A lattice is stored steps-major: an (n_steps, n_paths) array whose row j
holds increment j of every path, so an Euler step reads one contiguous row.
PathStreams keeps one Philox generator per path, and sample_increment_batch
draws the next time chunk of every path from it.  A Philox stream read in
pieces gives the same draws as one read of the whole row, so a lattice
joined over any chunking equals the one-shot lattice bit for bit, and a
caller holds one chunk at a time instead of all 2^level steps.

Summation order
---------------
Coarsening halves adjacent pairs, so a level-l increment is a fixed binary
tree over the finest increments it spans, the same for every batch layout.
The batch engine coarsens each chunk rung by rung: each sweep's increments
are halved from those of the sweep before it, finest first, down to its own
level.  Halving is exact pairwise addition, so the rung a level is reached
from never changes its bits, and a chunk that holds whole coarse steps
halves exactly as the full lattice would.
"""

from __future__ import annotations

import weakref
from hashlib import sha256
from typing import Optional

import numpy as np
from numpy.random import Philox

__all__ = ["PathStreams", "sample_increment_batch", "coarsen_increments", "derive_seed"]

_MASK64 = (1 << 64) - 1
STAGE_VALUES = 1 << 14  # draws mapped to increments together, path-major
_BELOW_ONE = np.nextafter(1.0, 0.0)


def derive_seed(master_seed: int, label: str) -> int:
    """A 64-bit sub-seed tied to master_seed by a fixed labeled hash.

    Distinct labels give statistically unrelated streams, so one user-facing
    seed can feed several independent experiments reproducibly.
    """
    digest = sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _fresh_state(key: tuple[int, int]) -> dict:
    """The state of a new Philox generator with this key: counter 0 and an
    empty buffer."""
    return {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


# Generators that no live PathStreams owns, re-keyed when taken.
_SPARE: list[Philox] = []


def reserve_generators(n: int) -> None:
    """Grow this process's spare generators to n.  PathStreams takes its
    generators from them, so a process that runs many calls, a pool worker
    say, builds each generator once and afterwards only re-keys it."""
    _SPARE.extend(Philox(0) for _ in range(n - len(_SPARE)))


class PathStreams:
    """The increment streams of paths first_path .. first_path+n_paths-1 on
    one dyadic level, read forward in time by sample_increment_batch.

    The streams own their generators until they are dropped; then the
    generators go back to the spare set, so no two live streams share one.
    """

    def __init__(
        self,
        master_seed: int,
        first_path: int,
        n_paths: int,
        level: int,
        horizon: float,
    ):
        if level < 0:
            raise ValueError("level must be nonnegative")
        if n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        reserve_generators(n_paths)
        self.generators = _SPARE[-n_paths:]
        del _SPARE[-n_paths:]
        weakref.finalize(self, _SPARE.extend, self.generators).atexit = False
        key0 = master_seed & _MASK64
        for i, gen in enumerate(self.generators):
            gen.state = _fresh_state((key0, (first_path + i) & _MASK64))
        self.n_steps = 1 << level
        self.scale = np.sqrt(horizon / self.n_steps)
        self.position = 0


def sample_increment_batch(streams: PathStreams, n_steps: Optional[int] = None, out=None) -> np.ndarray:
    """The next n_steps increments of every path, steps-major.

    Returns an (n_steps, n_paths) array, written into out when given; row i
    holds increment position + i of each path.  n_steps defaults to the rest
    of the level.  Column p depends only on (master_seed, first_path + p)
    and the step range, never on the batch layout or the chunking.  The raw
    draws of a few paths at a time (about STAGE_VALUES values) are mapped to
    increments in bulk and written, scaled, into their columns, so the
    output is the only chunk-sized allocation.  The inverse normal CDF,
    scipy's ndtri, is imported by the first call, so a process that never
    draws a path never loads scipy.
    """
    from scipy.special import ndtri

    n_paths = len(streams.generators)
    left = streams.n_steps - streams.position
    if n_steps is None:
        n_steps = left
    if not 1 <= n_steps <= left:
        raise ValueError(f"cannot draw {n_steps} steps with {left} left on the level")
    if out is None:
        out = np.empty((n_steps, n_paths))
    elif out.shape != (n_steps, n_paths):
        raise ValueError(f"out has shape {out.shape}, expected {(n_steps, n_paths)}")
    rows = max(1, min(n_paths, STAGE_VALUES // n_steps))
    raw = np.empty((rows, n_steps), dtype=np.uint64)
    u = np.empty((rows, n_steps))
    for p0 in range(0, n_paths, rows):
        gens = streams.generators[p0 : p0 + rows]
        for row, gen in zip(raw, gens):
            row[:] = gen.random_raw(n_steps)
        k = len(gens)
        np.right_shift(raw[:k], 11, out=raw[:k])
        np.add(raw[:k], 0.5, out=u[:k])
        u[:k] *= 2.0**-53
        np.minimum(u[:k], _BELOW_ONE, out=u[:k])  # floor(r / 2^11) = 2^53 - 1 rounds up to 1
        ndtri(u[:k], out=u[:k])
        np.multiply(u[:k].T, streams.scale, out=out[:, p0 : p0 + k])
    streams.position += n_steps
    return out


def coarsen_increments(increments: np.ndarray, n_halvings: int) -> np.ndarray:
    """Sum adjacent pairs of rows (steps) n_halvings times along axis 0."""
    if n_halvings < 0:
        raise ValueError("cannot refine, only coarsen")
    out = increments
    for _ in range(n_halvings):
        out = out[::2] + out[1::2]
    return out
