import warnings

import numpy as np
import pytest
from numpy.random import Philox
from scipy import stats
from scipy.special import ndtri

from powersde.brownian import PathStreams, coarsen_increments, derive_seed, sample_increment_batch
from powersde.models import CoefficientFn, SdeModel
from allocations import traced_peak
from sweeps import euler_run


def _lattice(seed, first_path, n_paths, level, horizon):
    """The whole steps-major lattice of the paths, in one draw."""
    return sample_increment_batch(PathStreams(seed, first_path, n_paths, level, horizon))


def _path(seed, path, level, horizon):
    return _lattice(seed, path, 1, level, horizon)[:, 0]


def test_derive_seed_is_stable_and_64bit():
    a = derive_seed(42, "converge")
    assert a == derive_seed(42, "converge")
    assert 0 <= a < 1 << 64
    assert derive_seed(42, "moments") != a
    assert derive_seed(43, "converge") != a


def test_batch_rows_match_individual_sampling():
    """Path i (column i) depends only on (seed, first_path + i), not on
    batch layout."""
    batch = _lattice(9, 10, 4, 6, 1.0)
    for i in range(4):
        single = _lattice(9, 10 + i, 1, 6, 1.0)[:, 0]
        np.testing.assert_array_equal(batch[:, i], single)


def test_lattice_shape():
    assert _lattice(3, 0, 1, 8, 2.0).shape == (256, 1)
    assert _lattice(3, 5, 3, 8, 2.0).shape == (256, 3)


@pytest.mark.parametrize("lengths", [[1] * 512, [4] * 128, [64] * 8, [512], [1, 2, 5, 128, 256, 120]])
def test_stream_joined_over_chunks_equals_one_shot_sampling(lengths):
    """Drawing the lattice chunk by chunk, into a reused buffer or not,
    gives the one-shot lattice bit for bit, whatever the chunk lengths."""
    whole = _lattice(5, 7, 3, 9, 1.5)
    streams = PathStreams(5, 7, 3, 9, 1.5)
    buf = np.empty((lengths[0], 3))
    parts = [
        sample_increment_batch(streams, n, out=buf if n == len(buf) else None).copy() for n in lengths
    ]
    np.testing.assert_array_equal(np.concatenate(parts), whole)
    with pytest.raises(ValueError):
        sample_increment_batch(streams, 1)


def _fresh_lattice(seed, first_path, n_paths, level, horizon):
    """The lattice the randomness contract defines, from a new Philox keyed
    by (seed mod 2^64, p) per path."""
    cols = []
    for p in range(first_path, first_path + n_paths):
        raw = Philox(key=np.array([seed % 2**64, p], dtype=np.uint64)).random_raw(1 << level)
        cols.append(ndtri(((raw >> np.uint64(11)) + 0.5) * 2.0**-53) * np.sqrt(horizon / (1 << level)))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("seed", [0, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1])
def test_reused_generators_draw_what_fresh_ones_do(seed):
    """Streams built on generators that earlier streams used and dropped
    partway equal new Philox streams keyed by (m, p), read in chunks, on
    both sides of 2^63 and at the top of the seed range."""
    used = PathStreams(7, 0, 6, 7, 1.0)
    sample_increment_batch(used, 3)
    before = list(used.generators)
    del used
    streams = PathStreams(seed, 9, 4, 7, 1.0)
    expected = _fresh_lattice(seed, 9, 4, 7, 1.0)
    assert any(g is h for g in streams.generators for h in before)
    chunks = [sample_increment_batch(streams, n).copy() for n in (1, 31, 64, 32)]
    np.testing.assert_array_equal(np.concatenate(chunks), expected)


def test_live_streams_read_in_alternation_keep_their_own_draws():
    a = PathStreams(3, 0, 5, 8, 1.0)
    b = PathStreams(4, 2, 3, 8, 2.0)
    assert not {id(g) for g in a.generators} & {id(g) for g in b.generators}
    parts_a, parts_b = [], []
    for n in (16, 48, 64, 128):
        parts_a.append(sample_increment_batch(a, n).copy())
        parts_b.append(sample_increment_batch(b, n).copy())
    np.testing.assert_array_equal(np.concatenate(parts_a), _lattice(3, 0, 5, 8, 1.0))
    np.testing.assert_array_equal(np.concatenate(parts_b), _lattice(4, 2, 3, 8, 2.0))


def test_a_stream_dropped_partway_leaves_the_next_unchanged():
    expected = _fresh_lattice(12, 0, 8, 6, 1.0)
    dropped = PathStreams(12, 0, 8, 6, 1.0)
    sample_increment_batch(dropped, 5)
    del dropped
    np.testing.assert_array_equal(_lattice(12, 0, 8, 6, 1.0), expected)


def test_master_seeds_that_round_to_one_double_draw_distinct_lattices():
    """The key is the seed itself, all 64 bits: seeds at and above 2^63
    that round to one double, or to 2^64, never share a stream."""
    seeds = (2**63, 2**63 + 1, 2**63 + 1000, 2**64 - 1)
    lattices = [_lattice(seed, 0, 2, 5, 1.0) for seed in seeds]
    for i, a in enumerate(lattices):
        for b in lattices[i + 1 :]:
            assert not np.any(a == b)


def test_the_top_of_the_seed_range_casts_nothing_through_float():
    """Seed 2^64 - 1 rounds to 2^64 as a double, which does not fit in a
    uint64; the key must never take that cast."""
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        streams = PathStreams(2**64 - 1, 0, 2, 3, 1.0)
        lattice = sample_increment_batch(streams)
    np.testing.assert_array_equal(lattice, _fresh_lattice(2**64 - 1, 0, 2, 3, 1.0))


def test_increments_look_gaussian():
    z = _path(123, 0, 13, 1.0) * np.sqrt(1 << 13)
    _, pvalue = stats.kstest(z, "norm")
    assert pvalue > 1e-4
    assert abs(z.mean()) < 5.0 / np.sqrt(len(z))


def test_adjacent_increments_uncorrelated():
    inc = _path(7, 0, 14, 1.0)
    a = inc[:-1]
    b = inc[1:]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.03


def test_distinct_paths_differ():
    a = _path(1, 0, 6, 1.0)
    b = _path(1, 1, 6, 1.0)
    assert not np.array_equal(a, b)


def test_coarsen_is_exact_pairwise_sum():
    inc = _path(11, 0, 5, 1.0)
    coarse = coarsen_increments(inc, 1)
    manual = inc.reshape(-1, 2).sum(axis=-1)
    np.testing.assert_array_equal(coarse, manual)
    np.testing.assert_array_equal(coarsen_increments(inc, 0), inc)


def test_coarsen_composes_along_the_ladder():
    """Halving rung by rung gives the same bits as halving straight from the
    finest level, and as the reshape-and-sum pairwise reduction."""
    inc = _lattice(4, 0, 3, 9, 1.0)
    for a, b in [(1, 1), (2, 3), (4, 1), (0, 5)]:
        direct = coarsen_increments(inc, a + b)
        np.testing.assert_array_equal(coarsen_increments(coarsen_increments(inc, a), b), direct)
        summed = inc
        for _ in range(a + b):
            summed = summed.reshape(-1, 2, *summed.shape[1:]).sum(axis=1)
        np.testing.assert_array_equal(direct, summed)


def test_sampling_allocates_only_its_output():
    out, peak = traced_peak(lambda: _lattice(8, 0, 256, 12, 1.0))
    assert peak < 1.25 * out.nbytes


def _increments_of_raw_draws(draws, horizon=1.0):
    """The increments a one-path stream makes of the given raw 64-bit draws,
    fed through the generator's buffer."""
    streams = PathStreams(0, 0, 1, 2, horizon)
    gen = streams.generators[0]
    state = gen.state
    state["buffer"] = tuple(draws)
    state["buffer_pos"] = 0
    gen.state = state
    return sample_increment_batch(streams, len(draws))[:, 0]


def test_the_largest_draws_give_a_finite_increment():
    """floor(r / 2^11) + 1/2 rounds to 2^53 in float64 for the top 2^11 raw
    draws, which made u = 1 and an infinite increment.  Those draws take the
    largest u below 1; every other draw keeps the bits of the plain map."""
    draws = [(1 << 64) - 1, (1 << 64) - (1 << 11), (1 << 64) - (1 << 12), 0]
    inc = _increments_of_raw_draws(draws)
    scale = np.sqrt(1.0 / 4)
    assert np.isfinite(inc).all()
    assert inc[0] == inc[1] == ndtri(np.nextafter(1.0, 0.0)) * scale
    # 2^53 - 2 + 1/2 rounds to the even 2^53 - 2, so u = 1 - 2^-52
    for draw, value in zip(draws[2:], inc[2:]):
        u = (np.uint64(draw >> 11) + 0.5) * 2.0**-53
        assert u < 1.0
        assert value == ndtri(u) * scale


def test_coarsen_increments_batched():
    arr = np.arange(8.0).reshape(2, 4).T
    out = coarsen_increments(arr, 1)
    np.testing.assert_array_equal(out.T, [[1.0, 5.0], [9.0, 13.0]])


def _brownian_nodes(increments, keep_stride=1):
    """W(t_k) as the reference run of dX = dW from 0, kept every keep_stride
    fine steps: the left-to-right prefix sums of the finest increments."""
    zero = CoefficientFn(lambda t, x: 0.0 * np.asarray(x, dtype=float))
    unit = CoefficientFn(lambda t, x: 1.0 + 0.0 * np.asarray(x, dtype=float))
    model = SdeModel(drift=zero, base_sigma=unit, gamma=0.5, x0=0.0)
    return euler_run(model, increments[:, None], 1.0, keep_stride=keep_stride)[0][0]


def test_shared_nodes_agree_bit_exactly_across_levels():
    """W(t_k) at a coarse node, read off the strided reference run as the
    estimators do, equals the fine-grid value at the same time."""
    inc = _path(21, 3, 10, 1.0)
    fine = _brownian_nodes(inc)
    for level in (4, 7, 9):
        coarse = _brownian_nodes(inc, keep_stride=1 << (10 - level))
        np.testing.assert_array_equal(coarse, fine[:: 1 << (10 - level)])


def test_node_values_start_at_zero_and_end_at_total():
    inc = _path(2, 0, 9, 1.0)
    w = _brownian_nodes(inc)
    assert w[0] == 0.0
    # same left-to-right summation order as np.cumsum: bit-exact
    assert w[-1] == np.cumsum(inc)[-1]


def test_variance_scales_with_level():
    inc = _path(17, 0, 12, 1.0)
    v_fine = inc.var() * (1 << 12)
    v_coarse = coarsen_increments(inc, 6).var() * (1 << 6)
    assert v_fine == pytest.approx(1.0, rel=0.1)
    assert v_coarse == pytest.approx(1.0, rel=0.4)


def test_level_guards():
    with pytest.raises(ValueError):
        coarsen_increments(_path(1, 0, 4, 1.0), -1)
    with pytest.raises(ValueError):
        PathStreams(1, 0, 0, 3, 1.0)


def test_horizon_scaling():
    a = _path(5, 0, 6, 1.0)
    b = _path(5, 0, 6, 4.0)
    np.testing.assert_allclose(b, 2.0 * a)
