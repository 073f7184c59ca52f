import math

import numpy as np
import pytest

from powersde.brownian import PathStreams, sample_increment_batch
from powersde.errors import InvalidCoefficientError
from powersde.models import CoefficientFn, SdeModel
from powersde.schemes import MAX_LEVEL, EulerGrid, EulerSweep, _steps, euler_batch
from sweeps import euler_run


def _lattice(seed, first_path, n_paths, level, horizon):
    return sample_increment_batch(PathStreams(seed, first_path, n_paths, level, horizon))


def _const(v):
    return CoefficientFn(lambda t, x: v + 0.0 * np.asarray(x, dtype=float))


def _linear_drift(c):
    return CoefficientFn(lambda t, x: c * np.asarray(x, dtype=float))


def additive_model(x0=0.0):
    return SdeModel(drift=_const(0.0), base_sigma=_const(1.0), gamma=0.5, x0=x0)


def ode_model(x0=1.0):
    return SdeModel(drift=_linear_drift(-1.0), base_sigma=_const(0.0), gamma=0.5, x0=x0)


def test_two_step_hand_computation(cir_model):
    dw = _lattice(4, 0, 1, 1, 1.0)[:, 0]
    values = euler_run(cir_model, dw[:, None], 1.0)[0][0]
    dt = 0.5
    x0 = 1.0
    x1 = x0 + 1.0 * (1.0 - x0) * dt + np.sqrt(max(x0, 0.0)) * dw[0]
    x2 = x1 + 1.0 * (1.0 - x1) * dt + np.sqrt(max(x1, 0.0)) * dw[1]
    assert values[0] == x0
    assert values[1] == pytest.approx(x1, rel=1e-12)
    assert values[2] == pytest.approx(x2, rel=1e-12)


def test_additive_noise_reproduces_brownian_path():
    """With a=0 and c=1 the scheme is x0 + W(t_k) up to summation rounding."""
    m = additive_model(x0=0.5)
    inc = _lattice(8, 0, 1, 10, 1.0)
    values = euler_run(m, inc, 1.0)[0][0]
    w = np.concatenate([[0.0], np.cumsum(inc[:, 0])])
    assert np.max(np.abs(values - (0.5 + w))) <= 1e-12


def test_deterministic_ode_recursion():
    m = ode_model(x0=1.0)
    inc = _lattice(0, 0, 1, 6, 1.0)
    values = euler_run(m, inc, 1.0)[0][0]
    dt = 1.0 / 64
    expected = (1.0 - dt) ** np.arange(65)
    np.testing.assert_allclose(values, expected, rtol=1e-12)


def test_keep_stride_matches_full_run():
    m = additive_model()
    inc = _lattice(13, 2, 1, 8, 1.0)
    full, _ = euler_run(m, inc, 1.0, keep_stride=1)
    strided, _ = euler_run(m, inc, 1.0, keep_stride=4)
    np.testing.assert_array_equal(strided[0], full[0, ::4])


@pytest.mark.parametrize(
    "level, horizon, named",
    [
        (-1, 1.0, "level"),
        (MAX_LEVEL + 1, 1.0, "level"),
        (4, math.nan, "horizon"),
        (4, math.inf, "horizon"),
        (4, 0.0, "horizon"),
        (4, -1.0, "horizon"),
    ],
)
def test_grid_memory_guard(monkeypatch, cir_model, level, horizon, named):
    def tabulate_nothing(self, times):
        raise AssertionError("a table was built for a bad grid")

    monkeypatch.setattr(CoefficientFn, "tabulate", tabulate_nothing)
    with pytest.raises(ValueError, match=f"^{named} "):
        EulerGrid(cir_model, horizon, level)


def test_keep_stride_must_divide_steps():
    m = additive_model()
    with pytest.raises(ValueError):
        euler_run(m, np.zeros((8, 1)), 1.0, keep_stride=3)


def test_batch_rows_are_independent_of_neighbors(cir_model):
    both = _lattice(31, 0, 2, 6, 1.0)
    kept, _ = euler_run(cir_model, both, 1.0)
    solo_a, _ = euler_run(cir_model, both[:, :1], 1.0)
    np.testing.assert_array_equal(kept[0], solo_a[0])


def test_explosion_freezes_one_path_and_spares_others():
    cube = CoefficientFn(lambda t, x: np.asarray(x, dtype=float) ** 3)
    m = SdeModel(drift=cube, base_sigma=_const(1.0), gamma=0.5, x0=1.0)
    inc = np.zeros((16, 2))
    # path 0 starts the recursion from an enormous value via a fake increment
    inc[0, 0] = 1e200
    kept, first_bad = euler_run(m, inc, 1.0)
    assert first_bad[0] > 0
    assert first_bad[1] == -1
    assert np.isnan(kept[0, -1])
    assert np.isfinite(kept[1]).all()


def test_explosion_index_surfaces_on_trajectory():
    cube = CoefficientFn(lambda t, x: np.asarray(x, dtype=float) ** 5)
    m = SdeModel(drift=cube, base_sigma=_const(0.0), gamma=0.5, x0=1e80)
    kept, first_bad = euler_run(m, _lattice(1, 0, 1, 4, 1.0), 1.0)
    assert first_bad[0] >= 0
    assert np.isnan(kept[0, -1])


def test_cir_paths_stay_finite(cir_model):
    kept, first_bad = euler_run(cir_model, _lattice(77, 0, 1, 10, 1.0), 1.0)
    assert np.isfinite(kept).all()
    assert first_bad[0] == -1


def test_nonfinite_sigma_is_a_bad_coefficient_not_an_explosion():
    """A NaN sigma at a finite state raises instead of freezing the path as
    exploded."""

    def sigma(t, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, np.nan, 1.0)

    m = SdeModel(drift=_const(-1.0), base_sigma=CoefficientFn(sigma), gamma=0.5, x0=0.0)
    with pytest.raises(InvalidCoefficientError) as exc_info:
        euler_run(m, np.zeros((8, 2)), 1.0)
    assert exc_info.value.t == pytest.approx(1.0 / 8)
    assert exc_info.value.x == pytest.approx(-1.0 / 8)


def test_negative_infinite_sigma_is_a_bad_coefficient_not_a_zero():
    """sigma = -inf on a live path raises at its first (t, x) instead of
    being clamped to 0 and carried on."""

    def sigma(t, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.5, -np.inf, 1.0)

    m = SdeModel(drift=_const(0.0), base_sigma=CoefficientFn(sigma), gamma=0.5, x0=0.1)
    with pytest.raises(InvalidCoefficientError) as exc_info:
        euler_run(m, _lattice(3, 0, 2, 3, 1.0), 1.0)
    assert exc_info.value.t == 0.0
    assert exc_info.value.x == 0.1


@pytest.mark.parametrize("chunk", [1, 2, 8, 64, 256])
def test_sweep_over_any_chunking_equals_one_full_sweep(cir_model, chunk):
    """Advancing a sweep chunk by chunk keeps the same nodes and first_bad,
    bit for bit, whatever the power-of-two chunk length; an explosion in a
    later chunk reports its global node."""
    inc = _lattice(41, 0, 6, 8, 1.0)
    # a kick at step 37 sends path 4 non-finite at node 39, mid-run
    cube = CoefficientFn(lambda t, x: np.asarray(x, dtype=float) ** 3)
    exploding = SdeModel(drift=cube, base_sigma=_const(1.0), gamma=0.5, x0=0.0)
    spiked = inc * 0.01
    spiked[37, 4] = 1e200
    for model, lattice in ((cir_model, inc), (exploding, spiked)):
        for stride in (1, 4):
            full, full_bad = euler_run(model, lattice, 1.0, keep_stride=stride)
            chunked, chunked_bad = euler_run(model, lattice, 1.0, keep_stride=stride, chunk=chunk)
            np.testing.assert_array_equal(chunked, full)
            np.testing.assert_array_equal(chunked_bad, full_bad)
    assert euler_run(exploding, spiked, 1.0, chunk=chunk)[1][4] == 39


def test_bad_sigma_in_a_later_chunk_reports_its_global_time():
    """A bad sigma met in a later chunk reports the same (t, x) as one full
    sweep does, with t at its global step."""

    def sigma(t, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, np.nan, 1.0)

    # x_k = 0.3 - k/64 first goes negative at k = 20, in the third 8-step chunk
    m = SdeModel(drift=_const(-1.0), base_sigma=CoefficientFn(sigma), gamma=0.5, x0=0.3)
    errors = []
    for chunk in (None, 8):
        with pytest.raises(InvalidCoefficientError) as exc_info:
            euler_run(m, np.zeros((64, 2)), 1.0, chunk=chunk)
        errors.append((exc_info.value.t, exc_info.value.x))
    assert errors[0] == errors[1]
    # the chunked run's (step, path) of the bad node
    assert exc_info.value.order == (20, 0)
    assert errors[0][0] == 20 / 64
    assert errors[0][1] < 0.0


def _checked_batch(sweep, increments):
    """One chunk through the kernel's loop with every step tested, as a
    chunk that starts with a frozen path runs."""
    k0, stride = sweep.step, sweep.keep_stride
    kept = np.empty(((k0 + len(increments)) // stride - k0 // stride, len(sweep.x)))
    sweep.x = _steps(sweep, increments, kept, checked=True)
    sweep.step = k0 + len(increments)
    return kept


def _sweep_outcome(model, lattice, chunk, batch):
    """(kept rows, first_bad, final x, raised (t, x, order) or None) of a
    level-10 sweep advanced chunk steps at a time by batch."""
    sweep = EulerSweep(EulerGrid(model, 1.0, 10), lattice.shape[1])
    kept, raised = [], None
    try:
        for k in range(0, len(lattice), chunk):
            kept.append(batch(sweep, lattice[k : k + chunk]))
    except InvalidCoefficientError as exc:
        raised = (exc.t, exc.x, exc.order)
    return np.concatenate(kept), sweep.first_bad.copy(), sweep.x.copy(), raised


def _assert_same_outcome(a, b):
    for got, expected in zip(a[:3], b[:3]):
        np.testing.assert_array_equal(got, expected)
    assert a[3] == b[3]


@pytest.mark.parametrize("chunk", [16, 512])
def test_a_chunk_that_explodes_midway_replays_as_the_checked_loop(chunk):
    """Path 3 is kicked at step 600, in the middle of a 16-step and of a
    512-step chunk, and goes non-finite two nodes later: the chunk run
    with one finiteness test at its end replays to the rows, first_bad and
    final state of the loop that tests every step."""
    cube = CoefficientFn(lambda t, x: np.asarray(x, dtype=float) ** 3)
    m = SdeModel(drift=cube, base_sigma=_const(1.0), gamma=0.5, x0=0.0)
    lattice = _lattice(41, 0, 5, 10, 1.0) * 0.01
    lattice[600, 3] = 1e200
    fast = _sweep_outcome(m, lattice, chunk, euler_batch)
    _assert_same_outcome(fast, _sweep_outcome(m, lattice, chunk, _checked_batch))
    assert fast[1].tolist() == [-1, -1, -1, 602, -1]
    assert np.isnan(fast[0][601:, 3]).all() and np.isfinite(fast[0][:601, 3]).all()
    assert np.isfinite(np.delete(fast[0], 3, axis=1)).all()


@pytest.mark.parametrize("chunk", [16, 512])
def test_a_sigma_that_turns_non_finite_midway_replays_as_the_checked_loop(chunk):
    """x_k = 600.5/1024 - k/1024 on path 0 first goes negative at step 601,
    where sigma turns NaN: the chunk replays and raises the (t, x, order)
    that testing every step raises."""

    def sigma(t, x):
        return np.where(np.asarray(x, dtype=float) < 0.0, np.nan, 1.0)

    m = SdeModel(drift=_const(-1.0), base_sigma=CoefficientFn(sigma), gamma=0.5, x0=600.5 / 1024)
    lattice = np.zeros((1024, 3))
    lattice[:, 1:] = _lattice(5, 0, 2, 10, 1.0)[:, :2] * 1e-3 + 1e-3
    fast = _sweep_outcome(m, lattice, chunk, euler_batch)
    _assert_same_outcome(fast, _sweep_outcome(m, lattice, chunk, _checked_batch))
    t, x, order = fast[3]
    assert (t, order) == (601 / 1024, (601, 0)) and x < 0.0


def test_a_consumer_writing_into_the_kept_nodes_changes_no_later_chunk(cir_model):
    """The kept rows a chunk returns are the caller's: overwriting them,
    the last row too, leaves the sweep's state and every later chunk as
    they were."""
    lattice = _lattice(17, 0, 4, 10, 1.0)
    for stride in (1, 4):
        clean, _ = euler_run(cir_model, lattice, 1.0, keep_stride=stride, chunk=16)
        sweep = EulerSweep(EulerGrid(cir_model, 1.0, 10), 4, stride)
        rows = []
        for k in range(0, 1024, 16):
            kept = euler_batch(sweep, lattice[k : k + 16])
            rows.append(kept.copy())
            kept[:] = np.nan
        np.testing.assert_array_equal(np.concatenate(rows).T, clean[:, 1:])
