import math

import numpy as np
import pytest

from powersde.params import AffineParam, ConstantParam, SinusoidalParam, as_param


@pytest.mark.parametrize(
    "param,t,expected",
    [
        (ConstantParam(2.5), 0.3, 2.5),
        (AffineParam(1.0, 0.5), 0.0, 1.0),
        (AffineParam(1.0, 0.5), 2.0, 2.0),
        (SinusoidalParam(1.0, 0.5, math.pi), 0.5, 1.5),
        (SinusoidalParam(2.0, -1.0, 2.0 * math.pi), 0.25, 1.0),
    ],
)
def test_evaluation(param, t, expected):
    assert param(t) == pytest.approx(expected)


def test_array_evaluation_broadcasts():
    p = AffineParam(1.0, 2.0)
    t = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(p(t), [1.0, 2.0, 3.0])
    s = SinusoidalParam(0.0, 1.0, math.pi)
    np.testing.assert_allclose(s(t), np.sin(math.pi * t))


@pytest.mark.parametrize(
    "param", [ConstantParam(2.5), AffineParam(1.0, 0.3), SinusoidalParam(1.0, 0.5, 2.0 * math.pi)]
)
def test_scalar_times_give_floats_equal_to_the_array_branch(param):
    grid = np.arange(7) / 7.0
    on_grid = param(grid)
    for k, t in enumerate(grid):
        values = [param(scalar) for scalar in (float(t), np.float64(t), np.array(t))]
        assert all(type(v) is float for v in values)
        # a Python float skips np.ndim but takes the same 0-d arithmetic
        assert values[0] == values[1] == values[2]
        assert values[0] == pytest.approx(on_grid[k], rel=1e-15)
    assert type(param(1)) is float and param(1) == param(1.0)
    assert param(grid[None, :]).shape == (1, 7)


def test_constant_bounds():
    p = ConstantParam(3.0)
    assert p.bounds(2.0) == (3.0, 3.0)


@pytest.mark.parametrize("q", [0.5, -0.5])
def test_affine_bounds(q):
    p = AffineParam(1.0, q)
    lo, hi = p.bounds(2.0)
    assert lo == min(1.0, 1.0 + 2.0 * q)
    assert hi == max(1.0, 1.0 + 2.0 * q)


def test_sin_bounds_full_period():
    p = SinusoidalParam(1.0, 0.5, 2.0 * math.pi)
    lo, hi = p.bounds(1.0)
    assert lo == pytest.approx(0.5)
    assert hi == pytest.approx(1.5)


def test_sin_bounds_partial_period():
    # omega T = pi/2: sin rises from 0 to 1 without reaching the minimum -1
    p = SinusoidalParam(0.0, 2.0, math.pi / 2.0)
    lo, hi = p.bounds(1.0)
    assert lo == pytest.approx(0.0)
    assert hi == pytest.approx(2.0)


@pytest.mark.parametrize(
    "param",
    [
        AffineParam(1.0, -0.5),
        SinusoidalParam(1.0, 0.5, 5.0),
        SinusoidalParam(1.0, 0.5, 0.3),
    ],
)
def test_bounds_contain_sampled_values(param):
    T = 2.0
    vals = param(np.linspace(0.0, T, 4001))
    lo, hi = param.bounds(T)
    assert lo <= np.min(vals) + 1e-12
    assert hi >= np.max(vals) - 1e-12


def test_as_param_coerces_numbers():
    p = as_param(2)
    assert isinstance(p, ConstantParam)
    assert p(0.7) == 2.0


def test_as_param_passes_params_through():
    p = AffineParam(1.0, 1.0)
    assert as_param(p) is p


def test_as_param_rejects_strings():
    with pytest.raises(TypeError):
        as_param("1.0")
