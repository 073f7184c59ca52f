import numpy as np
import pytest

from inequalities import concave_power_gap, power_gap_bound


def test_known_value_beta_one():
    # gamma=1/2, x=4, y=1, beta=1: bound is 2 x^{gamma-1} |x-y| = 3
    lhs, rhs = power_gap_bound(4.0, 1.0, 0.5, beta=1.0)
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(3.0)
    assert lhs <= rhs


def test_zero_y_case():
    lhs, rhs = power_gap_bound(2.0, 0.0, 0.5)
    assert lhs == pytest.approx(np.sqrt(2.0))
    assert lhs <= rhs


def test_concave_gap_equality_at_zero():
    lhs, rhs = concave_power_gap(3.0, 0.0, 0.75)
    assert lhs == pytest.approx(rhs)


def test_concave_gap_holds_on_samples():
    rng = np.random.default_rng(0)
    x = 10.0 ** rng.uniform(-6, 6, 2000)
    y = 10.0 ** rng.uniform(-6, 6, 2000)
    for gamma in (0.5, 0.6, 0.9):
        lhs, rhs = concave_power_gap(x, y, gamma)
        assert np.all(lhs <= rhs * (1.0 + 1e-12) + 1e-300)


@pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
def test_bound_holds_on_samples(beta):
    rng = np.random.default_rng(1)
    x = 10.0 ** rng.uniform(-6, 6, 2000)
    y = 10.0 ** rng.uniform(-6, 6, 2000)
    for gamma in (0.5, 0.75):
        lhs, rhs = power_gap_bound(x, y, gamma, beta=beta)
        slack = 4.0 * np.spacing(rhs)
        assert np.all(lhs <= rhs + slack)


def test_scalar_in_float_out():
    lhs, rhs = power_gap_bound(1.0, 2.0, 0.5)
    assert isinstance(lhs, float) and isinstance(rhs, float)


def test_broadcasting_shapes():
    x = np.array([1.0, 2.0, 3.0])
    lhs, rhs = power_gap_bound(x, 1.0, 0.5)
    assert lhs.shape == (3,) and rhs.shape == (3,)


@pytest.mark.parametrize(
    "x,y,gamma,beta",
    [
        (0.0, 1.0, 0.5, 1.0),  # x must be positive
        (-1.0, 1.0, 0.5, 1.0),
        (1.0, -0.5, 0.5, 1.0),  # y must be nonnegative
        (1.0, 1.0, 0.4, 1.0),  # gamma below 1/2
        (1.0, 1.0, 1.0, 1.0),  # gamma at 1
        (1.0, 1.0, 0.5, 0.0),  # beta outside (0, 1]
        (1.0, 1.0, 0.5, 1.5),
    ],
)
def test_domain_rejection(x, y, gamma, beta):
    with pytest.raises(ValueError):
        power_gap_bound(x, y, gamma, beta=beta)


def test_concave_domain_rejection():
    with pytest.raises(ValueError):
        concave_power_gap(-1.0, 0.0, 0.5)
