"""Every prototype kind's declaration in models.KINDS, checked against
the code that reads it.  Each test runs once per kind, so a new kind is
covered as soon as it is declared."""

import numpy as np
import pytest

from powersde.config import resolve_config
from powersde.criteria import _check_derivatives, autonomous_from_prototype, predict_rate
from powersde.models import KINDS, PrototypeParams

# the gamma a kind that takes one is given here
GIVEN_GAMMA = 0.75


def params(kind, theta=1.0):
    """kappa = 2 and lam = 1/2, so every end's drift ratio is 1 at theta = 1."""
    spec = KINDS[kind]
    gamma = GIVEN_GAMMA if spec.gamma is None else None
    return PrototypeParams(kind=kind, kappa=2.0, lam=0.5, theta=theta, x0=spec.x0, gamma=gamma)


def interior_points(kind, n=9):
    lo, hi = KINDS[kind].domain
    return np.linspace(lo, min(hi, 4.0), n)[1:-1]


@pytest.mark.parametrize("kind", list(KINDS))
def test_shape_is_the_clamped_unit_scale_interior_sigma(kind):
    spec = KINDS[kind]
    xs = interior_points(kind, 33)
    sigma = spec.interior(1.0)[0]
    assert list(spec.shape(xs)) == list(np.maximum(sigma(xs), 0.0))


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("theta", [0.5, 1.0, 1.7])
def test_declared_derivatives_agree_with_finite_differences(kind, theta):
    model = autonomous_from_prototype(params(kind, theta=theta))
    _check_derivatives(model, interior_points(kind))


@pytest.mark.parametrize("kind", list(KINDS))
def test_config_defaults_are_the_declared_ones(kind):
    spec = KINDS[kind]
    given = {"kind": kind} if spec.gamma is not None else {"kind": kind, "gamma": str(GIVEN_GAMMA)}
    cfg = resolve_config({"model": given})
    expected_gamma = GIVEN_GAMMA if spec.gamma is None else spec.gamma
    assert (cfg.prototype.x0, cfg.prototype.gamma) == (spec.x0, expected_gamma)
    assert (cfg.model.x0, cfg.model.gamma, cfg.model.domain) == (spec.x0, expected_gamma, spec.domain)


@pytest.mark.parametrize("kind", list(KINDS))
def test_the_gamma_rule_refuses_what_it_does_not_allow(kind):
    fixed = KINDS[kind].gamma
    gamma, message = (None, "requires gamma in") if fixed is None else (GIVEN_GAMMA, "has gamma fixed at")
    with pytest.raises(ValueError, match=message):
        PrototypeParams(kind=kind, kappa=1.0, lam=1.0, theta=1.0, x0=1.0, gamma=gamma)


@pytest.mark.parametrize("kind", list(KINDS))
def test_predict_rate_names_one_mu_per_declared_end(kind):
    spec = KINDS[kind]
    pred = predict_rate(params(kind))
    mus = [pred.mu0, pred.mu1]
    assert [mu is not None for mu in mus] == [k < len(spec.inward) for k in range(2)]
    assert mus[: len(spec.inward)] == [1.0] * len(spec.inward)
    fixed = spec.rate is not None
    assert pred.lambda_sup == (spec.rate if fixed else 0.5)
    assert pred.provenance == (f"{kind}-rate" if fixed else f"{kind}-boundary-rate")
