import math

import numpy as np
import pytest

from powersde.models import CoefficientFn, PrototypeParams, SdeModel, clamped_power, make_prototype
from powersde.params import AffineParam, SinusoidalParam


def diffusion(model, t, x):
    """c(t, x) = max(sigma(t, x), 0)^gamma, as the Euler kernel takes it."""
    return clamped_power(model.base_sigma(t, x), model.gamma)


class TestPrototypes:
    def test_cir_diffusion_is_theta_sqrt_x(self):
        m = make_prototype(PrototypeParams(kind="cir", kappa=1.0, lam=1.0, theta=2.0, x0=1.0))
        assert diffusion(m, 0.0, 4.0) == pytest.approx(2.0 * 2.0)
        assert diffusion(m, 0.0, 0.0) == 0.0
        assert diffusion(m, 0.0, -3.0) == 0.0

    def test_wf_diffusion_clamps_outside_unit_interval(self):
        m = make_prototype(PrototypeParams(kind="wf", kappa=1.0, lam=0.5, theta=1.0, x0=0.5))
        assert diffusion(m, 0.0, 0.5) == pytest.approx(0.5)
        assert diffusion(m, 0.0, -0.25) == 0.0
        assert diffusion(m, 0.0, 1.25) == 0.0

    def test_ckls_diffusion_power(self):
        m = make_prototype(
            PrototypeParams(kind="ckls", kappa=1.0, lam=1.0, theta=1.5, x0=1.0, gamma=0.75)
        )
        # sigma = theta^{1/gamma} x, so sigma^gamma = theta x^gamma
        assert diffusion(m, 0.0, 2.0) == pytest.approx(1.5 * 2.0**0.75)

    def test_drift_is_mean_reverting(self):
        m = make_prototype(PrototypeParams(kind="cir", kappa=2.0, lam=0.5, theta=1.0, x0=1.0))
        assert m.drift(0.0, 0.0) == pytest.approx(1.0)
        assert m.drift(0.0, 0.5) == pytest.approx(0.0)
        assert m.drift(0.0, 2.0) == pytest.approx(-3.0)

    def test_time_dependent_parameters_flow_through(self):
        kappa = AffineParam(1.0, 1.0)
        m = make_prototype(PrototypeParams(kind="cir", kappa=kappa, lam=1.0, theta=1.0, x0=1.0))
        assert m.drift(0.5, 0.0) == pytest.approx(1.5)

    def test_gamma_is_fixed_for_cir_and_wf(self):
        with pytest.raises(ValueError):
            PrototypeParams(kind="cir", kappa=1.0, lam=1.0, theta=1.0, x0=1.0, gamma=0.75)
        with pytest.raises(ValueError):
            PrototypeParams(kind="ckls", kappa=1.0, lam=1.0, theta=1.0, x0=1.0, gamma=0.5)
        with pytest.raises(ValueError):
            PrototypeParams(kind="ckls", kappa=1.0, lam=1.0, theta=1.0, x0=1.0)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            PrototypeParams(kind="cir", kappa=1.0, lam=1.0, theta=1.0, x0=1.0, horizon=horizon)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PrototypeParams(kind="ou", kappa=1.0, lam=1.0, theta=1.0, x0=1.0)

    def test_x0_must_sit_inside_domain(self):
        with pytest.raises(ValueError):
            make_prototype(PrototypeParams(kind="wf", kappa=1.0, lam=0.5, theta=1.0, x0=1.5))
        with pytest.raises(ValueError):
            make_prototype(PrototypeParams(kind="cir", kappa=1.0, lam=1.0, theta=1.0, x0=-1.0))

    def test_theta_must_stay_positive(self):
        theta = SinusoidalParam(0.5, 1.0, 2.0 * math.pi)  # dips below zero
        with pytest.raises(ValueError):
            make_prototype(PrototypeParams(kind="cir", kappa=1.0, lam=1.0, theta=theta, x0=1.0))


class TestEvalDiffusion:
    """The effective diffusion c = max(sigma, 0)^gamma of a model."""

    def test_gamma_bounds_enforced(self):
        fn = CoefficientFn(lambda t, x: x)
        with pytest.raises(ValueError):
            SdeModel(drift=fn, base_sigma=fn, gamma=1.0, x0=1.0)
        with pytest.raises(ValueError):
            SdeModel(drift=fn, base_sigma=fn, gamma=0.3, x0=1.0)

    def test_vector_evaluation(self, cir_model):
        x = np.array([0.0, 1.0, 4.0, -2.0])
        np.testing.assert_allclose(diffusion(cir_model, 0.0, x), [0.0, 1.0, 2.0, 0.0])
