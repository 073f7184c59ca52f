import math

import numpy as np
import pytest

from powersde.errors import InvalidCoefficientError
from powersde.models import (
    CoefficientFn,
    CoefficientMeta,
    PrototypeParams,
    SdeModel,
    eval_diffusion,
    make_prototype,
)
from powersde.params import AffineParam, SinusoidalParam


class TestPrototypes:
    def test_cir_diffusion_is_theta_sqrt_x(self):
        m = make_prototype(PrototypeParams(kind="cir", kappa=1.0, lam=1.0, theta=2.0, x0=1.0))
        assert eval_diffusion(m, 0.0, 4.0) == pytest.approx(2.0 * 2.0)
        assert eval_diffusion(m, 0.0, 0.0) == 0.0
        assert eval_diffusion(m, 0.0, -3.0) == 0.0

    def test_wf_diffusion_clamps_outside_unit_interval(self):
        m = make_prototype(PrototypeParams(kind="wf", kappa=1.0, lam=0.5, theta=1.0, x0=0.5))
        assert eval_diffusion(m, 0.0, 0.5) == pytest.approx(0.5)
        assert eval_diffusion(m, 0.0, -0.25) == 0.0
        assert eval_diffusion(m, 0.0, 1.25) == 0.0

    def test_ckls_diffusion_power(self):
        m = make_prototype(
            PrototypeParams(kind="ckls", kappa=1.0, lam=1.0, theta=1.5, x0=1.0, gamma=0.75)
        )
        # sigma = theta^{1/gamma} x, so sigma^gamma = theta x^gamma
        assert eval_diffusion(m, 0.0, 2.0) == pytest.approx(1.5 * 2.0**0.75)

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

    def test_declared_constants_scale_with_parameters(self):
        m1 = make_prototype(PrototypeParams(kind="cir", kappa=1.0, lam=1.0, theta=1.0, x0=1.0))
        m3 = make_prototype(PrototypeParams(kind="cir", kappa=3.0, lam=1.0, theta=1.0, x0=1.0))
        assert m3.drift.meta.lipschitz_K == pytest.approx(3.0 * m1.drift.meta.lipschitz_K)
        assert m1.base_sigma.meta.nonnegative


class TestEvalDiffusion:
    def test_gamma_bounds_enforced(self):
        fn = CoefficientFn(lambda t, x: x, CoefficientMeta())
        with pytest.raises(ValueError):
            SdeModel(drift=fn, base_sigma=fn, gamma=1.0, x0=1.0)
        with pytest.raises(ValueError):
            SdeModel(drift=fn, base_sigma=fn, gamma=0.3, x0=1.0)

    def test_nonfinite_sigma_is_reported_with_location(self):
        bad = CoefficientFn(lambda t, x: 1.0 / np.asarray(x, dtype=float), CoefficientMeta())
        drift = CoefficientFn(lambda t, x: 0.0 * np.asarray(x), CoefficientMeta())
        m = SdeModel(drift=drift, base_sigma=bad, gamma=0.5, x0=1.0)
        with np.errstate(divide="ignore"):
            with pytest.raises(InvalidCoefficientError):
                eval_diffusion(m, 0.0, np.array([1.0, 0.0, 2.0]))

    def test_vector_evaluation(self, cir_model):
        x = np.array([0.0, 1.0, 4.0, -2.0])
        np.testing.assert_allclose(eval_diffusion(cir_model, 0.0, x), [0.0, 1.0, 2.0, 0.0])
