import hashlib
import math

import numpy as np
import pytest

from powersde.criteria import (
    AutonomousModel,
    autonomous_from_prototype,
    build_timechange,
    feller_test,
    ito_criterion,
    predict_rate,
    theorem_rate,
    time_changed_model,
)
from powersde.errors import HypothesisError
from powersde.models import PrototypeParams
from powersde.params import AffineParam, ConstantParam, SinusoidalParam
from powersde.schemes import EulerGrid


def cir(kappa=1.0, lam=1.0, theta=1.0, x0=1.0):
    return PrototypeParams(kind="cir", kappa=kappa, lam=lam, theta=theta, x0=x0)


class TestPredictRate:
    def test_cir_closed_form(self):
        pred = predict_rate(cir(kappa=1.0, lam=0.25))
        assert pred.mu0 == pytest.approx(0.25)
        assert pred.mu1 is None
        assert pred.s_exponent == pytest.approx(0.25)
        assert pred.lambda_sup == pytest.approx(0.25)
        assert pred.provenance == "cir-boundary-rate"

    def test_cir_caps_at_one_half(self):
        pred = predict_rate(cir(kappa=3.0, lam=1.0))
        assert pred.mu0 == pytest.approx(3.0)
        assert pred.lambda_sup == 0.5
        assert pred.s_exponent == 0.0

    def test_wf_uses_both_ends(self):
        p = PrototypeParams(kind="wf", kappa=1.0, lam=0.5, theta=1.0, x0=0.5)
        pred = predict_rate(p)
        assert pred.mu0 == pytest.approx(0.5)
        assert pred.mu1 == pytest.approx(0.5)
        assert pred.lambda_sup == pytest.approx(0.5)
        assert pred.provenance == "wf-boundary-rate"

    def test_wf_asymmetric(self):
        p = PrototypeParams(kind="wf", kappa=1.0, lam=0.75, theta=1.0, x0=0.5)
        pred = predict_rate(p)
        assert pred.mu0 == pytest.approx(0.75)
        assert pred.mu1 == pytest.approx(0.25)
        assert pred.lambda_sup == pytest.approx(0.25)

    def test_ckls_always_one_half(self):
        p = PrototypeParams(kind="ckls", kappa=1.0, lam=1.0, theta=1.0, x0=1.0, gamma=0.75)
        pred = predict_rate(p)
        assert pred.lambda_sup == 0.5
        assert pred.provenance == "ckls-rate"

    def test_scale_consistency(self):
        """(kappa, lam, theta) -> (c kappa, lam, sqrt(c) theta) fixes mu0."""
        base = predict_rate(cir(kappa=1.0, lam=0.25, theta=1.0))
        scaled = predict_rate(cir(kappa=4.0, lam=0.25, theta=2.0))
        assert scaled.mu0 == base.mu0
        assert scaled.lambda_sup == base.lambda_sup

    def test_time_varying_kappa_takes_the_minimum(self):
        pred = predict_rate(cir(kappa=AffineParam(1.0, 1.0), lam=0.5))
        assert pred.mu0 == pytest.approx(0.5, abs=1e-6)

    def test_sinusoidal_theta_minimizes_ratio(self):
        theta = SinusoidalParam(1.0, 0.5, 2.0 * math.pi)
        pred = predict_rate(cir(lam=1.0, theta=theta))
        assert pred.mu0 == pytest.approx(1.0 / 1.5**2, abs=1e-6)

    def test_mu0_hypothesis_failure(self):
        with pytest.raises(HypothesisError, match="mu0 <= 0"):
            predict_rate(cir(lam=0.0))

    def test_mu1_hypothesis_failure(self):
        p = PrototypeParams(kind="wf", kappa=1.0, lam=1.0, theta=1.0, x0=0.5)
        with pytest.raises(HypothesisError, match="mu1 <= 0"):
            predict_rate(p)


class TestTheoremRate:
    def test_generic_value(self):
        assert theorem_rate(0.5, 0.25) == pytest.approx(0.25)

    def test_decreasing_in_s(self):
        rates = [theorem_rate(0.75, s) for s in (0.0, 0.1, 0.2, 0.25)]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("gamma", [0.6, 0.75, 0.9])
    def test_limiting_identity_at_s_max(self, gamma):
        assert theorem_rate(gamma, 1.0 - gamma) == pytest.approx(gamma - 0.5)

    def test_vacuous_prediction_warns(self):
        with pytest.warns(UserWarning):
            assert theorem_rate(0.5, 0.5) == 0.0

    def test_out_of_range_s(self):
        with pytest.raises(ValueError):
            theorem_rate(0.75, 0.3)


class TestAutonomous:
    def test_freezes_constants(self):
        m = autonomous_from_prototype(cir(kappa=2.0, lam=0.5, theta=1.5))
        assert m.a(0.5) == pytest.approx(0.0)
        assert m.sigma(2.0) == pytest.approx(1.5**2 * 2.0)
        assert m.gamma == 0.5
        assert m.domain == (0.0, math.inf)

    def test_rejects_time_varying_parameters(self):
        with pytest.raises(ValueError, match="constant"):
            autonomous_from_prototype(cir(kappa=AffineParam(1.0, 0.5)))

    def test_derivative_mismatch_is_caught(self):
        m = AutonomousModel(
            a=lambda x: 0.0 * np.asarray(x),
            sigma=lambda x: np.asarray(x) ** 2,
            sigma_prime=lambda x: 3.0 * np.asarray(x),  # wrong on purpose
            sigma_prime2=lambda x: 2.0 + 0.0 * np.asarray(x),
            gamma=0.5,
            domain=(0.0, math.inf),
            x0=1.0,
        )
        with pytest.raises(ValueError, match="disagrees with finite difference"):
            ito_criterion(m)


class TestItoCriterion:
    def test_cir_high_drift_is_bounded(self):
        report = ito_criterion(autonomous_from_prototype(cir(kappa=1.0, lam=1.0)))
        assert report.classification == "bounded-below"
        assert report.inf_estimate == pytest.approx(-1.0)
        assert report.s_exponent == 0.0
        assert report.lambda_sup == 0.5

    def test_cir_low_drift_diverges(self):
        report = ito_criterion(autonomous_from_prototype(cir(kappa=1.0, lam=0.25)))
        assert report.classification == "diverging-to-neg-infinity"
        assert report.left_trend == "diverging"
        assert report.s_exponent is None

    def test_wf_cancellation_is_exactly_constant(self):
        p = PrototypeParams(kind="wf", kappa=2.0, lam=0.5, theta=1.0, x0=0.5)
        report = ito_criterion(autonomous_from_prototype(p))
        assert report.classification == "bounded-below"
        assert report.inf_estimate == pytest.approx(-1.0)

    def test_elliptic_model_agrees_with_rate_prediction(self):
        """A diffusion bounded away from zero needs no compensation."""
        m = AutonomousModel(
            a=lambda x: 0.0 * np.asarray(x),
            sigma=lambda x: 1.0 + np.asarray(x) ** 2,
            sigma_prime=lambda x: 2.0 * np.asarray(x),
            sigma_prime2=lambda x: 2.0 + 0.0 * np.asarray(x),
            gamma=0.5,
            domain=(-math.inf, math.inf),
            x0=0.0,
        )
        report = ito_criterion(m)
        assert report.classification == "bounded-below"
        assert report.s_exponent == 0.0
        assert report.lambda_sup == 0.5


def brownian_motion():
    return AutonomousModel(
        a=lambda x: 0.0 * np.asarray(x),
        sigma=lambda x: 1.0 + 0.0 * np.asarray(x),
        sigma_prime=lambda x: 0.0 * np.asarray(x),
        sigma_prime2=lambda x: 0.0 * np.asarray(x),
        gamma=0.5,
        domain=(-math.inf, math.inf),
        x0=0.0,
    )


class TestFeller:
    @pytest.mark.parametrize("nu,expected", [(0.9, "exit-possible"), (1.1, "no-exit")])
    def test_cir_near_the_knife_edge(self, nu, expected):
        model = autonomous_from_prototype(cir(lam=nu / 2.0))
        assert feller_test(model).conclusion == expected

    def test_cir_knife_edge_is_not_misclassified(self):
        # nu = 1: 0 is unreachable but v diverges only logarithmically;
        # inconclusive is acceptable, exit-possible would be wrong
        model = autonomous_from_prototype(cir(lam=0.5))
        assert feller_test(model).conclusion in ("no-exit", "inconclusive")

    def test_brownian_motion_never_exits(self):
        result = feller_test(brownian_motion())
        assert result.conclusion == "no-exit"
        assert result.left.classification == "divergent"
        assert result.right.classification == "divergent"

    def test_finite_side_reports_a_value(self):
        model = autonomous_from_prototype(cir(lam=0.125))
        result = feller_test(model)
        assert result.conclusion == "exit-possible"
        assert result.left.classification == "finite"
        assert result.left.v_estimate is not None and result.left.v_estimate > 0.0
        assert result.right.classification == "divergent"

    def test_degenerate_interior_diffusion_fails_hypotheses(self):
        m = AutonomousModel(
            a=lambda x: 0.0 * np.asarray(x),
            sigma=lambda x: np.asarray(x, dtype=float) - 0.5,
            sigma_prime=lambda x: 1.0 + 0.0 * np.asarray(x),
            sigma_prime2=lambda x: 0.0 * np.asarray(x),
            gamma=0.5,
            domain=(0.0, 1.0),
            x0=0.5,
        )
        with pytest.raises(HypothesisError):
            with np.errstate(divide="ignore"):
                feller_test(m)

    def test_origin_must_be_interior(self):
        with pytest.raises(ValueError):
            feller_test(brownian_motion(), origin=math.inf)


class TestTimeChange:
    def test_sinusoidal_total_clock(self):
        theta = SinusoidalParam(1.0, 0.5, 2.0 * math.pi)
        tc = build_timechange(theta, 1.0)
        assert tc.horizon == 1.0
        assert tc.horizon_image == pytest.approx(1.125, abs=1e-9)

    def test_constant_theta_is_linear(self):
        tc = build_timechange(ConstantParam(2.0), 1.0)
        assert tc.Theta(0.5) == pytest.approx(2.0, abs=1e-10)
        assert tc.A(2.0) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize(
        "theta",
        [
            ConstantParam(1.5),
            AffineParam(1.0, 0.5),
            SinusoidalParam(1.0, 0.5, 2.0 * math.pi),
        ],
    )
    def test_inverse_round_trip_for_every_family(self, theta):
        tc = build_timechange(theta, 1.0)
        rng = np.random.default_rng(12)
        for t in rng.uniform(0.0, 1.0, 1000):
            assert tc.A(tc.Theta(t)) == pytest.approx(t, abs=1e-8)

    def test_theta_must_be_positive(self):
        with pytest.raises(ValueError):
            build_timechange(SinusoidalParam(0.5, 1.0, 2.0 * math.pi), 1.0)

    def test_changed_model_divides_drift_by_theta_squared(self):
        theta = SinusoidalParam(1.0, 0.5, 2.0 * math.pi)
        params = cir(kappa=1.0, lam=1.0, theta=theta)
        tc = build_timechange(theta, 1.0)
        changed = time_changed_model(params, tc)
        t = 0.3
        s = tc.Theta(t)
        th = theta(t)
        assert changed.drift(s, 0.0) == pytest.approx(1.0 / th**2, rel=1e-8)
        # unit diffusion scale: sigma~ = x+, so c = sqrt(x+)
        assert changed.base_sigma(s, 4.0) == pytest.approx(4.0)
        assert changed.name.endswith("timechanged")

    def test_clock_tables_are_pinned(self):
        """The clock table, its inverse and the changed model's drift table
        of the timechange workload, bit for bit (sha256 of the raw float64
        bytes, float.hex of A)."""
        theta = SinusoidalParam(1.0, 0.5, 2.0 * math.pi)
        tc = build_timechange(theta, 1.0)
        ys = hashlib.sha256(tc.table.ys.tobytes()).hexdigest()
        assert ys == "3a987830f3b31209edacac73a1829729f36cdcc46d4639f92167fdf94b4ff446"
        grid = EulerGrid(time_changed_model(cir(theta=theta), tc), tc.horizon_image, 1 << 10)
        drift = hashlib.sha256(np.ascontiguousarray(grid.drift).tobytes()).hexdigest()
        assert drift == "0429b0f78ce339678af2bc79a599b778e91365f26c24bd12db5fcf1be930d6e0"
        pinned = {
            0.0: "0x0.0p+0",
            0.1: "0x1.443f84fc1f205p-4",
            0.5: "0x1.1b34d5596e537p-2",
            0.8125: "0x1.c52cb2a585bc6p-2",
            tc.horizon_image: "0x1.0000000000000p+0",
        }
        assert {tau: tc.A(tau).hex() for tau in pinned} == pinned
        assert tc.horizon_image.hex() == "0x1.1fffffffffffcp+0"

    def test_changed_model_horizon_is_the_image(self):
        theta = AffineParam(1.0, 1.0)
        params = cir(theta=theta)
        tc = build_timechange(theta, 1.0)
        # Theta(1) = int_0^1 (1+t)^2 dt = 7/3
        assert tc.horizon_image == pytest.approx(7.0 / 3.0, abs=1e-9)
        changed = time_changed_model(params, tc)
        assert changed.drift(tc.horizon_image, 0.0) == pytest.approx(1.0 / 4.0, rel=1e-6)
