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
from powersde.models import PrototypeParams, SdeModel, make_prototype
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

    @pytest.mark.parametrize("x0", [0.0, -1.0, math.inf])
    def test_x0_must_be_interior(self, x0):
        """x0 is where feller_test and ito_criterion start their approach
        to the ends."""
        with pytest.raises(ValueError, match="outside domain"):
            AutonomousModel(
                a=lambda x: 0.0 * np.asarray(x),
                sigma=lambda x: 1.0 + 0.0 * np.asarray(x),
                sigma_prime=lambda x: 0.0 * np.asarray(x),
                sigma_prime2=lambda x: 0.0 * np.asarray(x),
                gamma=0.5,
                domain=(0.0, math.inf),
                x0=x0,
            )

    @pytest.mark.parametrize(
        "gamma,x0,domain",
        [(1.0, 1.0, (0.0, 1.0)), (0.5, 0.5, (1.0, 1.0)), (0.5, 2.0, (0.0, 1.0)), (0.5, math.nan, (0.0, math.inf))],
        ids=["gamma", "empty-domain", "x0-outside", "x0-nan"],
    )
    def test_refuses_a_model_in_the_words_of_sde_model(self, gamma, x0, domain):
        zero = lambda x: 0.0 * np.asarray(x)
        refusals = []
        for build in (
            lambda: AutonomousModel(zero, zero, zero, zero, gamma=gamma, domain=domain, x0=x0),
            lambda: SdeModel(lambda t, x: x, lambda t, x: x, gamma=gamma, x0=x0, domain=domain),
        ):
            with pytest.raises(ValueError) as exc_info:
                build()
            refusals.append(str(exc_info.value))
        assert refusals[0] == refusals[1]

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

    @pytest.mark.parametrize(
        "kappa,lam", [(2.5, 0.5), (4.0, 0.5), (8.0, 0.5), (4.0, 0.25), (4.0, 0.2), (2.0, 0.05)]
    )
    def test_wf_reports_where_the_approach_rounds_onto_one(self, kappa, lam):
        """The approach to 1 from x0 = 0.5 reaches 1.0 in floating point at
        its 53rd point, before MAX_REFINE; that side stops there.  g is
        bounded below iff kappa lam >= theta^2 and kappa (1 - lam) >= theta^2."""
        p = PrototypeParams(kind="wf", kappa=kappa, lam=lam, theta=1.0, x0=0.5)
        report = ito_criterion(autonomous_from_prototype(p))
        bounded = kappa * lam >= 1.0 and kappa * (1.0 - lam) >= 1.0
        closed_form = "bounded-below" if bounded else "diverging-to-neg-infinity"
        assert report.classification in (closed_form, "inconclusive")

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
    @pytest.mark.parametrize(
        "nu,expected",
        [(nu, "exit-possible" if nu < 1.0 else "no-exit") for nu in (0.25, 0.5, 0.9, 1.1, 1.5, 2, 4, 8, 16, 20)],
    )
    def test_cir_near_the_knife_edge(self, nu, expected):
        """On a nu grid either side of nu = 1: 0 is reachable iff
        nu = 2 kappa lam / theta^2 < 1 (Karlin and Taylor, A Second Course in
        Stochastic Processes, ch. 15), and infinity never is.  From nu = 24
        on, the probes stop inconclusive (ROADMAP item 10)."""
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
        grid = EulerGrid(time_changed_model(cir(theta=theta), tc), tc.horizon_image, 10)
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


class TestPrototypeFamilyPins:
    """Coefficients and criterion reports of every prototype kind, bit for bit."""

    POINTS = [(0.0, -0.5), (0.3, 0.25), (0.55, 0.8), (0.7, 1.5)]

    @pytest.mark.parametrize(
        "kind,gamma,pinned",
        [
            ("cir", None, [
                ["0x1.0000000000000p+0", "0x1.2666666666666p-2", "-0x1.87ae147ae147bp-2", "-0x1.599999999999ap+0"],
                ["0x0.0p+0", "0x1.16adf41add4e5p-1", "0x1.24ce1272a709bp-1", "0x1.a6822a08bfcc0p-2"],
                ["0x1.0000000000000p+0", "0x1.065587d06fee0p-3", "-0x1.4417d7801da03p-3", "-0x1.4987d50f43ca7p-1"],
                ["0x0.0p+0", "0x1.0000000000000p-2", "0x1.999999999999ap-1", "0x1.8000000000000p+0"],
            ]),
            ("wf", None, [
                ["0x1.0000000000000p+0", "0x1.2666666666666p-2", "-0x1.87ae147ae147bp-2", "-0x1.599999999999ap+0"],
                ["0x0.0p+0", "0x1.a204ee284bf58p-2", "0x1.d47cea510b429p-4", "0x0.0p+0"],
                ["0x1.0000000000000p+0", "0x1.065587d06fee0p-3", "-0x1.4417d7801da03p-3", "-0x1.4987d50f43ca7p-1"],
                ["0x0.0p+0", "0x1.8000000000000p-3", "0x1.47ae147ae147ap-3", "0x0.0p+0"],
            ]),
            ("ckls", 0.75, [
                ["0x1.0000000000000p+0", "0x1.2666666666666p-2", "-0x1.87ae147ae147bp-2", "-0x1.599999999999ap+0"],
                ["0x0.0p+0", "0x1.ae08d7af04e8cp-2", "0x1.4778775f3bf90p-1", "0x1.44d4b65493078p-1"],
                ["0x1.0000000000000p+0", "0x1.065587d06fee0p-3", "-0x1.4417d7801da03p-3", "-0x1.4987d50f43ca7p-1"],
                ["0x0.0p+0", "0x1.0000000000000p-2", "0x1.999999999999ap-1", "0x1.8000000000000p+0"],
            ]),
        ],
    )
    def test_simulated_coefficients_are_pinned(self, kind, gamma, pinned):
        """Drift and base sigma of make_prototype, then of time_changed_model,
        at (t, x) on both sides of the state space; array calls agree."""
        theta = SinusoidalParam(1.0, 0.5, 2.0 * math.pi)
        params = PrototypeParams(
            kind=kind, kappa=AffineParam(1.0, 0.5), lam=0.5, theta=theta, x0=0.5, gamma=gamma
        )
        got = []
        for model in (make_prototype(params), time_changed_model(params, build_timechange(theta, 1.0))):
            for coef in (model.drift, model.base_sigma):
                got.append([float(coef(t, x)).hex() for t, x in self.POINTS])
                for t in {t for t, _ in self.POINTS}:
                    xs = np.asarray([x for _, x in self.POINTS])
                    scalar = [float(coef(t, x)).hex() for x in xs]
                    assert [float(v).hex() for v in coef(t, xs)] == scalar
        assert got == pinned

    @pytest.mark.parametrize(
        "kind,gamma,xs,pinned",
        [
            ("cir", None, (0.1, 0.5, 0.9, 3.0), [
                ["0x1.ccccccccccccdp-3", "0x1.2000000000000p+0", "0x1.0333333333333p+1", "0x1.b000000000000p+2"],
                ["0x1.2000000000000p+1"] * 4,
                ["0x0.0p+0"] * 4,
            ]),
            ("wf", None, (0.1, 0.5, 0.9), [
                ["0x1.9eb851eb851ecp-3", "0x1.2000000000000p-1", "0x1.9eb851eb851eap-3"],
                ["0x1.ccccccccccccdp+0", "0x0.0p+0", "-0x1.ccccccccccccdp+0"],
                ["-0x1.2000000000000p+2"] * 3,
            ]),
            ("ckls", 0.75, (0.1, 0.5, 0.9, 3.0), [
                ["0x1.5fa7fdba09d26p-3", "0x1.b791fd288c46fp-1", "0x1.8b9cfd714b0cap+0", "0x1.49ad7dde69353p+2"],
                ["0x1.b791fd288c46fp+0"] * 4,
                ["0x0.0p+0"] * 4,
            ]),
        ],
    )
    def test_autonomous_sigma_and_derivatives_are_pinned(self, kind, gamma, xs, pinned):
        params = PrototypeParams(kind=kind, kappa=2.0, lam=0.5, theta=1.5, x0=0.5, gamma=gamma)
        m = autonomous_from_prototype(params)
        x = np.asarray(xs)
        got = [[float(v).hex() for v in f(x)] for f in (m.sigma, m.sigma_prime, m.sigma_prime2)]
        assert got == pinned

    @pytest.mark.parametrize(
        "kind,gamma,kappa,lam,conclusion,probes,ito",
        [
            ("wf", None, 1.0, 0.25, "exit-possible", [
                ("left", 0.0, "finite", "0x1.0b2d7f1d7c62dp+1", 8,
                 "5d44dbd9c8eb93c8c55850fb608d1fa40b52054818436f13cf1fc3a69768f471"),
                ("right", 1.0, "divergent", None, 52,
                 "14dc06b27b83e197275fa0b7ec6ea03c8d907ab0cc300acd51800c93cc941e3b"),
            ], ("-0x1.7ffff40000200p+20", "diverging-to-neg-infinity", "diverging", "diverging", None, None, 298)),
            ("ckls", 0.75, 1.0, 1.0, "no-exit", [
                ("left", 0.0, "divergent", None, 6,
                 "924b3007a9628ac76e037b68aab90422830568342ebf0cc3a44f917ad435c3ac"),
                ("right", math.inf, "divergent", None, 7,
                 "d9dc17e25929db9db561c00c49b2d6257bd05ab2c5232c1e78781eba2cb39d1f"),
            ], ("-0x1.23bce117a0dd1p+0", "inconclusive", "inconclusive", "inconclusive", None, None, 377)),
        ],
    )
    def test_criterion_reports_are_pinned(self, kind, gamma, kappa, lam, conclusion, probes, ito):
        """Every field of feller_test and ito_criterion; v_values as the
        sha256 of its raw float64 bytes."""
        params = PrototypeParams(kind=kind, kappa=kappa, lam=lam, theta=1.0, x0=0.5, gamma=gamma)
        m = autonomous_from_prototype(params)
        result = feller_test(m)
        assert result.conclusion == conclusion
        got = [
            (
                p.side,
                p.boundary,
                p.classification,
                None if p.v_estimate is None else p.v_estimate.hex(),
                p.n_segments,
                hashlib.sha256(p.v_values.tobytes()).hexdigest(),
            )
            for p in (result.left, result.right)
        ]
        assert got == probes
        r = ito_criterion(m)
        fields = (r.inf_estimate.hex(), r.classification, r.left_trend, r.right_trend, r.s_exponent, r.lambda_sup, r.n_points)
        assert fields == ito
