import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
import warnings
from functools import partial

import numpy as np
import pytest

from powersde.brownian import PathStreams, coarsen_increments, derive_seed, sample_increment_batch
from powersde.errors import HypothesisError, InvalidCoefficientError, SimulationAbort
from powersde.models import CoefficientFn, PrototypeParams, SdeModel, make_prototype
from powersde.params import AffineParam, SinusoidalParam
from powersde.schemes import EulerGrid, EulerSweep
from powersde import criteria, montecarlo
from powersde.montecarlo import (
    ComparisonReport,
    _endpoint_moments,
    comparison_check,
    estimate_inverse_moment,
    estimate_strong_error,
    timechange_check,
)
from allocations import traced_peak
from sweeps import euler_run


# module-level coefficients, so that their models pickle and go to the pool


def _constant(v, t, x):
    return v + 0.0 * np.asarray(x, dtype=float)


def _const(v):
    return CoefficientFn(partial(_constant, v))


def _negative(t, x):
    return -np.asarray(x, dtype=float)


def _neg_x():
    return CoefficientFn(_negative)


def small_config(model, **kw):
    defaults = dict(
        model=model,
        horizon=1.0,
        levels=(4, 5, 6),
        ref_level=10,
        paths=256,
        seed=11,
    )
    defaults.update(kw)
    return defaults


class TestExperimentConfig:
    """The run rules ExperimentConfig once applied, now estimate_strong_error's
    own: level normalisation, the gap rule and the argument checks."""

    def test_gap_rule(self, cir_model):
        with pytest.raises(ValueError, match="ref_level: the reference gap rule"):
            estimate_strong_error(cir_model, 1.0, (4, 9), 10, 10, 0, workers=1)

    def test_levels_are_sorted_and_deduplicated(self, cir_model):
        r = estimate_strong_error(cir_model, 1.0, (6, 4, 6, 5), 10, 10, 0, workers=1)
        assert r.levels == (4, 5, 6)

    def test_memory_guard(self, cir_model):
        # the reference grid applies it, when the estimator builds its plan
        with pytest.raises(ValueError, match="memory guard"):
            estimate_strong_error(cir_model, 1.0, (4,), 27, 10, 0, workers=1)

    @pytest.mark.parametrize(
        "field,value",
        [("paths", 0), ("horizon", 0.0), ("on_explosion", "ignore"), ("levels", ())],
    )
    def test_invalid_fields(self, cir_model, field, value):
        kw = dict(
            model=cir_model, horizon=1.0, levels=(4,), ref_level=10, paths=10, seed=0
        )
        kw[field] = value
        # the estimator checks them (by its rules, or the grid's)
        with pytest.raises(ValueError, match=f"^{field} "):
            estimate_strong_error(**kw, workers=1)


class TestStrongError:
    def test_additive_noise_has_no_discretization_error(self):
        m = SdeModel(drift=_const(0.0), base_sigma=_const(1.0), gamma=0.5, x0=0.0)
        r = estimate_strong_error(**small_config(m, paths=64), workers=1)
        assert np.max(r.errors) <= 1e-12

    def test_deterministic_ode_has_order_one(self):
        m = SdeModel(drift=_neg_x(), base_sigma=_const(0.0), gamma=0.5, x0=1.0)
        cfg = dict(
            model=m, horizon=1.0, levels=tuple(range(4, 11)), ref_level=15, paths=1, seed=0
        )
        r = estimate_strong_error(**cfg, workers=1)
        assert r.lambda_hat == pytest.approx(1.0, abs=0.05)
        assert r.stderrs.max() == 0.0

    def test_errors_shrink_with_level(self, cir_model):
        r = estimate_strong_error(**small_config(cir_model), workers=1)
        assert np.all(np.diff(r.errors) < 0.0)
        assert np.all(r.errors > 0.0)
        assert r.paths == 256
        assert r.dropped == 0

    def test_seeds_that_round_to_one_double_give_distinct_errors(self, cir_model):
        """2^63 and 2^63 + 1 are one double; each keys its own paths."""
        a, b = (
            estimate_strong_error(cir_model, 1.0, (2, 3), 7, 16, seed, workers=1) for seed in (2**63, 2**63 + 1)
        )
        assert np.all(a.errors != b.errors)

    def test_report_arrays_are_frozen(self, cir_model):
        r = estimate_strong_error(**small_config(cir_model, levels=(4,), paths=32), workers=1)
        with pytest.raises(ValueError):
            r.errors[0] = 0.0


def barrier_model():
    """Drift jumps to infinity once the path crosses 1/2: a controllable
    explosion whose timing depends on the noise."""

    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.5, np.inf, 0.0)

    return SdeModel(
        drift=CoefficientFn(drift),
        base_sigma=_const(1.0),
        gamma=0.5,
        x0=0.0,
    )


def infinite_drift_model():
    inf = CoefficientFn(lambda t, x: np.inf + 0.0 * np.asarray(x, dtype=float))
    return SdeModel(drift=inf, base_sigma=_const(1.0), gamma=0.5, x0=0.0)


class TestExplosionPolicy:
    def test_abort_raises_with_count(self):
        cfg = small_config(barrier_model(), levels=(4,), ref_level=8, paths=128)
        with pytest.raises(SimulationAbort) as exc_info:
            estimate_strong_error(**cfg, workers=1)
        assert exc_info.value.n_flagged > 0

    def test_drop_keeps_survivors(self):
        cfg = small_config(
            barrier_model(), levels=(4,), ref_level=8, paths=128, on_explosion="drop"
        )
        r = estimate_strong_error(**cfg, workers=1)
        assert 0 < r.dropped < 128
        assert np.isfinite(r.errors).all()

    def test_comparison_aborts_on_exploded_paths(self):
        # exploded gaps were NaN and nanmin counted them as non-violating
        with pytest.raises(SimulationAbort) as exc_info:
            comparison_check(barrier_model(), barrier_model(), 1.0, (6,), 128, 3)
        assert exc_info.value.n_flagged > 0

    def test_comparison_drop_reports_dropped_paths(self):
        [rep] = comparison_check(barrier_model(), barrier_model(), 1.0, (6,), 128, 3, on_explosion="drop")
        assert 0 < rep.dropped < 128
        assert rep.n_violating == 0
        assert rep.violation_fraction == 0.0

    def test_comparison_drops_a_path_from_every_level(self):
        """The engine's one explosion rule: a path dropped at any level of a
        run is left out of every level's report, so all report one count, at
        least that of the finest level alone."""
        model = barrier_model()
        reports = comparison_check(model, model, 1.0, (4, 6), 128, 3, on_explosion="drop")
        [finest] = comparison_check(model, model, 1.0, (6,), 128, 3, on_explosion="drop")
        assert [rep.level for rep in reports] == [4, 6]
        assert reports[0].dropped == reports[1].dropped
        assert finest.dropped <= reports[0].dropped < 128

    def test_inverse_moment_with_no_survivors_aborts(self):
        with pytest.raises(SimulationAbort, match="every path exploded"):
            estimate_inverse_moment(infinite_drift_model(), -0.5, 1.0, 4, 16, 0, on_explosion="drop")

    def test_endpoint_moments_with_no_survivors_aborts(self):
        with pytest.raises(SimulationAbort, match="every path exploded"):
            _endpoint_moments(infinite_drift_model(), 1.0, 4, 16, 0, 1, "drop")


def _nan_above(barrier, t, x):
    return np.where(np.asarray(x, dtype=float) > barrier, np.nan, 1.0)


def nan_above_model(barrier=1.05):
    """Driftless, sigma = 1 up to barrier and NaN above it: a bad
    coefficient that many paths meet in the first steps."""
    return SdeModel(drift=_const(0.0), base_sigma=CoefficientFn(partial(_nan_above, barrier)), gamma=0.5, x0=1.0)


def test_bad_coefficient_report_does_not_depend_on_pool_timing(monkeypatch):
    """Both tasks of a 2-worker run meet a NaN sigma at the same step; the
    error raised is the one a single task over all paths meets first, not
    whichever task finishes first.  The inverse-moment and comparison
    reports are pinned: in the comparison the lo sweep's error is the one
    reported, so a change of sweep order shows."""
    cfg = dict(
        model=nan_above_model(), horizon=1.0, levels=(2, 3, 4), ref_level=8, paths=2048, seed=7
    )

    def reported(run, workers):
        with pytest.raises(InvalidCoefficientError) as exc_info:
            run(workers)
        return exc_info.value.t, exc_info.value.x, exc_info.value.order

    def inverse_moment(workers):
        estimate_inverse_moment(nan_above_model(), -1.0, 1.0, 8, 2048, 7, workers=workers)

    # NaN above 3.5, outside the x-range (-1, 3) the identical-sigma probe samples
    sigma = nan_above_model(3.5).base_sigma
    lo = SdeModel(drift=_const(0.0), base_sigma=sigma, gamma=0.5, x0=1.0)
    hi = SdeModel(drift=_const(1.0), base_sigma=sigma, gamma=0.5, x0=1.0)

    def comparison(levels, workers):
        comparison_check(lo, hi, 1.0, levels, 2048, 7, workers=workers)

    for workers in (1, 2):
        assert reported(inverse_moment, workers) == (0.00390625, 1.071015454665311, (0, 0, 1, 0))
        # with a coarser level in the plan, the finest level's error still comes first
        for levels in ((10,), (8, 10)):
            assert reported(partial(comparison, levels), workers) == (
                0.47265625, 3.5226141281839856, (0, 0, 484, 1131)
            )

    def strong_error(workers):
        estimate_strong_error(**cfg, workers=workers)

    serial = reported(strong_error, 1)
    assert [reported(strong_error, 2) for _ in range(8)] == [serial] * 8
    monkeypatch.setattr(montecarlo, "TASK_PATHS", 512)
    assert reported(strong_error, 1) == serial


class TestInverseMoment:
    def test_q_zero_returns_horizon_exactly(self, cir_model):
        est = estimate_inverse_moment(cir_model, 0.0, 1.5, 8, 100, 1)
        assert np.all(est.estimates == 1.5)
        assert np.all(est.stderrs == 0.0)
        assert est.cap_hits == (0, 0, 0)
        assert not est.divergence_flag

    def test_q_zero_runs_the_integrand_like_any_q(self, cir_model):
        """q = 0 once returned the horizon without simulating: it took any
        path count and ignored a cap below 1."""
        with pytest.raises(ValueError, match="^paths "):
            estimate_inverse_moment(cir_model, 0.0, 1.0, 6, 0, 1)
        est = estimate_inverse_moment(cir_model, 0.0, 1.0, 6, 16, 0, cap=0.5, workers=1)
        assert list(est.estimates) == [0.5, 0.5, 0.5]
        assert est.cap_hits == (16 * 16, 16 * 32, 16 * 64)

    def test_rows_cover_three_reference_levels(self, cir_model):
        est = estimate_inverse_moment(cir_model, -0.5, 1.0, 9, 64, 2)
        assert est.ref_levels == (7, 8, 9)
        assert est.estimates.shape == (3,)

    def test_default_cap_scales_with_resolution(self, cir_model):
        est = estimate_inverse_moment(cir_model, -0.5, 1.0, 9, 32, 2)
        assert est.caps == (float(1 << 7), float(1 << 8), float(1 << 9))

    def test_fixed_cap_applies_at_every_level(self):
        m = SdeModel(drift=_const(0.0), base_sigma=_const(0.0), gamma=0.5, x0=1.0)
        est = estimate_inverse_moment(m, -1.0, 1.0, 6, 16, 0, cap=5.0)
        # sigma == 0 everywhere: every node hits the cap, integral = cap * T
        np.testing.assert_allclose(est.estimates, 5.0)
        assert est.caps == (5.0, 5.0, 5.0)
        assert est.cap_hits == (16 * 16, 16 * 32, 16 * 64)

    def test_cap_hits_count_surviving_paths_only(self):
        """Dropped paths read NaN after they explode, which used to count as
        a cap hit at every later node.  Every surviving integrand here is
        exactly 1, under every cap."""
        m = SdeModel(
            drift=CoefficientFn(lambda t, x: np.where(x > 1.2, np.inf, 0.0)),
            base_sigma=_const(1.0),
            gamma=0.5,
            x0=1.0,
        )
        est = estimate_inverse_moment(m, -1.0, 1.0, 8, 64, 3, on_explosion="drop", workers=1)
        assert 0 < est.dropped < 64
        assert est.cap_hits == (0, 0, 0)
        assert list(est.estimates) == [1.0, 1.0, 1.0]

    def test_scalar_sigma(self):
        """A sigma that returns a Python float, as the Euler kernel accepts."""
        m = SdeModel(drift=_const(0.0), base_sigma=lambda t, x: 1.0, gamma=0.5, x0=0.0)
        est = estimate_inverse_moment(m, -1.0, 1.0, 6, 16, 0, workers=1)
        assert list(est.estimates) == [1.0, 1.0, 1.0]
        assert est.cap_hits == (0, 0, 0)
        assert est.dropped == 0

    def test_positive_q_rejected(self, cir_model):
        with pytest.raises(ValueError):
            estimate_inverse_moment(cir_model, 0.5, 1.0, 8, 16, 0)

    @pytest.mark.parametrize("nu", [2.0, 4.0])
    def test_every_reference_level_holds_the_exact_cir_inverse_moment(self, nu):
        """CIR with kappa = theta = x0 = 1 and lam = nu/2 is X_t = c chi'^2(delta, n) with
        c = (1 - e^-t)/4, delta = 2 nu and n = e^-t / c, so after Kummer's transformation
        E[1/X_t] = Gamma(nu - 1)/Gamma(nu) 1F1(1; nu; -n/2) / (2c)."""
        from scipy.integrate import quad
        from scipy.special import hyp1f1

        def inverse_moment(t):
            c = -math.expm1(-t) / 4.0
            return math.gamma(nu - 1.0) / math.gamma(nu) * hyp1f1(1.0, nu, -math.exp(-t) / (2.0 * c)) / (2.0 * c)

        exact, _ = quad(inverse_moment, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
        assert exact == pytest.approx({2.0: 1.5172756697, 4.0: 0.9102036017}[nu], abs=1e-9)
        model = make_prototype(PrototypeParams(kind="cir", kappa=1.0, lam=nu / 2.0, theta=1.0, x0=1.0))
        est = estimate_inverse_moment(model, -1.0, 1.0, 12, 10_000, derive_seed(20260821, "moments"), workers=2)
        z = (est.estimates - exact) / est.stderrs
        assert est.dropped == 0 and np.all(np.abs(z) <= 4.0)


class TestComparison:
    def test_identical_models_never_violate(self, cir_model):
        [rep] = comparison_check(cir_model, cir_model, 1.0, (6,), 128, 3)
        assert rep.n_violating == 0
        assert rep.max_violation == 0.0
        assert rep.violation_fraction == 0.0

    def test_ordered_drifts_rarely_cross(self, cir_model):
        lo = make_prototype(PrototypeParams(kind="cir", kappa=1.0, lam=0.25, theta=1.0, x0=1.0))
        [rep] = comparison_check(lo, cir_model, 1.0, (9,), 256, 3)
        assert rep.violation_fraction < 0.05

    def test_x0_ordering_enforced(self, cir_model):
        hi = make_prototype(PrototypeParams(kind="cir", kappa=1.0, lam=1.0, theta=1.0, x0=0.5))
        with pytest.raises(HypothesisError):
            comparison_check(cir_model, hi, 1.0, (6,), 16, 0)

    def test_sigma_mismatch_enforced(self, cir_model):
        other = make_prototype(PrototypeParams(kind="cir", kappa=1.0, lam=1.0, theta=2.0, x0=1.0))
        with pytest.raises(HypothesisError):
            comparison_check(cir_model, other, 1.0, (6,), 16, 0)

    def test_drift_ordering_enforced(self, cir_model):
        lo = make_prototype(PrototypeParams(kind="cir", kappa=1.0, lam=0.25, theta=1.0, x0=1.0))
        with pytest.raises(HypothesisError):
            comparison_check(cir_model, lo, 1.0, (6,), 16, 0)

    def test_every_level_runs_on_the_finest_lattice(self, cir_model):
        """The finest level of a two-level run is the one-level run bit for
        bit, and the coarse level counts the violations of the finest
        lattice halved, swept whole by each model."""
        lo = make_prototype(PrototypeParams(kind="cir", kappa=1.0, lam=0.25, theta=1.0, x0=1.0))
        coarse, fine = comparison_check(lo, cir_model, 1.0, (5, 7), MULTI_BLOCK_PATHS, 3, tolerance=1e-6, workers=1)
        _assert_same_report([fine], comparison_check(lo, cir_model, 1.0, (7,), MULTI_BLOCK_PATHS, 3, tolerance=1e-6))
        lattice = sample_increment_batch(PathStreams(3, 0, MULTI_BLOCK_PATHS, 7, 1.0))
        halved = coarsen_increments(lattice, 2)
        worst = (euler_run(cir_model, halved, 1.0)[0] - euler_run(lo, halved, 1.0)[0]).min(axis=1)
        assert coarse.level == 5
        assert coarse.n_violating == int((worst < -1e-6).sum()) > 0
        assert coarse.max_violation == max(0.0, -float(worst.min()))

    def test_a_hi_model_driven_by_its_own_noise_is_flagged(self, monkeypatch):
        """With the same noise the ordered pair never crosses at this size; with
        the hi model's increments drawn afresh most of its paths do."""
        lo, hi = (make_prototype(PrototypeParams(kind="cir", kappa=1.0, lam=lam, theta=1.0, x0=1.0)) for lam in (0.25, 2.0))

        def fractions():
            reports = comparison_check(lo, hi, 1.0, (8, 10), 1000, derive_seed(42, "compare"), workers=1)
            return [rep.violation_fraction for rep in reports]

        assert fractions() == [0.0, 0.0]
        shared, own = montecarlo.euler_batch, np.random.default_rng(0)

        def own_noise(sweep, increments):
            if sweep.grid.model is hi:
                increments = own.normal(0.0, math.sqrt(sweep.grid.dt), increments.shape)
            return shared(sweep, increments)

        # one worker: a warm forked worker would keep the unpatched kernel
        monkeypatch.setattr(montecarlo, "euler_batch", own_noise)
        assert min(fractions()) > 0.5

    def test_fraction_property(self):
        rep = ComparisonReport(level=5, paths=200, dropped=0, tolerance=1e-3, n_violating=3, max_violation=0.01)
        assert rep.violation_fraction == pytest.approx(0.015)
        rep = dataclasses.replace(rep, dropped=50)
        assert rep.violation_fraction == pytest.approx(0.02)


class TestTimeChangeCheck:
    def test_constant_theta_passes(self, cir_params):
        rep = timechange_check(cir_params, 7, 4000, derive_seed(1, "t"), workers=1)
        assert rep.passed
        assert rep.horizon_image == pytest.approx(1.0)
        assert abs(rep.z_mean) <= rep.threshold
        assert abs(rep.z_var) <= rep.threshold
        assert rep.dropped == 0

    def test_threshold_matches_significance(self, cir_params):
        rep = timechange_check(cir_params, 6, 500, 9, significance=0.05)
        assert rep.threshold == pytest.approx(1.959964, abs=1e-5)

    # CIR with constant kappa = lam = 1 and x0 = 2: E X_T = lam + (x0 - lam) e^{-kappa T}
    # on any clock, so each sample's mean has an exact target
    SIN_CLOCK = PrototypeParams(kind="cir", kappa=1.0, lam=1.0, theta=SinusoidalParam(1.0, 0.5, 2 * math.pi), x0=2.0)

    def test_both_samples_hold_the_exact_mean(self):
        rep = timechange_check(self.SIN_CLOCK, 10, 20_000, 20260821, workers=2)
        samples = ((rep.mean_original, rep.var_original), (rep.mean_changed, rep.var_changed))
        z = [(mean - 1.0 - math.exp(-1.0)) / math.sqrt(var / 20_000) for mean, var in samples]
        assert rep.dropped == 0 and max(map(abs, z)) <= 4.0

    def test_a_changed_drift_not_divided_by_theta_squared_fails(self, monkeypatch):
        # one worker: a warm forked worker would keep the unpatched function
        monkeypatch.setattr(criteria, "_changed_drift", lambda k, l, th2, x: k * (l - x))
        rep = timechange_check(self.SIN_CLOCK, 10, 20_000, 20260821, workers=1)
        assert not rep.passed and min(abs(rep.z_mean), abs(rep.z_var)) > rep.threshold

    def test_a_zero_standard_error_passes_only_equal_statistics(self, cir_params):
        """With one path per sample both variances are 0, so both standard
        errors are.  The means differ, so z_mean is infinite and the check
        fails; the variances agree, so z_var is 0."""
        rep = timechange_check(cir_params, 4, 1, 11, workers=1)
        assert rep.var_original == rep.var_changed == 0.0
        assert rep.mean_original > rep.mean_changed
        assert (rep.z_mean, rep.z_var, rep.passed) == (math.inf, 0.0, False)
        assert montecarlo._z(-1e-300, 0.0) == -math.inf and montecarlo._z(0.0, 0.0) == 0.0


class TestWrightFisherContainment:
    def test_paths_never_leave_the_widened_interval(self, wf_model):
        cfg = dict(
            model=wf_model, horizon=1.0, levels=(6,), ref_level=10, paths=200, seed=4
        )
        r = estimate_strong_error(**cfg, workers=1)
        assert np.isfinite(r.errors).all()
        inc = sample_increment_batch(PathStreams(4, 0, 200, 10, 1.0))
        kept, bad = euler_run(wf_model, inc, 1.0)
        assert np.all(bad < 0)
        assert kept.min() > -0.5
        assert kept.max() < 1.5


def test_the_walk_runs_every_chunk_through_the_sweeps_in_plan_order(cir_model):
    """With 16-step chunks a level-7 lattice walks in 8 chunks through two
    sweeps at level 7 and one at level 5.  Each chunk visits the sweeps in
    plan order, and each sweep's nodes, joined over the chunks, are bit-equal
    to one run on the whole lattice halved to the sweep's level."""
    level, n_paths, seed = 7, 5, 3
    halvings = (0, 0, 2)
    sweeps = [EulerSweep(EulerGrid(cir_model, 1.0, level - h), n_paths) for h in halvings]
    # a buffer wider than the task, as for the narrower tasks of a call
    walk = montecarlo._walk(PathStreams(seed, 0, n_paths, level, 1.0), sweeps, width=8, chunk_steps=16)
    visits, nodes = [], [[] for _ in sweeps]
    for i, k0, kept in walk:
        visits.append((i, k0))
        nodes[i].append(kept)
    assert visits == [(i, c * 16 >> h) for c in range(8) for i, h in enumerate(halvings)]
    lattice = sample_increment_batch(PathStreams(seed, 0, n_paths, level, 1.0))
    for joined, h in zip(nodes, halvings):
        whole, _ = euler_run(cir_model, coarsen_increments(lattice, h), 1.0)
        np.testing.assert_array_equal(np.concatenate(joined).T, whole[:, 1:])


def test_the_walk_refuses_a_chunk_that_does_not_divide_the_lattice(cir_model, monkeypatch):
    """A 24-step chunk on a 32-step lattice would leave the last 8 steps unswept."""
    sweeps = [EulerSweep(EulerGrid(cir_model, 1.0, 5), 5)]
    walk = montecarlo._walk(PathStreams(3, 0, 5, 5, 1.0), sweeps, width=8, chunk_steps=24)
    with pytest.raises(ValueError, match="^chunk_steps: a chunk of 24 steps does not divide the lattice's 32$"):
        next(walk)
    monkeypatch.setattr(montecarlo, "CHUNK_STEPS", 768)
    with pytest.raises(ValueError, match="a chunk of 768 steps does not divide the lattice's 1024"):
        estimate_strong_error(cir_model, 1.0, (3, 4, 5), 10, 16, 7, workers=1)


# three 512-path blocks, the last one partial
MULTI_BLOCK_PATHS = 1200


def _run_estimator(name, model, params, workers):
    n = MULTI_BLOCK_PATHS
    if name == "strong_error":
        return estimate_strong_error(**small_config(model, paths=n), workers=workers)
    if name == "inverse_moment":
        return estimate_inverse_moment(model, -1.0, 1.0, 9, n, 5, workers=workers)
    if name == "comparison":
        lo = make_prototype(PrototypeParams(kind="cir", kappa=1.0, lam=0.25, theta=1.0, x0=1.0))
        return comparison_check(lo, model, 1.0, (5, 7), n, 3, tolerance=1e-6, workers=workers)
    return timechange_check(params, 6, n, 9, workers=workers)


def _assert_same_report(a, b):
    if isinstance(a, list):  # the comparison's reports, one per level
        assert len(a) == len(b)
        for one, other in zip(a, b):
            _assert_same_report(one, other)
        return
    for field in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name), err_msg=field.name)


ESTIMATORS = ["strong_error", "inverse_moment", "comparison", "timechange"]


@pytest.mark.parametrize("name", ESTIMATORS)
def test_reports_are_identical_for_any_worker_count(cir_model, cir_params, name):
    one = _run_estimator(name, cir_model, cir_params, 1)
    three = _run_estimator(name, cir_model, cir_params, 3)
    _assert_same_report(one, three)


@pytest.mark.parametrize("name", ESTIMATORS)
def test_reports_are_identical_for_any_task_width(monkeypatch, cir_model, cir_params, name):
    """Cutting the three blocks into tasks of 3, 2+1 or 1+1+1 blocks changes
    no bit.  At 1 worker, TASK_PATHS 4096, 1024 and 512 give those three
    layouts; at 3 workers every TASK_PATHS gives 1+1+1, the pooled layout
    compared with the serial one above."""
    base = _run_estimator(name, cir_model, cir_params, 1)
    for task_paths in (512, 1024):
        monkeypatch.setattr(montecarlo, "TASK_PATHS", task_paths)
        _assert_same_report(base, _run_estimator(name, cir_model, cir_params, 1))


@pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", ESTIMATORS)
def test_a_bad_horizon_is_rejected_before_any_work(monkeypatch, cir_model, cir_params, name, horizon):
    def simulate_nothing(*args, **kwargs):
        raise AssertionError("paths were simulated on a bad horizon")

    monkeypatch.setattr(montecarlo, "_map_paths", simulate_nothing)
    with pytest.raises(ValueError, match="horizon"):
        if name == "strong_error":
            estimate_strong_error(**small_config(cir_model, horizon=horizon, paths=16), workers=1)
        elif name == "inverse_moment":
            estimate_inverse_moment(cir_model, -1.0, horizon, 4, 16, 5, workers=1)
        elif name == "comparison":
            comparison_check(cir_model, cir_model, horizon, (4,), 16, 3, workers=1)
        else:
            timechange_check(dataclasses.replace(cir_params, horizon=horizon), 4, 16, 9, workers=1)


BAD_ARGUMENTS = [
    ("inverse_moment", "paths", 0),
    ("comparison", "paths", 0),
    ("timechange", "paths", -1),
    ("inverse_moment", "cap", math.nan),
    ("inverse_moment", "cap", 0.0),
    ("inverse_moment", "cap", -1.0),
    ("inverse_moment", "q", math.nan),
    ("inverse_moment", "growth_factor", 1.0),
    ("inverse_moment", "growth_factor", 0.5),
    ("inverse_moment", "growth_factor", math.nan),
    ("timechange", "significance", 0.0),
    ("timechange", "significance", 1.0),
    ("timechange", "significance", math.nan),
    ("comparison", "level", -1),
    ("comparison", "tolerance", -1.0),
    ("timechange", "level", -1),
    ("strong_error", "paths", 0),
    ("strong_error", "on_explosion", "ignore"),
    ("strong_error", "ref_level", 27),
    ("inverse_moment", "ref_level", 27),
] + [(name, "workers", workers) for name in ESTIMATORS for workers in (0, -3)]


@pytest.mark.parametrize("name, arg, value", BAD_ARGUMENTS)
def test_a_bad_argument_is_named_before_any_pool_starts(monkeypatch, cir_model, cir_params, name, arg, value):
    def dispatch_nothing(*args, **kwargs):
        raise AssertionError("tasks were dispatched on a bad argument")

    monkeypatch.setattr(montecarlo, "_run_batches", dispatch_nothing)
    # the grid owns the level range and calls every level it refuses "level"
    named = "level" if arg == "ref_level" else arg
    with pytest.raises(ValueError, match=rf"^{named} "):
        _run_small(name, cir_model, cir_params, **{arg: value})


def _run_small(name, model, params, workers=1, **kwargs):
    """One estimator on a small run, kwargs overriding its arguments (for
    estimate_strong_error, those of small_config)."""
    if name == "strong_error":
        return estimate_strong_error(**small_config(model, **{"paths": 16, **kwargs}), workers=workers)
    if name == "inverse_moment":
        run = estimate_inverse_moment
        args = dict(model=model, q=-1.0, horizon=1.0, ref_level=4, paths=16, seed=5)
    elif name == "comparison":  # on one level, which a level keyword sets
        run = comparison_check
        levels = (kwargs.pop("level", 4),)
        args = dict(model_lo=model, model_hi=model, horizon=1.0, levels=levels, paths=16, seed=3)
    else:
        run = timechange_check
        args = dict(params=params, level=4, paths=16, seed=9)
    return run(workers=workers, **{**args, **kwargs})


@pytest.mark.parametrize("name", ESTIMATORS)
def test_a_bad_path_count_is_named_before_any_grid_is_tabulated(monkeypatch, cir_model, cir_params, name):
    """paths=0 on a level-20 run costs no table: the engine's check runs
    before the estimator builds its plan."""

    def tabulate_nothing(self, times):
        raise AssertionError("a grid was tabulated for a run with no paths")

    monkeypatch.setattr(CoefficientFn, "tabulate", tabulate_nothing)
    level = {"ref_level": 20} if name in ("strong_error", "inverse_moment") else {"level": 20}
    with pytest.raises(ValueError, match="^paths "):
        _run_small(name, cir_model, cir_params, paths=0, **level)


@pytest.mark.parametrize("levels, ref_level", [((-1, 14), 18), (tuple(range(4, 24)), 27), ((-1, 18), None)])
def test_a_bad_level_anywhere_in_the_plan_is_named_before_any_grid_is_tabulated(
    monkeypatch, cir_model, levels, ref_level
):
    """A negative studied level under a level-18 reference, a reference
    past the memory guard over levels up to 23, and a negative level under
    a level-18 comparison (ref_level None) cost no table: every level is
    checked before the first grid is built."""

    def tabulate_nothing(self, times):
        raise AssertionError("a grid was tabulated before a bad level was refused")

    monkeypatch.setattr(CoefficientFn, "tabulate", tabulate_nothing)
    with pytest.raises(ValueError, match="^level "):
        if ref_level is None:
            comparison_check(cir_model, cir_model, 1.0, levels, 16, 3, workers=1)
        else:
            estimate_strong_error(**small_config(cir_model, levels=levels, ref_level=ref_level), workers=1)


def test_estimator_outputs_are_pinned(cir_model):
    """Exact outputs of a small strong-error and inverse-moment run.  A change
    to sampling, coarsening, the kernel or the merge order that moves any
    bit shows up here."""
    cfg = dict(
        model=cir_model, horizon=1.0, levels=(3, 4, 5), ref_level=9, paths=96, seed=11
    )
    r = estimate_strong_error(**cfg, workers=1)
    assert [float(e).hex() for e in r.errors] == ["0x1.28fa4c4ac92fbp-4", "0x1.afb417476e545p-5", "0x1.28938c6ddb94dp-5"]
    assert [float(e).hex() for e in r.stderrs] == ["0x1.7eb64cb032027p-8", "0x1.06d216b652340p-8", "0x1.7014624846ee3p-9"]
    assert r.lambda_hat.hex() == "0x1.007fde5b1a0c6p-1"
    assert r.argmax_nodes == (5, 14, 28)
    est = estimate_inverse_moment(cir_model, -1.0, 1.0, 8, 96, 5, workers=1)
    assert [float(e).hex() for e in est.estimates] == ["0x1.5880142887715p+0", "0x1.588c9e5674c60p+0", "0x1.55ebf5ad88304p+0"]
    assert [float(e).hex() for e in est.stderrs] == ["0x1.3984624738cb2p-4", "0x1.43308d9849531p-4", "0x1.3939cf82e0d91p-4"]
    assert est.cap_hits == (0, 0, 0)


def test_capped_inverse_moment_outputs_are_pinned():
    """q = -1/2 on a CIR model with nu = 1/4, whose paths reach zero: the
    power and the default cap both act on every level."""
    lo = make_prototype(PrototypeParams(kind="cir", kappa=1.0, lam=0.125, theta=1.0, x0=0.25))
    est = estimate_inverse_moment(lo, -0.5, 1.0, 8, 96, 5, workers=1)
    assert [float(e).hex() for e in est.estimates] == ["0x1.5920d15d1554bp+3", "0x1.0966c4afe959bp+4", "0x1.6b45f1f5b7403p+4"]
    assert [float(e).hex() for e in est.stderrs] == ["0x1.e8aab8cac0aa9p-1", "0x1.a97c632daedafp+0", "0x1.43dbc1797f5aap+1"]
    assert est.cap_hits == (614, 1089, 1575)
    assert est.divergence_flag


@pytest.mark.parametrize(
    "ref_level, estimates, stderrs, cap_hits",
    [
        (
            12,
            ["0x1.e88b92f09e0c1p+3", "0x1.39bf1f4a91bdep+4", "0x1.a0dd27f7d503fp+4"],
            ["0x1.ab8027039572ap-1", "0x1.208d983b82405p+0", "0x1.8a65d81e29e55p+0"],
            (6122, 8527, 12192),
        ),
        (
            14,
            ["0x1.72f2f93686826p+4", "0x1.ecd58eb70007bp+4", "0x1.43f36ab052f5ep+5"],
            ["0x1.6d69d5198ab39p+0", "0x1.fccc87b912d8ep+0", "0x1.57f079d982021p+1"],
            (10707, 15073, 20748),
        ),
    ],
)
def test_many_chunk_inverse_moment_outputs_are_pinned(ref_level, estimates, stderrs, cap_hits):
    """A capped q = -1/2 run over 8 (ref 12) and 32 (ref 14) lattice chunks
    per level, so that the order in which chunk sums are combined shows."""
    model = make_prototype(PrototypeParams(kind="cir", kappa=1.0, lam=0.25, theta=1.0, x0=0.25))
    est = estimate_inverse_moment(model, -0.5, 1.0, ref_level, 600, 7, workers=1)
    assert [float(e).hex() for e in est.estimates] == estimates
    assert [float(e).hex() for e in est.stderrs] == stderrs
    assert est.cap_hits == cap_hits


def _half_minus(t, x):
    return 0.5 - x


def _itself(t, x):
    return x


@pytest.mark.parametrize("workers", [1, 2])
def test_inverse_moment_of_a_sigma_returning_its_x_is_pinned(workers):
    """sigma(t, x) = x hands back the very array of nodes it was given, so an
    integrand clamped, powered or capped in place would overwrite the nodes.
    Two workers split the three blocks into tasks of unequal width; the
    coefficients are module-level functions, so the tasks go to the pool."""
    model = SdeModel(drift=CoefficientFn(_half_minus), base_sigma=CoefficientFn(_itself), gamma=0.5, x0=0.5)
    est = estimate_inverse_moment(model, -1.0, 1.0, 8, MULTI_BLOCK_PATHS, 5, workers=workers)
    assert [float(e).hex() for e in est.estimates] == ["0x1.5b01f07bf3628p+2", "0x1.8643a95f1836fp+2", "0x1.b2f626197898cp+2"]
    assert [float(e).hex() for e in est.stderrs] == ["0x1.5dd20bf3bb6efp-3", "0x1.ccf14356429a6p-3", "0x1.239e9997633d8p-2"]
    assert est.cap_hits == (1452, 1486, 1477)


@pytest.mark.parametrize("workers", [1, 2])
def test_timechange_and_comparison_outputs_are_pinned(workers):
    """Exact reports of a small clock-change and comparison run, with
    time-dependent kappa and theta, over three 512-path blocks, pinned from
    the kernel that preceded fixed blocks, run with 512-path batches.  The
    original sample's sub-seed is at least 2^63; its values come from the
    key that holds all 64 bits of it."""
    theta = SinusoidalParam(1.0, 0.5, 2 * math.pi)
    params = PrototypeParams(kind="cir", kappa=AffineParam(1.0, 0.5), lam=1.0, theta=theta, x0=1.0)
    tc = timechange_check(params, 6, MULTI_BLOCK_PATHS, 9, workers=workers)
    assert tc.horizon_image.hex() == "0x1.1fffffffffffcp+0"
    assert tc.mean_original.hex() == "0x1.fe56b43933cd7p-1"
    assert tc.mean_changed.hex() == "0x1.fc70b14508ad4p-1"
    assert tc.var_original.hex() == "0x1.1c6f758e9911ap-2"
    assert tc.var_changed.hex() == "0x1.064a19b54d400p-2"
    assert tc.z_mean.hex() == "0x1.68044ef32262dp-3"
    assert tc.z_var.hex() == "0x1.fb6b2ade857afp-1"
    assert tc.threshold.hex() == "0x1.a52ffadd2f906p+1"
    assert tc.passed is True
    assert tc.dropped == 0
    hi = make_prototype(params)
    lo = make_prototype(dataclasses.replace(params, lam=0.25))
    [rep] = comparison_check(lo, hi, 1.0, (7,), MULTI_BLOCK_PATHS, 3, tolerance=1e-6, workers=workers)
    assert (rep.level, rep.paths, rep.dropped, rep.n_violating) == (7, 1200, 0, 14)
    assert rep.tolerance.hex() == "0x1.0c6f7a0b5ed8dp-20"
    assert rep.max_violation.hex() == "0x1.3b18d1c4cf27dp-5"


def test_strong_error_task_holds_a_chunk_not_the_lattice(cir_model):
    """One strong-error task streams its lattice: the traced peak stays below
    a quarter of the paths x 2^ref_level float64 lattice it would otherwise
    hold."""
    cfg = dict(
        model=cir_model, horizon=1.0, levels=(4, 5, 6), ref_level=13, paths=128, seed=3
    )
    _, peak = traced_peak(lambda: estimate_strong_error(**cfg, workers=1))
    assert peak < cfg["paths"] * (1 << cfg["ref_level"]) * 8 / 4


def test_inverse_moment_task_holds_a_few_chunks(cir_model):
    """One 512-path inverse-moment task holds its lattice chunk, the chunk's
    two halvings, one level's kept nodes, one path-major chunk of integrand
    values and a few small slabs: under five chunk-sized arrays."""
    paths = 512
    _, peak = traced_peak(lambda: estimate_inverse_moment(cir_model, -1.0, 1.0, 10, paths, 3, workers=1))
    assert peak < 5 * paths * montecarlo.CHUNK_STEPS * 8


# ---------------------------------------------------------------------------
# the process's worker pool


def _worker_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_reports_are_identical_under_every_start_method(monkeypatch, cir_model, cir_params, method):
    """Two workers started by each start method give every estimator's
    serial bytes: the tasks carry all that the workers read."""
    monkeypatch.setattr(montecarlo, "_START_METHOD", method)
    for name in ESTIMATORS:
        one = _run_estimator(name, cir_model, cir_params, 1)
        _assert_same_report(one, _run_estimator(name, cir_model, cir_params, 2))
        assert montecarlo._POOL[0] == (2, method)


def test_calls_in_one_process_reuse_the_pool_and_a_new_size_replaces_it(cir_model, cir_params):
    """Two 2-worker calls run on the same workers; a 3-worker call then
    leaves none of them alive."""
    _run_estimator("inverse_moment", cir_model, cir_params, 2)
    two = _worker_pids()
    _run_estimator("comparison", cir_model, cir_params, 2)
    assert len(two) == 2 and _worker_pids() == two
    _run_estimator("inverse_moment", cir_model, cir_params, 3)
    three = _worker_pids()
    assert len(three) == 3 and not set(two) & set(three)
    assert not any(_alive(pid) for pid in two)


def test_a_bad_coefficient_leaves_the_pool_usable(cir_model, cir_params):
    """A task that meets a NaN sigma hands the error back: the smallest-key
    one is raised, and the same workers then run the next call."""
    before = _run_estimator("inverse_moment", cir_model, cir_params, 2)
    pids = _worker_pids()
    with pytest.raises(InvalidCoefficientError) as exc_info:
        estimate_inverse_moment(nan_above_model(), -1.0, 1.0, 8, 2048, 7, workers=2)
    assert (exc_info.value.t, exc_info.value.x, exc_info.value.order) == (0.00390625, 1.071015454665311, (0, 0, 1, 0))
    assert _worker_pids() == pids
    _assert_same_report(before, _run_estimator("inverse_moment", cir_model, cir_params, 2))
    assert _worker_pids() == pids


def test_a_model_that_does_not_pickle_runs_serially_with_one_warning():
    """Lambda coefficients cannot reach a worker: the call runs serially,
    warns once and gives the bytes of a one-worker run."""
    model = SdeModel(drift=CoefficientFn(lambda t, x: 1.0 - x), base_sigma=CoefficientFn(lambda t, x: x), gamma=0.5, x0=1.0)
    one = estimate_inverse_moment(model, -1.0, 1.0, 9, MULTI_BLOCK_PATHS, 5, workers=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        two = estimate_inverse_moment(model, -1.0, 1.0, 9, MULTI_BLOCK_PATHS, 5, workers=2)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "run serially" in str(caught[0].message)
    _assert_same_report(one, two)


def test_a_worker_that_dies_terminates_the_pool():
    """A worker that exits before its task is done raises instead of
    hanging, and its pool goes with every worker; the next call starts a
    new one.  Run in a process of its own, under a timeout."""
    script = (
        "import multiprocessing, os\n"
        "from functools import partial\n"
        "from powersde import montecarlo\n"
        "def exit_if_a_worker(parent, i):\n"
        "    if os.getpid() != parent:\n"
        "        os._exit(1)\n"
        "try:\n"
        "    montecarlo._run_batches(partial(exit_if_a_worker, os.getpid()), 2, 2)\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
        "print(montecarlo._POOL is None, multiprocessing.active_children())\n"
        "print(montecarlo._run_batches(partial(pow, 2), 3, 2))\n"
    )
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["a pool worker died while its tasks ran", "True []", "[1, 2, 4]"]
