"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible under ``pytest -s`` or
in the captured output) and then asserts the same condition, so the
suite both documents and enforces the shipping bar.  The Monte Carlo
criteria pin the exact experiment sizes and seeds used for sign-off;
they take a couple of minutes single-threaded.
"""

import math
import time

import numpy as np
import pytest

from powersde import (
    AutonomousModel,
    PrototypeParams,
    SdeModel,
    autonomous_from_prototype,
    comparison_check,
    estimate_inverse_moment,
    estimate_strong_error,
    feller_test,
    make_prototype,
    timechange_check,
)
from powersde import cli
from powersde.brownian import derive_seed
from powersde.params import SinusoidalParam

from inequalities import concave_power_gap, power_gap_bound

SEED = 42


def emit(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} failed: {detail}"


def cir(kappa=1.0, lam=1.0, theta=1.0, x0=1.0):
    return make_prototype(
        PrototypeParams(kind="cir", kappa=kappa, lam=lam, theta=theta, x0=x0)
    )


def convergence_run(model):
    cfg = dict(
        model=model,
        horizon=1.0,
        levels=tuple(range(4, 10)),
        ref_level=13,
        paths=10**4,
        seed=derive_seed(SEED, "converge"),
    )
    return estimate_strong_error(**cfg)


def test_criterion_01_power_inequalities():
    start = time.time()
    rng = np.random.default_rng(20260821)
    n = 10**5
    x = 10.0 ** rng.uniform(-8.0, 8.0, n)
    y = 10.0 ** rng.uniform(-8.0, 8.0, n)
    y[rng.random(n) < 0.01] = 0.0
    gamma = rng.uniform(0.5, 1.0 - 1e-12, n)
    beta = rng.uniform(1e-12, 1.0, n)

    lhs1, rhs1 = power_gap_bound(x, y, gamma, beta)
    bad1 = int(np.count_nonzero(lhs1 > rhs1 + 4.0 * np.spacing(rhs1)))
    lhs2, rhs2 = concave_power_gap(x, y, gamma)
    bad2 = int(np.count_nonzero(lhs2 > rhs2 + 4.0 * np.spacing(rhs2)))
    elapsed = time.time() - start

    ok = bad1 == 0 and bad2 == 0 and elapsed < 5.0
    emit(1, ok, f"violations {bad1}+{bad2} of {n} samples, {elapsed:.2f}s")


def test_criterion_02_exact_cases():
    start = time.time()

    flat = SdeModel(
        drift=lambda t, x: np.zeros_like(x),
        base_sigma=lambda t, x: np.ones_like(x),
        gamma=0.5,
        x0=0.25,
        name="flat",
    )
    cfg = dict(
        model=flat,
        horizon=1.0,
        levels=(3, 4, 5),
        ref_level=9,
        paths=128,
        seed=7,
    )
    additive = float(np.max(estimate_strong_error(**cfg).errors))

    moment = estimate_inverse_moment(cir(), 0.0, 1.5, 6, 16, seed=3)
    q_zero_exact = bool(
        np.all(moment.estimates == 1.5)
        and np.all(moment.stderrs == 0.0)
        and not moment.divergence_flag
    )

    tc = timechange_check(
        PrototypeParams(kind="cir", kappa=1.0, lam=1.0, theta=1.0, x0=1.0),
        level=7,
        paths=4000,
        seed=11,
    )
    elapsed = time.time() - start

    ok = additive <= 1e-12 and q_zero_exact and tc.passed and elapsed < 10.0
    emit(
        2,
        ok,
        f"additive error {additive:.1e}, q=0 exact {q_zero_exact},"
        f" const-theta verdict {tc.passed}, {elapsed:.2f}s",
    )


def test_criterion_03_deterministic_order():
    start = time.time()
    ode = SdeModel(
        drift=lambda t, x: -x,
        base_sigma=lambda t, x: np.zeros_like(x),
        gamma=0.5,
        x0=1.0,
        name="decay-ode",
    )
    cfg = dict(
        model=ode,
        horizon=1.0,
        levels=tuple(range(4, 11)),
        ref_level=14,
        paths=1,
        seed=0,
    )
    report = estimate_strong_error(**cfg)
    elapsed = time.time() - start
    ok = (
        report.lambda_hat is not None
        and abs(report.lambda_hat - 1.0) <= 0.05
        and elapsed < 10.0
    )
    emit(3, ok, f"lambda_hat {report.lambda_hat:.4f} vs 1.00 +- 0.05, {elapsed:.2f}s")


def test_criterion_04_cir_high_feller():
    start = time.time()
    report = convergence_run(cir())
    elapsed = time.time() - start
    ok = report.lambda_hat is not None and 0.40 <= report.lambda_hat <= 0.60
    emit(4, ok, f"lambda_hat {report.lambda_hat:.4f} in [0.40, 0.60], {elapsed:.0f}s")
    assert elapsed < 300.0


def test_criterion_05_cir_low_feller():
    start = time.time()
    report = convergence_run(cir(lam=0.25))
    elapsed = time.time() - start
    ok = report.lambda_hat is not None and report.lambda_hat >= 0.15
    emit(5, ok, f"lambda_hat {report.lambda_hat:.4f} >= 0.15, {elapsed:.0f}s")
    assert elapsed < 300.0


def test_criterion_06_ckls():
    start = time.time()
    model = make_prototype(
        PrototypeParams(kind="ckls", kappa=1.0, lam=1.0, theta=1.0, x0=1.0, gamma=0.75)
    )
    report = convergence_run(model)
    elapsed = time.time() - start
    ok = report.lambda_hat is not None and 0.40 <= report.lambda_hat <= 0.60
    emit(6, ok, f"lambda_hat {report.lambda_hat:.4f} in [0.40, 0.60], {elapsed:.0f}s")
    assert elapsed < 300.0


def test_criterion_07_wright_fisher():
    start = time.time()
    model = make_prototype(
        PrototypeParams(kind="wf", kappa=2.0, lam=0.5, theta=1.0, x0=0.5)
    )
    report = convergence_run(model)
    elapsed = time.time() - start
    ok = report.lambda_hat is not None and 0.40 <= report.lambda_hat <= 0.60
    emit(7, ok, f"lambda_hat {report.lambda_hat:.4f} in [0.40, 0.60], {elapsed:.0f}s")
    assert elapsed < 300.0


def test_criterion_08_inverse_moment_diagnostic():
    seed = derive_seed(SEED, "moments")

    start = time.time()
    finite = estimate_inverse_moment(cir(), -1.0, 1.0, 12, 10**4, seed)
    spread = float(np.ptp(finite.estimates) / np.mean(finite.estimates))
    elapsed_finite = time.time() - start
    ok_finite = (
        not finite.divergence_flag and spread < 0.10 and elapsed_finite < 120.0
    )

    start = time.time()
    divergent = estimate_inverse_moment(cir(lam=0.125), -1.0, 1.0, 12, 10**4, seed)
    elapsed_div = time.time() - start
    ok_div = divergent.divergence_flag and elapsed_div < 120.0

    emit(
        8,
        ok_finite and ok_div,
        f"nu=2 flag {finite.divergence_flag} spread {spread:.3f},"
        f" nu=0.25 flag {divergent.divergence_flag},"
        f" {elapsed_finite:.0f}s+{elapsed_div:.0f}s",
    )


def test_criterion_09_feller_classification():
    start = time.time()
    got = {}
    for nu in (0.25, 0.5, 2.0, 4.0):
        model = autonomous_from_prototype(
            PrototypeParams(kind="cir", kappa=1.0, lam=nu / 2.0, theta=1.0, x0=1.0)
        )
        got[nu] = feller_test(model).conclusion
    expected = {
        0.25: "exit-possible",
        0.5: "exit-possible",
        2.0: "no-exit",
        4.0: "no-exit",
    }

    bm = AutonomousModel(
        a=lambda x: 0.0 * np.asarray(x),
        sigma=lambda x: 1.0 + 0.0 * np.asarray(x),
        sigma_prime=lambda x: 0.0 * np.asarray(x),
        sigma_prime2=lambda x: 0.0 * np.asarray(x),
        gamma=0.5,
        domain=(-math.inf, math.inf),
        x0=0.0,
    )
    bm_conclusion = feller_test(bm).conclusion
    elapsed = time.time() - start

    ok = got == expected and bm_conclusion == "no-exit" and elapsed < 30.0
    emit(9, ok, f"CIR {got}, BM {bm_conclusion}, {elapsed:.1f}s")


def test_criterion_10_comparison_check():
    start = time.time()
    lo = cir(lam=0.25)
    hi = cir(lam=1.0)
    seed = derive_seed(SEED, "compare")
    frac = {rep.level: rep.violation_fraction for rep in comparison_check(lo, hi, 1.0, (8, 10), 1000, seed)}
    elapsed = time.time() - start
    ok = frac[10] < 0.01 and frac[10] <= frac[8] and elapsed < 60.0
    emit(10, ok, f"violation fraction {frac[8]:.3f} -> {frac[10]:.3f}, {elapsed:.1f}s")


def test_criterion_11_time_change_check():
    start = time.time()
    params = PrototypeParams(
        kind="cir",
        kappa=1.0,
        lam=1.0,
        theta=SinusoidalParam(1.0, 0.5, 2.0 * math.pi),
        x0=1.0,
    )
    tc = timechange_check(params, level=12, paths=10**5, seed=derive_seed(SEED, "timechange"))
    elapsed = time.time() - start
    ok = tc.passed and elapsed < 180.0
    emit(
        11,
        ok,
        f"z_mean {tc.z_mean:.3f} z_var {tc.z_var:.3f} vs |z| < {tc.threshold:.3f},"
        f" {elapsed:.0f}s",
    )


def test_criterion_12_worker_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[experiment]\nseed = 42\n")
    out1 = tmp_path / "w1.csv"
    out8 = tmp_path / "w8.csv"
    code1 = cli.main(
        ["converge", "--config", str(cfg), "--out", str(out1), "--workers", "1"]
    )
    code8 = cli.main(
        ["converge", "--config", str(cfg), "--out", str(out8), "--workers", "8"]
    )
    identical = out1.read_bytes() == out8.read_bytes()
    ok = code1 == 0 and code8 == 0 and identical
    emit(12, ok, f"exit codes {code1}/{code8}, byte-identical {identical}")
