#!/usr/bin/env python3
"""
Strong convergence order of the Euler scheme for a square-root diffusion
========================================================================

Simulates coupled coarse/fine Euler paths of the CIR model
dX = kappa (lam - X) dt + theta sqrt(X) dW and measures the strong L1
error at every dyadic level against a fine reference on the same
Brownian paths.  A log-log least squares fit gives the empirical order
lambda_hat, which is then compared with the theoretical prediction from
the boundary drift ratio mu0 = kappa lam / theta^2.

Desk-scale run: a few thousand paths, about ten seconds.
"""

import time

import numpy as np

from powersde import (
    PrototypeParams,
    estimate_strong_error,
    make_prototype,
    predict_rate,
)

params = PrototypeParams(kind="cir", kappa=1.0, lam=1.0, theta=1.0, x0=1.0)
model = make_prototype(params)

levels, ref_level, paths = tuple(range(4, 9)), 12, 2000

print(f"model: {model.name}, gamma = {model.gamma}")
print(f"levels {levels}, reference level {ref_level}, {paths} paths")

t0 = time.time()
report = estimate_strong_error(model, 1.0, levels, ref_level, paths, seed=42)
print(f"simulated in {time.time() - t0:.1f} s\n")

print(f"{'level':>5} {'N':>6} {'L1 error':>12} {'stderr':>10} {'argmax node':>12}")
for i, level in enumerate(report.levels):
    n = 2**level
    print(f"{level:>5} {n:>6} {report.errors[i]:>12.3e} "
          f"{report.stderrs[i]:>10.1e} {report.argmax_nodes[i]:>12}")

print(f"\nfitted order lambda_hat = {report.lambda_hat:.3f} "
      f"(stderr {report.lambda_stderr:.3f}, r^2 = {report.r_squared:.4f})")

prediction = predict_rate(params)
print(f"theory: mu0 = {prediction.mu0:.2f}, guaranteed order up to "
      f"{prediction.lambda_sup:.2f} [{prediction.provenance}]")

# the error should roughly halve per level once the order is 1/2
ratios = report.errors[:-1] / report.errors[1:]
print(f"successive error ratios: {np.round(ratios, 2)} (2^0.5 = 1.41)")
