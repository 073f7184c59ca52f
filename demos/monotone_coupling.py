#!/usr/bin/env python3
"""
Pathwise comparison of two drift-ordered models
===============================================

Driving two Euler schemes with the same Brownian increments preserves
ordering: if one model starts no higher and its drift is everywhere no
larger, its paths should stay below (up to discretization noise).  The
check simulates both on shared increments and counts paths whose minimum
gap dips below -tolerance.  Violations are a discretization artifact and
must die out under grid refinement.
"""

from powersde import PrototypeParams, comparison_check, make_prototype
from powersde.brownian import derive_seed

low = make_prototype(
    PrototypeParams(kind="cir", kappa=1.0, lam=0.25, theta=1.0, x0=1.0)
)
high = make_prototype(
    PrototypeParams(kind="cir", kappa=1.0, lam=1.0, theta=1.0, x0=1.0)
)

print("low-drift model: mean reversion toward 0.25")
print("high-drift model: mean reversion toward 1.0")
print("same kappa, theta, x0 and the same Brownian paths\n")

seed = derive_seed(7, "compare")
print(f"{'level':>5} {'paths':>6} {'violating':>10} {'fraction':>9} {'worst gap':>10}")
# one call: every level runs on the same Brownian paths, halved from level 10
for report in comparison_check(low, high, horizon=1.0, levels=(6, 8, 10),
                               paths=1000, seed=seed):
    print(f"{report.level:>5} {report.paths:>6} {report.n_violating:>10} "
          f"{report.violation_fraction:>9.3f} {report.max_violation:>10.2e}")

print("\nthe fraction should be nonincreasing in the level and small at the end")
