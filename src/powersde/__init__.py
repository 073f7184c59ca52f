"""Euler schemes, strong-error estimation and boundary criteria for scalar
SDEs whose diffusion is a fractional power of a Lipschitz coefficient.

dX_t = a(t, X_t) dt + sigma(t, X_t)^gamma dW_t,  gamma in [1/2, 1).

The pieces fit together like this: `models` declares coefficient functions
and the prototype families (square-root, Wright-Fisher type, constant
elasticity), `brownian` produces coupled dyadic increment lattices from a
counter-based generator, `schemes` runs the equidistant Euler recursion,
`montecarlo` turns coupled fine/coarse runs into strong-error curves and
moment diagnostics, `criteria` provides the theoretical rate predictions
and boundary classification, and `cli` wires it all to config files.
"""

from .brownian import derive_seed
from .criteria import (
    AutonomousModel,
    CriterionReport,
    FellerResult,
    RatePrediction,
    TimeChange,
    autonomous_from_prototype,
    build_timechange,
    feller_test,
    ito_criterion,
    predict_rate,
    theorem_rate,
    time_changed_model,
)
from .errors import (
    ConfigError,
    HypothesisError,
    InvalidCoefficientError,
    PowerSdeError,
    SimulationAbort,
)
from .models import CoefficientFn, PrototypeParams, SdeModel, make_prototype
from .montecarlo import (
    ComparisonReport,
    ConvergenceReport,
    MomentEstimate,
    TimeChangeReport,
    comparison_check,
    estimate_inverse_moment,
    estimate_strong_error,
    timechange_check,
)
from .params import AffineParam, ConstantParam, SinusoidalParam, as_param

__version__ = "0.1.0"

__all__ = [
    "AffineParam",
    "AutonomousModel",
    "CoefficientFn",
    "ComparisonReport",
    "ConfigError",
    "ConstantParam",
    "ConvergenceReport",
    "CriterionReport",
    "FellerResult",
    "HypothesisError",
    "InvalidCoefficientError",
    "MomentEstimate",
    "PowerSdeError",
    "PrototypeParams",
    "RatePrediction",
    "SdeModel",
    "SimulationAbort",
    "SinusoidalParam",
    "TimeChange",
    "TimeChangeReport",
    "as_param",
    "autonomous_from_prototype",
    "build_timechange",
    "comparison_check",
    "derive_seed",
    "estimate_inverse_moment",
    "estimate_strong_error",
    "feller_test",
    "ito_criterion",
    "make_prototype",
    "predict_rate",
    "theorem_rate",
    "time_changed_model",
    "timechange_check",
    "__version__",
]
