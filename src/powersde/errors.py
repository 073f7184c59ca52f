"""Exception types shared across the package."""


class PowerSdeError(Exception):
    """Base class for package errors."""


class ConfigError(PowerSdeError):
    """Invalid configuration file, key, or override."""


class InvalidCoefficientError(PowerSdeError):
    """A coefficient returned a non-finite value for finite input.

    order is the sort key of the bad node.  The Euler kernel sets it to
    (step, path); the batch engine widens it to (chunk, sweep index, step,
    path), so that errors met in different path ranges sort into the order
    one walk over all of them would meet them.
    """

    def __init__(self, message, t=None, x=None, order=None):
        super().__init__(message)
        self.t = t
        self.x = x
        self.order = order


class HypothesisError(PowerSdeError):
    """A criterion's hypothesis fails, so no prediction can be made."""


class SimulationAbort(PowerSdeError):
    """A trajectory exploded and the experiment policy is to abort."""

    def __init__(self, message, n_flagged=0):
        super().__init__(message)
        self.n_flagged = n_flagged
