"""Exception types shared across the package."""


class PowerSdeError(Exception):
    """Base class for package errors."""


class ConfigError(PowerSdeError):
    """Invalid configuration file, key, or override."""


class InvalidCoefficientError(PowerSdeError):
    """A coefficient returned a non-finite value for finite input.

    order, set by the Euler kernel, is (chunk, sweep rank, step, path) of
    the bad node: errors met in different path ranges sort by it into the
    order one sweep over all of them would meet them.
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
