"""Shared exception types."""

__all__ = ["ScenarioError", "NumericalError", "FitConvergenceError"]


class ScenarioError(ValueError):
    """A summary, weight set, or sample size does not fit the requested scenario."""


class NumericalError(RuntimeError):
    """An internal consistency check on a numerical result failed."""


class FitConvergenceError(NumericalError):
    """Nonlinear fit did not converge; carries the best coefficients found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
