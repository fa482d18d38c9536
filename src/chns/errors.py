"""Exception types shared across the package."""


class ChnsError(Exception):
    """Base class for all package-specific errors.  One raised by a run's step
    carries the step's level index and dt (see diagnostics._iterate)."""

    step = dt = None


class DimensionMismatchError(ChnsError):
    """Fields defined on different grids (or wrongly shaped arrays) were combined."""


class InputDataError(ChnsError):
    """An input array contains NaN/Inf or is otherwise unusable."""


class CompatibilityError(ChnsError):
    """A pure-Neumann right-hand side violates the zero-mean solvability condition.

    Carries the measured defect (the integral of the right-hand side).
    """

    def __init__(self, defect):
        self.defect = defect
        super().__init__(f"incompatible Neumann right-hand side, integral = {defect:.3e}")


class SolverConvergenceError(ChnsError):
    """A solve failed its residual check.  Carries the SolveReport."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"solve failed its residual check: residual {report.residual:.3e}")


class SingularSystemError(ChnsError):
    """The 2x2 recombination system is numerically singular (time step too large)."""


class StateError(ChnsError):
    """A scheme state violates a runtime invariant (e.g. vanishing auxiliary energy)."""


class ConfigError(ChnsError):
    """Bad run configuration (unknown key, unparsable value, inconsistent settings)."""
