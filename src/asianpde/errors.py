"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid instrument, grid, solver, or CLI configuration."""


class StabilityError(RuntimeError):
    """An explicit-scheme stability criterion is violated.

    Carries the :class:`~asianpde.advection.StabilityReport` that triggered
    the failure and, when raised during time marching, the step index.
    """

    def __init__(self, report, step_index=None):
        self.report = report
        self.step_index = step_index
        where = "" if step_index is None else f" at step {step_index}"
        super().__init__(f"stability violation{where}: " + "; ".join(report.violations))
