"""Exception types shared across the package."""

from __future__ import annotations


class OscnetError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(OscnetError):
    """Raised when a configuration document fails validation.

    Carries the full list of validation messages so callers can report
    every problem at once instead of just the first.
    """

    def __init__(self, messages: list[str]):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class BlowupError(OscnetError):
    """Raised when an integration produces a non-finite or runaway state.

    Attributes
    ----------
    step : int
        Index of the step at which the blowup was detected.
    time : float
        Simulation time at detection.
    partial_trace : Trace or None
        Whatever was recorded before the failure.
    """

    def __init__(self, step, time, partial_trace=None, detail=""):
        self.step = step
        self.time = time
        self.partial_trace = partial_trace
        msg = f"integration blew up at step {step} (t={time:g})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ValidityRegionError(OscnetError):
    """Raised when a locally-defined potential is evaluated outside the
    region where its polynomial form is meaningful."""

    def __init__(self, step, time):
        self.step = step
        self.time = time
        super().__init__(f"state left the potential validity region at step {step} (t={time:g})")


class OracleError(OscnetError):
    """Raised when an analytic oracle cannot be constructed (e.g. a
    stationary covariance solve for a system with no unique stationary
    point)."""
