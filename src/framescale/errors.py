"""Exception types shared across the package."""


class FrameScaleError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(FrameScaleError):
    """Input vectors or coefficient arrays have inconsistent lengths."""


class NotAFrame(FrameScaleError):
    """The given vectors do not span the ambient space."""


class NotOrthogonal(FrameScaleError):
    """A matrix expected to be orthogonal fails t'T t = I within tolerance."""


class DimensionTooSmall(FrameScaleError):
    """The sign test needs ambient dimension at least 2, and the cone test
    a transform dimension d at least 1."""


class ZeroColumn(FrameScaleError):
    """An operation that forbids zero frame vectors received one."""


class LPNumericalFailure(FrameScaleError):
    """The simplex solver stalled or exceeded its iteration budget."""


class Infeasible(FrameScaleError):
    """Weight recovery found no feasible point, or weights that fail their
    re-check; ``decide`` escalates to the exact back-end when it can."""


class NotStrictlyScalable(FrameScaleError):
    """Raised by strict weight recovery when the max-min-weight optimum is
    not positive.  Carries the optimum so callers can report it."""

    def __init__(self, s_star):
        super().__init__(f"strict feasibility optimum s* = {s_star}")
        self.s_star = s_star


class TooLarge(FrameScaleError):
    """The exact enumeration back-end refused an instance above its size cap."""


class BudgetExceeded(FrameScaleError):
    """Subset enumeration hit the configured cap without a conclusive answer.

    The query result is Unknown; this is never silently converted into a
    yes/no verdict."""


class NumericalStall(FrameScaleError):
    """Support reduction failed numerically: the LP on the weight polytope
    of the support did not end at a basic point, or the reduced weights
    fail their re-check."""


class HypothesisViolated(FrameScaleError):
    """A constructive operation was called outside its guaranteed regime;
    the message names the failed precondition."""


class WitnessVerificationFailed(FrameScaleError):
    """A constructed witness failed its own verification.  This indicates a
    bug, not a data condition."""


class FrameFileError(FrameScaleError):
    """A frame file could not be parsed; carries a location when known."""

    def __init__(self, message, line=None, field=None):
        loc = ""
        if line is not None:
            loc += f" (line {line}"
            loc += f", field {field})" if field is not None else ")"
        super().__init__(message + loc)
        self.line = line
        self.field = field
