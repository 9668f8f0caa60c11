"""Exception hierarchy shared across the package, and the per-row
failure codes of the batched evaluation."""

import numpy as np


class PrepotentialError(Exception):
    """Base class for all domain errors raised by this package."""


class NotNullError(PrepotentialError):
    """A 4-vector expected to be light-like has |a.a| above tolerance."""


class SingularAxisError(PrepotentialError):
    """Evaluation point projects onto the ray a1 = a2 = 0 where the
    complex invariant degenerates to 0 or infinity and its logarithm
    is undefined."""


class ObserverOnWorldLineError(PrepotentialError):
    """Observer event coincides with the charge world-line (a = 0)."""


class NoRetardedIntersectionError(PrepotentialError):
    """The past light cone does not intersect the sampled world-line range."""


class StepTooLargeError(PrepotentialError):
    """A finite-difference step crossed too much phase: the principal
    logarithm of the ratio is no longer a faithful local difference."""


class SingularStencilError(PrepotentialError):
    """A stencil point fell on a singular set or had no retarded solution."""


class PathThroughSingularAxisError(PrepotentialError):
    """A path sample lies on (or too near) the singular axis."""


class RefinementLimitExceededError(PrepotentialError):
    """Adaptive path refinement hit its depth limit without resolving
    the phase increment."""


class DegenerateDenominatorError(PrepotentialError):
    """A denominator (a.u, |x|, ...) is below the degeneracy floor."""


class ChargeSystemError(PrepotentialError):
    """Evaluation failed for one member of a charge system.

    Carries the index of the failing charge so callers can report it.
    """

    def __init__(self, index: int, message: str):
        super().__init__(f"charge {index}: {message}")
        self.index = index


class ScenarioError(PrepotentialError):
    """A scenario configuration file is invalid."""


# Failures of single rows in a batched evaluation: code k > 0 in a failure
# array means that row fails with ROW_FAILURES[k] (class and message); 0
# marks a good row. Codes 1-5 are geometric; NOT_NULL, a solution that
# fails the solver's null check, is numerical.
ON_REST_CHARGE, ON_LINE, BEFORE_RANGE, BEYOND_RANGE, ON_AXIS, NOT_NULL = 1, 2, 3, 4, 5, 6
ROW_FAILURES = (
    None,
    (ObserverOnWorldLineError, "observer coincides with the rest charge"),
    (ObserverOnWorldLineError, "observer lies on the uniform world-line"),
    (NoRetardedIntersectionError, "observer's past light cone precedes the sampled range"),
    (NoRetardedIntersectionError, "observer's past light cone is beyond the sampled range"),
    (SingularAxisError, "a1 = a2 = 0: invariant degenerates to 0 or infinity"),
    (PrepotentialError, "retarded solver produced an invalid null vector"),
)


def raise_first_failure(failure: np.ndarray) -> None:
    """Raise the class of the first failing row, with its message."""
    if failure.any():
        cls, message = ROW_FAILURES[failure[np.flatnonzero(failure)[0]]]
        raise cls(message)
