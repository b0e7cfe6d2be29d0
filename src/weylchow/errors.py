"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: UsageError -> 2, ResourceLimitError -> 3,
InternalComputationError (and subclasses) -> 4.
"""


class WeylchowError(Exception):
    """Base class for all package errors."""


class UsageError(WeylchowError):
    """Invalid user input: bad Dynkin type, malformed JSON, precondition failure."""


class ResourceLimitError(WeylchowError):
    """A computation was refused because it would exceed a configured cap."""


class InternalComputationError(WeylchowError):
    """A mathematical invariant was violated.

    Raised when an exact computation produces something that is impossible
    if the code is correct (a restriction not divisible at a fixed point, a
    resolution that is not birational, ...).  Always a bug, never user error.
    """


class CalibrationError(InternalComputationError):
    """The fixed Wu convention failed the Cartan-formula check of the Steenrod squares."""
