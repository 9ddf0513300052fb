"""Exception hierarchy shared by every module in the package.

Kept at the bottom of the dependency graph so that the special-function
kernel, the root finder and the domain types can all raise through a
common set of errors without importing each other.  The one test of what
counts as a number, :func:`as_number`, lives here for the same reason.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - only for annotations
    from .model import RestrictionReport


class SolverError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SolverError, ValueError):
    """An argument lies outside the mathematical domain of an operation.

    Raised for non-finite inputs, inverse-erf arguments with ``|y| >= 1``,
    negative positions, non-positive times and similar misuse.
    """


class ValidationError(SolverError, ValueError):
    """A problem description is structurally invalid.

    Missing coefficients, non-positive values, a supplied value in the slot
    that was declared unknown, volumetric fraction outside (0, 1), and so on.
    """


class RestrictionError(SolverError):
    """A solvability restriction fails for the given data.

    Carries the full list of restriction reports computed up to the point
    of failure; at least one of them is unsatisfied.
    """

    def __init__(self, message: str, reports: "tuple[RestrictionReport, ...]" = ()):
        super().__init__(message)
        self.reports = tuple(reports)

    def failed_ids(self) -> tuple[str, ...]:
        return tuple(r.restriction_id for r in self.reports if not r.satisfied)


class NumericalError(SolverError):
    """Base class for failures of the numerical machinery."""


class NoRootError(NumericalError):
    """A monotone equation has no root above its lower limit.

    ``target <= lower_limit`` for an increasing function means the equation
    cannot be satisfied by any admissible argument.
    """

    def __init__(self, message: str, lower_limit: float, target: float):
        super().__init__(message)
        self.lower_limit = lower_limit
        self.target = target


class BracketOverflowError(NumericalError):
    """Bracket expansion hit the overflow guard without straddling the target."""


class ConvergenceError(NumericalError):
    """An iteration exhausted its budget before reaching tolerance."""


class IllConditionedWarning(UserWarning):
    """Diagnostic for inputs that are accepted but numerically delicate."""


def as_number(name: str, value, error: type[SolverError]) -> float:
    """``value`` as a float, for an argument that is not one already: an int
    or another real number that fits in a double.  A bool, text and an int
    outside the double range raise ``error`` naming ``name``."""
    # float() would also take text ("1") and a bool; a number is anything
    # with a float or an integer value, bool excepted.
    if isinstance(value, bool) or not (hasattr(value, "__float__") or hasattr(value, "__index__")):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the double range
        raise error(f"{name} must fit in a double, got an integer outside its range") from None
