"""Exception types shared across the package, and the integer and number argument checks."""

import numbers

import numpy as np


class FinslerBilliardsError(Exception):
    """Base class for all package errors."""


class InvalidParameters(FinslerBilliardsError):
    """Arguments violate a documented precondition."""


class NoConvergence(FinslerBilliardsError):
    """An iterative solver exhausted its budget without reaching tolerance."""


class ZeroVector(InvalidParameters):
    """A direction argument was (numerically) zero."""


class NotOnIndicatrix(InvalidParameters):
    """A vector expected to have unit Finsler length does not."""


class NotOnFiguratrix(InvalidParameters):
    """A covector expected to have unit dual norm does not."""


class FieldTooStrong(InvalidParameters):
    """Magnetic one-form reaches dual norm >= 1, so the Lagrangian is not positive."""


class CoincidentPoints(InvalidParameters):
    """Geodesic endpoints coincide."""


class ChordTooLongForField(InvalidParameters):
    """Endpoints farther apart than the Larmor diameter (no connecting arc), or a
    derivative asked at it, where the arc's length has a kink."""


class SingularMass(FinslerBilliardsError):
    """Velocity Hessian of the Lagrangian is singular transverse to the ray direction."""


class GrazingRay(FinslerBilliardsError):
    """Incoming direction is tangent to the boundary within tolerance."""


class GrazingDeparture(FinslerBilliardsError):
    """Departure direction is tangent to the boundary within tolerance."""


class NoExit(FinslerBilliardsError):
    """A forward ray never crossed the boundary within the search horizon."""


class ZeroWinding(FinslerBilliardsError):
    """Polygon does not wind around the table centroid."""


class AmbiguousCanonicalization(FinslerBilliardsError):
    """Two cyclic rotations tie under rounding but differ beyond tolerance."""


def _check_int(name: str, value, minimum: int) -> None:
    """Reject a bool, a non-integer or a value below minimum with InvalidParameters."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidParameters(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_real(name: str, value) -> float:
    """The value as a float; a bool or a non-number raises InvalidParameters."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameters(f"{name} must be a number, got {value!r}")
    return float(value)


def _check_reals(name: str, values) -> np.ndarray:
    """values as a float array of the same shape, each entry checked by ``_check_real``."""
    a = np.asarray(values, dtype=object)
    return np.array([_check_real(name, v) for v in a.flat], dtype=float).reshape(a.shape)
