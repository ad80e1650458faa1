"""Tangent vectors and cotangent covectors.

Vectors and covectors are kept as distinct wrapper types so that mixing the
two (adding a covector to a vector, pairing two vectors, ...) raises instead
of silently producing coordinates with the wrong variance.  Numerical kernels
work on the underlying ``numpy`` arrays via ``components``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameters, _check_reals

__all__ = ["Vector", "Covector", "as_components"]


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-d contiguous float array.

    The same dot product and square root that ``np.linalg.norm`` runs on such
    an array, so the value is bit-identical, without its per-call dispatch.
    """
    return math.sqrt(v.dot(v))


def _central_diff(f, y: np.ndarray, h: float) -> np.ndarray:
    """Central differences of f at y along each coordinate axis.

    Entry (or column, for a vector-valued f) j is (f(y + h e_j) - f(y - h e_j)) / 2h.
    """
    cols = []
    for j in range(y.size):
        e = np.zeros(y.size)
        e[j] = h
        cols.append((f(y + e) - f(y - e)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def as_components(x, dim: int | None = None) -> np.ndarray:
    """Coerce a Vector, Covector or array-like to a float ndarray.

    A numeric ndarray is converted as it is; anything else entry by entry, so a
    string or a boolean raises.  Raises InvalidParameters on such an entry, on
    non-finite entries or on a dimension mismatch.
    """
    if isinstance(x, (Vector, Covector)):
        a = x.components
    elif isinstance(x, np.ndarray) and x.dtype.kind in "fiu":
        a = np.asarray(x, dtype=float)
    else:
        a = _check_reals("coordinate", x)
    if a.ndim != 1:
        raise InvalidParameters(f"expected a 1-d coordinate array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidParameters("coordinates must be finite")
    if dim is not None and a.size != dim:
        raise InvalidParameters(f"expected dimension {dim}, got {a.size}")
    return a


class _Coords:
    """Shared immutable coordinate storage for Vector and Covector."""

    __slots__ = ("_c",)

    def __init__(self, components):
        c = np.array(components, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise InvalidParameters("components must be a 1-d sequence")
        if not np.isfinite(c).all():
            raise InvalidParameters("components must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "_c", c)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def components(self) -> np.ndarray:
        return self._c

    @property
    def dim(self) -> int:
        return self._c.size

    def __iter__(self):
        return iter(self._c)

    def __len__(self):
        return self._c.size

    def __repr__(self):
        vals = ", ".join(repr(float(x)) for x in self._c)
        return f"{type(self).__name__}(({vals}))"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._c.shape == other._c.shape and bool(np.all(self._c == other._c))

    def __hash__(self):
        return hash((type(self).__name__, self._c.tobytes()))

    def _same_kind(self, other, op):
        if type(other) is not type(self):
            raise TypeError(f"cannot {op} {type(self).__name__} and {type(other).__name__}")
        return other

    def __add__(self, other):
        other = self._same_kind(other, "add")
        return type(self)(self._c + other._c)

    def __sub__(self, other):
        other = self._same_kind(other, "subtract")
        return type(self)(self._c - other._c)

    def __mul__(self, scalar):
        return type(self)(self._c * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return type(self)(self._c / float(scalar))

    def __neg__(self):
        return type(self)(-self._c)


class Vector(_Coords):
    """A tangent vector in ambient coordinates."""

    def dot(self, other: "Vector") -> float:
        """Euclidean inner product with another Vector."""
        other = self._same_kind(other, "dot")
        return float(self._c @ other._c)

    def norm(self) -> float:
        """Euclidean length."""
        return _norm(self._c)

    def unit(self) -> "Vector":
        """Euclidean-normalized copy."""
        n = self.norm()
        if n == 0.0:
            raise InvalidParameters("cannot normalize the zero vector")
        return Vector(self._c / n)


class Covector(_Coords):
    """A cotangent covector; call it on a Vector to pair."""

    def __call__(self, v) -> float:
        if isinstance(v, Covector):
            raise TypeError("a Covector pairs with a Vector, not another Covector")
        a = v.components if isinstance(v, Vector) else as_components(v, dim=self.dim)
        if a.size != self.dim:
            raise InvalidParameters("pairing dimension mismatch")
        return float(self._c @ a)
