"""Finsler metrics: Lagrangians, Legendre transforms and dual norms.

A metric is a positively 1-homogeneous Lagrangian ``L(x, v)`` that is positive
off the zero section.  The unit sphere ``{L(x, .) = 1}`` of a tangent space is
the indicatrix; the Legendre transform sends an indicatrix point ``u`` to the
unique covector that annihilates the indicatrix tangent plane at ``u`` and
pairs to 1 with ``u``.  The dual norm of a covector is its supremum over the
indicatrix, and the dual transform returns the maximizer.

Built-ins: constant Riemannian and the Randers family ``|v| + a(x).v`` with
``|a(x)| < 1``: Euclidean (``a = 0``), constant-drift Minkowski and a planar
constant magnetic field.  Randers indicatrices are ellipsoids with a focus at
the origin, so their duals are evaluated in closed form, and the drift norm is
checked once, where ``a(x)`` is made.  The billiard reflection drop (see
``_reflection_drop``) is closed form for every built-in: the Randers unit dual
sphere is the Euclidean one shifted by ``a(x)``, which makes reflection the
Euclidean mirror law, and the Riemannian one is the ``G``-mirror.  User-defined
Lagrangians fall back to finite-difference fiber derivatives, a projected
Newton maximization over a sphere chart, and a bracketed root for the drop.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    FieldTooStrong,
    InvalidParameters,
    NoConvergence,
    NotOnFiguratrix,
    NotOnIndicatrix,
    ZeroVector,
    _check_int,
    _check_real,
    _check_reals,
)
from .tables import orthonormal_complement
from .vectors import Covector, Vector, _central_diff, _norm, as_components

__all__ = [
    "FinslerMetric",
    "EuclideanMetric",
    "RiemannianMetric",
    "MinkowskiMetric",
    "MagneticMetric",
    "LagrangianMetric",
    "magnetic_indicatrix_params",
    "metric_from_spec",
    "validate_field_strength",
]

INDICATRIX_TOL = 1e-9
FIGURATRIX_TOL = 1e-9
_FD_H_REL = 1e-6
_BRACKET_CAP = 1e3
_DROP_XTOL = 1e-12
_ROOT_MAX_ITER = 100
_ZERO_DIRECTION = 1e-14  # _unit's smallest direction norm


def _bracketed_root(f, lo: float, hi: float, at_hi: tuple[float, float], xtol: float) -> float:
    """Root of f in [lo, hi], where f(lo) <= 0 < f(hi), by safeguarded Newton.

    ``f(x)`` returns the value and the slope of f at x, and ``at_hi`` is
    f(hi), which the caller has from checking the bracket.  Newton starts at
    hi; for a convex f, as along a chord through a convex table or for the
    reflection drop, it descends monotonically onto the root.  Each iterate
    shrinks the bracket by the sign of f there, and a step that leaves the
    bracket is replaced by its midpoint.  Stops when a Newton step is at most
    xtol, the bracket is at most 2 xtol wide, or f is exactly 0; the caller
    checks the residual it needs.
    """
    x, (fx, d) = hi, at_hi
    for _ in range(_ROOT_MAX_ITER):
        if fx == 0.0:
            return x
        if fx > 0.0:
            hi = x
        else:
            lo = x
        step = fx / d if d != 0.0 else math.inf
        if abs(step) <= xtol:
            return x - step
        x = x - step
        if not lo < x < hi:  # also catches NaN
            x = 0.5 * (lo + hi)
            if hi - lo <= 2.0 * xtol:
                return x
        fx, d = f(x)
    return x


def magnetic_indicatrix_params(t: float) -> tuple[float, float, float]:
    """Ellipse parameters of the unit sphere of ``|v| + t*v_1``.

    For drift strength ``0 <= t < 1`` the indicatrix is the ellipse
    ``((v1 + c)/a)^2 + (v2/b)^2 = 1`` with

        a = 1/(1 - t^2),  b = 1/sqrt(1 - t^2),  c = t/(1 - t^2),

    so ``c^2 = a^2 - b^2`` exactly and the origin is a focus.
    """
    t = float(t)
    if t < 0.0:
        raise InvalidParameters("drift strength must be nonnegative")
    if t >= 1.0:
        raise FieldTooStrong(f"drift strength {t} >= 1 gives a nonpositive Lagrangian")
    one = 1.0 - t * t
    return 1.0 / one, 1.0 / np.sqrt(one), t / one


def _randers_dual_norm(alpha: np.ndarray, q: np.ndarray) -> float:
    """sup of q over the indicatrix of ``|v| + alpha.v`` (closed form, |alpha| < 1)."""
    t = _norm(alpha)
    if t == 0.0:
        return _norm(q)
    one = 1.0 - t * t
    ahat = alpha / t
    qpar = float(q @ ahat)
    qperp2 = max(float(q @ q) - qpar * qpar, 0.0)
    return -(t / one) * qpar + np.sqrt(qpar * qpar / one**2 + qperp2 / one)


def _randers_dual_argmax(alpha: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Indicatrix point maximizing q for the metric ``|v| + alpha.v`` (|alpha| < 1)."""
    t = _norm(alpha)
    qn = _norm(q)
    if qn == 0.0:
        raise InvalidParameters("cannot maximize the zero covector")
    if t == 0.0:
        return q / qn
    one = 1.0 - t * t
    ahat = alpha / t
    a2 = 1.0 / one**2
    b2 = 1.0 / one
    qpar = float(q @ ahat)
    qperp = q - qpar * ahat
    scaled = a2 * qpar * ahat + b2 * qperp
    denom = np.sqrt(a2 * qpar * qpar + b2 * float(qperp @ qperp))
    return -(t / one) * ahat + scaled / denom


class FinslerMetric:
    """Base class; subclasses provide ``_L`` and usually analytic overrides.

    Underscore methods operate on raw ndarrays and are the numerical API used
    by the geodesic, billiard and search modules.  The public methods accept
    Vector/Covector wrappers or array-likes and return wrapped values.
    """

    flat_geodesics = False
    reversible = False
    dim: int | None = None  # None means any ambient dimension
    kind = "custom"
    # accuracy of the dual-norm/maximizer path; built-ins override with
    # closed forms good to machine precision
    dual_accuracy = 1e-7
    # _covector_rows(X, V) -> (covectors, ok): DL(x, _unit(x, v)) over the rows
    # of (..., d) arrays, each row the scalar pair's to the last bit, and ok
    # False where the pair raises.  A metric that sets it also takes (..., d)
    # rows in _Lvv.  Set by the built-in metrics only
    _covector_rows = None

    # -- raw numerical surface -------------------------------------------

    def _L(self, x: np.ndarray, v: np.ndarray) -> float:
        raise NotImplementedError

    def _DL(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        # central differences in v; h scales with |v| to keep relative error flat
        h = _FD_H_REL * _norm(v)
        if h == 0.0:
            raise ZeroVector("fiber derivative at the zero vector")
        return _central_diff(lambda w: self._L(x, w), v, h)

    def _unit(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        if _norm(v) < _ZERO_DIRECTION:
            raise ZeroVector("cannot normalize a zero direction")
        val = self._L(x, v)
        if not val > 0.0:
            raise InvalidParameters("Lagrangian is not positive on this direction")
        return v / val

    def _dual_norm(self, x: np.ndarray, q: np.ndarray) -> float:
        return self._dual_max(x, q)[0]

    def _dual_argmax(self, x: np.ndarray, q: np.ndarray) -> np.ndarray:
        return self._dual_max(x, q)[1]

    # -- generic dual maximization (used when no closed form exists) ------

    def _dual_max(self, x: np.ndarray, q: np.ndarray) -> tuple[float, np.ndarray]:
        """Maximize q over the indicatrix by projected Newton on a sphere chart.

        The objective ``q.u / L(x, u)`` is 0-homogeneous, so the chart needs
        no renormalization.  Eight deterministic restarts guard chart seams.
        """
        qn = _norm(q)
        if qn == 0.0:
            raise InvalidParameters("cannot maximize the zero covector")
        d = q.size

        def value(u):
            return float(q @ u) / self._L(x, u)

        starts = [q / qn]
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            starts.append(e)
            starts.append(-e)
        starts.append(np.ones(d) / np.sqrt(d))
        starts = starts[:8]

        best_u, best_f = None, -np.inf
        for u0 in starts:
            u, f = self._sphere_newton_max(x, q, u0, value)
            if f > best_f:
                best_u, best_f = u, f
        if best_u is None:
            raise NoConvergence("dual maximization failed from all restarts")
        return best_f, self._unit(x, best_u)

    def _sphere_newton_max(self, x, q, u0, value, max_iter=60):
        u = u0 / _norm(u0)
        f = value(u)
        qn = _norm(q)
        gtol = 1e-11 * max(1.0, qn)
        h = 1e-6
        for _ in range(max_iter):
            W = orthonormal_complement(u)
            k = W.shape[0]

            def chart(s):
                return value(u + s @ W)

            g = _central_diff(chart, np.zeros(k), h)
            if _norm(g) <= gtol:
                break
            H = np.empty((k, k))
            f0 = f
            for i in range(k):
                si = np.zeros(k)
                si[i] = h
                H[i, i] = (chart(si) - 2.0 * f0 + chart(-si)) / h**2
                for j in range(i + 1, k):
                    sj = np.zeros(k)
                    sj[j] = h
                    H[i, j] = H[j, i] = (
                        chart(si + sj) - chart(si - sj) - chart(-si + sj) + chart(-si - sj)
                    ) / (4.0 * h**2)
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                step = g
            if float(step @ g) <= 0.0:
                step = g
            nstep = _norm(step)
            if nstep > 0.5:
                step *= 0.5 / nstep
            t = 1.0
            improved = False
            while t > 1e-10:
                cand = u + t * (step @ W)
                cand /= _norm(cand)
                fc = value(cand)
                if fc > f:
                    u, f = cand, fc
                    improved = True
                    break
                t *= 0.5
            if not improved:
                break
        return u, f

    # -- billiard reflection drop (root finding when no closed form exists)

    def _reflection_drop(self, x: np.ndarray, Du: np.ndarray, p: np.ndarray) -> float:
        """Positive root t of dual_norm(Du - t p) = 1 for a unit covector Du.

        The dual norm along the line is convex in t, equals 1 at t = 0 and
        decreases there (p pairs positively with the incoming direction), so
        the root lies in [0, t_hi] and is found by ``_bracketed_root``; the
        derivative of the dual norm at q is its maximizer, so one ``_dual_max``
        gives both per iterate.  A metric with closed-form duals overrides
        this method, as every built-in does.  The dual norm N is sublinear, so
        N(Du - t p) >= t N(-p) - N(-Du), which reaches 1 at
        t_hi = (1 + N(-Du)) / N(-p).  Doubling t_hi is left only for when the
        generic dual's noise leaves phi(t_hi) <= 0.  The last phi(t_hi) is the
        root's first iterate, so it is evaluated once.
        """

        def phi(t: float) -> tuple[float, float]:
            value, u = self._dual_max(x, Du - t * p)
            return value - 1.0, -float(p @ u)

        t_lo = 0.0
        t_hi = (1.0 + self._dual_norm(x, -Du)) / self._dual_norm(x, -p)
        at_hi = phi(t_hi)
        while at_hi[0] <= 0.0:
            t_lo, t_hi = t_hi, 2.0 * t_hi
            if t_hi > _BRACKET_CAP:
                raise NoConvergence("reflection root bracket exceeded its cap")
            at_hi = phi(t_hi)
        return _bracketed_root(phi, t_lo, t_hi, at_hi, _DROP_XTOL)

    # -- second-order data for the geodesic integrator and Newton's Jacobian

    def _Lvv(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = _central_diff(lambda w: self._DL(x, w), v, _FD_H_REL * _norm(v))
        return 0.5 * (out + out.T)

    def _Ly(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        h = _FD_H_REL * (1.0 + _norm(x))
        return _central_diff(lambda y: self._L(y, v), x, h)

    def _Lvy(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        h = _FD_H_REL * (1.0 + _norm(x))
        return _central_diff(lambda y: self._DL(y, v), x, h)

    # -- public typed surface ---------------------------------------------

    def _coerce(self, x) -> np.ndarray:
        return as_components(x, self.dim)

    def lagrangian(self, x, v) -> float:
        """Finsler length of the tangent vector v at the point x."""
        return self._L(self._coerce(x), self._coerce(v))

    def unit_vector(self, x, v) -> Vector:
        """Rescale v to the indicatrix: v / L(x, v)."""
        return Vector(self._unit(self._coerce(x), self._coerce(v)))

    def fiber_derivative(self, x, v) -> Covector:
        """Velocity gradient of the Lagrangian at (x, v)."""
        return Covector(self._DL(self._coerce(x), self._coerce(v)))

    def legendre(self, x, u) -> Covector:
        """Legendre transform of an indicatrix point u.

        By the Euler relation the fiber derivative at u pairs to 1 with u and
        annihilates the indicatrix tangent plane, so it is the unit covector
        supporting the indicatrix at u.
        """
        xa, ua = self._coerce(x), self._coerce(u)
        if abs(self._L(xa, ua) - 1.0) > INDICATRIX_TOL:
            raise NotOnIndicatrix("legendre requires unit Finsler length")
        return Covector(self._DL(xa, ua))

    def dual_norm(self, x, q) -> float:
        """Supremum of the covector q over the indicatrix at x."""
        return self._dual_norm(self._coerce(x), self._coerce(q))

    def legendre_dual(self, x, q) -> Vector:
        """Inverse Legendre transform: the indicatrix point maximizing q."""
        xa, qa = self._coerce(x), self._coerce(q)
        if abs(self._dual_norm(xa, qa) - 1.0) > FIGURATRIX_TOL:
            raise NotOnFiguratrix("legendre_dual requires unit dual norm")
        return Vector(self._dual_argmax(xa, qa))

    def spec(self) -> dict:
        return {"kind": self.kind}


class _RandersMetric(FinslerMetric):
    """Randers norm L(x, v) = |v| + alpha(x).v with |alpha(x)| < 1.

    Subclasses supply the drift covector ``alpha_at(x)`` and guarantee its
    norm is below 1, so the kernels below never re-check it.  The indicatrix
    is an ellipsoid of revolution about the drift axis with a focus at the
    origin, which gives closed-form duals.  ``_covector_rows`` takes a
    stack's drifts from ``_alpha_rows``.
    """

    dual_accuracy = 1e-14

    def alpha_at(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _alpha_rows(self, X: np.ndarray):
        """``alpha_at`` over the rows of a (..., d) array: (drifts, ok), ok False where it raises.

        A constant drift never raises, and its ``alpha_at`` takes the rows as
        they are.
        """
        return self.alpha_at(X), np.ones(X.shape[:-1], dtype=bool)

    def _covector_rows(self, X, V):
        # _unit's and then _DL's float operations, each of their checks a mask
        A, ok = self._alpha_rows(X)
        vn = np.sqrt(np.vecdot(V, V))
        L = vn + np.vecdot(A, V)
        with np.errstate(divide="ignore", invalid="ignore"):  # on rows that fail
            U = V / L[..., None]
            un = np.sqrt(np.vecdot(U, U))
            D = U / un[..., None] + A
        return D, ok & ~(vn < _ZERO_DIRECTION) & (L > 0.0) & ~(un == 0.0)

    def _L(self, x, v):
        return float(_norm(v) + self.alpha_at(x) @ v)

    def _DL(self, x, v):
        a = self.alpha_at(x)  # first, so a too-strong field wins over a zero v
        n = _norm(v)
        if n == 0.0:
            raise ZeroVector("fiber derivative at the zero vector")
        return v / n + a

    def _dual_norm(self, x, q):
        return _randers_dual_norm(self.alpha_at(x), q)

    def _dual_argmax(self, x, q):
        return _randers_dual_argmax(self.alpha_at(x), q)

    def _dual_max(self, x, q):
        alpha = self.alpha_at(x)
        return _randers_dual_norm(alpha, q), _randers_dual_argmax(alpha, q)

    def _reflection_drop(self, x, Du, p):
        # the unit dual sphere is the Euclidean unit sphere shifted by alpha(x)
        return 2.0 * float((Du - self.alpha_at(x)) @ p) / float(p @ p)

    def _Lvv(self, x, v):
        n = np.sqrt(np.vecdot(v, v))[..., None]
        vh = v / n
        return (np.eye(v.shape[-1]) - vh[..., :, None] * vh[..., None, :]) / n[..., None]

    def _Ly(self, x, v):
        return np.zeros(x.size)

    def _Lvy(self, x, v):
        return np.zeros((x.size, x.size))


class EuclideanMetric(_RandersMetric):
    """The standard norm, zero drift; every Finsler formula reduces to Euclidean geometry."""

    flat_geodesics = True
    reversible = True
    kind = "euclidean"

    def __init__(self, dim: int | None = None):
        if dim is not None:
            _check_int("metric dimension", dim, 2)
        self.dim = dim

    def alpha_at(self, x):
        return np.zeros(x.shape)


class RiemannianMetric(FinslerMetric):
    """Constant positive-definite metric tensor G: L = sqrt(v.G.v)."""

    flat_geodesics = True
    reversible = True
    kind = "riemannian"
    dual_accuracy = 1e-14

    def __init__(self, tensor):
        G = _check_reals("metric tensor entry", tensor)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise InvalidParameters("metric tensor must be square")
        if not np.isfinite(G).all():
            raise InvalidParameters("metric tensor entries must be finite")
        if not np.allclose(G, G.T, atol=1e-12):
            raise InvalidParameters("metric tensor must be symmetric")
        try:
            np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            raise InvalidParameters("metric tensor must be positive definite") from None
        self.G = G
        self.Ginv = np.linalg.inv(G)
        self.dim = G.shape[0]

    def _L(self, x, v):
        return float(np.sqrt(v @ self.G @ v))

    def _DL(self, x, v):
        L = self._L(x, v)
        if L == 0.0:
            raise ZeroVector("fiber derivative at the zero vector")
        return self.G @ v / L

    def _dual_norm(self, x, q):
        return float(np.sqrt(q @ self.Ginv @ q))

    def _dual_max(self, x, q):
        dn = self._dual_norm(x, q)
        if dn == 0.0:
            raise InvalidParameters("cannot maximize the zero covector")
        return dn, self.Ginv @ q / dn

    def _reflection_drop(self, x, Du, p):
        Gp = self.Ginv @ p
        return 2.0 * float(Du @ Gp) / float(p @ Gp)

    def _Lvv(self, x, v):
        L = self._L(x, v)
        Gv = self.G @ v
        return self.G / L - np.outer(Gv, Gv) / L**3

    def _Ly(self, x, v):
        return np.zeros(x.size)

    def _Lvy(self, x, v):
        return np.zeros((x.size, x.size))

    def spec(self):
        return {"kind": "riemannian", "tensor": self.G.tolist()}


class MinkowskiMetric(_RandersMetric):
    """Constant-drift norm L(v) = |v| + alpha.v with |alpha| < 1.

    Translation invariant, so geodesics are straight chords; the metric is
    irreversible whenever alpha is nonzero.
    """

    flat_geodesics = True
    kind = "minkowski"

    def __init__(self, alpha):
        a = as_components(alpha)
        t = _norm(a)
        if t >= 1.0:
            raise FieldTooStrong(f"|alpha| = {t} >= 1 gives a nonpositive Lagrangian")
        self.alpha = a
        self.dim = a.size
        self.reversible = t == 0.0

    def alpha_at(self, x):
        return self.alpha

    def spec(self):
        return {"kind": "minkowski", "alpha": self.alpha.tolist()}


class MagneticMetric(_RandersMetric):
    """Planar constant magnetic field B as a Finsler metric.

    L(x, v) = |v| + alpha(x).v with the rotationally symmetric primitive
    alpha = (B/2)(x dy - y dx), whose exterior derivative is B dx^dy.  Unit
    speed solutions of the Euler-Lagrange equations are circles of radius
    1/|B| traversed clockwise for B > 0.  The drift norm |B| |x| / 2 is
    checked wherever alpha(x) is evaluated.
    """

    flat_geodesics = False
    kind = "magnetic"
    dim = 2

    def __init__(self, B: float):
        B = _check_real("magnetic field B", B)
        if not math.isfinite(B):
            raise InvalidParameters(f"magnetic field B must be finite, got {B!r}")
        if B == 0.0:
            raise InvalidParameters("use EuclideanMetric for a zero field")
        self.B = B
        self.reversible = False
        # d(alpha_i)/d(x_j); constant for the symmetric gauge
        self._jac = np.array([[0.0, -B / 2.0], [B / 2.0, 0.0]])

    @property
    def larmor_radius(self) -> float:
        return 1.0 / abs(self.B)

    def alpha_at(self, x: np.ndarray) -> np.ndarray:
        t = 0.5 * abs(self.B) * _norm(x)
        if t >= 1.0:
            raise FieldTooStrong(f"|alpha(x)| = {t} >= 1 at |x| = {_norm(x)}")
        return 0.5 * self.B * np.array([-x[1], x[0]])

    def _alpha_rows(self, X):
        t = 0.5 * abs(self.B) * np.sqrt(np.vecdot(X, X))
        return 0.5 * self.B * np.stack([-X[..., 1], X[..., 0]], axis=-1), ~(t >= 1.0)

    def _Ly(self, x, v):
        return self._jac.T @ v

    def _Lvy(self, x, v):
        return self._jac.copy()

    def spec(self):
        return {"kind": "magnetic", "B": self.B}


class LagrangianMetric(FinslerMetric):
    """User-defined metric from a positively 1-homogeneous Lagrangian.

    Fiber derivatives come from central finite differences and duals from the
    generic projected-Newton maximization, so expect roughly 1e-8 accuracy
    rather than the machine precision of the built-ins.
    """

    def __init__(self, lagrangian, dim: int, flat_geodesics: bool = False,
                 reversible: bool = False, kind: str = "custom"):
        _check_int("metric dimension", dim, 2)
        self._func = lagrangian
        self.dim = int(dim)
        self.flat_geodesics = bool(flat_geodesics)
        self.reversible = bool(reversible)
        self.kind = kind

    def _L(self, x, v):
        return float(self._func(x, v))


def metric_from_spec(spec: dict) -> FinslerMetric:
    """Build a metric from its JSON description."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidParameters("metric spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    if kind == "euclidean":
        return EuclideanMetric(dim=spec.get("dim"))
    if kind == "riemannian":
        if "tensor" not in spec:
            raise InvalidParameters("riemannian spec requires 'tensor'")
        return RiemannianMetric(spec["tensor"])
    if kind == "minkowski":
        if "alpha" not in spec:
            raise InvalidParameters("minkowski spec requires 'alpha'")
        return MinkowskiMetric(spec["alpha"])
    if kind == "magnetic":
        if "B" not in spec:
            raise InvalidParameters("magnetic spec requires 'B'")
        return MagneticMetric(spec["B"])
    raise InvalidParameters(f"unknown metric kind {kind!r}")


def validate_field_strength(metric: MagneticMetric, table) -> float:
    """Closed-form sup bound of the drift norm over the table; raises if it reaches 1.

    The drift norm at x is |B| |x| / 2 and every table lies inside its
    bounding ball, so |B| * bounding_radius / 2 bounds it rigorously (exactly,
    up to the bounding-radius pad, for a centred ellipse).
    """
    bound = 0.5 * abs(metric.B) * table.bounding_radius
    if not bound < 1.0:  # also rejects NaN
        raise FieldTooStrong(f"drift norm bound {bound} >= 1 on the table")
    return bound
