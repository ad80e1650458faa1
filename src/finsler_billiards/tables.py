"""Implicit convex billiard tables and boundary geometry.

A table is a smooth scalar field ``phi`` with interior ``{phi < 0}`` and
boundary ``{phi = 0}``, together with its spatial gradient and a bounding
radius.  All absolute tolerances in the package are stated relative to
``bounding_radius`` (the session scale).

As for ``FinslerMetric``, the underscore ``_phi``/``_grad`` are the raw
surface the kernels call; the public ``phi``/``grad`` check coordinates first.
Likewise ``_project`` is the projection the search's Newton loop calls, and
``project_to_boundary`` checks its argument before it.  ``_project_rows``,
``_grad_rows``, ``_hess_rows`` and ``_unit_complement_rows`` run ``_project``,
``_grad``, ``_hess`` and the tangent frames over the rows of an array, bit for
bit the per-row calls, for the Newton loop's stacked seeds, candidates and
Jacobians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    FinslerBilliardsError,
    InvalidParameters,
    NoConvergence,
    _check_int,
    _check_real,
    _check_reals,
)
from .vectors import Covector, Vector, _central_diff, _norm, as_components

__all__ = [
    "BoundaryPoint",
    "ConvexTable",
    "ellipsoid_table",
    "table_from_spec",
    "project_to_boundary",
    "tangent_basis",
    "conormal",
    "orthonormal_complement",
    "random_boundary_point",
    "convexity_defect",
]

BOUNDARY_TOL_REL = 1e-10
# drive projections to the float noise floor: chart Hessians divide the
# residual position error by h^2, so a loose projection pollutes spectra
_PROJECT_TARGET_REL = 5e-16
_PROJECT_MAX_ITER = 100
_PROJECT_MIN_STEP = 1e-6
_HESS_H_REL = 1e-6
_DEGENERATE_FRAME = 1e-12


@dataclass(frozen=True)
class BoundaryPoint:
    """A point on the table boundary with its Euclidean-unit outward normal."""

    position: Vector
    outward_normal: Vector

    @property
    def dim(self) -> int:
        return self.position.dim


class ConvexTable:
    """Smooth strictly convex closed hypersurface given implicitly.

    Parameters
    ----------
    phi : callable
        Scalar field on ndarray coordinates; interior is ``phi < 0``.
    grad_phi : callable
        Spatial gradient of ``phi``, returning an ndarray.
    bounding_radius : float
        Radius of a ball around the origin enclosing the boundary.
    dim : int
        Ambient dimension (>= 2).
    spec : dict, optional
        JSON-ready description of the table, kept for serialization.
    hess_phi : callable, optional
        Closed-form Hessian of ``phi``, returning a (dim, dim) ndarray.  The
        search's Newton Jacobian takes the boundary's curvature from it;
        without it, ``_hess`` takes central differences of ``grad_phi``.
    derivative_bounds : (float, float), optional
        Upper bounds (H, G) of the spectral norm of the Hessian of ``phi`` and
        of the norm of its gradient over the closed table.  A magnetic flight
        takes certified steps to its boundary exit from them; without them it
        probes ``phi`` at fixed steps along the arc.

    ``_phi``/``_grad``/``_hess`` take unchecked float arrays (``_grad`` and
    ``_hess`` still check what the callables return); ``phi``/``grad`` check
    coordinates, as in FinslerMetric.
    """

    # (phi, grad, hess) over the rows of an (n, dim) array, bit for bit
    # ``_phi``/``_grad``/``_hess`` of each row; set by built-in tables only
    # (``ellipsoid_table``)
    _row_fields: tuple[Callable, Callable, Callable] | None = None

    def __init__(self, phi: Callable, grad_phi: Callable, bounding_radius: float,
                 dim: int, spec: dict | None = None, hess_phi: Callable | None = None,
                 derivative_bounds: tuple[float, float] | None = None):
        _check_int("table dimension", dim, 2)
        radius = _check_real("bounding_radius", bounding_radius)
        if not (radius > 0 and math.isfinite(radius)):
            raise InvalidParameters(
                f"bounding_radius must be finite and positive, got {bounding_radius!r}")
        self._phi_fn = phi
        self._grad_fn = grad_phi
        self._hess_fn = hess_phi
        if derivative_bounds is not None:
            bounds = _check_reals("derivative bound", derivative_bounds)
            if bounds.shape != (2,) or not np.all((bounds > 0) & np.isfinite(bounds)):
                raise InvalidParameters(
                    f"derivative_bounds must be two finite positive numbers, got {derivative_bounds!r}")
            derivative_bounds = (float(bounds[0]), float(bounds[1]))
        self.derivative_bounds = derivative_bounds
        self.bounding_radius = radius
        self.dim = int(dim)
        self.spec = dict(spec) if spec else {"kind": "custom"}
        # centroid used by planar winding numbers; built-ins are centered
        self.centroid = np.zeros(dim)

    @property
    def scale(self) -> float:
        return self.bounding_radius

    def _phi(self, x: np.ndarray) -> float:
        return float(self._phi_fn(x))

    def _grad(self, x: np.ndarray) -> np.ndarray:
        g = np.asarray(self._grad_fn(x), dtype=float)
        if g.shape != (self.dim,):
            raise InvalidParameters("grad_phi returned a wrong shape")
        return g

    def _hess(self, x: np.ndarray) -> np.ndarray:
        if self._hess_fn is None:
            H = _central_diff(self._grad, x, _HESS_H_REL * self.scale)
            return 0.5 * (H + H.T)
        H = np.asarray(self._hess_fn(x), dtype=float)
        if H.shape != (self.dim, self.dim):
            raise InvalidParameters("hess_phi returned a wrong shape")
        return H

    def phi(self, x) -> float:
        return self._phi(as_components(x, self.dim))

    def grad(self, x) -> np.ndarray:
        return self._grad(as_components(x, self.dim))

    def contains(self, x) -> bool:
        return self.phi(x) < 0.0

    def boundary_point(self, x) -> BoundaryPoint:
        """Wrap coordinates known to lie on the boundary, validating them."""
        a = as_components(x, self.dim)
        if not abs(self.phi(a)) <= BOUNDARY_TOL_REL * self.scale:  # also catches NaN
            raise InvalidParameters("point is not on the boundary to tolerance")
        g = self.grad(a)
        gn = _norm(g)
        if gn == 0.0:
            raise InvalidParameters("gradient vanishes at a boundary point")
        return BoundaryPoint(Vector(a), Vector(g / gn))


def _ellipsoid_fields(semi_axes: np.ndarray, eps: float, coeffs: np.ndarray):
    """phi, grad and hess of ``ellipsoid_table``, component by component.

    The per-component arithmetic runs on Python floats, which round as numpy's
    elementwise operations do; the reductions (the dots and the cube) stay
    numpy calls, whose results a Python sum or power does not reproduce.  So
    each value is bit-identical to the vectorised numpy formula (the reference
    in ``tests/test_tables.py``):

        phi  = x.(x/a^2) - 1 + eps q / s,   s = 1 + |x|^2, q = sum c_i x_i^3,
        grad = 2 x/a^2 + eps (3 c x^2 / s - 2 q x / s^2),
        hess = diag(2/a^2) + eps (diag(6 c x / s - 2 q / s^2)
                                  - 2 (u x^T + x u^T) / s^2 + 8 q x x^T / s^3),

    with u = 3 c x^2, each term evaluated left to right.
    """
    inv2 = 1.0 / semi_axes**2
    two_inv2 = 2.0 * inv2
    d = semi_axes.size

    if eps == 0.0:
        def phi(x):
            return float(x.dot(inv2 * x)) - 1.0

        def grad(x):
            return two_inv2 * x

        def hess(x):
            return np.diag(two_inv2)

        return phi, grad, hess

    quad = two_inv2.tolist()
    three_c = (3.0 * coeffs).tolist()
    six_c = (6.0 * coeffs).tolist()

    def phi(x):
        s1 = 1.0 + float(x.dot(x))
        return float(x.dot(inv2 * x)) - 1.0 + eps * float(coeffs.dot(x**3)) / s1

    def grad(x):
        s1 = 1.0 + float(x.dot(x))
        q2 = float(coeffs.dot(x**3)) * 2.0
        s1sq = s1 ** 2
        return np.array([a * v + eps * (c * (v * v) / s1 - q2 * v / s1sq)
                         for a, c, v in zip(quad, three_c, x.tolist())])

    def hess(x):
        s1 = 1.0 + float(x.dot(x))
        cubic = float(coeffs.dot(x**3))
        s1sq, s1cu = s1**2, s1**3
        q2, q8 = 2.0 * cubic / s1sq, 8.0 * cubic
        xs = x.tolist()
        u = [c * (v * v) for c, v in zip(three_c, xs)]
        H = np.empty((d, d))
        for i, (ui, xi) in enumerate(zip(u, xs)):
            for j, (uj, xj) in enumerate(zip(u, xs)):
                diag = (six_c[i] * xi / s1 - q2) if i == j else 0.0
                t = diag - 2.0 * (ui * xj + xi * uj) / s1sq + q8 * (xi * xj) / s1cu
                H[i, j] = (quad[i] if i == j else 0.0) + eps * t
        return H

    return phi, grad, hess


def _ellipsoid_rows(semi_axes: np.ndarray, eps: float, coeffs: np.ndarray):
    """``_ellipsoid_fields``'s phi, grad and hess over the rows of an (n, d) array.

    Row i's value is bit-identical to the per-point kernel at row i:
    ``np.vecdot`` runs each row's dot as ``ndarray.dot`` does, ``X**3`` rounds
    as ``x**3``, the elementwise operations are the same in the same order
    (the Hessian's off-diagonal terms too, from their 0.0), and ``s1**2`` and
    ``s1**3`` stay Python's powers, which numpy's do not reproduce.
    """
    inv2 = 1.0 / semi_axes**2
    two_inv2 = 2.0 * inv2
    d = semi_axes.size

    if eps == 0.0:
        def phi(X):
            return np.vecdot(X, inv2 * X) - 1.0

        def grad(X):
            return two_inv2 * X

        def hess(X):
            return np.broadcast_to(np.diag(two_inv2), (X.shape[0], d, d))

        return phi, grad, hess

    three_c = 3.0 * coeffs
    six_c = 6.0 * coeffs
    quad = np.diag(two_inv2)
    on_diag = np.arange(d)

    def powers(s1, k):
        return np.array([v ** k for v in s1.tolist()])

    def phi(X):
        s1 = 1.0 + np.vecdot(X, X)
        return np.vecdot(X, inv2 * X) - 1.0 + eps * np.vecdot(coeffs, X**3) / s1

    def grad(X):
        s1 = 1.0 + np.vecdot(X, X)
        q2 = np.vecdot(coeffs, X**3) * 2.0
        s1sq = powers(s1, 2)
        return two_inv2 * X + eps * (three_c * (X * X) / s1[:, None]
                                     - q2[:, None] * X / s1sq[:, None])

    def hess(X):
        s1 = 1.0 + np.vecdot(X, X)
        cubic = np.vecdot(coeffs, X**3)
        s1sq, s1cu = powers(s1, 2)[:, None, None], powers(s1, 3)[:, None, None]
        q2, q8 = 2.0 * cubic / s1sq[:, 0, 0], 8.0 * cubic
        U = three_c * (X * X)
        diag = np.zeros((X.shape[0], d, d))
        diag[:, on_diag, on_diag] = six_c * X / s1[:, None] - q2[:, None]
        xi, xj, ui, uj = X[:, :, None], X[:, None, :], U[:, :, None], U[:, None, :]
        t = diag - 2.0 * (ui * xj + xi * uj) / s1sq + q8[:, None, None] * (xi * xj) / s1cu
        return quad + eps * t

    return phi, grad, hess


def ellipsoid_table(semi_axes: Sequence[float], eps: float = 0.0,
                    coeffs: Sequence[float] | None = None) -> ConvexTable:
    """Ellipsoid ``sum x_i^2/a_i^2 = 1`` with an optional smooth cubic bump.

    The perturbation is ``eps * sum(c_i x_i^3) / (1 + |x|^2)``; with small
    ``eps`` it breaks the coordinate reflection symmetries while keeping the
    sublevel set convex.

    The table carries closed-form ``derivative_bounds`` (H, G).  Without the
    bump, the Hessian of ``phi`` is diag(2/a_i^2) and its gradient 2x/a^2
    has norm at most 2/a_min on the ellipsoid, so H = 2/a_min^2 and
    G = 2/a_min.  With the bump b = sum(c_i x_i^3)/s, s = 1 + |x|^2, every
    bound is taken over the ball of radius rho = ``bounding_radius`` with
    s >= 1, k = max|c_i|, |sum c_i x_i^3| <= k |x|^3 and
    |(c_i x_i^2)_i| <= k |x|^2:

        grad b = 3 (c_i x_i^2)_i / s - 2 q x / s^2, q = sum c_i x_i^3,
            so |grad b| <= k (3 rho^2 + 2 rho^4);
        hess b = diag(6 c_i x_i) / s - 2 q I / s^2 - 2 (u x^T + x u^T) / s^2
                 + 8 q x x^T / s^3, u = 3 (c_i x_i^2)_i,
            so ||hess b|| <= k (6 rho + 2 rho^3 + 12 rho^3 + 8 rho^5),

    and the quadratic part's gradient is at most 2 rho / a_min^2 there.
    H and G add |eps| times these.  Like the magnetic field guard, these
    bounds rely on the bounding-radius pad: that the bumped table lies
    inside the ball of radius ``bounding_radius``.
    """
    a = _check_reals("semi_axes entry", semi_axes)
    if a.ndim != 1 or a.size < 2 or not np.all((a > 0) & np.isfinite(a)):
        raise InvalidParameters("semi_axes must be >= 2 finite positive numbers")
    d = a.size
    if coeffs is None:
        c = np.ones(d)
    else:
        c = _check_reals("perturbation coeffs entry", coeffs)
        if c.shape != (d,):
            raise InvalidParameters("perturbation coeffs must match the dimension")
        if not np.all(np.isfinite(c)):
            raise InvalidParameters("perturbation coeffs must be finite")
    eps = _check_real("perturbation eps", eps)
    if not math.isfinite(eps):
        raise InvalidParameters(f"perturbation eps must be finite, got {eps!r}")
    phi, grad, hess = _ellipsoid_fields(a, eps, c)
    spec = {"kind": "ellipsoid", "semi_axes": [float(v) for v in a]}
    if eps != 0.0:
        spec["perturbation"] = {"eps": eps, "coeffs": [float(v) for v in c]}
    # cubic bump moves the surface by O(eps); pad the bounding radius
    radius = float(np.max(a)) * (1.0 + 2.0 * abs(eps)) + 1e-9
    a_min = float(np.min(a))
    if eps == 0.0:
        bounds = (2.0 / a_min**2, 2.0 / a_min)
    else:
        ek, rho = abs(eps) * float(np.max(np.abs(c))), radius
        bounds = (2.0 / a_min**2 + ek * (6.0 * rho + 14.0 * rho**3 + 8.0 * rho**5),
                  2.0 * rho / a_min**2 + ek * (3.0 * rho**2 + 2.0 * rho**4))
    table = ConvexTable(phi, grad, radius, d, spec, hess, bounds)
    table._row_fields = _ellipsoid_rows(a, eps, c)
    return table


def table_from_spec(spec: dict) -> ConvexTable:
    """Build a table from its JSON description."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidParameters("table spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    if kind != "ellipsoid":
        raise InvalidParameters(f"unknown table kind {kind!r}")
    if "semi_axes" not in spec:
        raise InvalidParameters("ellipsoid spec requires 'semi_axes'")
    pert = {} if spec.get("perturbation") is None else spec["perturbation"]
    if not isinstance(pert, dict):
        raise InvalidParameters("'perturbation' must be an object")
    return ellipsoid_table(spec["semi_axes"], eps=pert.get("eps", 0.0), coeffs=pert.get("coeffs"))


def _project(table: ConvexTable, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``project_to_boundary`` on unchecked coordinates: (point, ``table._grad`` there).

    The point may be ``a`` itself when ``a`` is already on the boundary.
    """
    target = _PROJECT_TARGET_REL * table.scale
    accept = BOUNDARY_TOL_REL * table.scale
    f = table._phi(a)
    for _ in range(_PROJECT_MAX_ITER):
        if abs(f) <= target:
            break
        g = table._grad(a)
        g2 = float(g.dot(g))
        if g2 == 0.0:
            raise NoConvergence("gradient vanished during projection")
        step = -f / g2 * g
        t = 1.0
        improved = False
        while t > _PROJECT_MIN_STEP:
            cand = a + t * step
            fc = table._phi(cand)
            if abs(fc) < abs(f):
                a, f = cand, fc
                improved = True
                break
            t *= 0.5
        if not improved:
            break  # at the float noise floor
    if not abs(f) <= accept:  # also rejects NaN
        raise NoConvergence("projection did not reach boundary tolerance")
    g = table._grad(a)
    if _norm(g) == 0.0:
        raise InvalidParameters("gradient vanishes at a boundary point")
    return a, g


def _project_rows(table: ConvexTable, A: np.ndarray):
    """``_project`` of each row of an (n, d) array: (points, gradients, ok).

    Where ``_project`` returns, row i of points and gradients is its result to
    the last bit.  Where it raises, ok[i] is False and gradient row i is zero:
    a gradient that vanishes during the iteration, a final residual above the
    acceptance tolerance (NaN included), or a vanishing final gradient.  With
    the table's row kernels the rows run the damped Newton in lockstep, each
    with the scalar iteration's values, halvings and stops; a table without
    them projects row by row.
    """
    points = np.array(A, dtype=float)
    grads = np.zeros_like(points)
    ok = np.ones(points.shape[0], dtype=bool)
    if table._row_fields is None:
        for i, a in enumerate(points):
            try:
                points[i], grads[i] = _project(table, a)
            except FinslerBilliardsError:
                ok[i] = False
        return points, grads, ok
    phi, grad, _ = table._row_fields
    target = _PROJECT_TARGET_REL * table.scale
    accept = BOUNDARY_TOL_REL * table.scale
    f = phi(points)
    live = np.arange(points.shape[0])  # rows still iterating
    for _ in range(_PROJECT_MAX_ITER):
        live = live[~(np.abs(f[live]) <= target)]
        if live.size == 0:
            break
        g = grad(points[live])
        g2 = np.vecdot(g, g)
        vanished = g2 == 0.0
        if vanished.any():
            ok[live[vanished]] = False
            live, g, g2 = live[~vanished], g[~vanished], g2[~vanished]
        a, fa = points[live], f[live]
        step = (-fa / g2)[:, None] * g
        improved = np.zeros(live.size, dtype=bool)
        pending = np.arange(live.size)  # rows of a still halving
        t = 1.0
        while t > _PROJECT_MIN_STEP and pending.size:
            cand = a[pending] + t * step[pending]
            fc = phi(cand)
            better = np.abs(fc) < np.abs(fa[pending])
            hit = pending[better]
            a[hit], fa[hit] = cand[better], fc[better]
            improved[hit] = True
            pending = pending[~better]
            t *= 0.5
        points[live], f[live] = a, fa
        live = live[improved]  # a row that did not improve is at its noise floor
    ok &= np.abs(f) <= accept
    done = np.flatnonzero(ok)
    g = grad(points[done])
    nonzero = np.vecdot(g, g) != 0.0
    grads[done[nonzero]] = g[nonzero]
    ok[done[~nonzero]] = False
    return points, grads, ok


def _grad_rows(table: ConvexTable, X: np.ndarray) -> np.ndarray:
    """``table._grad`` of each row of an (n, d) array, bit for bit, as ``_hess_rows``."""
    if table._row_fields is None:
        return np.array([table._grad(x) for x in X])
    return table._row_fields[1](X)


def _hess_rows(table: ConvexTable, X: np.ndarray) -> np.ndarray:
    """``table._hess`` of each row of an (n, d) array, bit for bit: an (n, d, d) array.

    With the table's row kernel the rows are one stack; a table without it
    takes them row by row.
    """
    if table._row_fields is None:
        return np.array([table._hess(x) for x in X])
    return table._row_fields[2](X)


def project_to_boundary(table: ConvexTable, x) -> BoundaryPoint:
    """Retract a nearby point onto the boundary.

    Damped Newton root-following of ``phi`` along the local gradient
    direction; raises NoConvergence after 100 iterations.
    """
    a, g = _project(table, as_components(x, table.dim))
    return BoundaryPoint(Vector(a), Vector(g / _norm(g)))


def _largest_axis(nhat: np.ndarray) -> int:
    """The axis that orthonormal_complement drops by default, for a unit normal nhat."""
    return int(np.argmax(np.abs(nhat)))


def orthonormal_complement(n: np.ndarray, drop: int | None = None) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to n.

    Rows of the returned (d-1, d) array are built by Gram-Schmidt from the
    coordinate axes, dropping axis ``drop``; by default the one with the
    largest |n| component.
    """
    n = np.asarray(n, dtype=float)
    nhat = n / _norm(n)
    if drop is None:
        drop = _largest_axis(nhat)
    return _unit_complement(nhat, drop)


def _unit_complement(nhat: np.ndarray, drop: int) -> np.ndarray:
    """``orthonormal_complement``'s rows for a unit normal nhat.

    Row j starts from e_j - nhat[j] nhat, the first Gram-Schmidt step on axis
    j to the last bit, since e_j . nhat is exactly nhat[j]; it is 0.0 - p, not
    -p, so that a zero product gives +0.0 as the subtraction from e_j does.
    """
    rows = []
    for j in range(nhat.size):
        if j == drop:
            continue
        w = 0.0 - nhat[j] * nhat
        w[j] += 1.0
        for prev in rows:
            w -= w.dot(prev) * prev
        nw = _norm(w)
        if nw < _DEGENERATE_FRAME:
            raise InvalidParameters("degenerate normal direction")
        rows.append(w / nw)
    return np.array(rows)


def _unit_complement_rows(nhat: np.ndarray):
    """``_unit_complement`` of each row of an (n, d) array of unit normals.

    Each row drops its largest axis, as ``orthonormal_complement`` does by
    default.  Returns (frames, drops, ok): frames[i] is the (d-1, d) frame of
    row i to the last bit, drops[i] its dropped axis, and ok[i] is False where
    the scalar frame raises.
    """
    n, d = nhat.shape
    at = np.arange(n)
    drops = np.argmax(np.abs(nhat), axis=1)
    ok = np.ones(n, dtype=bool)
    rows = []
    for k in range(d - 1):
        j = k + (k >= drops)  # row i's k-th kept axis
        w = 0.0 - nhat[at, j][:, None] * nhat
        w[at, j] += 1.0
        for prev in rows:
            w -= np.vecdot(w, prev)[:, None] * prev
        nw = np.sqrt(np.vecdot(w, w))
        ok &= ~(nw < _DEGENERATE_FRAME)
        rows.append(w / nw[:, None])
    return np.stack(rows, axis=1), drops, ok


def tangent_basis(y: BoundaryPoint) -> list[Vector]:
    """Euclidean-orthonormal basis of the boundary tangent space at y."""
    return [Vector(row) for row in orthonormal_complement(y.outward_normal.components)]


def conormal(table: ConvexTable, y: BoundaryPoint, metric) -> Covector:
    """Unit conormal at y: annihilates the tangent space, positive outward.

    The covector is the gradient of ``phi`` rescaled to unit dual norm in the
    given metric.
    """
    x = y.position.components
    g = table._grad(x)
    dn = metric._dual_norm(x, g)
    if not dn > 0:
        raise InvalidParameters("dual norm of the boundary gradient is not positive")
    return Covector(g / dn)


def random_boundary_point(table: ConvexTable, rng: np.random.Generator) -> BoundaryPoint:
    """Draw a boundary point by projecting a random radial direction."""
    for _ in range(64):
        v = rng.standard_normal(table.dim)
        nv = _norm(v)
        if nv > 1e-9:
            return project_to_boundary(table, v / nv * table.bounding_radius * 0.5)
    raise NoConvergence("could not draw a random boundary point")


def convexity_defect(table: ConvexTable, n_pairs: int, rng: np.random.Generator) -> float:
    """Largest phi value over midpoints of random boundary-point pairs.

    Nonpositive (up to tolerance) for a convex sublevel set.
    """
    worst = -np.inf
    for _ in range(n_pairs):
        a = random_boundary_point(table, rng).position.components
        b = random_boundary_point(table, rng).position.components
        worst = max(worst, table.phi(0.5 * (a + b)))
    return float(worst)
