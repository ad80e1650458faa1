"""Periodic billiard orbits as critical points of the cyclic length function.

An r-gon inscribed in the table boundary has cyclic length equal to the sum
of the oriented geodesic distances around it.  Its differential at vertex i
is the difference between the Legendre transforms of the arriving and the
departing unit tangents, restricted to the boundary tangent space, so r-gons
with vanishing projected gradient are exactly the r-periodic orbits.

The search minimizes the squared projected gradient with a damped Newton
iteration on boundary charts (saddle-capable: it converges to critical points
of any index), deduplicates the converged polygons modulo cyclic relabeling,
and guards against collapsed polygons with the edge-product threshold.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .billiards import BoundaryState, billiard_step
from .errors import (
    AmbiguousCanonicalization,
    CoincidentPoints,
    FinslerBilliardsError,
    InvalidParameters,
    ZeroWinding,
    _check_int,
)
from .geodesics import (
    GeodesicSegment,
    _arc_tangent_derivative_rows,
    _arc_tangent_derivatives,
    _check_connectable,
    _connect,
    _tangent_rows,
    connect,
)
from .metrics import FinslerMetric, MagneticMetric, validate_field_strength
from .tables import (
    BoundaryPoint,
    ConvexTable,
    _grad_rows,
    _hess_rows,
    _largest_axis,
    _project_rows,
    _unit_complement,
    _unit_complement_rows,
    project_to_boundary,
    random_boundary_point,
)
from .vectors import _norm, as_components

__all__ = [
    "CyclicPolygon",
    "OrbitRecord",
    "SearchConfig",
    "make_polygon",
    "length_function",
    "grad_length",
    "in_g_epsilon",
    "canonicalize",
    "rotation_number",
    "morse_index",
    "find_critical",
    "orbit_record_dict",
]

_DISTINCT_REL = 1e-8
_MIN_EDGE_REL = 1e-4
# Newton's lstsq cutoff, so the step ignores a critical manifold's null direction.  Every
# built-in metric on an ellipsoid, straight chords and Larmor arcs, gives a Jacobian
# exact to rounding.  Central differences remain only in a user Lagrangian's _Lvv and
# in the Hessian of a table without hess_phi.  The table's, of an exact gradient at
# h = 1e-6 x scale, carry noise of about eps / 1e-6 = 2e-10 relative to |J|, and 1e-8
# sits 50x above that and above their h^2 truncation (1e-12).  A user Lagrangian's _Lvv
# differences its finite-difference DL, so its noise is larger, about 1e-4.
_NEWTON_RCOND = 1e-8
# the Newton line search's step lengths t = 2^-k > 1e-12, in the order it tries them
_STEP_LENGTHS = 0.5 ** np.arange(40)
_EIG_TOL_REL = 1e-6
_FAMILY_LAMBDA_REL = 1e-7  # a critical family has one critical value


def _check_tol(name: str, value) -> None:
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and value > 0.0)):
        raise InvalidParameters(f"{name} must be a finite number > 0, got {value!r}")


@dataclass(frozen=True)
class CyclicPolygon:
    """An r-tuple of boundary points with cached cyclic-length data."""

    vertices: tuple[BoundaryPoint, ...]
    segments: tuple[GeodesicSegment, ...]
    r: int
    lambda_value: float
    min_edge: float
    edge_product: float

    @property
    def dim(self) -> int:
        return self.vertices[0].dim

    def positions(self) -> np.ndarray:
        return np.array([v.position.components for v in self.vertices])


@dataclass(frozen=True)
class OrbitRecord:
    """A deduplicated critical polygon with diagnostics."""

    polygon: CyclicPolygon
    residual: float
    morse_index: int | None
    degeneracy: int | None
    rotation_number: int | None
    canonical_key: tuple
    flags: tuple[str, ...]
    multiplicity: int = 1


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for find_critical; None tolerances resolve against the table scale."""

    seeds: int = 500
    rng_seed: int = 0
    grad_tol: float | None = None      # default 1e-9 * scale
    epsilon: float | None = None       # default 1e-9 * scale**r
    cluster_tol: float | None = None   # default 1e-5 * scale
    max_iter: int = 60

    def __post_init__(self):
        for name, minimum in (("seeds", 1), ("rng_seed", 0), ("max_iter", 1)):
            _check_int(name, getattr(self, name), minimum)
        for name in ("grad_tol", "epsilon", "cluster_tol"):
            if getattr(self, name) is not None:
                _check_tol(name, getattr(self, name))

    def resolved(self, table: ConvexTable, r: int) -> dict:
        s = table.scale
        defaults = {"grad_tol": 1e-9 * s, "epsilon": 1e-9 * s**r, "cluster_tol": 1e-5 * s}
        return {name: defaults[name] if value is None else value
                for name, value in vars(self).items()}


def _points_array(points, dim: int | None = None) -> np.ndarray:
    """Checked (r, d) vertex coordinates of a polygon argument."""
    if isinstance(points, CyclicPolygon):
        return points.positions()
    if isinstance(points, (list, tuple)) and points and isinstance(points[0], BoundaryPoint):
        return np.array([p.position.components for p in points])
    a = np.asarray(points, dtype=float)
    if a.ndim != 2 or a.shape[0] < 2 or (dim is not None and a.shape[1] != dim):
        raise InvalidParameters("expected an (r, d) array of vertex coordinates")
    if not np.isfinite(a).all():
        raise InvalidParameters("coordinates must be finite")
    return a


def _check_distinct(pts: np.ndarray, scale: float) -> bool:
    r = pts.shape[0]
    return not any(_norm(pts[(i + 1) % r] - pts[i]) <= _DISTINCT_REL * scale
                   for i in range(r))


def make_polygon(metric: FinslerMetric, table: ConvexTable, points) -> CyclicPolygon:
    """Assemble a cyclic polygon from boundary vertices, validating them."""
    pts = _points_array(points, table.dim)
    r = pts.shape[0]
    if not _check_distinct(pts, table.scale):
        raise InvalidParameters("consecutive vertices coincide within tolerance")
    verts = tuple(table.boundary_point(p) for p in pts)
    segs = tuple(connect(metric, pts[i], pts[(i + 1) % r]) for i in range(r))
    lengths = [s.length for s in segs]
    return CyclicPolygon(
        vertices=verts, segments=segs, r=r,
        lambda_value=math.fsum(lengths),
        min_edge=float(min(lengths)),
        edge_product=float(math.prod(lengths)),
    )


def length_function(metric: FinslerMetric, polygon) -> float:
    """Cyclic length: sum of oriented geodesic distances around the polygon.

    Summation uses exact accumulation, so cyclic relabelings give the same
    float value.
    """
    pts = _points_array(polygon, metric.dim)
    r = pts.shape[0]
    return math.fsum(connect(metric, pts[i], pts[(i + 1) % r]).length for i in range(r))


class _Evaluation(NamedTuple):
    """``_grad_flat``'s result; row j of departing/arriving belongs to chord j -> j+1.

    A stack of evaluations (``_evaluate_stack``, or ``_stacked`` of a list)
    holds each field as one array with a leading polygon axis.
    """

    grad: np.ndarray  # flattened to r*(d-1)
    normals: list  # table._grad at each vertex
    frames: list
    drops: list
    departing: np.ndarray
    arriving: np.ndarray


def _chord_covectors(metric: FinslerMetric, x: np.ndarray, y: np.ndarray):
    """Departing and arriving Legendre covectors of the chord x -> y."""
    seg = _connect(metric, x, y)
    return metric._DL(x, seg.start_tangent), metric._DL(y, seg.end_tangent)


def _grad_flat(metric: FinslerMetric, table: ConvexTable, pts: np.ndarray,
               drops=None, normals=None) -> _Evaluation:
    """Projected gradient of the cyclic length, with the frames and covectors behind it.

    Vertex i's tangent frame is ``orthonormal_complement`` of its normal,
    leaving out coordinate axis drops[i]; by default its largest axis.
    ``normals`` are ``table._grad`` at the vertices, when the caller has them.
    """
    r, d = pts.shape
    departing, arriving = np.empty((r, d)), np.empty((r, d))
    for j in range(r):
        departing[j], arriving[j] = _chord_covectors(metric, pts[j], pts[(j + 1) % r])
    if normals is None:
        normals = [table._grad(p) for p in pts]
    nhats = [n / _norm(n) for n in normals]
    if drops is None:
        drops = [_largest_axis(nhat) for nhat in nhats]
    frames = [_unit_complement(nhat, drop) for nhat, drop in zip(nhats, drops)]
    grad = np.concatenate([frames[i] @ (arriving[i - 1] - departing[i]) for i in range(r)])
    return _Evaluation(grad, normals, frames, drops, departing, arriving)


def grad_length(metric: FinslerMetric, table: ConvexTable, polygon) -> np.ndarray:
    """Gradient covectors of the cyclic length on each boundary tangent space.

    Row i holds the pairing of the arriving-minus-departing Legendre
    covector at vertex i with the deterministic tangent basis there.
    """
    pts = _points_array(polygon, table.dim)
    return _grad_flat(metric, table, pts).grad.reshape(pts.shape[0], pts.shape[1] - 1)


def in_g_epsilon(polygon: CyclicPolygon, epsilon: float) -> bool:
    """Whether the product of edge lengths clears the compactness threshold."""
    _check_tol("epsilon", epsilon)
    return polygon.edge_product >= epsilon


def _zr_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Max vertex deviation minimized over cyclic relabelings of b.

    ``a`` is an (r, d) polygon (float result) or a (K, r, d) stack (K results).
    """
    devs = [np.max(np.abs(a - np.roll(b, -s, axis=0)), axis=(-2, -1))
            for s in range(b.shape[0])]
    best = np.min(devs, axis=0)
    return float(best) if a.ndim == 2 else best


def _group(items, tol):
    """First-match grouping of [pts, residual, polygon, count] items.

    Items, in order, join the first group whose representative is within tol
    modulo cyclic relabeling, or start one; counts add and a strictly lower
    residual replaces the representative.
    """
    groups = []
    reps = np.empty((len(items), *np.shape(items[0][0]))) if items else None
    for pts, gn, poly, count in items:
        near = np.flatnonzero(_zr_distance(reps[:len(groups)], pts) <= tol) if groups else []
        if len(near) == 0:
            reps[len(groups)] = pts
            groups.append([pts, gn, poly, count])
            continue
        g = groups[near[0]]
        g[3] += count
        if gn < g[1]:
            reps[near[0]] = pts
            g[0], g[1], g[2] = pts, gn, poly
    return groups


def _merge_families(records, lambda_tol):
    """One record per critical family, by ``_group``'s rule.

    A degenerate record joins the first family of its index, degeneracy and
    rotation number whose representative's lambda is within lambda_tol.
    """
    families = []
    for rec in records:
        for j, f in enumerate(families):
            if (rec.degeneracy > 0 and (f.morse_index, f.degeneracy, f.rotation_number)
                    == (rec.morse_index, rec.degeneracy, rec.rotation_number)
                    and abs(f.polygon.lambda_value - rec.polygon.lambda_value) <= lambda_tol):
                rep = min(f, rec, key=lambda g: g.residual)  # the earlier one on a tie
                families[j] = replace(rep, multiplicity=f.multiplicity + rec.multiplicity)
                break
        else:
            families.append(rec)
    return families


def canonicalize(polygon, cluster_tol: float) -> tuple:
    """Canonical key of the cyclic class: lexicographically minimal rotation.

    Coordinates are rounded to the cluster tolerance grid; ties between
    rotations that differ beyond tolerance are retried with finer rounding
    and reported if unresolved.
    """
    _check_tol("cluster_tol", cluster_tol)
    return _canonical_rotation(_points_array(polygon), float(cluster_tol))[0]


def _canonical_rotation(pts: np.ndarray, tol: float) -> tuple[tuple, int]:
    """``canonicalize``'s key and the rotation s whose vertices, from vertex s on, give it."""
    r = pts.shape[0]
    for _ in range(3):
        rots = [np.roll(pts, -s, axis=0) for s in range(r)]
        keys = sorted((tuple(int(k) for k in np.round(rot / tol).ravel()), s)
                      for s, rot in enumerate(rots))
        best_key, best_s = keys[0]
        if all(np.max(np.abs(rots[best_s] - rots[s])) <= tol
               for key, s in keys[1:] if key == best_key):
            return best_key, best_s
        tol /= 10.0
    raise AmbiguousCanonicalization("cyclic rotations tie under rounding but differ beyond it")


def _reported(record: OrbitRecord, cluster_tol: float, dim: int) -> OrbitRecord:
    """A merged record with its canonical key and flags, rolled to the canonical rotation.

    One ``_canonical_rotation`` gives the key and the vertex that
    ``canonicalize`` puts first, where the polygon then starts.  Its cyclic
    length and shortest edge do not depend on the start, and the edge product
    is taken again in the new order.  The flags, in order: continuum-suspect
    (a degenerate Hessian), multiple-cover, reversal-symmetric and, on a
    planar table, zero-winding (no rotation number).
    """
    poly = record.polygon
    pts = poly.positions()
    key, s = _canonical_rotation(pts, float(cluster_tol))
    flags = tuple(name for name, holds in (
        ("continuum-suspect", record.degeneracy > 0),
        ("multiple-cover", any(np.max(np.abs(pts - np.roll(pts, -k, axis=0))) <= cluster_tol
                               for k in range(1, poly.r) if poly.r % k == 0)),
        ("reversal-symmetric", _zr_distance(pts, pts[::-1]) <= cluster_tol),
        ("zero-winding", dim == 2 and record.rotation_number is None)) if holds)
    segments = poly.segments[s:] + poly.segments[:s]
    return replace(record, canonical_key=key, flags=flags, polygon=replace(
        poly, vertices=poly.vertices[s:] + poly.vertices[:s], segments=segments,
        edge_product=float(math.prod(seg.length for seg in segments))))


def rotation_number(polygon, centroid=None) -> int:
    """Winding number of the planar chord polygon, reduced to 1..r-1.

    Computed from the signed turning of the vertex directions about the
    centroid (the table centroid for built-in tables, else the vertex mean).
    """
    pts = _points_array(polygon)
    if pts.shape[1] != 2:
        raise InvalidParameters("rotation numbers are defined for planar tables only")
    c = np.mean(pts, axis=0) if centroid is None else as_components(centroid, 2)
    ang = np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0])
    total = 0.0
    r = pts.shape[0]
    for i in range(r):
        inc = ang[(i + 1) % r] - ang[i]
        total += (inc + np.pi) % (2.0 * np.pi) - np.pi
    k = int(round(total / (2.0 * np.pi))) % r
    if k == 0:
        raise ZeroWinding("chord polygon does not wind around the centroid")
    return k


def morse_index(metric: FinslerMetric, table: ConvexTable, polygon,
                eig_tol: float | None = None) -> tuple[int, int] | list[tuple[int, int]]:
    """(index, degeneracy) of the chart Hessian of the cyclic length; K of them for a stack.

    ``polygon`` is one polygon, or a (K, r, d) stack of them that gives a
    list of K pairs.  The chart Hessian is the symmetrised Newton Jacobian of
    the projected gradient on boundary charts anchored at the polygon, the
    same for every metric and table.  Each polygon is evaluated by
    ``_safe_grad``; their Jacobians are one ``_jacobian`` over the stack and
    their spectra one batched ``eigvalsh``, so a polygon's pair does not
    depend on the rest of its stack (a single polygon is a stack of one).
    Eigenvalues below -eig_tol count toward the index, eigenvalues within
    eig_tol of zero are reported as degeneracy.  Valid at critical points,
    where the chart curvature terms drop out.  Raises if any polygon of the
    stack has coincident vertices or no chart Hessian.
    """
    scale = table.scale
    tol = eig_tol if eig_tol is not None else _EIG_TOL_REL * scale
    _check_tol("eig_tol", tol)
    single = np.ndim(polygon) != 3
    stack = [_points_array(p, table.dim) for p in ([polygon] if single else polygon)]
    if not stack:
        return []
    if not all(_check_distinct(pts, scale) for pts in stack):
        raise CoincidentPoints("consecutive vertices coincide within tolerance")
    bases = [_safe_grad(metric, table, pts, scale) for pts in stack]
    J, ok = ((None, [False]) if any(base is None for base in bases)
             else _jacobian(metric, table, np.array(stack), _stacked(bases)))
    if not np.all(ok):
        raise InvalidParameters("the chart Hessian is undefined at this polygon")
    eigs = np.linalg.eigvalsh(0.5 * (J + J.transpose(0, 2, 1)))
    pairs = [(int(np.sum(e < -tol)), int(np.sum(np.abs(e) <= tol))) for e in eigs]
    return pairs[0] if single else pairs


# ---------------------------------------------------------------------------
# multistart refinement


def _safe_grad(metric, table, pts, scale, normals=None) -> _Evaluation | None:
    """``_grad_flat`` of a polygon with distinct consecutive vertices; None if it fails."""
    if not _check_distinct(pts, scale):
        return None
    try:
        return _grad_flat(metric, table, pts, normals=normals)
    except FinslerBilliardsError:
        return None


def _stacked(evs: list[_Evaluation]) -> _Evaluation:
    """A list of polygons' evaluations as one stack, each field with a leading polygon axis."""
    return _Evaluation(*(np.array(field) for field in zip(*evs)))


def _rows(ev: _Evaluation, k) -> _Evaluation:
    """Row (or rows) k of a stacked evaluation."""
    return _Evaluation(*(field[k] for field in ev))


def _chord_derivatives(metric, pts, frames, j):
    """Derivatives of chord j's departing and arriving covectors, each a (d, d-1) array.

    For the chord x_j -> x_k, k = j+1, returns (dep by x_j, dep by x_k, arr by
    x_j, arr by x_k), column a moving x_j along frames[j][a] or x_k along
    frames[k][a].  A straight chord's covectors are both DL of the chord
    vector e_j = x_k - x_j, so with A = _Lvv(e_j) the blocks are -A F_j^T and
    A F_k^T, DL and _Lvv taken independent of the base point.  A Larmor arc's
    are DL(x, u) = u + alpha(x) of its unit end tangents u_x, u_y, which depend
    on e_j alone (``_arc_tangent_derivatives``), so with A = _Lvy the constant
    derivative of alpha the blocks are (A - du_x) F_j^T, du_x F_k^T,
    -du_y F_j^T and (A + du_y) F_k^T.
    """
    k = (j + 1) % pts.shape[0]
    x, y = pts[j], pts[k]
    Fj, Fk = frames[j].T, frames[k].T
    if metric.flat_geodesics:
        A = metric._Lvv(x, y - x)
        by_j, by_k = -A @ Fj, A @ Fk
        return by_j, by_k, by_j, by_k
    du_x, du_y = _arc_tangent_derivatives(metric, x, y)
    A = metric._Lvy(x, y - x)
    return (A - du_x) @ Fj, du_x @ Fk, -du_y @ Fj, (A + du_y) @ Fk


def _chord_derivative_rows(metric, P, frames):
    """``_chord_derivatives`` of every chord of an (n, r, d) stack: (blocks, ok).

    blocks are the four (n, r, d, d-1) arrays (dep by x_j, dep by x_k, arr by
    x_j, arr by x_k), row [k, j] for chord j of polygon k, and ok[k] is False
    where a chord of polygon k raises.  A metric with row kernels
    (``_covector_rows``) takes the whole stack at once, straight chords through
    its ``_Lvv`` rows and Larmor arcs through ``_arc_tangent_derivative_rows``;
    any other metric goes chord by chord.
    """
    n, r, d = P.shape
    ok = np.ones(n, dtype=bool)
    if metric._covector_rows is not None:
        nxt = np.arange(1, r + 1) % r
        X, Y = P, P[:, nxt]
        # F_j^T and F_k^T as the transposed views that _chord_derivatives multiplies by
        Fj, Fk = frames.transpose(0, 1, 3, 2), frames[:, nxt].transpose(0, 1, 3, 2)
        if metric.flat_geodesics:
            A = metric._Lvv(X, Y - X)
            by_j, by_k = np.matmul(-A, Fj), np.matmul(A, Fk)
            return (by_j, by_k, by_j, by_k), ok
        du_x, du_y, arcs_ok = _arc_tangent_derivative_rows(metric, X, Y)
        du_x[~arcs_ok] = du_y[~arcs_ok] = 0.0  # a failed arc's blocks are not finite
        A = metric._Lvy(X, Y - X)  # the field's constant derivative of alpha, one (2, 2) array
        return ((np.matmul(A - du_x, Fj), np.matmul(du_x, Fk), np.matmul(-du_y, Fj),
                 np.matmul(A + du_y, Fk)), arcs_ok.all(axis=1))
    blocks = tuple(np.zeros((n, r, d, d - 1)) for _ in range(4))
    for k in range(n):
        try:
            for j in range(r):
                for block, value in zip(blocks, _chord_derivatives(metric, P[k], frames[k], j)):
                    block[k, j] = value
        except FinslerBilliardsError:
            ok[k] = False
    return blocks, ok


def _jacobian(metric, table, pts, base):
    """Jacobians of the projected gradient at each polygon of an (n, r, d) stack.

    ``base`` is the stack's evaluation, each field with a leading polygon axis
    (``_evaluate_stack``'s, or ``_stacked`` of a list of ``_grad_flat``'s).  Returns
    (J, ok): J[k] is polygon k's (r(d-1), r(d-1)) Jacobian, and ok[k] is False
    where a chord's derivative fails.  Row block i is the derivative of
    g_i = F_i c_i, with c_i = arr_{i-1} - dep_i the difference of the Legendre
    covectors at x_i, as each vertex x_j moves along its frame rows F_j.  With
    the chord blocks of ``_chord_derivatives``, taken for the whole stack by
    ``_chord_derivative_rows`` (one pass for a metric with row kernels, chord
    by chord otherwise),

        J_{i,i-1} = F_i d arr_{i-1}/d x_{i-1},   J_{i,i+1} = -F_i d dep_i/d x_{i+1},
        J_ii = F_i (d arr_{i-1}/d x_i - d dep_i/d x_i) + T_i,

    where T_i is c_i against the frame's derivative, which depends on the table
    alone.  [n, F_i^T] is the Q factor of the QR factorisation
    [n, e_kept...] = QR, for the unit normal n and the coordinate axes the
    frame keeps, and n moves by Dn = (I - n n^T) H / |grad phi| with H the
    Hessian of phi.  The first row of R^-1 is row ``drop`` of Q over n[drop],
    so with P = F_i H F_i^T / |grad phi| and rho = F_i[:, drop] / n[drop],

        T_i[a, k] = rho[a] sum_{b>a} g_b P[b, k] - P[a, k] (n.c_i + sum_{b<a} rho[b] g_b).

    Its n.c_i part is the second fundamental form weighted by the normal
    component of c_i; the rest is the frame's in-plane rotation, which
    vanishes at critical points (g = 0).  Each polygon's J is the one its
    blocks give alone, to the last bit: every product is a batched matmul or
    ``np.vecdot`` of the per-polygon operands, with the same layouts.
    """
    n, r, d = pts.shape
    m = d - 1
    F = base.frames
    (dep_i, dep_next, arr_prev, arr_i), ok = _chord_derivative_rows(metric, pts, F)
    prev = np.arange(-1, r - 1)
    arr_prev, arr_i = arr_prev[:, prev], arr_i[:, prev]  # of chord i-1, at vertex i
    g = base.grad.reshape(n, r, m)
    norms = np.sqrt(np.vecdot(base.normals, base.normals))
    nhat = base.normals / norms[..., None]
    c = base.arriving[:, prev] - base.departing
    H = _hess_rows(table, pts.reshape(n * r, d)).reshape(n, r, d, d)
    P = np.matmul(np.matmul(F, H), F.transpose(0, 1, 3, 2)) / norms[..., None, None]
    drops = base.drops[..., None]
    rho = (np.take_along_axis(F, drops[..., None], axis=3)[..., 0]
           / np.take_along_axis(nhat, drops, axis=2))
    above = np.triu(np.ones((m, m)), 1)  # above[a, b] = 1 where b > a
    weight = np.vecdot(nhat, c)[..., None] + np.matmul(above.T, (rho * g)[..., None])[..., 0]
    frame_term = rho[..., None] * np.matmul(above * g[..., None, :], P) - P * weight[..., None]
    diagonal = np.matmul(F, arr_i - dep_i) + frame_term
    to_next, to_prev = np.matmul(F, dep_next), np.matmul(F, arr_prev)
    J = np.zeros((n, r * m, r * m))
    for i in range(r):
        bi, bn, bp = (slice(v * m, (v + 1) * m) for v in (i, (i + 1) % r, (i - 1) % r))
        J[:, bi, bi] = diagonal[:, i]
        # at r = 2, the next and the previous vertex are one and both blocks add into it
        J[:, bi, bn] -= to_next[:, i]
        J[:, bi, bp] += to_prev[:, i]
    return J, ok


def _chord_covector_rows(metric, P):
    """``_chord_covectors`` of every chord of an (n, r, d) stack, for a metric with row kernels.

    Returns (departing, arriving, ok), row [k, j] for chord j -> j+1 of
    polygon k, and ok[k] False where a chord of polygon k raises: the chords'
    tangents (``_tangent_rows``) and then the metric's ``_covector_rows`` at
    each end.  A straight chord's arriving covector is DL at its end of the
    departing unit tangent, which is the departing covector: every built-in
    metric with straight chords is translation invariant.
    """
    Q = P[:, np.arange(1, P.shape[1] + 1) % P.shape[1]]
    start, end, ok = _tangent_rows(metric, P, Q)
    departing, departing_ok = metric._covector_rows(P, start)
    ok &= departing_ok
    if metric.flat_geodesics:
        return departing, departing, ok.all(axis=1)
    arriving, arriving_ok = metric._covector_rows(Q, end)
    return departing, arriving, (ok & arriving_ok).all(axis=1)


def _retract_rows(table, pts, frames, steps):
    """Polygons moved by each row of steps along their frame rows and projected.

    Row k moves the polygon pts[k] along its frames[k], an (n, r, d) stack and
    an (n, r, d-1, d) one; an (r, d) polygon with its r frames is moved by
    every row.  Vertex i of row k moves to pts[i] + steps[k, i] @ frames[i],
    its (d-1) block of the step, and is projected as ``_project`` does, to the
    last bit.  Returns (points, normals, ok): the normals are ``table._grad``
    at the points, and ok[k] is False where ``_project`` raises on a vertex.
    """
    n = steps.shape[0]
    r, d = pts.shape[-2:]
    frames = np.asarray(frames)
    s = steps.reshape(n, r, d - 1)
    moved = np.empty((n, r, d))
    for i in range(r):
        # a (1, d-1) row per candidate: the vector-matrix product of one polygon
        moved[:, i] = pts[..., i, :] + np.matmul(s[:, i:i + 1], frames[..., i, :, :])[:, 0]
    P, N, ok = _project_rows(table, moved.reshape(n * r, d))
    return P.reshape(n, r, d), N.reshape(n, r, d), ok.reshape(n, r).all(axis=1)


def _evaluate_rows(metric, table, P, N, ok, scale, bound=0.0, owner=None):
    """``_safe_grad`` of each polygon of an (n, r, d) stack whose normals N the caller has.

    Returns an ``_Evaluation`` whose fields carry the polygon as a leading
    axis (drops an (n, r) array), each polygon's |g| and ok: False where ok
    was, or where ``_safe_grad`` returns None, and there |g| is inf.  Every
    value of a polygon that passes is ``_safe_grad``'s to the last bit.  A
    metric with row kernels connects every chord of the stack at once
    (``_chord_covector_rows``) and evaluates every row.  Any other metric
    connects the chords through ``_chord_covectors``, one polygon at a time in
    row order.  There ``bound`` (a number or one per row) and ``owner`` (one
    label per row, each label's rows contiguous; by default one label for all)
    stop a label's rows early: after its first row whose |g| is below the
    row's bound, its later rows read inf.
    """
    n, r, d = P.shape
    prev = np.arange(-1, r - 1)  # the chord arriving at each vertex
    # rows that already failed may divide by zero; their results are masked
    with np.errstate(divide="ignore", invalid="ignore"):
        E = P[:, np.arange(1, r + 1) % r] - P
        chord = np.sqrt(np.vecdot(E, E))
        ok = ok & ~(chord <= _DISTINCT_REL * scale).any(axis=1)
        nhat = N / np.sqrt(np.vecdot(N, N))[..., None]
        F, drops, frames_ok = _unit_complement_rows(nhat.reshape(n * r, d))
        F = F.reshape(n, r, d - 1, d)
        ok &= frames_ok.reshape(n, r).all(axis=1)
        if metric._covector_rows is not None:
            departing, arriving, chords_ok = _chord_covector_rows(metric, P)
            ok &= chords_ok
            G = np.matmul(F, (arriving[:, prev] - departing)[..., None]).reshape(n, -1)
            gn = np.sqrt(np.vecdot(G, G))
        else:
            departing, arriving = np.zeros((n, r, d)), np.zeros((n, r, d))
            G, gn = np.zeros((n, r * (d - 1))), np.full(n, np.inf)
            bound = np.broadcast_to(bound, n)
            owner = np.zeros(n, dtype=np.intp) if owner is None else owner
            done = None  # the label whose rows read inf from here on
            for k in np.flatnonzero(ok):
                if owner[k] == done:
                    continue
                try:
                    for j in range(r):
                        departing[k, j], arriving[k, j] = _chord_covectors(
                            metric, P[k, j], P[k, (j + 1) % r])
                except FinslerBilliardsError:
                    ok[k] = False
                    continue
                G[k] = np.matmul(F[k], (arriving[k, prev] - departing[k])[..., None]).ravel()
                gn[k] = _norm(G[k])
                if gn[k] < bound[k]:
                    done = owner[k]
    gn[~ok] = np.inf
    return _Evaluation(G, N, F, drops.reshape(n, r), departing, arriving), gn, ok


def _evaluate_stack(metric, table, pts, frames, steps, scale, bound=0.0, owner=None):
    """``_retract_rows`` and then ``_evaluate_rows``: the candidates, their evaluation and |g|.

    Every value of a candidate that passes is ``_safe_grad``'s of its points
    and normals to the last bit; |g| is inf where the projection or the
    evaluation fails.
    """
    P, N, ok = _retract_rows(table, pts, frames, steps)
    ev, gn, _ = _evaluate_rows(metric, table, P, N, ok, scale, bound, owner)
    return P, ev, gn


def _refine(metric, table, seeds, grad_tol, scale, max_iter):
    """Damped Newton on the projected-gradient system of every polygon of a seed stack.

    ``seeds`` is an (S, r, d) stack.  Returns one result per seed: (points,
    |g|), or None where the seed's projection or first evaluation fails or its
    |g| ends above grad_tol.  The projected seeds are evaluated as one stack
    (``_evaluate_rows``), and then go in lockstep.  An iteration builds the
    live seeds' Jacobians as one stack (``_jacobian``), solves each with lstsq
    and clips it to 0.5 scale.  Each seed then accepts the first step length
    t = 2^-k > 1e-12, in t order, whose candidate lowers |g|.  It tries them in
    groups, and the groups of all seeds go in rounds, one ``_evaluate_stack``
    each.  Round 0 holds
    every full step t = 1, each followed by the next h lengths of a seed whose
    last accepted step halved t h times.  Each later round holds the next
    group of every seed that has not accepted, twice its previous group.  A
    seed leaves the loop when |g| <= 1e-14 scale, when its Jacobian fails,
    when no step length lowers |g|, or after max_iter iterations.  Each seed
    gets the float operations of a Newton loop on it alone that halves t one
    step at a time, so its result does not depend on the other seeds.
    """
    S, r, d = seeds.shape
    P = np.zeros((S, r, d))
    ev = _Evaluation(np.zeros((S, r * (d - 1))), np.zeros((S, r, d)),
                     np.zeros((S, r, d - 1, d)), np.zeros((S, r), dtype=np.intp),
                     np.zeros((S, r, d)), np.zeros((S, r, d)))
    gn = np.full(S, np.inf)
    halvings = np.zeros(S, dtype=np.intp)  # of each seed's last accepted step

    def accept(ks, pts, cand_ev, g):
        P[ks], gn[ks] = pts, g
        for field, value in zip(ev, cand_ev):
            field[ks] = value

    live, projected = [], []
    for k, seed in enumerate(seeds):
        try:
            projected.append([project_to_boundary(table, p).position.components for p in seed])
        except FinslerBilliardsError:
            continue  # ends: the seed's projection
        live.append(k)
    live = np.array(live, dtype=np.intp)
    if live.size:
        X = np.array(projected)
        N = _grad_rows(table, X.reshape(-1, d)).reshape(X.shape)
        first, gns, ok = _evaluate_rows(metric, table, X, N, np.ones(live.size, bool), scale)
        accept(live[ok], X[ok], _rows(first, ok), gns[ok])
        live = live[ok]  # ends: the seed's first evaluation

    for _ in range(max_iter):
        live = live[~(gn[live] <= 1e-14 * scale)]  # ends: converged
        if not live.size:
            break
        J, ok = _jacobian(metric, table, P[live], _rows(ev, live))
        live, J = live[ok], J[ok]  # ends: the Jacobian
        deltas = np.empty((live.size, r * (d - 1)))
        for j, k in enumerate(live):
            delta, *_ = np.linalg.lstsq(J[j], -ev.grad[k], rcond=_NEWTON_RCOND)
            dn = _norm(delta)
            if dn > 0.5 * scale:
                delta *= 0.5 * scale / dn
            deltas[j] = delta
        # per seed, by its index j in live: the next step length's index and group size
        nxt, size = np.zeros(live.size, dtype=np.intp), 1 + halvings[live]
        waiting = np.ones(live.size, dtype=bool)  # no step accepted yet
        due = np.arange(live.size)
        while due.size:
            count = np.minimum(size[due], len(_STEP_LENGTHS) - nxt[due])
            owner = np.repeat(due, count)  # each seed's rows contiguous, in t order
            ends = np.cumsum(count)
            ks = np.arange(ends[-1]) - np.repeat(ends - count - nxt[due], count)
            rows = live[owner]
            cand, stack, gns = _evaluate_stack(
                metric, table, P[rows], ev.frames[rows],
                _STEP_LENGTHS[ks, None] * deltas[owner], scale, gn[rows], owner)
            lower = np.flatnonzero(gns < gn[rows])
            if lower.size:
                firsts = lower[np.unique(owner[lower], return_index=True)[1]]  # in t order
                accept(rows[firsts], cand[firsts], _rows(stack, firsts), gns[firsts])
                halvings[rows[firsts]] = ks[firsts]
                waiting[owner[firsts]] = False
            nxt[due] += count
            size[due] = 2 * count
            due = due[waiting[due] & (nxt[due] < len(_STEP_LENGTHS))]
        live = live[~waiting]  # ends: no step length lowers |g|
    return [(P[k].copy(), float(gn[k])) if gn[k] <= grad_tol else None for k in range(S)]


def _random_seed(table, r, rng, scale):
    for _ in range(300):
        pts = np.array([
            random_boundary_point(table, rng).position.components for _ in range(r)
        ])
        dists = [_norm(pts[i] - pts[j]) for i in range(r) for j in range(i + 1, r)]
        if min(dists) >= 0.1 * scale:
            return pts
    return None


def _trace_seed(metric, table, r, rng, scale):
    best = None
    best_closure = np.inf
    for _ in range(5):
        try:
            y = random_boundary_point(table, rng)
            n = y.outward_normal.components
            w = rng.standard_normal(table.dim)
            if float(w @ n) > 0.0:
                w = w - 2.0 * float(w @ n) * n
            # numpy's norm, so a zero w reads NaN and fails in _unit below
            if float(w @ n) / np.linalg.norm(w) > -0.05:
                continue
            v = metric._unit(y.position.components, w)
            state = BoundaryState(y, v)
            pts = [y.position.components]
            for _ in range(r):
                state = billiard_step(metric, table, state)
                pts.append(state.point.position.components)
        except FinslerBilliardsError:
            continue
        candidate = np.array(pts[:r])
        closure = _norm(pts[r] - pts[0])
        if _check_distinct(candidate, scale) and closure < best_closure:
            best, best_closure = candidate, closure
            if closure < 0.2 * scale:
                break
    return best


def find_critical(metric: FinslerMetric, table: ConvexTable, r: int,
                  config: SearchConfig | None = None) -> list[OrbitRecord]:
    """Multistart search for r-periodic orbits; deterministic given the seed.

    Seeds alternate between random spaced r-tuples and near-closing billiard
    traces.  Converged polygons are filtered by the edge-product and minimum
    edge guards and deduplicated modulo cyclic relabeling.  One ``morse_index``
    call takes the indices of all class representatives as a stack.
    Hessian-degenerate classes are flagged ``continuum-suspect`` and reported
    once per critical family (see ``_merge_families``).  Only then does each
    reported record get its canonical key and flags (``_reported``); its
    polygon starts at the vertex its key starts at, and records are sorted by
    cyclic length.
    """
    _check_int("period r", r, 2)
    if metric.dim is not None and metric.dim != table.dim:
        raise InvalidParameters(
            f"metric dimension {metric.dim} does not match table dimension {table.dim}")
    _check_connectable(metric)
    cfg = config or SearchConfig()
    params = cfg.resolved(table, r)
    scale = table.scale
    if isinstance(metric, MagneticMetric):
        validate_field_strength(metric, table)
    rng = np.random.default_rng(params["rng_seed"])

    seeds = []
    misses = 0
    while len(seeds) < params["seeds"] and misses < 50:
        if len(seeds) % 2 == 0:
            cand = _random_seed(table, r, rng, scale)
        else:
            cand = _trace_seed(metric, table, r, rng, scale)
            if cand is None:
                cand = _random_seed(table, r, rng, scale)
        if cand is None:
            misses += 1
            continue
        seeds.append(cand)

    polygons = []
    stack = np.reshape(seeds, (len(seeds), r, table.dim))
    for res in _refine(metric, table, stack, params["grad_tol"], scale, params["max_iter"]):
        if res is None:
            continue
        pts, gn = res
        try:
            poly = make_polygon(metric, table, pts)
        except FinslerBilliardsError:
            continue
        if poly.min_edge <= _MIN_EDGE_REL * scale:
            continue
        if not in_g_epsilon(poly, params["epsilon"]):
            continue
        polygons.append((pts, gn, poly, 1))

    cluster_tol = params["cluster_tol"]
    classes = _group(polygons, cluster_tol)
    pairs = morse_index(metric, table, np.array([g[0] for g in classes])) if classes else []
    records = []
    for (_, gn, poly, count), (index, degeneracy) in zip(classes, pairs):
        rot = None
        if table.dim == 2:
            try:
                rot = rotation_number(poly, centroid=table.centroid)
            except ZeroWinding:
                pass  # flagged zero-winding by _reported
        records.append(OrbitRecord(
            polygon=poly, residual=gn, morse_index=index, degeneracy=degeneracy,
            rotation_number=rot, canonical_key=(), flags=(), multiplicity=count))
    records = [_reported(rec, cluster_tol, table.dim)
               for rec in _merge_families(records, _FAMILY_LAMBDA_REL * scale)]
    records.sort(key=lambda rec: (rec.polygon.lambda_value, rec.canonical_key))
    return records


def orbit_record_dict(record: OrbitRecord) -> dict:
    """JSON-ready description of an orbit record."""
    poly = record.polygon
    return {
        "vertices": [[float(c) for c in v.position.components] for v in poly.vertices],
        "lambda": float(poly.lambda_value),
        "edge_lengths": [float(s.length) for s in poly.segments],
        "min_edge": float(poly.min_edge),
        "edge_product": float(poly.edge_product),
        "residual": float(record.residual),
        "index": record.morse_index,
        "degeneracy": record.degeneracy,
        "rotation_number": record.rotation_number,
        "canonical_key": list(record.canonical_key),
        "flags": list(record.flags),
        "multiplicity": record.multiplicity,
    }
