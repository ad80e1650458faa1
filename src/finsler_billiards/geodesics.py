"""Geodesic segments, the induced distance, and boundary intersection.

Flat metrics (Euclidean, Riemannian, Minkowski) connect points by straight
chords.  The planar constant magnetic field connects them by the minor arc of
a Larmor circle of radius 1/|B|, traversed clockwise for B > 0; its length is
the Euclidean arc length plus the line integral of the drift one-form.  A
general Euler-Lagrange integrator is provided for validation; boundary-value
solving for arbitrary curved metrics is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChordTooLongForField,
    CoincidentPoints,
    GrazingDeparture,
    InvalidParameters,
    NoConvergence,
    NoExit,
    NotOnIndicatrix,
    SingularMass,
    _check_real,
)
from .metrics import FinslerMetric, MagneticMetric, _bracketed_root
from .tables import BoundaryPoint, ConvexTable, conormal, orthonormal_complement
from .vectors import _norm, as_components

__all__ = ["GeodesicSegment", "connect", "integrate_geodesic", "intersect_forward"]

_TMIN_REL = 1e-6
_HORIZON_RADII = 8.0
_COINCIDENT_REL = 1e-12  # endpoints closer than this x (1 + their largest norm) coincide
_QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])  # _rot90 as a matrix


@dataclass(frozen=True)
class GeodesicSegment:
    """Oriented geodesic between two points.

    ``start_tangent`` and ``end_tangent`` are indicatrix points (unit Finsler
    length) at the respective endpoints; ``length`` is the Finsler length, the
    value of the induced distance from start to end.
    """

    start: np.ndarray
    end: np.ndarray
    start_tangent: np.ndarray
    end_tangent: np.ndarray
    length: float
    kind: str


def _rot90(v: np.ndarray) -> np.ndarray:
    return np.array([-v[1], v[0]])


def _turn(metric: MagneticMetric) -> float:
    """Signed angular rate omega of flight circles, -1 (clockwise) for B > 0."""
    return -1.0 if metric.B > 0 else 1.0


def _circle_center(metric: MagneticMetric, p: np.ndarray, direction: np.ndarray, dist: float):
    """Point dist from p on the turning side of the unit ``direction``, and ``_turn``."""
    omega = _turn(metric)
    return p + omega * dist * _rot90(direction), omega


def _arc_tangent(theta: float, omega: float) -> np.ndarray:
    return omega * np.array([-np.sin(theta), np.cos(theta)])


def _drift_integral(metric: MagneticMetric, center: np.ndarray, radius: float,
                    theta0: float, omega: float, arclen: float) -> float:
    """Line integral of the drift one-form along the arc, in closed form.

    On x = c + R (cos theta, sin theta) the form (B/2)(x dy - y dx) is
    (B/2)(R^2 + R (c_x cos theta + c_y sin theta)) dtheta.
    """
    theta1 = theta0 + omega * arclen / radius
    return 0.5 * metric.B * (
        radius * radius * (theta1 - theta0)
        + radius * (center[0] * (np.sin(theta1) - np.sin(theta0))
                    - center[1] * (np.cos(theta1) - np.cos(theta0))))


def _connect_magnetic(metric: MagneticMetric, x: np.ndarray, y: np.ndarray) -> GeodesicSegment:
    R = metric.larmor_radius
    chord = y - x
    dist = _norm(chord)
    h = 0.5 * dist
    if h > R * (1.0 + 1e-12):
        raise ChordTooLongForField(
            f"|y - x| = {dist} exceeds the Larmor diameter {2.0 * R}")
    chat = chord / dist
    q = np.sqrt(max(R * R - h * h, 0.0))
    mid = 0.5 * (x + y)
    # center side fixed by the turning direction so the traversed arc is minor
    center, omega = _circle_center(metric, mid, chat, q)
    theta_x = float(np.arctan2(x[1] - center[1], x[0] - center[0]))
    theta_y = float(np.arctan2(y[1] - center[1], y[0] - center[0]))
    sweep = (omega * (theta_y - theta_x)) % (2.0 * np.pi)
    if sweep > np.pi * (1.0 + 1e-9):
        raise NoConvergence("magnetic arc construction produced a major arc")
    arclen = R * sweep
    length = arclen + _drift_integral(metric, center, R, theta_x, omega, arclen)
    t_start = _arc_tangent(theta_x, omega)
    t_end = _arc_tangent(theta_x + omega * sweep, omega)
    return GeodesicSegment(
        start=x, end=y,
        start_tangent=metric._unit(x, t_start),
        end_tangent=metric._unit(y, t_end),
        length=length, kind="arc",
    )


def _arc_tangent_derivatives(metric: MagneticMetric, x: np.ndarray, y: np.ndarray):
    """Derivatives by c = y - x of the unit end tangents of ``_connect_magnetic``'s arc.

    With chat = c / |c|, s = |c| / 2R the sine of the half-sweep and k = q / R
    its cosine, the tangents are u_x = k chat - omega s J chat and
    u_y = k chat + omega s J chat, J the quarter turn.  With
    P = (I - chat chat^T) / |c|, a (2, 2) array each,

        du_x/dc, du_y/dc = k P - (s / 2Rk) chat chat^T -+ omega (s J P + J chat chat^T / 2R).

    At the Larmor diameter (k = 0) the length has a kink and no derivative.
    """
    R = metric.larmor_radius
    c = y - x
    w = _norm(c)
    chat = c / w
    s = 0.5 * w / R
    k = math.sqrt(max(1.0 - s * s, 0.0))
    if k == 0.0:
        raise ChordTooLongForField(f"|y - x| = {w} is the Larmor diameter {2.0 * R}")
    omega = _turn(metric)
    outer = np.outer(chat, chat)
    P = (np.eye(2) - outer) / w
    J = _QUARTER_TURN
    even = k * P - (s / (2.0 * R * k)) * outer
    odd = omega * (s * (J @ P) + (J @ outer) / (2.0 * R))
    return even - odd, even + odd


def _arc_tangent_derivative_rows(metric: MagneticMetric, X: np.ndarray, Y: np.ndarray):
    """``_arc_tangent_derivatives`` of each arc x -> y of (..., 2) rows: (du_x, du_y, ok).

    Each row's (2, 2) blocks are the scalar call's to the last bit, and ok is
    False where it raises (k = 0).
    """
    R = metric.larmor_radius
    omega = _turn(metric)
    C = Y - X
    w = np.sqrt(np.vecdot(C, C))[..., None, None]
    s = 0.5 * w / R
    k = np.sqrt(np.maximum(1.0 - s * s, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):  # on rows with w = 0 or k = 0
        chat = C / w[..., 0]
        outer = chat[..., :, None] * chat[..., None, :]
        P = (np.eye(2) - outer) / w
        even = k * P - (s / (2.0 * R * k)) * outer
        odd = omega * (s * np.matmul(_QUARTER_TURN, P)
                       + np.matmul(_QUARTER_TURN, outer) / (2.0 * R))
    return even - odd, even + odd, ~(k[..., 0, 0] == 0.0)


def connect(metric: FinslerMetric, x, y) -> GeodesicSegment:
    """Shortest oriented geodesic from x to y and its Finsler length.

    The distance is generally asymmetric: connect(m, x, y).length and
    connect(m, y, x).length differ for irreversible metrics.
    """
    return _connect(metric, as_components(x, metric.dim), as_components(y, metric.dim))


def _connect(metric: FinslerMetric, xa: np.ndarray, ya: np.ndarray) -> GeodesicSegment:
    """``connect`` on unchecked float coordinates."""
    scale = 1.0 + max(_norm(xa), _norm(ya))
    if _norm(ya - xa) <= _COINCIDENT_REL * scale:
        raise CoincidentPoints("geodesic endpoints coincide")
    if metric.flat_geodesics:
        u = metric._unit(xa, ya - xa)
        return GeodesicSegment(
            start=xa, end=ya, start_tangent=u, end_tangent=u,
            length=metric._L(xa, ya - xa), kind="chord",
        )
    _check_connectable(metric)
    return _connect_magnetic(metric, xa, ya)


def _tangent_rows(metric: FinslerMetric, X: np.ndarray, Y: np.ndarray):
    """``_connect``'s tangents at both ends of each chord x -> y of (..., d) rows: (start, end, ok).

    ok is False where ``_connect`` raises.  A straight chord's tangent is
    y - x at both ends.  A Larmor arc's are ``_connect_magnetic``'s t_start
    and t_end, with its float operations (Python's % as ``np.remainder``) and
    each of its checks as a mask.  ``_unit`` of a tangent at its end is the
    segment's unit tangent there.
    """
    C = Y - X
    dist = np.sqrt(np.vecdot(C, C))
    reach = 1.0 + np.maximum(np.sqrt(np.vecdot(X, X)), np.sqrt(np.vecdot(Y, Y)))
    ok = ~(dist <= _COINCIDENT_REL * reach)
    if metric.flat_geodesics:
        return C, C, ok
    R = metric.larmor_radius
    h = 0.5 * dist
    omega = _turn(metric)
    q = np.sqrt(np.maximum(R * R - h * h, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):  # on coincident rows
        chat = C / dist[..., None]
        rotated = np.stack([-chat[..., 1], chat[..., 0]], -1)  # _rot90
        center = 0.5 * (X + Y) + (omega * q)[..., None] * rotated
        theta_x = np.arctan2(X[..., 1] - center[..., 1], X[..., 0] - center[..., 0])
        theta_y = np.arctan2(Y[..., 1] - center[..., 1], Y[..., 0] - center[..., 0])
        sweep = np.remainder(omega * (theta_y - theta_x), 2.0 * np.pi)
    ok &= ~(h > R * (1.0 + 1e-12)) & ~(sweep > np.pi * (1.0 + 1e-9))
    theta = np.stack([theta_x, theta_x + omega * sweep])  # _arc_tangent at both ends
    start, end = omega * np.stack([-np.sin(theta), np.cos(theta)], -1)
    return start, end, ok


def _check_connectable(metric: FinslerMetric) -> None:
    """Raise InvalidParameters for a metric whose geodesics ``connect`` cannot build."""
    if not (metric.flat_geodesics or isinstance(metric, MagneticMetric)):
        raise InvalidParameters(
            "connect supports straight-chord metrics and the planar magnetic field")


def _acceleration(metric: FinslerMetric, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Geodesic acceleration from the Euler-Lagrange equations.

    The velocity Hessian of a 1-homogeneous Lagrangian annihilates v, so the
    linear system is solved on the hyperplane where the fiber derivative
    vanishes and the acceleration is taken there (which preserves unit
    Finsler speed).
    """
    M = metric._Lvv(x, v)
    rhs = metric._Ly(x, v) - metric._Lvy(x, v) @ v
    D = metric._DL(x, v)
    W = orthonormal_complement(D)
    A = W @ M @ W.T
    try:
        cond = np.linalg.cond(A)
    except np.linalg.LinAlgError:
        raise SingularMass("restricted velocity Hessian is singular") from None
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularMass("restricted velocity Hessian is numerically singular")
    z = np.linalg.solve(A, W @ rhs)
    return W.T @ z


def integrate_geodesic(metric: FinslerMetric, x, v, t_max: float, dt: float):
    """Integrate the geodesic flow from (x, v) with classical RK4.

    ``v`` must be an indicatrix point; the parameter is Finsler arc length.
    Returns (positions, velocities) arrays of shape (n_steps + 1, d).
    """
    xa = np.array(as_components(x, metric.dim))
    va = np.array(as_components(v, metric.dim))
    t_max, dt = _check_real("t_max", t_max), _check_real("dt", dt)
    if not (math.isfinite(dt) and dt > 0 and math.isfinite(t_max / dt)):
        raise InvalidParameters(
            f"t_max and dt must be finite, dt > 0 and t_max / dt finite; got {t_max!r}, {dt!r}")
    if abs(metric._L(xa, va) - 1.0) > 1e-9:
        raise NotOnIndicatrix("initial velocity must have unit Finsler length")
    n = max(int(round(t_max / dt)), 1)

    def rhs(state):
        xs, vs = state
        return vs, _acceleration(metric, xs, vs)

    pos = np.empty((n + 1, xa.size))
    vel = np.empty((n + 1, xa.size))
    pos[0], vel[0] = xa, va
    for i in range(n):
        x0, v0 = pos[i], vel[i]
        k1x, k1v = rhs((x0, v0))
        k2x, k2v = rhs((x0 + 0.5 * dt * k1x, v0 + 0.5 * dt * k1v))
        k3x, k3v = rhs((x0 + 0.5 * dt * k2x, v0 + 0.5 * dt * k2v))
        k4x, k4v = rhs((x0 + dt * k3x, v0 + dt * k3v))
        pos[i + 1] = x0 + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        vel[i + 1] = v0 + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return pos, vel


class _FlightPath:
    """Unit-Euclidean-speed flight from a point in a given direction."""

    def __init__(self, metric: FinslerMetric, start: np.ndarray, direction: np.ndarray):
        self.metric = metric
        self.start = start
        norm = _norm(direction)
        if not norm > 0.0:
            raise InvalidParameters("flight direction must be nonzero")
        self.direction = d = direction / norm
        if isinstance(metric, MagneticMetric):
            self.radius = metric.larmor_radius
            self.center, self.omega = _circle_center(metric, start, d, self.radius)
            self.theta0 = float(np.arctan2(start[1] - self.center[1],
                                           start[0] - self.center[0]))
        elif not metric.flat_geodesics:
            raise InvalidParameters("flight requires straight chords or a magnetic field")

    def point(self, s: float) -> np.ndarray:
        if self.metric.flat_geodesics:
            return self.start + s * self.direction
        theta = self.theta0 + self.omega * s / self.radius
        return self.center + self.radius * np.array([np.cos(theta), np.sin(theta)])

    def tangent(self, s: float) -> np.ndarray:
        if self.metric.flat_geodesics:
            return self.direction
        theta = self.theta0 + self.omega * s / self.radius
        return _arc_tangent(theta, self.omega)


def _march_to_boundary(metric: FinslerMetric, table: ConvexTable,
                       start: np.ndarray, direction: np.ndarray):
    """First boundary crossing of the forward flight; returns (point, tangent).

    A chord from inside a convex table crosses the boundary exactly once, so
    [s_min, 8 * scale] brackets it.  A magnetic arc can leave the table and
    re-enter it, so ``_arc_exit`` steps along it from s_min; a Larmor circle
    that has not met the boundary within one turn never will, so an arc's
    horizon is at most 2 pi R.  ``_bracketed_root`` runs a safeguarded Newton
    on phi from a bracket's outer end, evaluated once, until its step is at
    most 1e-14 * scale.
    """
    path = _FlightPath(metric, start, direction)
    scale = table.scale
    s_min = _TMIN_REL * scale
    xtol = 1e-14 * scale
    horizon = _HORIZON_RADII * scale

    def phi(s: float) -> tuple[float, float]:
        x = path.point(s)
        return table._phi(x), float(table._grad(x) @ path.tangent(s))

    if metric.flat_geodesics:
        if not table._phi(path.point(s_min)) < 0.0:  # also catches NaN
            raise GrazingDeparture("flight starts on or outside the boundary")
        # this one evaluation of the outer end is both the bracket check and the
        # root's first iterate
        at_hi = phi(horizon)
        if not at_hi[0] >= 0.0:  # also catches NaN
            raise NoExit("no boundary crossing within the search horizon")
        s_hit = _bracketed_root(phi, s_min, horizon, at_hi, xtol)
    else:
        s_hit = _arc_exit(phi, table.derivative_bounds, metric.larmor_radius, s_min,
                          min(horizon, 2.0 * math.pi * metric.larmor_radius), scale)
    p = path.point(s_hit)
    if not abs(table._phi(p)) <= 1e-10 * scale:  # also catches NaN
        raise NoConvergence("boundary crossing did not converge to tolerance")
    return p, path.tangent(s_hit)


def _arc_exit(phi, bounds, radius: float, s: float, horizon: float, scale: float) -> float:
    """Arc length of the first crossing of an arc from s, within horizon.

    With the table's ``bounds`` (H, G), f = phi along the unit-speed arc of
    curvature 1/radius has |f''| <= M = H + G / radius while the arc is in
    the table.  So from s with f < 0 and slope f', no crossing lies in
    [s, s + h), h = (-f' + sqrt(f'^2 - 2 M f)) / M: each step lands short of
    the first crossing, and near a transversal one the gap shrinks
    quadratically, until h <= 1e-14 * scale.  Without bounds the arc is
    probed every scale/128.  A step that lands on or past the boundary, a
    probe or a certified step that rounding carried over, closes a bracket,
    and a probe where phi is NaN raises ``NoExit``.
    """
    xtol = 1e-14 * scale
    f, df = phi(s)
    if not f < 0.0:  # also catches NaN
        raise GrazingDeparture("flight starts on or outside the boundary")
    M = None if bounds is None else bounds[0] + bounds[1] / radius
    while True:
        if M is None:
            step = scale / 128.0
        else:
            # the positive root of f + df h + M h^2 / 2, cancellation-free; f < 0
            root = math.sqrt(df * df - 2.0 * M * f)
            step = -2.0 * f / (df + root) if df > 0.0 else (root - df) / M
            if step <= xtol:
                return s + step
        s_next = s + step
        if s_next > horizon:
            raise NoExit("no boundary crossing within the search horizon")
        at_next = phi(s_next)
        if at_next[0] >= 0.0:
            return _bracketed_root(phi, s, s_next, at_next, xtol)
        if not at_next[0] < 0.0:
            raise NoExit("phi is NaN along the arc")
        s, (f, df) = s_next, at_next


def intersect_forward(metric: FinslerMetric, table: ConvexTable,
                      y: BoundaryPoint, v) -> BoundaryPoint:
    """First boundary point hit by the geodesic leaving y with direction v.

    ``v`` must point strictly inward: its pairing with the conormal must be
    below -1e-8.
    """
    va = as_components(v, table.dim)
    p = conormal(table, y, metric)
    pairing = float(p.components @ va)
    if abs(pairing) < 1e-8:
        raise GrazingDeparture("departure direction is tangent to the boundary")
    if pairing > 0:
        raise InvalidParameters("departure direction points outward")
    hit, _ = _march_to_boundary(metric, table, y.position.components, va)
    return table.boundary_point(hit)
