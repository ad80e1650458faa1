"""The billiard reflection law and the induced boundary map.

At a boundary point the incoming indicatrix direction u (positive conormal
pairing) reflects to the outgoing direction v determined by the cotangent
relation: the difference of Legendre transforms of u and v is a positive
multiple t of the unit conormal p.  The drop t solves dual_norm(D_u - t p) = 1;
the metric gives it in closed form where it can (the mirror law for the
Randers family, the G-mirror for a constant Riemannian metric) and by root
finding on the convex dual norm along the line otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GrazingRay, InvalidParameters, NoConvergence, _check_int
from .geodesics import _march_to_boundary
from .metrics import FinslerMetric
from .tables import BoundaryPoint, ConvexTable, conormal
from .vectors import _norm, as_components

__all__ = ["BoundaryState", "reflect", "billiard_step", "trace"]

GRAZING_TOL = 1e-8


@dataclass(frozen=True)
class BoundaryState:
    """A boundary point together with an indicatrix direction at it."""

    point: BoundaryPoint
    direction: np.ndarray


def reflect(metric: FinslerMetric, table: ConvexTable, y: BoundaryPoint, u) -> np.ndarray:
    """Outgoing indicatrix direction for the incoming indicatrix direction u.

    Takes the unique positive root t of dual_norm(D_u - t p) = 1 from the
    metric (closed form for the built-ins, root finding for user Lagrangians)
    and returns the indicatrix point supporting the unit covector D_u - t p,
    after checking it against the cotangent relation.  Raises GrazingRay when
    the conormal pairing of u is below 1e-8.
    """
    ua = as_components(u, table.dim)
    x = y.position.components
    p = conormal(table, y, metric).components
    if abs(metric._L(x, ua) - 1.0) > 1e-9:
        raise InvalidParameters("incoming direction must have unit Finsler length")
    pu = float(p @ ua)
    if pu <= GRAZING_TOL:
        raise GrazingRay(f"conormal pairing {pu} is below the grazing threshold")
    Du = metric._DL(x, ua)
    t = metric._reflection_drop(x, Du, p)
    q = Du - t * p
    dual_norm, v = metric._dual_max(x, q)
    Dv = metric._DL(x, v)
    acc = metric.dual_accuracy
    if abs(dual_norm - 1.0) > max(1e-10, 10.0 * acc):
        raise NoConvergence("reflected covector is off the unit dual sphere")
    res_tol = max(1e-9, 100.0 * acc) * _norm(Du)
    if np.max(np.abs(Du - Dv - t * p)) > res_tol:
        raise NoConvergence("reflection residual exceeded tolerance")
    if abs(metric._L(x, v) - 1.0) > 1e-9:
        raise NoConvergence("reflected direction is off the indicatrix")
    if float(p @ v) >= 0.0:
        raise NoConvergence("reflected direction does not point inward")
    return v


def billiard_step(metric: FinslerMetric, table: ConvexTable, state: BoundaryState) -> BoundaryState:
    """Follow the geodesic to the next boundary hit and reflect there.

    The state direction must point strictly inward; the returned state holds
    the next impact point with the post-reflection inward direction.
    """
    y = state.point
    v = as_components(state.direction, table.dim)
    hit, tangent = _march_to_boundary(metric, table, y.position.components, v)
    z = table.boundary_point(hit)
    arrival = metric._unit(z.position.components, tangent)
    outgoing = reflect(metric, table, z, arrival)
    return BoundaryState(z, outgoing)


def trace(metric: FinslerMetric, table: ConvexTable, state: BoundaryState,
          n_steps: int) -> list[BoundaryState]:
    """n_steps consecutive billiard steps; deterministic.

    Errors from a failing step are re-raised with the step index attached.
    """
    _check_int("n_steps", n_steps, 1)
    out = []
    current = state
    for i in range(n_steps):
        try:
            current = billiard_step(metric, table, current)
        except Exception as exc:
            raise type(exc)(f"step {i}: {exc}") from exc
        out.append(current)
    return out
