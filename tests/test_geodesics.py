import numpy as np
import pytest

import finsler_billiards as fb
from finsler_billiards import (
    ChordTooLongForField,
    CoincidentPoints,
    EuclideanMetric,
    GrazingDeparture,
    InvalidParameters,
    MagneticMetric,
    MinkowskiMetric,
    NoConvergence,
    NoExit,
    connect,
    integrate_geodesic,
    intersect_forward,
)
from finsler_billiards.geodesics import _drift_integral, _march_to_boundary
from finsler_billiards.metrics import _bracketed_root
from finsler_billiards.vectors import _norm


def larmor_center(B, p, direction):
    """Independent oracle for the flight circle center."""
    R = 1.0 / abs(B)
    j = np.array([-direction[1], direction[0]])
    return p - R * j if B > 0 else p + R * j


# ---------------------------------------------------------------------------
# connect


def test_euclidean_chord():
    seg = connect(EuclideanMetric(), [0.0, 0.0], [3.0, 4.0])
    assert seg.length == pytest.approx(5.0)
    assert np.allclose(seg.start_tangent, [0.6, 0.8])
    assert np.allclose(seg.end_tangent, [0.6, 0.8])
    assert seg.kind == "chord"


def test_drift_chord_asymmetry():
    m = MinkowskiMetric([0.5, 0.0])
    assert connect(m, [0.0, 0.0], [1.0, 0.0]).length == pytest.approx(1.5)
    assert connect(m, [1.0, 0.0], [0.0, 0.0]).length == pytest.approx(0.5)


def test_coincident_points_rejected():
    with pytest.raises(CoincidentPoints):
        connect(EuclideanMetric(), [1.0, 2.0], [1.0, 2.0])


@pytest.mark.parametrize("metric", [
    EuclideanMetric(),
    MinkowskiMetric([0.3, 0.1]),
    MagneticMetric(0.2),
], ids=["euclidean", "minkowski", "magnetic"])
def test_segment_tangents_are_indicatrix_points(metric, rng):
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, size=2)
        y = rng.uniform(-0.5, 0.5, size=2)
        if np.linalg.norm(y - x) < 1e-3:
            continue
        seg = connect(metric, x, y)
        assert abs(metric.lagrangian(seg.start, seg.start_tangent) - 1.0) <= 1e-9
        assert abs(metric.lagrangian(seg.end, seg.end_tangent) - 1.0) <= 1e-9
        assert seg.length >= 0.0


def test_magnetic_arc_length_against_trapezoid_oracle():
    m = MagneticMetric(0.2)
    x = np.array([0.3, -0.2])
    y = np.array([-0.5, 0.6])
    seg = connect(m, x, y)
    # rebuild the clockwise minor arc independently and integrate the
    # Lagrangian along it with a high-resolution composite trapezoid
    R = 5.0
    chord = y - x
    dist = np.linalg.norm(chord)
    chat = chord / dist
    q = np.sqrt(R**2 - (dist / 2.0) ** 2)
    center = (x + y) / 2.0 - q * np.array([-chat[1], chat[0]])
    th_x = np.arctan2(x[1] - center[1], x[0] - center[0])
    th_y = np.arctan2(y[1] - center[1], y[0] - center[0])
    sweep = (th_x - th_y) % (2.0 * np.pi)
    s = np.linspace(0.0, R * sweep, 100_001)
    th = th_x - s / R
    px = center[0] + R * np.cos(th)
    py = center[1] + R * np.sin(th)
    tx, ty = np.sin(th), -np.cos(th)
    lag = 1.0 + 0.1 * (-py * tx + px * ty)
    oracle = np.trapezoid(lag, s)
    assert abs(seg.length - oracle) <= 1e-8


def test_drift_integral_against_gauss_legendre(rng):
    # the 32-node quadrature the closed form replaced, kept as the oracle
    nodes, weights = np.polynomial.legendre.leggauss(32)
    for _ in range(500):
        B = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.8)
        m = MagneticMetric(B)
        R = m.larmor_radius
        x = rng.uniform(-1.0, 1.0, size=2)
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        center = larmor_center(B, x, d)
        omega = -1.0 if B > 0 else 1.0
        theta0 = float(np.arctan2(x[1] - center[1], x[0] - center[0]))
        arclen = rng.uniform(0.01, np.pi * R)
        s = 0.5 * arclen * (nodes + 1.0)
        theta = theta0 + omega * s / R
        px = center[0] + R * np.cos(theta)
        py = center[1] + R * np.sin(theta)
        tx, ty = -omega * np.sin(theta), omega * np.cos(theta)
        integrand = 0.5 * B * (px * ty - py * tx)
        w = 0.5 * arclen * weights
        oracle = float(w @ integrand)
        got = _drift_integral(m, center, R, theta0, omega, arclen)
        # relative to the arc's Finsler length, arc length plus drift integral
        assert abs(got - oracle) <= 1e-14 * (arclen + oracle)


def test_magnetic_diametric_arc():
    # endpoints a Larmor diameter apart: Euclidean arc length is pi/B
    m = MagneticMetric(0.2)
    center = np.array([0.2, 0.1])
    R = m.larmor_radius
    x = center + np.array([R, 0.0])
    y = center - np.array([R, 0.0])
    seg = connect(m, x, y)
    # drift part from the exact sector formula for the circular arc
    th0, sweep = 0.0, np.pi
    th1 = th0 - sweep
    sector = R**2 * (th1 - th0) + R * (
        (center[0] * np.sin(th1) - center[1] * np.cos(th1))
        - (center[0] * np.sin(th0) - center[1] * np.cos(th0)))
    drift = 0.5 * m.B * sector
    assert seg.length == pytest.approx(np.pi * R + drift, abs=1e-10)


def test_magnetic_chord_longer_than_diameter_rejected():
    m = MagneticMetric(0.5)
    with pytest.raises(ChordTooLongForField):
        connect(m, [0.0, 0.0], [4.1, 0.0])


def test_remainder_rows_match_python_modulo_on_sweeps(rng):
    # the stacked arcs take _connect_magnetic's sweep (omega dtheta) % 2 pi with
    # np.remainder: it must be Python's float % bit for bit, on random signed
    # angle differences, on -0.0 and on the multiples of 2 pi and the few
    # floats either side of them, where the remainder jumps
    two_pi = 2.0 * np.pi
    values = [-0.0, 0.0] + list(rng.uniform(-2.0 * two_pi, 2.0 * two_pi, 20000))
    for m in range(-3, 4):
        below = above = m * two_pi
        values.append(below)
        for _ in range(4):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            values += [float(below), float(above)]
    rows = np.remainder(np.array(values), two_pi)
    for value, row in zip(values, rows):
        assert np.float64(value % two_pi).tobytes() == row.tobytes()


def test_magnetic_connect_consistent_with_integrator():
    m = MagneticMetric(0.2)
    x = np.array([0.1, 0.4])
    y = np.array([-0.6, -0.2])
    seg = connect(m, x, y)
    pos, vel = integrate_geodesic(m, x, seg.start_tangent, seg.length, seg.length / 5000)
    assert np.linalg.norm(pos[-1] - y) <= 1e-6
    end_dir = vel[-1] / np.linalg.norm(vel[-1])
    seg_dir = seg.end_tangent / np.linalg.norm(seg.end_tangent)
    assert np.linalg.norm(end_dir - seg_dir) <= 1e-6


# ---------------------------------------------------------------------------
# geodesic flow


def test_integrate_euclidean_straight_line():
    m = EuclideanMetric()
    x = np.array([0.1, -0.2, 0.3])
    v = np.array([0.6, 0.8, 0.0])
    pos, vel = integrate_geodesic(m, x, v, 1.0, 1e-3)
    assert np.linalg.norm(pos[-1] - (x + v)) <= 1e-9


def test_integrate_magnetic_circle_radius():
    m = MagneticMetric(0.2)
    x = np.zeros(2)
    v = m.unit_vector(x, [1.0, 0.0]).components
    pos, _ = integrate_geodesic(m, x, v, 6.0, 1e-3)
    center = larmor_center(0.2, x, np.array([1.0, 0.0]))
    radii = np.linalg.norm(pos - center, axis=1)
    assert np.max(np.abs(radii - 5.0)) <= 1e-6


def test_integrate_preserves_finsler_speed():
    m = MagneticMetric(0.2)
    x = np.array([0.2, -0.1])
    v = m.unit_vector(x, [0.3, 1.0]).components
    pos, vel = integrate_geodesic(m, x, v, 5.0, 1e-3)
    for i in range(0, len(pos), 500):
        assert abs(m.lagrangian(pos[i], vel[i]) - 1.0) <= 1e-6


def test_integrate_drift_chord_is_straight():
    m = MinkowskiMetric([0.4, 0.0])
    x = np.zeros(2)
    seg = connect(m, x, [1.0, 1.0])
    pos, _ = integrate_geodesic(m, x, seg.start_tangent, seg.length, seg.length / 1000)
    assert np.linalg.norm(pos[-1] - np.array([1.0, 1.0])) <= 1e-8


def test_integrate_validates_inputs():
    m = EuclideanMetric()
    with pytest.raises(fb.NotOnIndicatrix):
        integrate_geodesic(m, [0.0, 0.0], [2.0, 0.0], 1.0, 1e-2)
    with pytest.raises(InvalidParameters):
        integrate_geodesic(m, [0.0, 0.0], [1.0, 0.0], 1.0, 0.0)


# ---------------------------------------------------------------------------
# distance properties


def test_asymmetry_witness_for_irreversible_metrics(rng):
    for metric in (MinkowskiMetric([0.3, 0.0]), MagneticMetric(0.3)):
        gap = 0.0
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, size=2)
            y = rng.uniform(-0.5, 0.5, size=2)
            if np.linalg.norm(y - x) < 1e-3:
                continue
            gap = max(gap, abs(connect(metric, x, y).length - connect(metric, y, x).length))
        assert gap > 1e-6


@pytest.mark.parametrize("metric", [
    EuclideanMetric(),
    MinkowskiMetric([0.3, 0.1]),
    MagneticMetric(0.25),
], ids=["euclidean", "minkowski", "magnetic"])
def test_triangle_inequality(metric, rng):
    n = 10_000 if metric.flat_geodesics else 3000
    pts = rng.uniform(-0.6, 0.6, size=(n, 3, 2))
    for x, y, z in pts:
        if min(np.linalg.norm(y - x), np.linalg.norm(z - y), np.linalg.norm(z - x)) < 1e-6:
            continue
        fxz = connect(metric, x, z).length
        fxy = connect(metric, x, y).length
        fyz = connect(metric, y, z).length
        assert fxz <= fxy + fyz + 1e-9


# ---------------------------------------------------------------------------
# boundary intersection


def test_intersect_circle_diameter(unit_circle):
    y = unit_circle.boundary_point([-1.0, 0.0])
    hit = intersect_forward(EuclideanMetric(), unit_circle, y, [1.0, 0.0])
    assert np.allclose(hit.position.components, [1.0, 0.0], atol=1e-10)


def test_intersect_circle_inclined_chord(unit_circle):
    # leaving (1, 0) at 150 degrees from the outward normal lands at the
    # boundary angle 120 degrees (circle chord geometry)
    y = unit_circle.boundary_point([1.0, 0.0])
    ang = np.deg2rad(150.0)
    v = np.array([np.cos(ang), np.sin(ang)])
    hit = intersect_forward(EuclideanMetric(), unit_circle, y, v)
    assert np.allclose(hit.position.components, [-0.5, np.sqrt(3.0) / 2.0], atol=1e-10)


def test_intersect_ellipsoid_against_quadratic_formula(rng):
    # the chord runs along the Euclidean direction of v whatever the norm
    table = fb.ellipsoid_table([1.0, 1.3, 1.7])
    inv2 = 1.0 / np.array([1.0, 1.3, 1.7]) ** 2
    for m in [EuclideanMetric()] * 20 + [MinkowskiMetric([0.3, 0.1, 0.0])] * 20:
        y = fb.project_to_boundary(table, rng.standard_normal(3))
        n = y.outward_normal.components
        w = rng.standard_normal(3)
        if w @ n > 0:
            w = w - 2 * (w @ n) * n
        if abs(w @ n) / np.linalg.norm(w) < 0.2:
            continue
        w /= np.linalg.norm(w)
        p0 = y.position.components
        hit = intersect_forward(m, table, y, m._unit(p0, w))
        # quadratic-formula root for the quadric
        a = w @ (inv2 * w)
        b = 2.0 * p0 @ (inv2 * w)
        c = p0 @ (inv2 * p0) - 1.0
        t = (-b + np.sqrt(b * b - 4 * a * c)) / (2 * a)
        assert np.linalg.norm(hit.position.components - (p0 + t * w)) <= 1e-9
        assert abs(table.phi(hit.position.components)) <= 1e-12 * table.scale
        assert t > 1e-6 * table.scale


@pytest.mark.parametrize("m", [EuclideanMetric(), MinkowskiMetric([0.2, 0.0, 0.1])],
                         ids=["euclidean", "minkowski"])
def test_chord_exit_on_bumpy_ellipsoid(m, bumpy_ellipsoid, rng):
    table = bumpy_ellipsoid
    for _ in range(20):
        y = fb.project_to_boundary(table, rng.standard_normal(3))
        n = y.outward_normal.components
        w = rng.standard_normal(3)
        if w @ n > 0:
            w = w - 2 * (w @ n) * n
        if abs(w @ n) / np.linalg.norm(w) < 0.2:
            continue
        w /= np.linalg.norm(w)
        p0 = y.position.components
        hit = intersect_forward(m, table, y, m._unit(p0, w)).position.components
        t = float((hit - p0) @ w)
        assert t > 1e-6 * table.scale
        assert np.linalg.norm(hit - (p0 + t * w)) <= 1e-12 * table.scale
        assert abs(table.phi(hit)) <= 1e-12 * table.scale
        # the crossing is the first one: the chord stays inside before it
        assert all(table.phi(p0 + s * w) < 0.0 for s in np.linspace(0.01, 0.99, 50) * t)


def test_chord_exit_takes_few_phi_evaluations():
    # Newton from the far end of the [s_min, 8 * scale] bracket converges
    # in about a dozen phi evaluations
    calls = []

    def phi(x):
        calls.append(x)
        return float(x @ x) - 1.0

    table = fb.ConvexTable(phi, lambda x: 2.0 * x, bounding_radius=1.0, dim=2)
    hit, _ = _march_to_boundary(EuclideanMetric(), table, np.zeros(2), np.array([0.6, 0.8]))
    assert len(calls) <= 20
    assert abs(np.linalg.norm(hit) - 1.0) <= 1e-15


@pytest.mark.parametrize("f,lo,hi,root", [
    (lambda x: (x * x - 2.0, 2.0 * x), 0.0, 8.0, np.sqrt(2.0)),
    # the first Newton step from hi = 10 lands far outside the bracket
    (lambda x: (np.arctan(x - 0.3), 1.0 / (1.0 + (x - 0.3) ** 2)), -10.0, 10.0, 0.3),
])
def test_bracketed_root(f, lo, hi, root):
    assert abs(_bracketed_root(f, lo, hi, f(hi), 1e-12) - root) <= 1e-12


def test_chord_reports_no_exit_beyond_the_horizon():
    # a table whose bounding_radius understates its boundary (radius 10) by
    # more than the 8-radius horizon
    table = fb.ConvexTable(lambda x: float(x @ x) - 100.0, lambda x: 2.0 * x,
                           bounding_radius=1.0, dim=2)
    with pytest.raises(NoExit):
        _march_to_boundary(EuclideanMetric(), table, np.zeros(2), np.array([0.6, 0.8]))


def nan_beyond(radius, outer=np.inf):
    """The unit circle as a custom table whose phi and gradient are NaN for radius < |x| < outer."""
    def phi(x):
        return float("nan") if radius < _norm(x) < outer else float(x @ x) - 1.0

    def grad(x):
        return np.full(2, np.nan) if radius < _norm(x) < outer else 2.0 * x

    return fb.ConvexTable(phi, grad, bounding_radius=1.0, dim=2)


def test_chord_with_a_nan_phi_at_the_horizon_has_no_exit():
    # phi(horizon) is NaN: no bracket, where `phi < 0` let a NaN through and
    # the root finder returned a "crossing" near (-7.6, 2.6) with phi NaN
    with pytest.raises(NoExit):
        _march_to_boundary(EuclideanMetric(), nan_beyond(1.5), np.zeros(2),
                           np.array([-0.945, 0.326]))


@pytest.mark.parametrize("radius, outer", [(0.999, 7.0), (1.0 - 1e-12, 1.5)])
def test_chord_root_at_a_nan_phi_does_not_converge(radius, outer):
    # the horizon brackets a root, but the root finder ends where phi is NaN
    with pytest.raises(NoConvergence):
        _march_to_boundary(EuclideanMetric(), nan_beyond(radius, outer), np.zeros(2),
                           np.array([-0.945, 0.326]))


@pytest.mark.parametrize("metric", [EuclideanMetric(), MagneticMetric(0.5)],
                         ids=["chord", "arc"])
def test_flight_from_a_nan_phi_is_grazing(metric):
    # phi is NaN where the flight starts; `phi >= 0` let it through, and the
    # chord returned the crossing (1, 0)
    with pytest.raises(GrazingDeparture):
        _march_to_boundary(metric, nan_beyond(0.0, 0.1), np.zeros(2), np.array([1.0, 0.0]))


def test_arc_through_a_nan_phi_has_no_exit():
    # a probe lands where phi is NaN; `phi >= 0` read it as inside, and the arc
    # marched on to a "crossing" at (0.968, -0.25)
    with pytest.raises(NoExit):
        _march_to_boundary(MagneticMetric(0.5), nan_beyond(0.5, 0.7), np.zeros(2),
                           np.array([1.0, 0.0]))


def test_intersect_rejects_grazing_and_outward(unit_circle):
    y = unit_circle.boundary_point([1.0, 0.0])
    with pytest.raises(GrazingDeparture):
        intersect_forward(EuclideanMetric(), unit_circle, y, [0.0, 1.0])
    with pytest.raises(InvalidParameters):
        intersect_forward(EuclideanMetric(), unit_circle, y, [1.0, 0.1])


def counting(table, bounds=True):
    """``table`` rebuilt to count its phi calls, with or without its derivative bounds."""
    calls = []

    def phi(x):
        calls.append(x)
        return table._phi_fn(x)

    rebuilt = fb.ConvexTable(phi, table._grad_fn, table.bounding_radius, table.dim, table.spec,
                             table._hess_fn, table.derivative_bounds if bounds else None)
    return rebuilt, calls


def test_march_reports_no_exit_for_interior_larmor_circle():
    # a strong field bends the flight into a circle that never meets the
    # boundary when launched from deep inside; the flight stops after one turn
    table, calls = counting(fb.ellipsoid_table([0.9, 0.9]))
    m = MagneticMetric(10.0)  # Larmor radius 0.1
    with pytest.raises(NoExit):
        _march_to_boundary(m, table, np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    assert len(calls) <= 5


def test_arc_that_skims_out_and_back_in_exits_first():
    # the arc leaves the ellipse near (0.0075, 1.0) for about 3e-4 of arc
    # length; probing every scale/128 stepped over that and returned the far
    # side, (1.1877, 0.1428)
    table = fb.ellipsoid_table([1.2, 1.0])
    hit, _ = _march_to_boundary(MagneticMetric(0.8), table,
                                np.array([-1.1736737352115914, 0.1772891645739486]),
                                np.array([0.3418335484900072, 0.9397605147731681]))
    assert np.allclose(hit, [0.0075026, 0.99998], atol=1e-6)


def random_interior_flight(table, rng):
    while True:
        x = rng.uniform(-table.scale, table.scale, 2)
        if table.phi(x) < -1e-3:
            theta = rng.uniform(0.0, 2.0 * np.pi)
            return x, np.array([np.cos(theta), np.sin(theta)])


def arc_points(B, x, d, hit, fractions):
    """Points of the Larmor arc from x in direction d, at fractions of its sweep to hit."""
    R = 1.0 / abs(B)
    c = larmor_center(B, x, d)
    omega = -1.0 if B > 0 else 1.0
    theta0 = np.arctan2(*(x - c)[::-1])
    sweep = (omega * (np.arctan2(*(hit - c)[::-1]) - theta0)) % (2.0 * np.pi)
    theta = theta0 + omega * sweep * fractions
    return c + R * np.stack([np.cos(theta), np.sin(theta)], axis=1)


@pytest.mark.parametrize("B", [0.1, 0.8, -0.5])
def test_certified_arc_exit_is_first_and_cheap(B, rng):
    # certified steps from the table's derivative bounds: about 7 phi
    # evaluations per flight where probing every scale/128 took over 100
    table, calls = counting(fb.ellipsoid_table([1.2, 1.0]))
    m = MagneticMetric(B)
    counts = []
    for _ in range(300):
        x, d = random_interior_flight(table, rng)
        calls.clear()
        hit, tangent = _march_to_boundary(m, table, x, d)
        counts.append(len(calls))
        assert abs(table.phi(hit)) <= 1e-12 * table.scale
        assert abs(np.linalg.norm(tangent) - 1.0) <= 1e-12
        assert all(table.phi(p) < 0.0
                   for p in arc_points(B, x, d, hit, np.linspace(0.005, 0.995, 200)))
    assert np.mean(counts) <= 12
    assert max(counts) <= 24


def test_table_without_bounds_probes_to_the_same_arc_exit(rng):
    table = fb.ellipsoid_table([1.2, 1.0])
    certified, certified_calls = counting(table)
    probed, probed_calls = counting(table, bounds=False)
    m = MagneticMetric(0.8)
    for _ in range(10):
        x, d = random_interior_flight(certified, rng)
        hit, _ = _march_to_boundary(m, probed, x, d)
        assert np.linalg.norm(hit - _march_to_boundary(m, certified, x, d)[0]) <= 1e-12
    # the probes every scale/128 took the other path
    assert len(probed_calls) > 5 * len(certified_calls)
