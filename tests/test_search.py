import json
import warnings

import numpy as np
import pytest

import finsler_billiards as fb
from finsler_billiards import (
    BoundaryState,
    EuclideanMetric,
    InvalidParameters,
    LagrangianMetric,
    MagneticMetric,
    MinkowskiMetric,
    RiemannianMetric,
    SearchConfig,
    ZeroWinding,
    canonicalize,
    cli,
    find_critical,
    grad_length,
    in_g_epsilon,
    length_function,
    make_polygon,
    morse_index,
    orbit_record_dict,
    rotation_number,
    trace,
)
from finsler_billiards.tables import _largest_axis, _project, orthonormal_complement
from finsler_billiards.vectors import _norm


def circle_polygon(angles):
    return np.array([[np.cos(a), np.sin(a)] for a in np.deg2rad(angles)])


def fd_gradient(metric, table, pts, h=None):
    """Boundary-projected central differences of the cyclic length."""
    h = h if h is not None else 1e-6 * table.scale
    r, d = pts.shape
    out = np.zeros((r, d - 1))
    for i in range(r):
        frame = orthonormal_complement(table.grad(pts[i]))
        for k in range(d - 1):
            plus = pts.copy()
            plus[i] = fb.project_to_boundary(table, pts[i] + h * frame[k]).position.components
            minus = pts.copy()
            minus[i] = fb.project_to_boundary(table, pts[i] - h * frame[k]).position.components
            out[i, k] = (length_function(metric, plus) - length_function(metric, minus)) / (2 * h)
    return out


def random_polygon(table, r, rng, spacing=0.25):
    while True:
        pts = np.array([
            fb.project_to_boundary(table, rng.standard_normal(table.dim)).position.components
            for _ in range(r)
        ])
        d = [np.linalg.norm(pts[i] - pts[(i + 1) % r]) for i in range(r)]
        if min(d) > spacing * table.scale:
            return pts


# ---------------------------------------------------------------------------
# cyclic length and gradient


def test_equilateral_triangle_length(unit_circle):
    poly = make_polygon(EuclideanMetric(), unit_circle, circle_polygon([90, 210, 330]))
    assert poly.lambda_value == pytest.approx(3.0 * np.sqrt(3.0), abs=1e-12)


def test_square_length(unit_circle):
    poly = make_polygon(EuclideanMetric(), unit_circle, circle_polygon([0, 90, 180, 270]))
    assert poly.lambda_value == pytest.approx(4.0 * np.sqrt(2.0), abs=1e-12)


def test_cyclic_invariance_is_exact(bumpy_ellipsoid, rng):
    m = MinkowskiMetric([0.2, 0.0, 0.1])
    pts = random_polygon(bumpy_ellipsoid, 5, rng)
    base = length_function(m, pts)
    for s in range(1, 5):
        assert length_function(m, np.roll(pts, -s, axis=0)) == base


def test_drift_orientation_difference_formula(unit_circle, rng):
    # reversing the traversal flips every edge; for a constant drift the
    # difference equals twice the drift paired with the total edge vector,
    # which vanishes on a closed cycle
    alpha = np.array([0.5, 0.0])
    m = MinkowskiMetric(alpha)
    pts = random_polygon(unit_circle, 3, rng)
    forward = length_function(m, pts)
    backward = length_function(m, pts[::-1])
    edges = np.array([pts[(i + 1) % 3] - pts[i] for i in range(3)])
    predicted_gap = 2.0 * float(alpha @ edges.sum(axis=0))
    assert forward - backward == pytest.approx(predicted_gap, abs=1e-12)
    assert predicted_gap == 0.0


def test_gradient_vanishes_at_equilateral_triangle(unit_circle):
    g = grad_length(EuclideanMetric(), unit_circle, circle_polygon([90, 210, 330]))
    assert np.max(np.abs(g)) <= 1e-10


def test_gradient_vanishes_at_major_axis_bounce():
    table = fb.ellipsoid_table([2.0, 1.0])
    pts = np.array([[2.0, 0.0], [-2.0, 0.0]])
    g = grad_length(EuclideanMetric(), table, pts)
    assert np.max(np.abs(g)) <= 1e-9


@pytest.mark.parametrize("metric,dim", [
    (EuclideanMetric(), 3),
    (MinkowskiMetric([0.2, 0.0, 0.1]), 3),
    (MagneticMetric(0.15), 2),
], ids=["euclidean", "minkowski", "magnetic"])
def test_gradient_matches_finite_differences(metric, dim, rng):
    table = fb.ellipsoid_table([1.0, 1.3, 1.7][:dim], eps=0.02 if dim == 3 else 0.0)
    for _ in range(10):
        pts = random_polygon(table, 3, rng)
        g = grad_length(metric, table, pts)
        fd = fd_gradient(metric, table, pts)
        assert np.linalg.norm(fd - g) <= 1e-6 * max(np.linalg.norm(g), 1e-9)


# ---------------------------------------------------------------------------
# compactness guard and canonical classes


def test_edge_product_threshold(unit_circle):
    poly = make_polygon(EuclideanMetric(), unit_circle, circle_polygon([90, 210, 330]))
    assert poly.edge_product == pytest.approx(3.0 * np.sqrt(3.0), abs=1e-12)
    assert in_g_epsilon(poly, 1e-6)
    assert not in_g_epsilon(poly, 6.0)
    with pytest.raises(InvalidParameters):
        in_g_epsilon(poly, 0.0)


def test_edge_product_arithmetic(unit_circle):
    # one short edge: product 1e-4 passes eps = 1e-6, fails eps = 1e-3
    short = 1e-4
    angles = [0.0, short, np.pi]
    pts = np.array([[np.cos(a), np.sin(a)] for a in angles])
    poly = make_polygon(EuclideanMetric(), unit_circle, pts)
    assert in_g_epsilon(poly, 1e-6) == (poly.edge_product >= 1e-6)
    assert poly.edge_product < 1e-3


def test_canonicalize_rotation_invariance(unit_circle):
    m = EuclideanMetric()
    pts = circle_polygon([10, 130, 240])
    k1 = canonicalize(make_polygon(m, unit_circle, pts), 1e-5)
    k2 = canonicalize(make_polygon(m, unit_circle, np.roll(pts, -1, axis=0)), 1e-5)
    assert k1 == k2


def test_canonicalize_orientation_matters(unit_circle):
    m = EuclideanMetric()
    pts = circle_polygon([10, 130, 240])
    k_fwd = canonicalize(make_polygon(m, unit_circle, pts), 1e-5)
    k_rev = canonicalize(make_polygon(m, unit_circle, pts[::-1]), 1e-5)
    assert k_fwd != k_rev


def test_rotation_numbers():
    assert rotation_number(circle_polygon([0, 120, 240]), centroid=[0, 0]) == 1
    assert rotation_number(circle_polygon([0, 240, 480]), centroid=[0, 0]) == 2
    star = circle_polygon([0, 144, 288, 432, 576])  # pentagon star, step 2
    assert rotation_number(star, centroid=[0, 0]) == 2
    with pytest.raises(ZeroWinding):
        rotation_number(circle_polygon([0, 1, 2]), centroid=[0, 0])


def test_morse_index_disk_triangle_is_degenerate(unit_circle):
    # two descending directions and the rotational continuum direction; a
    # vertex on a diagonal, where the two normal components tie, must not
    # change the count
    for angles in ([90, 210, 330], [105, 225, 345]):
        assert morse_index(EuclideanMetric(), unit_circle,
                           circle_polygon(angles)) == (2, 1)


@pytest.mark.parametrize("semi_axes, axis, expected", [
    ([2.0, 1.0], 1, (1, 0)),        # minor axis: the shortest diameter
    ([2.0, 1.0], 0, (2, 0)),        # major axis: the longest diameter
    ([1.0, 1.3, 1.7], 0, (2, 0)),
    ([1.0, 1.3, 1.7], 1, (3, 0)),
    ([1.0, 1.3, 1.7], 2, (4, 0)),
], ids=["ellipse-minor", "ellipse-major", "ellipsoid-0", "ellipsoid-1", "ellipsoid-2"])
def test_morse_index_two_bounce_orbit(semi_axes, axis, expected):
    table = fb.ellipsoid_table(semi_axes)
    pts = np.zeros((2, len(semi_axes)))
    pts[0, axis], pts[1, axis] = semi_axes[axis], -semi_axes[axis]
    assert morse_index(EuclideanMetric(), table, pts) == expected


def evaluation_stack(metric, table, polygons):
    """_grad_flat of each polygon, as one stacked evaluation."""
    return fb.search._stacked([fb.search._grad_flat(metric, table, p) for p in polygons])


def jacobian(metric, table, pts, base):
    """The one Jacobian assembly on a stack of one polygon; None where it fails."""
    J, ok = fb.search._jacobian(metric, table, pts[None], fb.search._stacked([base]))
    return J[0] if ok[0] else None


def test_newton_jacobian_continuous_at_frame_tie(unit_circle):
    # the vertex at 225 degrees has tied normal components; the rotated
    # triangle has none, and the two Jacobians must share a spectrum.  Both
    # closed-form Jacobians match central differences with the same frames
    def spectrum(angles):
        metric, pts = EuclideanMetric(), circle_polygon(angles)
        base = fb.search._grad_flat(metric, unit_circle, pts)
        J = jacobian(metric, unit_circle, pts, base)
        J_ref, _ = reference_jacobian(metric, unit_circle, pts, 1e-6 * unit_circle.scale)
        assert np.max(np.abs(J - J_ref)) <= 1e-8 * np.max(np.abs(J_ref))
        return np.sort(np.linalg.eigvals(J).real)

    tie, plain = spectrum([105, 225, 345]), spectrum([100, 220, 340])
    assert plain == pytest.approx([-1.5 * np.sqrt(0.75)] * 2 + [0.0], abs=1e-6)
    assert tie == pytest.approx(plain, abs=1e-6)


def reference_jacobian(metric, table, pts, h):
    """The Jacobian loop that recomputes each whole probe polygon's gradient."""
    normals = [table._grad(p) for p in pts]
    drops = [_largest_axis(n / np.linalg.norm(n)) for n in normals]
    frames = [orthonormal_complement(n, drop) for n, drop in zip(normals, drops)]
    r, d = pts.shape
    J = np.empty((r * (d - 1), r * (d - 1)))
    for i in range(r):
        for k in range(d - 1):
            plus, minus = pts.copy(), pts.copy()
            plus[i] = fb.project_to_boundary(table, pts[i] + h * frames[i][k]).position.components
            minus[i] = fb.project_to_boundary(table, pts[i] - h * frames[i][k]).position.components
            gp = fb.search._grad_flat(metric, table, plus, drops).grad
            gm = fb.search._grad_flat(metric, table, minus, drops).grad
            J[:, i * (d - 1) + k] = (gp - gm) / (2.0 * h)
    return J, frames


def cubic_norm(x, v):
    # a non-ellipsoidal irreversible Minkowski norm, evaluated by the generic path
    n = np.linalg.norm(v)
    return float(n + 0.1 * v[0] ** 3 / n**2)


JACOBIAN_METRICS = {
    "euclidean": (lambda: EuclideanMetric(), [1.0, 1.3, 1.7]),
    "minkowski": (lambda: MinkowskiMetric([0.3, 0.1, -0.2]), [1.0, 1.3, 1.7]),
    "riemannian": (lambda: RiemannianMetric([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]]),
                   [1.0, 1.3, 1.7]),
    "magnetic": (lambda: MagneticMetric(0.3), [1.2, 1.0]),
    "lagrangian": (lambda: LagrangianMetric(cubic_norm, dim=3, flat_geodesics=True),
                   [1.0, 1.3, 1.7]),
}


def without_hessian(table):
    """The same boundary as a custom table, which supplies no Hessian."""
    return fb.ConvexTable(table._phi_fn, table._grad_fn, table.bounding_radius, table.dim)


@pytest.mark.parametrize("r", [2, 3, 5])
@pytest.mark.parametrize("kind", sorted(JACOBIAN_METRICS))
def test_jacobian_probes_match_whole_polygon_gradients(kind, r, rng):
    # the one Jacobian agrees with central differences of whole probe-polygon
    # gradients, on a table with a closed-form Hessian and on one without.
    # A user Lagrangian's _Lvv and the reference both difference a
    # finite-difference DL, so they agree only to the reference's noise
    # (about 1e-4 relative: it changes by that much from h to 2h)
    make_metric, semi_axes = JACOBIAN_METRICS[kind]
    metric = make_metric()
    tol = 1e-3 if kind == "lagrangian" else 1e-8
    ellipsoid = fb.ellipsoid_table(semi_axes, eps=0.02)
    for table in (ellipsoid, without_hessian(ellipsoid)):
        for _ in range(3):
            pts = random_polygon(table, r, rng)
            base = fb.search._grad_flat(metric, table, pts)
            J = jacobian(metric, table, pts, base)
            J_ref, frames_ref = reference_jacobian(metric, table, pts, 1e-6 * table.scale)
            assert all(np.array_equal(a, b) for a, b in zip(base.frames, frames_ref))
            assert np.max(np.abs(J - J_ref)) <= tol * np.max(np.abs(J_ref))


CLOSED_FORM_METRICS = {
    "euclidean": lambda d: EuclideanMetric(),
    "minkowski": lambda d: MinkowskiMetric([0.3, 0.1, -0.2, 0.15][:d]),
    "riemannian": lambda d: RiemannianMetric(
        np.array([[2.0, 0.3, 0.0, 0.1], [0.3, 1.0, 0.1, 0.0],
                  [0.0, 0.1, 0.5, 0.05], [0.1, 0.0, 0.05, 1.2]])[:d, :d]),
}


AXES = {"d2": [1.2, 1.0], "d3": [1.0, 1.3, 1.7], "d4": [1.0, 1.3, 1.7, 0.9]}
# Larmor arcs exist in the plane only; each field sign turns the other way
ARC_FIELDS = [0.3, -0.3, 0.8]
CLOSED_FORM_CASES = [
    pytest.param(CLOSED_FORM_METRICS[kind], axes, id=f"{kind}-{d}")
    for kind in sorted(CLOSED_FORM_METRICS) for d, axes in AXES.items()
] + [
    pytest.param(lambda d, B=B: MagneticMetric(B), AXES["d2"], id=f"magnetic{B:+}-d2")
    for B in ARC_FIELDS
]


@pytest.mark.parametrize("r", [2, 3, 5])
@pytest.mark.parametrize("make_metric, semi_axes", CLOSED_FORM_CASES)
def test_closed_form_jacobian_matches_central_differences(make_metric, semi_axes, r, rng):
    # the chart's O(h^2) terms cancel in the central difference, so the two
    # agree to its rounding noise, about 2e-10 relative
    metric = make_metric(len(semi_axes))
    table = fb.ellipsoid_table(semi_axes, eps=0.02)
    h = 1e-6 * table.scale
    for _ in range(3):
        pts = random_polygon(table, r, rng)
        base = fb.search._grad_flat(metric, table, pts)
        J = jacobian(metric, table, pts, base)
        J_ref, _ = reference_jacobian(metric, table, pts, h)
        assert np.max(np.abs(J - J_ref)) <= 1e-8 * np.max(np.abs(J_ref))


@pytest.mark.parametrize("case, closed_form", [
    ("euclidean", True), ("minkowski", True), ("riemannian", True), ("magnetic", True),
    ("custom-table", False), ("flat-lagrangian", False),
])
def test_jacobian_path_follows_metric_and_table(case, closed_form, rng, monkeypatch):
    # one assembly for every metric and table, and no chord connected: straight
    # chords and Larmor arcs both differentiate the base evaluation's chords in
    # closed form.  Central differences run only where no closed form exists: a
    # custom table's Hessian and a user Lagrangian's _Lvv
    table = fb.ellipsoid_table([1.2, 1.0], eps=0.02)
    if case in CLOSED_FORM_METRICS:
        metric = CLOSED_FORM_METRICS[case](2)
    elif case == "custom-table":
        metric, table = EuclideanMetric(), without_hessian(table)
    elif case == "flat-lagrangian":
        metric = LagrangianMetric(lambda x, v: float(np.linalg.norm(v)), dim=2,
                                  flat_geodesics=True)
    else:
        metric = MagneticMetric(0.3)
    pts = random_polygon(table, 3, rng)
    base = fb.search._grad_flat(metric, table, pts)
    calls = dict.fromkeys(["connect", "_central_diff"], 0)
    for module, name in ((fb.search, "connect"), (fb.metrics, "_central_diff"),
                         (fb.tables, "_central_diff")):
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    assert jacobian(metric, table, pts, base) is not None
    assert calls["connect"] == 0
    assert (calls["_central_diff"] == 0) == closed_form


def test_larmor_diameter_has_no_chart_hessian(unit_circle):
    # a 2-gon across the unit circle at B = 1 is a Larmor diameter: the arc's
    # length has a kink there (arcsin at 1), so no Hessian and no Jacobian.  In
    # a stack, only its row fails
    metric, pts = MagneticMetric(1.0), np.array([[1.0, 0.0], [-1.0, 0.0]])
    base = fb.search._grad_flat(metric, unit_circle, pts)
    other = circle_polygon([10, 150])
    stack = np.array([other, pts, other])
    stacked = evaluation_stack(metric, unit_circle, stack)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert jacobian(metric, unit_circle, pts, base) is None
        J, ok = fb.search._jacobian(metric, unit_circle, stack, stacked)
        for polygon in (pts, stack):
            with pytest.raises(InvalidParameters, match="chart Hessian is undefined"):
                morse_index(metric, unit_circle, polygon)
    assert ok.tolist() == [True, False, True]
    ref = polygon_jacobian(metric, unit_circle, other, fb.search._rows(stacked, 0))
    assert J[0].tobytes() == J[2].tobytes() == ref.tobytes()


def polygon_jacobian(metric, table, pts, base):
    """The per-polygon assembly of the Jacobian, block by block; None if a chord fails."""
    r, d = pts.shape
    m = d - 1
    frames = base.frames
    try:
        chords = [fb.search._chord_derivatives(metric, pts, frames, j) for j in range(r)]
    except fb.FinslerBilliardsError:
        return None
    rows = base.grad.reshape(r, m)
    above = np.triu(np.ones((m, m)), 1)
    J = np.zeros((r * m, r * m))
    for i in range(r):
        F, g, n = frames[i], rows[i], base.normals[i]
        nn = _norm(n)
        nhat = n / nn
        c = base.arriving[i - 1] - base.departing[i]
        P = F @ table._hess(pts[i]) @ F.T / nn
        drop = base.drops[i]
        rho = F[:, drop] / nhat[drop]
        frame_term = (rho[:, None] * ((above * g) @ P)
                      - P * (float(nhat @ c) + above.T @ (rho * g))[:, None])
        dep_i, dep_next, _, _ = chords[i]
        _, _, arr_prev, arr_i = chords[i - 1]
        prev, nxt = (i - 1) % r, (i + 1) % r
        bi = slice(i * m, (i + 1) * m)
        J[bi, bi] = F @ (arr_i - dep_i) + frame_term
        J[bi, nxt * m:(nxt + 1) * m] -= F @ dep_next
        J[bi, prev * m:(prev + 1) * m] += F @ arr_prev
    return J


def rounds_by_iteration(events):
    """Split _refine's logged calls into iterations: [(Jacobian rows, [round, ...]), ...].

    A round is ("stack", owner, bound, |g|), one per _evaluate_stack.
    """
    iterations = []
    for event in events:
        if event[0] == "_jacobian":
            iterations.append((event[1], []))
        else:
            iterations[-1][1].append(event)
    return iterations


def rejected(round_):
    """The labels of a stack round none of whose rows lowers its seed's |g|."""
    _, owner, bound, gns = round_
    return sorted(set(owner.tolist()) - set(owner[gns < bound].tolist()))


def test_newton_step_evaluates_each_polygon_once(rng, monkeypatch):
    # the Newton loop's accepted evaluation is the Jacobian's base.  The
    # projected seeds are evaluated as one stack (_grad_rows for their
    # normals, then _evaluate_rows).  Each iteration builds one Jacobian
    # stack over the live seeds and then backtracks in rounds: one
    # _evaluate_stack per round, a round of one candidate too.  Round 0 holds
    # every live seed's rows, and each later round every seed the round
    # before it rejected, each seed's rows contiguous.  Stacks project
    # through _project_rows and connect no straight chord, so the loop calls
    # neither _connect nor _grad_flat.  The Jacobian of straight chords
    # connects no chord and projects no point, with or without a closed-form
    # Hessian of the table.  The public entries only project the seeds
    metric, table = EuclideanMetric(), fb.ellipsoid_table([1.0, 1.3, 1.7], eps=0.02)
    calls = dict.fromkeys(["connect", "_connect", "project_to_boundary", "_project_rows",
                           "_grad_flat", "_jacobian", "_evaluate_stack", "_evaluate_rows",
                           "_grad_rows"], 0)
    rows = dict.fromkeys(["_project_rows", "_evaluate_stack", "_grad_rows"], 0)
    events = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[name] += 1  # after the call: a retraction that raises is no candidate
            if name in rows:
                rows[name] += args[1 if name != "_evaluate_stack" else 4].shape[0]
            if name == "_jacobian":
                events.append((name, args[2].shape[0]))
            if name == "_evaluate_stack":
                events.append(("stack", args[7], args[6], out[2]))
            return out
        return wrapper

    for name in calls:
        monkeypatch.setattr(fb.search, name, counted(name, getattr(fb.search, name)))
    seeds = np.array([random_polygon(table, 3, rng) for _ in range(4)])
    for table in (table, without_hessian(table)):
        calls.update(dict.fromkeys(calls, 0))
        base = fb.search._grad_flat(metric, table, seeds[0])
        jacobian(metric, table, seeds[0], base)
        connects = calls["connect"] + calls["_connect"]
        projections = calls["project_to_boundary"] + calls["_project_rows"]
        assert (connects, projections, calls["_grad_flat"]) == (3, 0, 1)

        calls.update(dict.fromkeys(calls, 0))
        rows.update(dict.fromkeys(rows, 0))
        events.clear()
        results = fb.search._refine(metric, table, seeds, 1e-9, table.scale, 60)
        # seed 1 runs out of max_iter, so the loop runs all 60 iterations,
        # one Jacobian stack each
        assert [res is not None for res in results] == [True, False, True, True]
        assert calls["_jacobian"] == 60
        iterations = rounds_by_iteration(events)
        assert iterations[0][0] == 4  # all 4 seeds in the first
        backtracked = 0
        for live, rounds in iterations:
            assert set(rounds[0][1].tolist()) == set(range(live))
            for before, after in zip(rounds, rounds[1:]):
                # the seeds the round before rejected, and only they, have their next group here
                due = rejected(before)
                assert due and sorted(set(after[1].tolist())) == due
                backtracked += 1
            assert rejected(rounds[-1]) == []  # no seed left without a step
            for _, owner, _, _ in rounds:
                assert (np.diff(owner) >= 0).all()  # each seed's rows contiguous
        assert backtracked > 0
        assert min(live for live, _ in iterations) == 1  # a lone seed's rounds are stacks too
        # the seeds: one projection per vertex, one stacked evaluation, no _grad_flat
        assert calls["project_to_boundary"] == 3 * 4
        assert (calls["_grad_rows"], rows["_grad_rows"]) == (1, 3 * 4)
        assert calls["_evaluate_rows"] == 1 + calls["_evaluate_stack"]
        assert calls["_grad_flat"] == calls["connect"] + calls["_connect"] == 0
        assert calls["_project_rows"] == calls["_evaluate_stack"]
        assert rows["_project_rows"] == 3 * rows["_evaluate_stack"]


def retract(table, pts, frames, delta):
    """The scalar retraction that _retract_rows stacks: each vertex moved along
    its frame rows and projected; (points, their table._grad)."""
    r, d = pts.shape
    s = delta.reshape(r, d - 1)
    out = np.empty_like(pts)
    normals = []
    for i in range(r):
        out[i], g = _project(table, pts[i] + s[i] @ frames[i])
        normals.append(g)
    return out, normals


def test_retracted_normals_give_the_evaluation_bit_for_bit(rng):
    # _grad_flat on the normals retract hands back equals _grad_flat that
    # takes table._grad itself, and its frames are orthonormal_complement's.
    # The stacked evaluation of the same step gives the same evaluation
    metric = MinkowskiMetric([0.2, -0.1, 0.05])
    table = fb.ellipsoid_table([1.0, 1.3, 1.7], eps=0.02)
    for _ in range(20):
        pts = random_polygon(table, 3, rng)
        ev = fb.search._grad_flat(metric, table, pts)
        delta = 0.05 * rng.standard_normal(6)
        cand, normals = retract(table, pts, ev.frames, delta)
        given = fb.search._grad_flat(metric, table, cand, normals=normals)
        own = fb.search._grad_flat(metric, table, cand)
        P, stack, gns = fb.search._evaluate_stack(metric, table, pts, ev.frames,
                                                  np.array([delta, 0.5 * delta]), table.scale)
        assert P[0].tobytes() == cand.tobytes()
        assert np.float64(gns[0]).tobytes() == np.float64(_norm(own.grad)).tobytes()
        for field in ("grad", "departing", "arriving"):
            assert getattr(given, field).tobytes() == getattr(own, field).tobytes()
            assert getattr(stack, field)[0].tobytes() == getattr(own, field).tobytes()
        assert given.drops == own.drops == stack.drops[0].tolist()
        for frame, n, p, row, n_row in zip(given.frames, normals, cand, stack.frames[0],
                                           stack.normals[0]):
            assert n.tobytes() == table._grad(p).tobytes() == n_row.tobytes()
            assert frame.tobytes() == orthonormal_complement(n).tobytes() == row.tobytes()


def polygon_stack(table, rng, count):
    """Random polygons, with a coincident and a near-coincident pair of vertices."""
    P = np.array([random_polygon(table, 3, rng) for _ in range(count)])
    P[1, 1] = P[1, 0]
    P[2, 2] = P[2, 1] + 1e-13
    return P


def failing_arcs(metric):
    """Polygons of the plane whose chords fail each way a Larmor arc can, at field B.

    Chord 0 is longer than the Larmor diameter, exactly the diameter (the arc
    connects, but its tangents have no derivative: k = 0), or ends at a vertex
    where the drift norm |B| |x| / 2 reaches 1; the last polygon has a
    coincident pair.
    """
    R = metric.larmor_radius
    return np.array([
        [[1.2 * R, 0.0], [-1.2 * R, 0.0], [0.0, 0.3 * R]],
        [[R, 0.0], [-R, 0.0], [0.0, 0.3 * R]],
        [[1.9 * R, 0.4 * R], [2.1 * R, 0.0], [1.9 * R, -0.4 * R]],
        [[0.3 * R, 0.1 * R], [0.3 * R, 0.1 * R], [-0.2 * R, 0.2 * R]],
    ])


@pytest.mark.parametrize("kind", ["euclidean", "minkowski", "magnetic"])
def test_stacked_covectors_match_the_chord_covectors_bit_for_bit(kind, rng):
    # a metric's row kernels connect and differentiate every chord of a stack
    # at once: each row is _chord_covectors' and _chord_derivatives' to the
    # last bit, and a polygon fails exactly where one of its chords raises.
    # The stack holds a coincident and a near-coincident pair and, for the
    # magnetic field, chords that fail each way a Larmor arc does
    make_metric, semi_axes = JACOBIAN_METRICS[kind]
    metric, table = make_metric(), fb.ellipsoid_table(semi_axes, eps=0.02)
    P = polygon_stack(table, rng, 8)
    if kind == "magnetic":
        P = np.concatenate([P, failing_arcs(metric)])
    d = P.shape[2]
    frames = np.array([[orthonormal_complement(rng.standard_normal(d)) for _ in range(3)]
                       for _ in P])
    departing, arriving, ok = fb.search._chord_covector_rows(metric, P)
    with np.errstate(divide="ignore", invalid="ignore"):  # the coincident pair, as below
        blocks, blocks_ok = fb.search._chord_derivative_rows(metric, P, frames)
    raised, blocks_raised = [], []
    for k, pts in enumerate(P):
        try:
            pairs = [fb.search._chord_covectors(metric, pts[j], pts[(j + 1) % 3])
                     for j in range(3)]
        except fb.FinslerBilliardsError:
            raised.append(k)
        else:
            assert np.array([p[0] for p in pairs]).tobytes() == departing[k].tobytes()
            assert np.array([p[1] for p in pairs]).tobytes() == arriving[k].tobytes()
        try:
            with np.errstate(divide="ignore", invalid="ignore"):  # the coincident pair
                chords = [fb.search._chord_derivatives(metric, pts, frames[k], j)
                          for j in range(3)]
        except fb.FinslerBilliardsError:
            blocks_raised.append(k)
        else:
            for b, block in enumerate(blocks):
                assert np.array([c[b] for c in chords]).tobytes() == block[k].tobytes()
    assert np.flatnonzero(~ok).tolist() == raised
    assert np.flatnonzero(~blocks_ok).tolist() == blocks_raised
    assert {1, 2} <= set(raised) and 0 not in raised
    if kind == "magnetic":
        # too long, the field too strong and the coincident pair fail to
        # connect; the diameter connects and fails to differentiate
        assert raised[-3:] == [8, 10, 11]
        assert blocks_raised == [8, 9]


STACK_CASES = [
    pytest.param(CLOSED_FORM_METRICS[kind], axes, eps, id=f"{kind}-{d}-eps{eps}")
    for kind in sorted(CLOSED_FORM_METRICS) for d, axes in AXES.items()
    for eps in (0.0, 0.02, 0.3)
] + [
    pytest.param(lambda d: MagneticMetric(0.3), AXES["d2"], eps, id=f"magnetic-d2-eps{eps}")
    for eps in (0.0, 0.02, 0.3)
] + [
    pytest.param(lambda d: LagrangianMetric(cubic_norm, dim=3, flat_geodesics=True),
                 AXES["d3"], eps, id=f"lagrangian-d3-eps{eps}")
    for eps in (0.0, 0.02, 0.3)
]


def check_stack(metric, table, pts, ev, steps):
    """_evaluate_stack against retract + _safe_grad row by row; returns the failures.

    pts and ev are one polygon and its evaluation, moved by every step, or an
    (n, r, d) stack and a stacked evaluation, row k moved by step k.
    """
    scale = table.scale
    P, stack, gns = fb.search._evaluate_stack(metric, table, pts, ev.frames, steps, scale)
    failed = 0
    for k, step in enumerate(steps):
        base, frames = (pts, ev.frames) if pts.ndim == 2 else (pts[k], ev.frames[k])
        try:
            cand, normals = retract(table, base, frames, step)
        except fb.FinslerBilliardsError:
            cand_ev = None
        else:
            cand_ev = fb.search._safe_grad(metric, table, cand, scale, normals)
        if cand_ev is None:
            assert gns[k] == np.inf
            failed += 1
            continue
        assert P[k].tobytes() == cand.tobytes()
        assert np.float64(gns[k]).tobytes() == np.float64(_norm(cand_ev.grad)).tobytes()
        for field in ("grad", "departing", "arriving"):
            assert getattr(stack, field)[k].tobytes() == getattr(cand_ev, field).tobytes()
        assert np.array(cand_ev.normals).tobytes() == stack.normals[k].tobytes()
        assert np.array(cand_ev.frames).tobytes() == stack.frames[k].tobytes()
        assert cand_ev.drops == stack.drops[k].tolist()
    # a metric with row kernels evaluates every row.  Chords connected one by
    # one stop each seed's rows (here the first and the second half, one seed
    # never stopping and the other at its first finite row) at its first row
    # below the row's bound, and that seed's rows after it read inf
    owner = np.repeat([0, 1], [len(steps) // 2, len(steps) - len(steps) // 2])
    for stops in (0, 1):
        bound = np.where(owner == stops, np.inf, 0.0)
        _, _, first = fb.search._evaluate_stack(metric, table, pts, ev.frames, steps, scale,
                                                bound, owner)
        expected = gns.copy()
        if metric._covector_rows is None:
            rows = np.flatnonzero(owner == stops)
            j = rows[np.argmax(np.isfinite(gns[rows]))]
            expected[j + 1:rows[-1] + 1] = np.inf
        assert first.tobytes() == expected.tobytes()
    return failed


@pytest.mark.parametrize("make_metric, semi_axes, eps", STACK_CASES)
def test_stacked_candidates_match_retract_and_safe_grad_bit_for_bit(make_metric, semi_axes,
                                                                    eps, rng):
    # every row of a stack is the scalar candidate to the last bit, on a table
    # with row kernels and on a custom one without; a NaN step fails in the
    # projection, and a polygon with coincident vertices stays coincident
    metric = make_metric(len(semi_axes))
    ellipsoid = fb.ellipsoid_table(semi_axes, eps=eps)
    m = 3 * (len(semi_axes) - 1)
    for table in (ellipsoid, without_hessian(ellipsoid)):
        for _ in range(2):
            pts = random_polygon(table, 3, rng)
            ev = fb.search._grad_flat(metric, table, pts)
            steps = np.multiply.outer(fb.search._STEP_LENGTHS[:8], 0.3 * rng.standard_normal(m))
            steps[3, 0] = np.nan
            assert check_stack(metric, table, pts, ev, steps) >= 1
        pts = random_polygon(table, 3, rng)
        pts[1] = pts[0]
        normals = [table._grad(p) for p in pts]
        frames = [orthonormal_complement(n) for n in normals]
        ev = fb.search._Evaluation(None, normals, frames, None, None, None)
        step = np.tile(0.01 * rng.standard_normal(len(semi_axes) - 1), 3)
        assert check_stack(metric, table, pts, ev, np.multiply.outer([1.0, 0.5], step)) == 2
        # a polygon per row, as the Newton loop's full steps are
        bases = np.array([random_polygon(table, 3, rng) for _ in range(5)])
        stacked = evaluation_stack(metric, table, bases)
        steps = 0.2 * rng.standard_normal((5, m))
        steps[2, 0] = np.nan
        assert check_stack(metric, table, bases, stacked, steps) >= 1


@pytest.mark.parametrize("make_metric, semi_axes, eps", STACK_CASES)
def test_stacked_seeds_match_safe_grad_bit_for_bit(make_metric, semi_axes, eps, rng):
    # _refine evaluates its projected seeds as one stack, with their normals
    # from _grad_rows: every seed gets _safe_grad's evaluation to the last bit
    # and fails where _safe_grad returns None (a coincident and a
    # near-coincident pair), on a table with row kernels and on one without
    metric = make_metric(len(semi_axes))
    ellipsoid = fb.ellipsoid_table(semi_axes, eps=eps)
    for table in (ellipsoid, without_hessian(ellipsoid)):
        P = polygon_stack(table, rng, 5)
        N = fb.tables._grad_rows(table, P.reshape(-1, P.shape[2])).reshape(P.shape)
        stack, gns, ok = fb.search._evaluate_rows(metric, table, P, N,
                                                  np.ones(len(P), dtype=bool), table.scale)
        for k, pts in enumerate(P):
            ev = fb.search._safe_grad(metric, table, pts, table.scale)
            assert ok[k] == (ev is not None)
            if ev is None:
                assert gns[k] == np.inf
                continue
            assert np.float64(gns[k]).tobytes() == np.float64(_norm(ev.grad)).tobytes()
            for field in ("grad", "departing", "arriving", "normals", "frames"):
                assert np.array(getattr(ev, field)).tobytes() == getattr(stack, field)[k].tobytes()
            assert ev.drops == stack.drops[k].tolist()
        assert ok.tolist() == [True, False, False, True, True]


@pytest.mark.parametrize("make_metric, semi_axes, eps", STACK_CASES)
def test_stacked_jacobian_matches_the_polygon_assembly_bit_for_bit(make_metric, semi_axes,
                                                                   eps, rng):
    # every polygon of a stack, from _evaluate_stack as the Newton loop builds
    # it, gets the per-polygon assembly's Jacobian to the last bit, on a table
    # with the Hessian row kernel and on a custom one without a Hessian
    metric = make_metric(len(semi_axes))
    ellipsoid = fb.ellipsoid_table(semi_axes, eps=eps)
    m = 3 * (len(semi_axes) - 1)
    for table in (ellipsoid, without_hessian(ellipsoid)):
        pts = random_polygon(table, 3, rng)
        ev = fb.search._grad_flat(metric, table, pts)
        steps = 0.2 * rng.standard_normal((6, m))
        P, stack, gns = fb.search._evaluate_stack(metric, table, pts, ev.frames, steps,
                                                  table.scale)
        good = np.flatnonzero(np.isfinite(gns))
        assert good.size >= 3
        J, ok = fb.search._jacobian(metric, table, P[good], fb.search._rows(stack, good))
        assert ok.all()
        for k, row in zip(good, J):
            ref = polygon_jacobian(metric, table, P[k], fb.search._rows(stack, k))
            assert row.tobytes() == ref.tobytes()


def reference_refine(metric, table, seed_pts, grad_tol, scale, max_iter, steps=None):
    """One seed's Newton loop, with the line search that halves t from 1 one step at a time.

    Returns (_refine's result for the seed, the most halvings of an accepted
    step, why the loop ended, its iterations).  The loop ends on "projection"
    (the seed's), "converged" (|g| <= 1e-14 scale), "jacobian", "line search"
    or "max_iter".  A ``steps`` list gets each line search's halvings, None
    for the one that finds no step.
    """
    search = fb.search
    try:
        pts = np.array([fb.project_to_boundary(table, p).position.components for p in seed_pts])
    except fb.FinslerBilliardsError:
        return None, 0, "projection", 0
    ev = search._safe_grad(metric, table, pts, scale)
    if ev is None:
        return None, 0, "evaluation", 0
    gn = _norm(ev.grad)
    most, reason, iterations = 0, "max_iter", 0
    for iterations in range(max_iter):
        if gn <= 1e-14 * scale:
            reason = "converged"
            break
        J = polygon_jacobian(metric, table, pts, ev)
        if J is None:
            reason = "jacobian"
            break
        delta, *_ = np.linalg.lstsq(J, -ev.grad, rcond=search._NEWTON_RCOND)
        dn = _norm(delta)
        if dn > 0.5 * scale:
            delta *= 0.5 * scale / dn
        t, halvings = 1.0, 0
        accepted = False
        while t > 1e-12:
            try:
                cand, normals = retract(table, pts, ev.frames, t * delta)
            except fb.FinslerBilliardsError:
                t *= 0.5
                halvings += 1
                continue
            cand_ev = search._safe_grad(metric, table, cand, scale, normals)
            if cand_ev is not None:
                gcn = _norm(cand_ev.grad)
                if gcn < gn:
                    pts, ev, gn = cand, cand_ev, gcn
                    accepted = True
                    break
            t *= 0.5
            halvings += 1
        if steps is not None:
            steps.append(halvings if accepted else None)
        if not accepted:
            reason = "line search"
            break
        most = max(most, halvings)
    else:
        iterations = max_iter
    return ((pts, gn) if gn <= grad_tol else None), most, reason, iterations


def search_seeds(metric, table, r, rng_seed, count):
    """The first seeds that find_critical draws at rng_seed."""
    rng, scale = np.random.default_rng(rng_seed), table.scale
    seeds = []
    while len(seeds) < count:
        if len(seeds) % 2 == 0:
            cand = fb.search._random_seed(table, r, rng, scale)
        else:
            cand = fb.search._trace_seed(metric, table, r, rng, scale)
        if cand is not None:
            seeds.append(cand)
    return seeds


REFINE_CASES = {
    # the drift config: seed 8 runs out of max_iter after a 21-halving step, seed 10
    # halves 8 times in one step.  Riemannian seed 3 runs out of max_iter and seed 14
    # stops on a line search that finds no lower |g|
    "drift3d": (MinkowskiMetric([0.2, 0.0, 0.0]),
                fb.ellipsoid_table([1.0, 1.3, 1.7], eps=0.02, coeffs=[1.0, 1.0, 1.0]), 11),
    "magnetic2d": (MagneticMetric(0.1), fb.ellipsoid_table([1.2, 1.0]), 4),
    "disk": (EuclideanMetric(), fb.ellipsoid_table([1.0, 1.0]), 4),
    "riemannian": (CLOSED_FORM_METRICS["riemannian"](3), fb.ellipsoid_table(AXES["d3"], eps=0.3),
                   15),
    "custom-table": (MinkowskiMetric([0.2, 0.0, 0.0]),
                     without_hessian(fb.ellipsoid_table([1.0, 1.3, 1.7], eps=0.02)), 4),
}


@pytest.mark.parametrize("case", sorted(REFINE_CASES))
def test_refine_matches_the_sequential_line_search(case):
    # the lockstep loop over one stack of seeds gives every seed the bytes, or
    # None, of its own Newton loop with the sequential line search.  Each stack
    # holds a seed whose projection fails (a vertex at the centre, where the
    # gradient vanishes) and seeds that converge after different numbers of
    # iterations; drift3d and Riemannian seeds also run out of max_iter, and a
    # Riemannian one stops on a failed line search
    metric, table, count = REFINE_CASES[case]
    seeds = search_seeds(metric, table, 3, 0, count)
    seeds.insert(1, np.array([seeds[0][0], np.zeros(table.dim), seeds[0][2]]))
    results = fb.search._refine(metric, table, np.array(seeds), 1e-9, table.scale, 60)
    assert len(results) == len(seeds)
    stops, most = [], 0
    for seed_pts, out in zip(seeds, results):
        ref, halvings, reason, iterations = reference_refine(metric, table, seed_pts, 1e-9,
                                                             table.scale, 60)
        assert (out is None) == (ref is None)
        if out is not None:
            assert out[0].tobytes() == ref[0].tobytes()
            assert np.float64(out[1]).tobytes() == np.float64(ref[1]).tobytes()
        stops.append((reason, iterations))
        most = max(most, halvings)
    reasons = {reason for reason, _ in stops}
    assert reasons >= {"projection", "converged"}
    assert len({n for reason, n in stops if reason == "converged"}) >= 2
    if case == "drift3d":
        assert most >= 8 and "max_iter" in reasons
    if case == "riemannian":
        assert {"max_iter", "line search"} <= reasons


def groups_needed(h, k):
    """Groups of step lengths a seed tries, the first 1 + h long, until it accepts 2^-k.

    k is None where no step length lowers |g|: the seed tries all of them.
    """
    last = len(fb.search._STEP_LENGTHS) - 1 if k is None else k
    end = size = 1 + h
    groups = 1
    while end <= last:
        size *= 2
        end += size
        groups += 1
    return groups


@pytest.mark.parametrize("case", ["drift3d", "riemannian"])
def test_backtracking_rounds_follow_the_seed_that_needs_most_groups(case, monkeypatch):
    # each iteration backtracks in as many rounds as its live seed with the
    # most groups needs.  A seed's first group holds its full step and as many
    # lengths as its last accepted step halved, and each later group twice as
    # many as the one before; the halvings are the sequential line search's
    metric, table, count = REFINE_CASES[case]
    seeds = search_seeds(metric, table, 3, 0, count)
    rounds = []  # per iteration, its _evaluate_stack calls

    def counted(fn, iteration=False):
        def wrapper(*args):
            if iteration:
                rounds.append(0)
            else:
                rounds[-1] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(fb.search, "_jacobian", counted(fb.search._jacobian, iteration=True))
    monkeypatch.setattr(fb.search, "_evaluate_stack", counted(fb.search._evaluate_stack))
    fb.search._refine(metric, table, np.array(seeds), 1e-9, table.scale, 60)
    needed = []  # per seed, the groups each of its line searches needs
    for seed_pts in seeds:
        halvings = []
        reference_refine(metric, table, seed_pts, 1e-9, table.scale, 60, halvings)
        previous = [0] + halvings[:-1]
        needed.append([groups_needed(h, k) for h, k in zip(previous, halvings)])
    expected = [max(n[i] for n in needed if len(n) > i) for i in range(len(rounds))]
    assert rounds == expected
    mixed = [{n[i] for n in needed if len(n) > i} for i in range(len(rounds))]
    assert any(len(groups) >= 2 and max(groups) >= 3 for groups in mixed)


def test_norm_matches_numpy_bit_for_bit(rng):
    vectors = [np.zeros(n) for n in range(1, 7)] + [np.array([-0.0]), np.array([0.0, -0.0, 0.0])]
    for _ in range(3000):
        n = int(rng.integers(1, 7))
        vectors.append(rng.standard_normal(n) * 10.0 ** rng.uniform(-150, 150, n))
    for v in vectors:
        assert np.float64(_norm(v)).tobytes() == np.linalg.norm(v).tobytes()


def test_morse_index_rejects_coincident_vertices(unit_circle):
    coincident = circle_polygon([0, 0, 180])
    for polygon in (coincident, np.array([circle_polygon([90, 210, 330]), coincident])):
        with pytest.raises(fb.CoincidentPoints):
            morse_index(EuclideanMetric(), unit_circle, polygon)


# the benchmark workloads' geometry and seed budgets: (metric, table, seeds)
WORKLOAD_GEOMETRY = {
    "drift3d": ({"kind": "minkowski", "alpha": [0.2, 0.0, 0.0]},
                {"kind": "ellipsoid", "semi_axes": [1.0, 1.3, 1.7],
                 "perturbation": {"eps": 0.02, "coeffs": [1.0, 1.0, 1.0]}}, 20),
    "magnetic2d": ({"kind": "magnetic", "B": 0.1},
                   {"kind": "ellipsoid", "semi_axes": [1.2, 1.0]}, 25),
    "disk": ({"kind": "euclidean"}, {"kind": "ellipsoid", "semi_axes": [1.0, 1.0]}, 120),
}


def spied_search(monkeypatch, metric, table, cfg):
    """find_critical's records, the polygons it gives morse_index and its _canonical_rotation count."""
    morse, canonical = fb.search.morse_index, fb.search._canonical_rotation
    stacks, rotations = [], []

    def morse_spy(metric, table, polygon, eig_tol=None):
        stacks.append(polygon)
        return morse(metric, table, polygon, eig_tol)

    def canonical_spy(pts, tol):
        rotations.append(pts)
        return canonical(pts, tol)

    with monkeypatch.context() as m:
        m.setattr(fb.search, "morse_index", morse_spy)
        m.setattr(fb.search, "_canonical_rotation", canonical_spy)
        records = find_critical(metric, table, 3, cfg)
    return records, stacks, len(rotations)


@pytest.mark.parametrize("name", list(WORKLOAD_GEOMETRY))
def test_stacked_morse_index_matches_single_calls_bit_for_bit(name, monkeypatch):
    # the stack of a search's class representatives gives each class the pair,
    # and the spectrum, of a call on that class alone
    metric_spec, table_spec, seeds = WORKLOAD_GEOMETRY[name]
    metric, table = cli._build_geometry({"metric": metric_spec, "table": table_spec})
    _, (stack,), _ = spied_search(monkeypatch, metric, table,
                                  SearchConfig(seeds=seeds, rng_seed=0))
    assert stack.shape[1:] == (3, table.dim) and len(stack) >= 2
    eigvalsh, spectra = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: spectra.append(eigvalsh(a)) or spectra[-1])
    pairs = morse_index(metric, table, stack)
    assert pairs == [morse_index(metric, table, pts) for pts in stack]
    batched, *alone = spectra
    assert len(batched) == len(alone) == len(stack)
    assert all(b.tobytes() == a[0].tobytes() for b, a in zip(batched, alone))


def test_one_morse_pass_per_search_and_one_canonical_rotation_per_record(
        unit_circle, bumpy_ellipsoid, monkeypatch):
    # the disk's classes merge into a few families: only the reported records
    # take a canonical rotation.  A search without classes takes no Morse pass
    for table, classes, reported in ((unit_circle, 40, 2), (bumpy_ellipsoid, 9, 9)):
        records, stacks, rotations = spied_search(monkeypatch, EuclideanMetric(), table,
                                                  SearchConfig(seeds=40, rng_seed=1))
        assert [len(stack) for stack in stacks] == [classes]
        assert rotations == len(records) == reported
    records, stacks, rotations = spied_search(monkeypatch, EuclideanMetric(), unit_circle,
                                              SearchConfig(seeds=4, max_iter=1))
    assert (records, stacks, rotations) == ([], [], 0)


# ---------------------------------------------------------------------------
# the multistart search


def test_search_rejects_a_metric_connect_cannot_build(unit_circle, monkeypatch):
    # every seed's error used to be swallowed, so the search returned [];
    # it is raised once, before any seed is drawn
    seeded = []
    monkeypatch.setattr(fb.search, "_random_seed", lambda *args: seeded.append(args))
    metric = LagrangianMetric(lambda x, v: float(np.linalg.norm(v)), dim=2)
    with pytest.raises(InvalidParameters, match="connect supports straight-chord metrics"):
        find_critical(metric, unit_circle, 3, SearchConfig(seeds=4, rng_seed=0))
    assert seeded == []


def test_disk_search_finds_the_continuum(unit_circle, monkeypatch):
    # one record per Morse-Bott family: the rotated equilateral triangles of
    # each rotation number, reached by every converged seed of the one stack
    refine, converged = fb.search._refine, []

    def counted(*args):
        results = refine(*args)
        assert args[2].shape == (60, 3, 2) and len(results) == 60
        converged.extend(res is not None for res in results)
        return results

    monkeypatch.setattr(fb.search, "_refine", counted)
    recs = find_critical(EuclideanMetric(), unit_circle, 3,
                         SearchConfig(seeds=60, rng_seed=0))
    assert sorted(rec.rotation_number for rec in recs) == [1, 2]
    for rec in recs:
        assert rec.polygon.lambda_value == pytest.approx(3.0 * np.sqrt(3.0), abs=1e-7)
        assert "continuum-suspect" in rec.flags
        assert (rec.morse_index, rec.degeneracy) == (2, 1)
    assert sum(rec.multiplicity for rec in recs) == sum(converged) > 0


def test_newton_is_continuous_on_the_disk_continuum(unit_circle, rng):
    # the Newton step leaves out the Jacobian's null direction, so a seed
    # moved by 1e-15 lands at the same triangle of the rotational continuum
    m = EuclideanMetric()
    seeds = np.array([fb.search._random_seed(unit_circle, 3, rng, 1.0) for _ in range(10)])
    nudged = seeds + 1e-15 * rng.standard_normal(seeds.shape)
    for (a, _), (b, _) in zip(fb.search._refine(m, unit_circle, seeds, 1e-9, 1.0, 60),
                              fb.search._refine(m, unit_circle, nudged, 1e-9, 1.0, 60)):
        assert np.max(np.abs(a - b)) <= 1e-8


def test_search_records_satisfy_guards(bumpy_ellipsoid):
    cfg = SearchConfig(seeds=40, rng_seed=1, grad_tol=1e-9)
    recs = find_critical(EuclideanMetric(), bumpy_ellipsoid, 3, cfg)
    assert len(recs) >= 4
    eps = cfg.resolved(bumpy_ellipsoid, 3)["epsilon"]
    for rec in recs:
        assert rec.residual <= 1e-9
        assert in_g_epsilon(rec.polygon, eps)
        assert rec.polygon.min_edge > 1e-4 * bumpy_ellipsoid.scale


def test_search_orbits_close_under_billiard_map(bumpy_ellipsoid):
    m = EuclideanMetric()
    recs = find_critical(m, bumpy_ellipsoid, 3, SearchConfig(seeds=20, rng_seed=2))
    assert recs
    for rec in recs:
        poly = rec.polygon
        state = BoundaryState(poly.vertices[0], poly.segments[0].start_tangent)
        states = trace(m, bumpy_ellipsoid, state, 3)
        gap = np.linalg.norm(states[-1].point.position.components
                             - poly.vertices[0].position.components)
        assert gap <= 1e-6 * bumpy_ellipsoid.scale


def test_search_is_deterministic(unit_circle):
    cfg = SearchConfig(seeds=20, rng_seed=7)
    a = find_critical(EuclideanMetric(), unit_circle, 3, cfg)
    b = find_critical(EuclideanMetric(), unit_circle, 3, cfg)
    ja = json.dumps([orbit_record_dict(r) for r in a], sort_keys=True)
    jb = json.dumps([orbit_record_dict(r) for r in b], sort_keys=True)
    assert ja == jb


def test_records_start_at_the_canonical_rotation(bumpy_ellipsoid, unit_circle):
    # each reported polygon starts at the vertex its canonical key starts at,
    # with its segments rolled along, so a class's representative does not
    # depend on which member of it was kept.  Rolling changes the edge
    # product's low bits only: it is the product make_polygon takes in the
    # new order, and the cyclic length and shortest edge are the same
    metric = EuclideanMetric()
    for table, rng_seed in ((bumpy_ellipsoid, 5), (unit_circle, 1)):
        cfg = SearchConfig(seeds=30, rng_seed=rng_seed)
        tol = cfg.resolved(table, 3)["cluster_tol"]
        for rec in find_critical(metric, table, 3, cfg):
            poly = rec.polygon
            assert fb.search._canonical_rotation(poly.positions(), tol) == (rec.canonical_key, 0)
            assert all(np.array_equal(seg.start, v.position.components)
                       for seg, v in zip(poly.segments, poly.vertices))
            again = make_polygon(metric, table, poly.positions())
            for field in ("lambda_value", "min_edge", "edge_product"):
                assert getattr(again, field) == getattr(poly, field)


def test_same_orbit_from_different_seeds_shares_canonical_key(bumpy_ellipsoid):
    recs = find_critical(EuclideanMetric(), bumpy_ellipsoid, 3,
                         SearchConfig(seeds=30, rng_seed=5))
    # multiplicities above 1 mean several Newton runs converged to the same
    # class and were keyed together
    assert any(rec.multiplicity > 1 for rec in recs)
    keys = [rec.canonical_key for rec in recs]
    assert len(keys) == len(set(keys))


def test_multiple_cover_detection(unit_circle):
    # a twice-traversed diameter is a valid 4-periodic critical polygon and
    # must carry the multiple-cover flag
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    assert np.max(np.abs(pts - np.roll(pts, -2, axis=0))) == 0.0
    recs = find_critical(EuclideanMetric(), unit_circle, 4,
                         SearchConfig(seeds=40, rng_seed=0))
    for rec in recs:
        arr = rec.polygon.positions()
        covered = bool(np.max(np.abs(arr - np.roll(arr, -2, axis=0))) <= 1e-5)
        assert covered == ("multiple-cover" in rec.flags)


def test_period_validation(unit_circle):
    with pytest.raises(InvalidParameters):
        find_critical(EuclideanMetric(), unit_circle, 1, SearchConfig(seeds=1))


@pytest.mark.parametrize("field, value", [
    ("seeds", 0), ("seeds", -3), ("max_iter", 0), ("grad_tol", -1.0),
    ("cluster_tol", 0.0), ("epsilon", 0.0), ("metric_dim", 3),
    ("seeds", 2.5), ("seeds", True), ("max_iter", 2.5), ("rng_seed", -1), ("rng_seed", 1.5),
    ("grad_tol", True), ("epsilon", True), ("cluster_tol", True),
])
def test_bad_search_parameters_rejected_where_they_enter(field, value, ellipse, monkeypatch):
    def no_seeding(*args):
        raise AssertionError("a seed was drawn before the parameters were checked")

    monkeypatch.setattr(fb.search, "_random_seed", no_seeding)
    monkeypatch.setattr(fb.search, "_trace_seed", no_seeding)
    with pytest.raises(InvalidParameters):
        if field == "metric_dim":
            metric = MinkowskiMetric(np.eye(value)[0] * 0.1)
            find_critical(metric, ellipse, 3, SearchConfig(seeds=1))
        else:
            SearchConfig(**{field: value})


@pytest.mark.parametrize("name", ["grad_tol", "epsilon", "cluster_tol", "eig_tol"])
def test_string_tolerance_rejected_with_the_tolerance_message(name, unit_circle):
    # a string used to reach math.isfinite and raise a raw TypeError
    with pytest.raises(InvalidParameters, match=f"{name} must be a finite number > 0, got '0.1'"):
        if name == "eig_tol":
            morse_index(EuclideanMetric(), unit_circle, circle_polygon([90, 210, 330]),
                        eig_tol="0.1")
        else:
            SearchConfig(**{name: "0.1"})


@pytest.mark.parametrize("call", [
    lambda t, p: find_critical(EuclideanMetric(), t, 2.5, SearchConfig(seeds=1)),
    lambda t, p: morse_index(EuclideanMetric(), t, p, eig_tol=-1.0),
    lambda t, p: morse_index(EuclideanMetric(), t, p, eig_tol=float("nan")),
    lambda t, p: canonicalize(p, 0.0),
    lambda t, p: morse_index(EuclideanMetric(), t, p, eig_tol=True),
    lambda t, p: canonicalize(p, True),
    lambda t, p: in_g_epsilon(make_polygon(EuclideanMetric(), t, p), True),
], ids=["r-fraction", "eig_tol-negative", "eig_tol-nan", "cluster_tol-zero",
        "eig_tol-bool", "cluster_tol-bool", "epsilon-bool"])
def test_bad_function_arguments_rejected_where_they_enter(call, unit_circle, monkeypatch):
    # a negative or NaN eig_tol would miscount the index instead of raising;
    # True would run as 1.0
    def no_seeding(*args):
        raise AssertionError("a seed was drawn before the parameters were checked")

    monkeypatch.setattr(fb.search, "_random_seed", no_seeding)
    monkeypatch.setattr(fb.search, "_trace_seed", no_seeding)
    with pytest.raises(InvalidParameters):
        call(unit_circle, circle_polygon([90, 210, 330]))


def test_make_polygon_rejects_collapsed_edge(unit_circle):
    pts = np.array([[1.0, 0.0], [1.0, 1e-12], [0.0, 1.0]])
    with pytest.raises(InvalidParameters):
        make_polygon(EuclideanMetric(), unit_circle, pts)


BAD_POLYGONS = {
    "nan-vertex": np.array([[1.0, 0.0], [np.nan, 0.5], [-0.5, -0.8]]),
    "1-d": np.array([1.0, 0.0]),
}


@pytest.mark.parametrize("bad", sorted(BAD_POLYGONS))
@pytest.mark.parametrize("call", [
    lambda m, t, p: morse_index(m, t, p),
    lambda m, t, p: grad_length(m, t, p),
    lambda m, t, p: length_function(m, p),
    lambda m, t, p: canonicalize(p, 1e-5),
    lambda m, t, p: rotation_number(p),
], ids=["morse_index", "grad_length", "length_function", "canonicalize", "rotation_number"])
def test_polygon_arguments_checked_where_they_enter(call, bad, unit_circle):
    match = "finite" if bad == "nan-vertex" else None
    with pytest.raises(InvalidParameters, match=match):
        call(EuclideanMetric(), unit_circle, BAD_POLYGONS[bad])


def test_grouping_rule_pins_first_match_and_residual_swaps(unit_circle):
    """The dedup pass and the family merge of find_critical on hand-built lists.

    The expected groups and counts of the dedup pass are what the two loops
    its helper replaced gave on the same list.
    """
    A = np.array([[1.0, 0.0], [-0.5, 0.8660254037844386], [-0.5, -0.8660254037844386]])
    C = np.array([[0.0, 1.0], [0.6, -0.8], [-0.6, -0.8]])
    e = np.array([[1.0, -1.0], [0.5, 1.0], [-1.0, 0.25]])
    items = [
        (A, 3e-10, "A", 1),
        (np.roll(A + 1e-6 * e, 1, axis=0), 1e-10, "A-lower", 1),  # lower residual: new rep
        (A + 2e-6 * e, 1e-10, "A-tie", 1),                         # tie: the earlier rep stays
        (A + 5e-5 * e, 5e-11, "B", 1),                             # beyond cluster_tol
        (np.roll(C, 2, axis=0), 4e-10, "C", 1),  # distant
        (np.roll(A + 5.1e-5 * e, 2, axis=0), 6e-11, "B-dup", 1),
    ]
    classes = fb.search._group(items, 1e-5)
    assert [(g[2], g[3], g[1]) for g in classes] == [
        ("A-lower", 3, 1e-10), ("B", 2, 5e-11), ("C", 1, 4e-10)]
    stack = np.array([item[0] for item in items])
    assert list(fb.search._zr_distance(stack, items[1][0])) == [
        fb.search._zr_distance(a, items[1][0]) for a in stack]

    # family merge: degenerate records of one (index, degeneracy, rotation
    # number) whose lambdas agree within the tolerance become one record
    m = EuclideanMetric()

    def record(name, angles, residual, degeneracy=1, rot=1, count=1):
        return fb.search.OrbitRecord(
            polygon=make_polygon(m, unit_circle, circle_polygon(angles)), residual=residual,
            morse_index=2, degeneracy=degeneracy, rotation_number=rot, canonical_key=(name,),
            flags=("continuum-suspect",) if degeneracy else (), multiplicity=count)

    records = [
        record("P", [0, 120, 240], 3e-16, count=2),
        record("P-lower", [17, 137, 257], 1e-16),      # lower residual: new representative
        record("Q", [0, 240, 120], 2e-16, rot=2),      # another rotation number
        record("P-tie", [40, 160, 280], 1e-16),        # tie: the earlier representative stays
        record("R", [0, 100, 230], 1e-16),             # another critical value
        record("S", [5, 125, 245], 5e-17, degeneracy=0),   # isolated: never merged
        record("S-twin", [5, 125, 245], 5e-17, degeneracy=0),
    ]
    lams = [rec.polygon.lambda_value for rec in records]
    equilateral = lams[:4] + lams[5:]
    assert max(equilateral) - min(equilateral) <= 1e-14 and lams[4] < min(equilateral) - 1e-7
    families = fb.search._merge_families(records, 1e-7)
    assert [(f.canonical_key[0], f.multiplicity, f.residual) for f in families] == [
        ("P-lower", 4, 1e-16), ("Q", 1, 2e-16), ("R", 1, 1e-16),
        ("S", 1, 5e-17), ("S-twin", 1, 5e-17)]
    assert families[0].polygon is records[1].polygon
