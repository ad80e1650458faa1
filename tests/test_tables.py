import json

import numpy as np
import pytest

from finsler_billiards import (
    ConvexTable,
    EuclideanMetric,
    FinslerBilliardsError,
    InvalidParameters,
    MinkowskiMetric,
    SearchConfig,
    conormal,
    ellipsoid_table,
    find_critical,
    project_to_boundary,
    table_from_spec,
    tangent_basis,
)
from finsler_billiards.tables import (
    _grad_rows,
    _hess_rows,
    _largest_axis,
    _project,
    _project_rows,
    _unit_complement,
    _unit_complement_rows,
    convexity_defect,
    orthonormal_complement,
)
from finsler_billiards.vectors import _norm


@pytest.mark.parametrize("eps", [0.0, 0.02], ids=["plain", "bumped"])
@pytest.mark.parametrize("semi_axes", [[1.2, 1.0], [1.0, 1.3, 1.7], [1.0, 1.3, 1.7, 0.9]],
                         ids=["d2", "d3", "d4"])
def test_hessian_matches_central_differences_of_gradient(semi_axes, eps, rng):
    # the closed form of ellipsoid_table, and the symmetrised central
    # differences that a custom table without hess_phi falls back to
    table = ellipsoid_table(semi_axes, eps=eps, coeffs=rng.uniform(-1.0, 1.0, len(semi_axes)))
    custom = ConvexTable(table._phi_fn, table._grad_fn, table.bounding_radius, table.dim)
    h = 1e-6
    for _ in range(10):
        x = rng.standard_normal(table.dim)
        fd = np.stack([(table._grad(x + h * e) - table._grad(x - h * e)) / (2.0 * h)
                       for e in np.eye(table.dim)], axis=1)
        for H in (table._hess(x), custom._hess(x)):
            assert H.shape == (table.dim, table.dim)
            assert np.array_equal(H, H.T)
            assert np.max(np.abs(H - fd)) <= 1e-8 * max(1.0, np.max(np.abs(H)))


@pytest.mark.parametrize("eps", [0.0, 0.02, 0.3])
@pytest.mark.parametrize("semi_axes", [[1.2, 1.0], [1.0, 1.3, 1.7]], ids=["d2", "d3"])
def test_derivative_bounds_dominate_sampled_points(semi_axes, eps, rng):
    # (H, G) bound the Hessian's spectral norm and the gradient's norm at
    # every point of the table; points are drawn in the bounding box
    table = ellipsoid_table(semi_axes, eps=eps, coeffs=rng.uniform(-1.0, 1.0, len(semi_axes)))
    H, G = table.derivative_bounds
    rho = table.bounding_radius
    inside = 0
    while inside < 2000:
        x = rng.uniform(-rho, rho, table.dim)
        if table.phi(x) >= 0.0:
            continue
        inside += 1
        assert np.linalg.norm(table._hess(x), 2) <= H
        assert np.linalg.norm(table.grad(x)) <= G


def reference_fields(semi_axes, eps, coeffs):
    """The vectorised numpy formulas of the ellipsoid's phi, grad and hess."""
    inv2 = 1.0 / semi_axes**2
    if eps == 0.0:
        return (lambda x: float(x @ (inv2 * x) - 1.0), lambda x: 2.0 * inv2 * x,
                lambda x: np.diag(2.0 * inv2))

    def phi(x):
        s = float(x @ x)
        cubic = float(coeffs @ x**3)
        return float(x @ (inv2 * x) - 1.0 + eps * cubic / (1.0 + s))

    def grad(x):
        s = float(x @ x)
        cubic = float(coeffs @ x**3)
        quad = 2.0 * inv2 * x
        dpert = 3.0 * coeffs * x**2 / (1.0 + s) - cubic * 2.0 * x / (1.0 + s) ** 2
        return quad + eps * dpert

    def hess(x):
        s1 = 1.0 + float(x @ x)
        cubic = float(coeffs @ x**3)
        u = 3.0 * coeffs * x**2
        dpert = (np.diag(6.0 * coeffs * x / s1 - 2.0 * cubic / s1**2)
                 - 2.0 * (np.outer(u, x) + np.outer(x, u)) / s1**2
                 + 8.0 * cubic * np.outer(x, x) / s1**3)
        return np.diag(2.0 * inv2) + eps * dpert

    return phi, grad, hess


def reference_complement(n, drop):
    """Gram-Schmidt of the coordinate axes but ``drop`` against the unit normal."""
    nhat = n / np.linalg.norm(n)
    rows = []
    for j in range(n.size):
        if j == drop:
            continue
        w = np.zeros(n.size)
        w[j] = 1.0
        w -= (w @ nhat) * nhat
        for prev in rows:
            w -= (w @ prev) * prev
        rows.append(w / np.linalg.norm(w))
    return np.array(rows)


def sample_points(table, rng, count):
    """Points inside, outside and on the boundary of the table."""
    for _ in range(count):
        on = project_to_boundary(table, rng.standard_normal(table.dim)).position.components
        yield from (on, on * rng.uniform(0.2, 0.95), on * rng.uniform(1.05, 2.0))


@pytest.mark.parametrize("eps", [0.0, 0.02, 0.3])
@pytest.mark.parametrize("semi_axes", [[1.2, 1.0], [1.0, 1.3, 1.7], [1.0, 1.3, 1.7, 0.9]],
                         ids=["d2", "d3", "d4"])
def test_ellipsoid_fields_match_vectorised_formulas_bit_for_bit(semi_axes, eps, rng):
    a, coeffs = np.array(semi_axes), rng.uniform(-1.0, 1.0, len(semi_axes))
    table = ellipsoid_table(a, eps=eps, coeffs=coeffs)
    phi, grad, hess = reference_fields(a, eps, coeffs)
    for x in sample_points(table, rng, 300):
        assert np.float64(table._phi(x)).tobytes() == np.float64(phi(x)).tobytes()
        assert table._grad(x).tobytes() == grad(x).tobytes()
        assert table._hess(x).tobytes() == hess(x).tobytes()


@pytest.mark.parametrize("eps", [0.0, 0.02, 0.3])
@pytest.mark.parametrize("semi_axes", [[1.2, 1.0], [1.0, 1.3, 1.7], [1.0, 1.3, 1.7, 0.9]],
                         ids=["d2", "d3", "d4"])
def test_raw_projection_returns_the_public_point_and_its_gradient(semi_axes, eps, rng):
    table = ellipsoid_table(semi_axes, eps=eps, coeffs=rng.uniform(-1.0, 1.0, len(semi_axes)))
    for x in sample_points(table, rng, 100):
        point, g = _project(table, x)
        bp = project_to_boundary(table, x)
        assert point.tobytes() == bp.position.components.tobytes()
        assert g.tobytes() == table._grad(bp.position.components).tobytes()
        assert (g / np.linalg.norm(g)).tobytes() == bp.outward_normal.components.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_frame_rows_match_gram_schmidt_of_the_axes_bit_for_bit(d, rng):
    # also normals with exact zero components, where a signed zero could differ
    for k in range(3000):
        n = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
        if k % 5 == 0:
            n[rng.integers(d)] = 0.0
        for drop in range(d):
            if abs(n[drop]) < 1e-3 * np.linalg.norm(n):
                continue  # the kept axes nearly span n: degenerate
            assert orthonormal_complement(n, drop).tobytes() == reference_complement(n, drop).tobytes()
        largest = int(np.argmax(np.abs(n)))
        assert orthonormal_complement(n).tobytes() == reference_complement(n, largest).tobytes()


@pytest.mark.parametrize("eps", [0.0, 0.02, 0.3])
@pytest.mark.parametrize("semi_axes", [[1.2, 1.0], [1.0, 1.3, 1.7], [1.0, 1.3, 1.7, 0.9]],
                         ids=["d2", "d3", "d4"])
def test_row_fields_match_the_point_kernels_bit_for_bit(semi_axes, eps, rng):
    table = ellipsoid_table(semi_axes, eps=eps, coeffs=rng.uniform(-1.0, 1.0, len(semi_axes)))
    X = np.array(list(sample_points(table, rng, 300)))
    phi, grad, hess = table._row_fields
    assert phi(X).tobytes() == np.array([table._phi(x) for x in X]).tobytes()
    assert grad(X).tobytes() == np.array([table._grad(x) for x in X]).tobytes()
    # _ellipsoid_fields's hess, per component on Python floats
    assert hess(X).tobytes() == np.array([table._hess(x) for x in X]).tobytes()
    custom = ConvexTable(table._phi_fn, table._grad_fn, table.bounding_radius, table.dim)
    assert (_hess_rows(custom, X[:20]).tobytes()
            == np.array([custom._hess(x) for x in X[:20]]).tobytes())
    assert _grad_rows(table, X).tobytes() == grad(X).tobytes()
    assert (_grad_rows(custom, X[:20]).tobytes()
            == np.array([custom._grad(x) for x in X[:20]]).tobytes())


def check_projection_rows(table, A):
    """_project_rows against _project row by row; returns ok."""
    points, grads, ok = _project_rows(table, A)
    for i, a in enumerate(A):
        try:
            point, g = _project(table, a.copy())
        except FinslerBilliardsError:
            assert not ok[i]
            assert not grads[i].any()
            continue
        assert ok[i]
        assert points[i].tobytes() == point.tobytes()
        assert grads[i].tobytes() == g.tobytes()
    return ok


@pytest.mark.parametrize("eps", [0.0, 0.02, 0.3])
@pytest.mark.parametrize("semi_axes", [[1.2, 1.0], [1.0, 1.3, 1.7], [1.0, 1.3, 1.7, 0.9]],
                         ids=["d2", "d3", "d4"])
def test_projection_rows_match_the_scalar_projection_bit_for_bit(semi_axes, eps, rng):
    # in lockstep with the row kernels, and row by row on a custom table that
    # has none.  A NaN row fails on its residual and the centre, where the
    # gradient vanishes, during the iteration
    table = ellipsoid_table(semi_axes, eps=eps, coeffs=rng.uniform(-1.0, 1.0, len(semi_axes)))
    custom = ConvexTable(table._phi_fn, table._grad_fn, table.bounding_radius, table.dim)
    assert custom._row_fields is None
    d = table.dim
    A = np.array([*sample_points(table, rng, 60), np.full(d, np.nan), np.zeros(d),
                  100.0 * rng.standard_normal(d)])
    for t in (table, custom):
        ok = check_projection_rows(t, A)
        assert ok.sum() == len(A) - 2 and not ok[-3] and not ok[-2]


def hooked_table(phi, grad, phi_rows, grad_rows):
    """A planar custom table that also carries row kernels; the projections need no Hessian."""
    table = ConvexTable(phi, grad, 2.0, 2)
    table._row_fields = (phi_rows, grad_rows, None)
    return table


def test_projection_rows_fail_where_the_scalar_projection_raises(rng):
    # (|x|^2 - 1)^3 has a vanishing gradient on its zero set, so a point on
    # it fails the final gradient check; 1 + |x|^2 has no zero set, so every
    # start fails, on its residual or on its vanishing gradient at the origin
    def cube(x):
        s = float(x.dot(x)) - 1.0
        return s * s * s

    def cube_grad(x):
        s = float(x.dot(x)) - 1.0
        return 6.0 * (s * s) * x

    def cube_rows(X):
        s = np.vecdot(X, X) - 1.0
        return s * s * s

    def cube_grad_rows(X):
        s = np.vecdot(X, X) - 1.0
        return 6.0 * (s * s)[:, None] * X

    cubed = hooked_table(cube, cube_grad, cube_rows, cube_grad_rows)
    A = np.array([[1.0, 0.0], [0.0, -1.0], *(1.5 * rng.standard_normal((20, 2)))])
    ok = check_projection_rows(cubed, A)
    assert not ok[0] and not ok[1]
    lifted = hooked_table(lambda x: 1.0 + float(x.dot(x)), lambda x: 2.0 * x,
                          lambda X: 1.0 + np.vecdot(X, X), lambda X: 2.0 * X)
    ok = check_projection_rows(lifted, np.array([[0.3, 0.0], [1.0, -2.0], [0.0, 0.0]]))
    assert not ok.any()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_frame_rows_match_the_scalar_frames_bit_for_bit(d, rng):
    # the largest axis dropped, as for the search's frames; also normals with
    # exact zero components, where a signed zero could differ
    N = rng.standard_normal((3000, d)) * 10.0 ** rng.uniform(-3, 3, (3000, 1))
    N[::5, 0] = 0.0
    nhat = np.array([n / _norm(n) for n in N])
    frames, drops, ok = _unit_complement_rows(nhat)
    assert ok.all()
    for i, n in enumerate(nhat):
        assert drops[i] == _largest_axis(n)
        assert frames[i].tobytes() == _unit_complement(n, _largest_axis(n)).tobytes()


def test_derivative_bounds_are_checked():
    circle = (lambda x: float(x @ x) - 1.0, lambda x: 2.0 * x, 1.0, 2)
    assert ConvexTable(*circle).derivative_bounds is None
    assert ConvexTable(*circle, derivative_bounds=[2, 2.0]).derivative_bounds == (2.0, 2.0)
    for bad in ((2.0,), (2.0, 0.0), (float("inf"), 2.0), (2.0, float("nan")), ("2", 2.0)):
        with pytest.raises(InvalidParameters, match="derivative"):
            ConvexTable(*circle, derivative_bounds=bad)


def test_projection_onto_unit_sphere(unit_sphere):
    bp = project_to_boundary(unit_sphere, [2.0, 0.0, 0.0])
    assert np.allclose(bp.position.components, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(bp.outward_normal.components, [1.0, 0.0, 0.0], atol=1e-12)


def test_projection_fixed_point_on_boundary(unit_sphere):
    bp = project_to_boundary(unit_sphere, [1.0, 0.0, 0.0])
    assert np.allclose(bp.position.components, [1.0, 0.0, 0.0], atol=1e-12)


def test_projection_axis_point_of_ellipsoid():
    table = ellipsoid_table([2.0, 1.0, 1.0])
    bp = project_to_boundary(table, [3.0, 0.0, 0.0])
    assert np.allclose(bp.position.components, [2.0, 0.0, 0.0], atol=1e-10)


def test_projection_idempotent(bumpy_ellipsoid, rng):
    for _ in range(50):
        x = rng.standard_normal(3)
        bp = project_to_boundary(bumpy_ellipsoid, x)
        bp2 = project_to_boundary(bumpy_ellipsoid, bp.position.components)
        move = np.linalg.norm(bp2.position.components - bp.position.components)
        assert move <= 1e-9
        assert abs(bumpy_ellipsoid.phi(bp.position.components)) <= 1e-10 * bumpy_ellipsoid.scale


def test_tangent_basis_axis_examples(unit_sphere):
    bp = unit_sphere.boundary_point([0.0, 0.0, 1.0])
    basis = tangent_basis(bp)
    assert np.allclose(basis[0].components, [1.0, 0.0, 0.0])
    assert np.allclose(basis[1].components, [0.0, 1.0, 0.0])
    bp = unit_sphere.boundary_point([1.0, 0.0, 0.0])
    basis = tangent_basis(bp)
    assert np.allclose(basis[0].components, [0.0, 1.0, 0.0])
    assert np.allclose(basis[1].components, [0.0, 0.0, 1.0])


def test_tangent_basis_orthonormal_and_tangent(bumpy_ellipsoid, rng):
    for _ in range(50):
        bp = project_to_boundary(bumpy_ellipsoid, rng.standard_normal(3))
        rows = np.array([b.components for b in tangent_basis(bp)])
        gram = rows @ rows.T
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-12
        assert np.max(np.abs(rows @ bp.outward_normal.components)) <= 1e-12


def test_convexity_sampling_midpoints(bumpy_ellipsoid):
    # midpoints of random boundary pairs stay inside the sublevel set
    rng = np.random.default_rng(7)
    assert convexity_defect(bumpy_ellipsoid, 10_000, rng) <= 1e-9


def test_conormal_euclidean_sphere(unit_sphere):
    bp = unit_sphere.boundary_point([0.0, 0.0, 1.0])
    p = conormal(unit_sphere, bp, EuclideanMetric())
    assert np.allclose(p.components, [0.0, 0.0, 1.0], atol=1e-12)


def test_conormal_annihilates_tangent_space(bumpy_ellipsoid, rng):
    metric = MinkowskiMetric([0.2, 0.1, 0.0])
    for _ in range(20):
        bp = project_to_boundary(bumpy_ellipsoid, rng.standard_normal(3))
        p = conormal(bumpy_ellipsoid, bp, metric)
        for w in tangent_basis(bp):
            assert abs(p(w)) <= 1e-10
        assert p(bp.outward_normal) > 0.0
        assert metric.dual_norm(bp.position.components, p.components) == pytest.approx(1.0, abs=1e-10)


def test_conormal_minkowski_offset_circle(unit_circle):
    # drift along +x; at the rightmost point the conormal is a positive
    # multiple of (1, 0) rescaled to unit dual norm
    metric = MinkowskiMetric([0.5, 0.0])
    bp = unit_circle.boundary_point([1.0, 0.0])
    p = conormal(unit_circle, bp, metric)
    assert p.components[1] == pytest.approx(0.0, abs=1e-14)
    assert p.components[0] > 0.0
    # dense indicatrix sampling evaluates sup p(v) independently
    theta = np.linspace(0.0, 2.0 * np.pi, 200_001)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    lag = 1.0 + 0.5 * np.cos(theta)
    samples = dirs / lag[:, None]
    assert np.max(samples @ p.components) == pytest.approx(1.0, abs=1e-9)
    # closed form: sup of (1,0) over this indicatrix is 2/3, so p = (1.5, 0)
    assert p.components[0] == pytest.approx(1.5, abs=1e-12)


def test_spec_round_trip():
    spec = {"kind": "ellipsoid", "semi_axes": [1.0, 1.3, 1.7],
            "perturbation": {"eps": 0.02, "coeffs": [1.0, 1.0, 1.0]}}
    table = table_from_spec(spec)
    assert table.dim == 3
    assert table.spec["perturbation"]["eps"] == 0.02


def test_spec_validation_errors():
    with pytest.raises(InvalidParameters):
        table_from_spec({"kind": "torus"})
    with pytest.raises(InvalidParameters):
        table_from_spec({"kind": "ellipsoid"})
    with pytest.raises(InvalidParameters):
        ellipsoid_table([1.0])
    with pytest.raises(InvalidParameters):
        ellipsoid_table([1.0, -2.0])

    # each non-finite field is rejected where it enters, by name
    with pytest.raises(InvalidParameters, match="semi_axes"):
        table_from_spec(json.loads('{"kind": "ellipsoid", "semi_axes": [1e999, 1.0, 1.2]}'))
    with pytest.raises(InvalidParameters, match="semi_axes"):
        ellipsoid_table([1.0, float("nan")])
    for eps in (float("nan"), float("inf")):
        with pytest.raises(InvalidParameters, match="eps"):
            ellipsoid_table([1.0, 1.2], eps=eps)
    with pytest.raises(InvalidParameters, match="coeffs"):
        ellipsoid_table([1.0, 1.2], eps=0.01, coeffs=[1.0, float("inf")])
    with pytest.raises(InvalidParameters, match="bounding_radius"):
        ConvexTable(lambda x: float(x @ x) - 1.0, lambda x: 2.0 * x, float("inf"), 2)

    # a string, a boolean or a non-sequence used to raise a raw TypeError or
    # be read as 1.0
    for bad in ("1", True):
        with pytest.raises(InvalidParameters, match="bounding_radius must be a number"):
            ConvexTable(lambda x: float(x @ x) - 1.0, lambda x: 2.0 * x, bad, 2)
        with pytest.raises(InvalidParameters, match="semi_axes entry must be a number"):
            ellipsoid_table([bad, 1.0])
        with pytest.raises(InvalidParameters, match="coeffs entry must be a number"):
            ellipsoid_table([1.0, 1.2], eps=0.01, coeffs=[bad, 1.0])
    with pytest.raises(InvalidParameters, match="semi_axes"):
        table_from_spec({"kind": "ellipsoid", "semi_axes": 2})
    with pytest.raises(InvalidParameters, match="coeffs"):
        table_from_spec({"kind": "ellipsoid", "semi_axes": [1.0, 1.2],
                         "perturbation": {"eps": 0.01, "coeffs": 1.0}})
    table = ellipsoid_table(np.array([1.0, 1.2]), eps=0.01, coeffs=(np.float64(1.0), 2))
    assert table.spec["perturbation"]["coeffs"] == [1.0, 2.0]


def test_boundary_point_rejects_interior(unit_sphere):
    with pytest.raises(InvalidParameters):
        unit_sphere.boundary_point([0.5, 0.0, 0.0])


def test_boundary_point_rejects_a_nan_phi():
    # a NaN phi is no residual within tolerance: abs(nan) > tol is False too
    table = ConvexTable(lambda x: float("nan") if x[0] < -1.5 else float(x @ x) - 1.0,
                        lambda x: 2.0 * x, bounding_radius=1.0, dim=2)
    with pytest.raises(InvalidParameters, match="not on the boundary"):
        table.boundary_point([-2.0, 0.0])


def user_circle(grad_phi, hess_phi=None):
    """The unit circle built from user callables, phi = x.x - 1."""
    return ConvexTable(lambda x: float(x @ x) - 1.0, grad_phi, 1.0, 2, hess_phi=hess_phi)


def test_user_table_with_list_gradient():
    table = user_circle(lambda x: [2.0 * x[0], 2.0 * x[1]])
    metric = EuclideanMetric()
    bp = project_to_boundary(table, [2.0, 1.0])
    expected = np.array([2.0, 1.0]) / np.sqrt(5.0)
    assert np.allclose(bp.position.components, expected, atol=1e-12)
    assert np.allclose(bp.outward_normal.components, expected, atol=1e-12)
    assert np.allclose(conormal(table, bp, metric).components, expected, atol=1e-12)
    records = find_critical(metric, table, 3, SearchConfig(seeds=4, rng_seed=0))
    assert records
    for rec in records:
        assert rec.polygon.lambda_value == pytest.approx(3.0 * np.sqrt(3.0), abs=1e-7)
        assert "continuum-suspect" in rec.flags


@pytest.mark.parametrize("start", [[2.0, 1.0], [1.0, 0.0]], ids=["outside", "on-boundary"])
def test_user_table_gradient_of_wrong_shape_rejected(start):
    table = user_circle(lambda x: np.array([2.0 * x[0], 2.0 * x[1], 0.0]))
    with pytest.raises(InvalidParameters, match="wrong shape"):
        table.grad(start)
    with pytest.raises(InvalidParameters, match="wrong shape"):
        project_to_boundary(table, start)
    with pytest.raises(InvalidParameters, match="wrong shape"):
        find_critical(EuclideanMetric(), table, 3, SearchConfig(seeds=4, rng_seed=0))


def test_user_table_hessian_is_checked_and_used():
    # a list Hessian is coerced and gives the search the same continuum; one
    # of the wrong shape is rejected where the Newton Jacobian reads it
    def grad(x):
        return 2.0 * x

    table = user_circle(grad, lambda x: [[2.0, 0.0], [0.0, 2.0]])
    records = find_critical(EuclideanMetric(), table, 3, SearchConfig(seeds=4, rng_seed=0))
    assert records
    for rec in records:
        assert rec.polygon.lambda_value == pytest.approx(3.0 * np.sqrt(3.0), abs=1e-7)
        assert "continuum-suspect" in rec.flags
    table = user_circle(grad, lambda x: np.eye(3))
    with pytest.raises(InvalidParameters, match="wrong shape"):
        find_critical(EuclideanMetric(), table, 3, SearchConfig(seeds=4, rng_seed=0))
