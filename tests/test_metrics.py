import numpy as np
import pytest

import finsler_billiards as fb
from finsler_billiards import (
    Covector,
    EuclideanMetric,
    FieldTooStrong,
    InvalidParameters,
    LagrangianMetric,
    MagneticMetric,
    MinkowskiMetric,
    NotOnFiguratrix,
    NotOnIndicatrix,
    RiemannianMetric,
    ZeroVector,
    magnetic_indicatrix_params,
    metric_from_spec,
    validate_field_strength,
)

ORIGIN2 = np.zeros(2)
ORIGIN3 = np.zeros(3)


def builtin_metrics():
    return [
        (EuclideanMetric(dim=3), ORIGIN3),
        (RiemannianMetric(np.diag([4.0, 1.0, 0.5])), ORIGIN3),
        (MinkowskiMetric([0.3, 0.1, 0.0]), ORIGIN3),
        (MagneticMetric(0.2), np.array([0.4, -0.3])),
    ]


def randers_lagrangian(alpha):
    alpha = np.asarray(alpha, float)

    def lag(x, v):
        return float(np.linalg.norm(v) + alpha @ v)

    return lag


# ---------------------------------------------------------------------------
# homogeneity, positivity, Euler relation


@pytest.mark.parametrize("case", builtin_metrics(), ids=lambda c: c[0].kind)
def test_positive_homogeneity(case, rng):
    metric, x = case
    d = x.size
    for _ in range(20):
        v = rng.standard_normal(d)
        L = metric.lagrangian(x, v)
        assert L > 0.0
        for t in (0.5, 2.0, 7.0):
            assert abs(metric.lagrangian(x, t * v) - t * L) <= 1e-10 * t * L


@pytest.mark.parametrize("case", builtin_metrics(), ids=lambda c: c[0].kind)
def test_euler_relation(case, rng):
    metric, x = case
    for _ in range(20):
        v = rng.standard_normal(x.size)
        L = metric.lagrangian(x, v)
        D = metric.fiber_derivative(x, v)
        assert abs(D(v) - L) <= 1e-9 * L


@pytest.mark.parametrize("case", builtin_metrics(), ids=lambda c: c[0].kind)
def test_fiber_derivative_matches_finite_differences(case, rng):
    metric, x = case
    for _ in range(10):
        v = rng.standard_normal(x.size)
        v /= np.linalg.norm(v)
        D = metric.fiber_derivative(x, v).components
        h = 1e-6
        fd = np.zeros_like(v)
        for i in range(v.size):
            e = np.zeros_like(v)
            e[i] = h
            fd[i] = (metric.lagrangian(x, v + e) - metric.lagrangian(x, v - e)) / (2 * h)
        assert np.linalg.norm(fd - D) <= 1e-6 * np.linalg.norm(D)


# ---------------------------------------------------------------------------
# unit vectors


def test_unit_vector_euclidean():
    m = EuclideanMetric()
    u = m.unit_vector(ORIGIN2, [3.0, 4.0])
    assert np.allclose(u.components, [0.6, 0.8])


def test_unit_vector_drift_asymmetry():
    m = MinkowskiMetric([0.5, 0.0])
    u = m.unit_vector(ORIGIN2, [1.0, 0.0])
    assert np.allclose(u.components, [2.0 / 3.0, 0.0])
    u = m.unit_vector(ORIGIN2, [-1.0, 0.0])
    assert np.allclose(u.components, [-2.0, 0.0])


def test_unit_vector_zero_rejected():
    with pytest.raises(ZeroVector):
        EuclideanMetric().unit_vector(ORIGIN2, [0.0, 0.0])


# ---------------------------------------------------------------------------
# Legendre transform and duals


def test_legendre_euclidean_is_identity():
    m = EuclideanMetric()
    D = m.legendre(ORIGIN2, [0.6, 0.8])
    assert np.allclose(D.components, [0.6, 0.8], atol=1e-12)


def test_legendre_riemannian_diagonal():
    # G = diag(4, 1): u = (0.5, 0) is on the indicatrix and its supporting
    # covector must pair to 1 with u, giving (2, 0)
    m = RiemannianMetric(np.diag([4.0, 1.0]))
    u = np.array([0.5, 0.0])
    assert m.lagrangian(ORIGIN2, u) == pytest.approx(1.0)
    D = m.legendre(ORIGIN2, u)
    assert np.allclose(D.components, [2.0, 0.0], atol=1e-12)
    assert D(u) == pytest.approx(1.0)
    # consistent with the dual norm: (2, 0) lies on the unit dual sphere
    assert m.dual_norm(ORIGIN2, D) == pytest.approx(1.0, abs=1e-12)


def test_legendre_rejects_off_indicatrix():
    with pytest.raises(NotOnIndicatrix):
        EuclideanMetric().legendre(ORIGIN2, [1.0, 1.0])


def test_legendre_drift_extremal_property(rng):
    # D_u is the supporting covector: over a dense indicatrix sample its
    # pairing is maximized (value 1) at u itself
    m = MinkowskiMetric([0.5, 0.0])
    u = m.unit_vector(ORIGIN2, rng.standard_normal(2)).components
    D = m.legendre(ORIGIN2, u).components
    theta = np.linspace(0.0, 2.0 * np.pi, 1_000_000, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    samples = dirs / (1.0 + 0.5 * np.cos(theta))[:, None]
    pairings = samples @ D
    k = int(np.argmax(pairings))
    assert pairings[k] == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(samples[k] - u) <= 1e-4


def test_dual_norm_euclidean():
    assert EuclideanMetric().dual_norm(ORIGIN2, Covector([3.0, 4.0])) == pytest.approx(5.0)


def test_dual_norm_riemannian():
    m = RiemannianMetric(np.diag([4.0, 1.0]))
    # sup of 2*v1 over the ellipse 4 v1^2 + v2^2 = 1 is 1
    assert m.dual_norm(ORIGIN2, Covector([2.0, 0.0])) == pytest.approx(1.0, abs=1e-12)


def test_dual_norm_drift_against_dense_sampling():
    m = MinkowskiMetric([0.5, 0.0])
    q = np.array([1.0, 0.0])
    theta = np.linspace(0.0, 2.0 * np.pi, 1_000_000, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    samples = dirs / (1.0 + 0.5 * np.cos(theta))[:, None]
    sampled = float(np.max(samples @ q))
    assert abs(m.dual_norm(ORIGIN2, q) - sampled) <= 1e-5
    assert m.dual_norm(ORIGIN2, q) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_legendre_dual_examples():
    m = EuclideanMetric()
    v = m.legendre_dual(ORIGIN2, Covector([0.0, 1.0]))
    assert np.allclose(v.components, [0.0, 1.0], atol=1e-12)
    mr = RiemannianMetric(np.diag([4.0, 1.0]))
    v = mr.legendre_dual(ORIGIN2, Covector([2.0, 0.0]))
    assert np.allclose(v.components, [0.5, 0.0], atol=1e-12)


def test_legendre_dual_rejects_off_figuratrix():
    with pytest.raises(NotOnFiguratrix):
        RiemannianMetric(np.diag([4.0, 1.0])).legendre_dual(ORIGIN2, Covector([1.0, 0.0]))


@pytest.mark.parametrize("case", builtin_metrics(), ids=lambda c: c[0].kind)
def test_legendre_involution(case, rng):
    metric, x = case
    for _ in range(20):
        u = metric.unit_vector(x, rng.standard_normal(x.size)).components
        D = metric.legendre(x, u)
        back = metric.legendre_dual(x, D)
        assert np.max(np.abs(back.components - u)) <= 1e-7


@pytest.mark.parametrize("case", builtin_metrics(), ids=lambda c: c[0].kind)
def test_dual_norm_sup_property(case, rng):
    metric, x = case
    for _ in range(5):
        q = rng.standard_normal(x.size)
        dn = metric.dual_norm(x, q)
        for _ in range(50):
            v = metric.unit_vector(x, rng.standard_normal(x.size)).components
            assert float(q @ v) <= dn + 1e-9
        vstar = metric._dual_argmax(x, q)
        assert float(q @ vstar) == pytest.approx(dn, abs=1e-7)


@pytest.mark.parametrize("case", builtin_metrics(), ids=lambda c: c[0].kind)
def test_dual_norm_positively_homogeneous(case, rng):
    metric, x = case
    for _ in range(10):
        q = rng.standard_normal(x.size)
        dn = metric.dual_norm(x, q)
        for t in (0.5, 3.0):
            assert metric.dual_norm(x, t * q) == pytest.approx(t * dn, rel=1e-12)
        assert dn >= 0.0


def test_reversibility_flags_are_honest(rng):
    for metric, x in builtin_metrics():
        witness = 0.0
        for _ in range(50):
            v = rng.standard_normal(x.size)
            witness = max(witness, abs(metric.lagrangian(x, v) - metric.lagrangian(x, -v)))
        if metric.reversible:
            assert witness <= 1e-12
        else:
            assert witness > 1e-6


# ---------------------------------------------------------------------------
# magnetic indicatrix geometry


def test_magnetic_indicatrix_params_half():
    a, b, c = magnetic_indicatrix_params(0.5)
    assert a == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert b == pytest.approx(2.0 / np.sqrt(3.0), abs=1e-15)
    assert c == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert c**2 == pytest.approx(a**2 - b**2, abs=1e-15)


def test_magnetic_indicatrix_params_zero_field():
    assert magnetic_indicatrix_params(0.0) == (1.0, 1.0, 0.0)


def test_magnetic_indicatrix_points_on_ellipse():
    t = 0.3
    a, b, c = magnetic_indicatrix_params(t)
    theta = np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False)
    v1 = np.cos(theta) / (1.0 + t * np.cos(theta))
    v2 = np.sin(theta) / (1.0 + t * np.cos(theta))
    resid = ((v1 + c) / a) ** 2 + (v2 / b) ** 2 - 1.0
    assert np.max(np.abs(resid)) <= 1e-12


def test_field_too_strong_rejected():
    with pytest.raises(FieldTooStrong):
        magnetic_indicatrix_params(1.0)
    with pytest.raises(FieldTooStrong):
        MinkowskiMetric([1.0, 0.0])
    with pytest.raises(InvalidParameters):
        MagneticMetric(0.0)


def test_weak_field_guard_at_strong_field_point():
    # |B| |x| / 2 = 1.125 at x: every kernel that makes alpha(x) must refuse
    m = MagneticMetric(0.5)
    x, v = np.array([4.5, 0.0]), np.array([0.0, 1.0])
    for call in (m.lagrangian, m.fiber_derivative, m.dual_norm, m.legendre_dual):
        with pytest.raises(FieldTooStrong):
            call(x, v)
    with pytest.raises(FieldTooStrong):
        fb.integrate_geodesic(m, x, v, 0.1, 0.01)


def test_validate_field_strength(unit_circle):
    bound = validate_field_strength(MagneticMetric(0.3), unit_circle)
    assert bound == 0.5 * 0.3 * unit_circle.bounding_radius
    big = fb.ellipsoid_table([8.0, 8.0])
    with pytest.raises(FieldTooStrong):
        validate_field_strength(MagneticMetric(0.3), big)


# ---------------------------------------------------------------------------
# generic dual path for user-defined Lagrangians


@pytest.mark.parametrize("case", [
    (EuclideanMetric(dim=2), ORIGIN2),
    (MinkowskiMetric([0.3, 0.1]), ORIGIN2),
    (MagneticMetric(0.2), np.array([0.4, -0.3])),
], ids=lambda c: c[0].kind)
def test_generic_dual_path_matches_closed_form(case, rng):
    # the Randers family |v| + a(x).v against the generic path at a frozen a(x)
    closed, x = case
    generic = LagrangianMetric(randers_lagrangian(closed.alpha_at(x)), dim=2,
                               flat_geodesics=True)
    for _ in range(5):
        v = rng.standard_normal(2)
        assert abs(generic._L(x, v) - closed._L(x, v)) <= 1e-8
        assert np.max(np.abs(generic._DL(x, v) - closed._DL(x, v))) <= 1e-6
        q = rng.standard_normal(2)
        assert abs(generic.dual_norm(x, q) - closed.dual_norm(x, q)) <= 1e-8
        v_g = generic._dual_argmax(x, q)
        v_c = closed._dual_argmax(x, q)
        assert np.max(np.abs(v_g - v_c)) <= 1e-6


def test_generic_fiber_derivative_euler(rng):
    generic = LagrangianMetric(randers_lagrangian([0.2, -0.1]), dim=2,
                               flat_geodesics=True)
    for _ in range(10):
        v = rng.standard_normal(2)
        L = generic.lagrangian(ORIGIN2, v)
        assert abs(generic.fiber_derivative(ORIGIN2, v)(v) - L) <= 1e-8 * L


# ---------------------------------------------------------------------------
# spec parsing


def test_metric_from_spec_round_trip():
    for spec in [
        {"kind": "euclidean"},
        {"kind": "riemannian", "tensor": [[4.0, 0.0], [0.0, 1.0]]},
        {"kind": "minkowski", "alpha": [0.2, 0.0, 0.0]},
        {"kind": "magnetic", "B": 0.1},
    ]:
        metric = metric_from_spec(spec)
        assert metric.spec()["kind"] == spec["kind"]


def test_generic_second_order_data_against_magnetic_closed_forms(rng):
    # the finite-difference _Lvv, _Ly and _Lvy of FinslerMetric against the
    # closed forms of the same Lagrangian, at indicatrix points as the
    # geodesic integrator uses them
    closed = MagneticMetric(0.2)
    generic = LagrangianMetric(lambda x, v: closed._L(x, v), dim=2)
    for _ in range(50):
        x = rng.uniform(-2.0, 2.0, 2)
        v = closed._unit(x, rng.standard_normal(2))
        assert np.max(np.abs(generic._Lvv(x, v) - closed._Lvv(x, v))) <= 1e-3
        assert np.max(np.abs(generic._Ly(x, v) - closed._Ly(x, v))) <= 1e-8
        assert np.max(np.abs(generic._Lvy(x, v) - closed._Lvy(x, v))) <= 1e-3


def _circle_table(dim):
    return fb.ConvexTable(lambda x: float(x @ x) - 1.0, lambda x: 2.0 * x,
                          bounding_radius=1.0, dim=dim)


@pytest.mark.parametrize("build, dim", [
    (_circle_table, 2.0), (_circle_table, "3"), (_circle_table, True), (_circle_table, 1),
    (lambda dim: LagrangianMetric(lambda x, v: float(np.linalg.norm(v)), dim=dim), 2.7),
    (lambda dim: LagrangianMetric(lambda x, v: float(np.linalg.norm(v)), dim=dim), True),
    (lambda dim: metric_from_spec({"kind": "euclidean", "dim": dim}), "x"),
    (lambda dim: metric_from_spec({"kind": "euclidean", "dim": dim}), 2.5),
], ids=["table-float", "table-str", "table-bool", "table-1", "lagrangian-fraction",
        "lagrangian-bool", "euclidean-spec-str", "euclidean-spec-fraction"])
def test_constructors_reject_bad_dimensions(build, dim):
    # 2.0 and "3" raised a raw TypeError, 2.7 and True were truncated to 2 and 1,
    # and "x" was kept as the metric's dimension
    with pytest.raises(InvalidParameters, match="dimension must be an integer >= 2"):
        build(dim)


def test_metric_spec_errors():
    with pytest.raises(InvalidParameters):
        metric_from_spec({"kind": "hyperbolic"})
    with pytest.raises(InvalidParameters):
        metric_from_spec({"kind": "minkowski"})
    with pytest.raises(InvalidParameters):
        metric_from_spec({"kind": "riemannian", "tensor": [[1.0, 2.0], [2.0, 1.0]]})
    # inf was accepted, and "ab" raised a raw ValueError
    for tensor, message in (
        ([[float("inf"), 0.0], [0.0, 1.0]], "entries must be finite"),
        ([[1.0, float("nan")], [float("nan"), 1.0]], "entries must be finite"),
        ("ab", "entry must be a number"),
        ([[1.0, "0"], ["0", 1.0]], "entry must be a number"),
        ([[True, 0.0], [0.0, 1.0]], "entry must be a number"),
        ([[1.0, 0.0], [0.0]], "entry must be a number"),
    ):
        with pytest.raises(InvalidParameters, match=message):
            RiemannianMetric(tensor)
    for B in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidParameters, match="B must be finite"):
            metric_from_spec({"kind": "magnetic", "B": B})
