import numpy as np
import pytest

from finsler_billiards import Covector, EuclideanMetric, InvalidParameters, MinkowskiMetric, Vector
from finsler_billiards.vectors import as_components


def test_pairing_is_the_standard_contraction():
    p = Covector([1.0, 2.0, -1.0])
    v = Vector([3.0, 0.5, 2.0])
    assert p(v) == pytest.approx(3.0 + 1.0 - 2.0)


def test_vector_covector_mixing_raises():
    v = Vector([1.0, 0.0])
    p = Covector([0.0, 1.0])
    with pytest.raises(TypeError):
        v + p
    with pytest.raises(TypeError):
        p - v
    with pytest.raises(TypeError):
        p(p)
    with pytest.raises(TypeError):
        v.dot(p)


def test_arithmetic_and_norm():
    v = Vector([3.0, 4.0])
    assert v.norm() == pytest.approx(5.0)
    assert (2 * v - v).components @ v.components == pytest.approx(25.0)
    assert v.unit().norm() == pytest.approx(1.0)
    assert (-v).components[0] == -3.0


def test_components_are_read_only():
    v = Vector([1.0, 2.0])
    with pytest.raises(ValueError):
        v.components[0] = 7.0
    with pytest.raises(AttributeError):
        v._c = np.zeros(2)


def test_nonfinite_rejected():
    with pytest.raises(InvalidParameters):
        Vector([np.nan, 0.0])
    with pytest.raises(InvalidParameters):
        Covector([np.inf, 0.0])


def test_pairing_dimension_mismatch():
    with pytest.raises(InvalidParameters):
        Covector([1.0, 0.0])(Vector([1.0, 0.0, 0.0]))


def test_coordinates_reject_strings_and_booleans():
    # as_components used to convert "0.2" to 0.2 and True to 1.0, and to raise
    # a raw ValueError for "ab"
    for call in (lambda: MinkowskiMetric([0.1, "0.2"]),
                 lambda: EuclideanMetric().lagrangian([0, 0], ["3", 4]),
                 lambda: MinkowskiMetric("ab"),
                 lambda: as_components([True, 0.0]),
                 lambda: as_components(np.array([True, False])),
                 lambda: as_components(np.array(["1", "2"]))):
        with pytest.raises(InvalidParameters, match="coordinate must be a number"):
            call()
    assert EuclideanMetric().lagrangian([0, 0], [3, 4]) == 5.0
    for x in ([1, 2.5], (1, np.float64(2.5)), np.array([1, 2]), np.array([1.0, 2.5])):
        a = as_components(x, 2)
        assert a.dtype == float and a.tolist() == [float(v) for v in x]
