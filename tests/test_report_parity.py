"""The class matching of ``scripts/report_parity.py`` on hand-built reports.

The script is loaded by path; only its pure comparison function is exercised.
"""

import copy
import importlib.util
from pathlib import Path

import numpy as np
import pytest

PARITY_PY = Path(__file__).resolve().parents[1] / "scripts" / "report_parity.py"


def load_parity():
    spec = importlib.util.spec_from_file_location("report_parity", PARITY_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _orbit(angles, index, lam, degeneracy=0, flags=(), multiplicity=2):
    return {
        "vertices": [[float(np.cos(a)), float(np.sin(a))] for a in angles],
        "lambda": lam, "index": index, "degeneracy": degeneracy, "flags": list(flags),
        "rotation_number": 1, "multiplicity": multiplicity,
    }


# two classes whose lengths tie, the way reversal pairs do on drift3d
REPORT = {
    "config": {"search": {"cluster_tol": 1e-5}, "r": 3},
    "classes": 2, "bound": None, "bound_check": "skipped: bounds require d >= 3",
    "classes_by_rotation": {"1": 2},
    "orbits": [_orbit([0.0, 2.0, 4.0], 3, 5.0), _orbit([0.0, -2.0, -4.0], 2, 5.0)],
}


def _swapped_tie():
    new = copy.deepcopy(REPORT)
    new["orbits"].reverse()
    for orbit in new["orbits"]:
        orbit["vertices"] = orbit["vertices"][1:] + orbit["vertices"][:1]
        orbit["vertices"][0][0] += 3e-9
        orbit["lambda"] += 1e-13
    return new


def test_swapped_tie_passes():
    problems, max_vertex, max_lambda = load_parity().compare_reports(REPORT, _swapped_tie())
    assert problems == []
    assert max_vertex == pytest.approx(3e-9, rel=1e-6)
    assert max_lambda == pytest.approx(1e-13, rel=1e-2)


@pytest.mark.parametrize("edit,expected", [
    (lambda new: new["orbits"][1].update(index=4), "index 3 != 4"),
    (lambda new: new["orbits"][0].update(flags=["reversal-symmetric"]), "flags"),
    (lambda new: new["orbits"][0]["vertices"][0].__setitem__(1, 0.1), "has no match"),
    (lambda new: new["orbits"].append(_orbit([1.0, 3.0, 5.0], 1, 6.0)), "new class"),
    (lambda new: new.update(bound_check="pass"), "bound_check"),
], ids=["index", "flags", "moved-class", "extra-class", "bound-check"])
def test_changed_class_fails(edit, expected):
    new = _swapped_tie()
    edit(new)
    problems, _, _ = load_parity().compare_reports(REPORT, new)
    assert any(expected in line for line in problems), problems


def _disk(offsets, multiplicities):
    """One record per family of equilateral triangles on the disk, at rotation numbers 1, 2."""
    lam = 3.0 * np.sqrt(3.0)
    orbits = []
    for rot, (a, m) in enumerate(zip(offsets, multiplicities), start=1):
        turn = (-1.0) ** (rot + 1) * np.array([0.0, 2.0, 4.0]) * np.pi / 3.0
        orbits.append(dict(_orbit(a + turn, 2, lam + 1e-15 * rot, 1, ["continuum-suspect"], m),
                           rotation_number=rot))
    return dict(REPORT, orbits=orbits, classes=len(orbits),
                classes_by_rotation={str(o["rotation_number"]): 1 for o in orbits})


def test_continuum_compared_per_family():
    # the representative can be any point of the family's critical manifold,
    # so records match by profile and critical value, not by vertices
    old = _disk([0.1, 0.7], [70, 50])
    new = _disk([1.3, 2.9], [70, 50])
    problems, max_vertex, max_lambda = load_parity().compare_reports(old, new)
    assert problems == []
    assert max_vertex == 0.0
    assert max_lambda <= 3e-15


@pytest.mark.parametrize("edit,expected", [
    (lambda new: new["orbits"][0].update(multiplicity=69), "multiplicity 70 != 69"),
    (lambda new: new["orbits"][1].update(index=1), "has no match"),
    (lambda new: new["orbits"][1].update(**{"lambda": 5.3}), "has no match"),
    (lambda new: new["orbits"].pop(1), "has no match"),
], ids=["seeds", "index", "critical-value", "missing-family"])
def test_changed_continuum_fails(edit, expected):
    new = _disk([1.3, 2.9], [70, 50])
    edit(new)
    problems, _, _ = load_parity().compare_reports(_disk([0.1, 0.7], [70, 50]), new)
    assert any(expected in line for line in problems), problems
