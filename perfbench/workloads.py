"""Pinned search workloads and the checks every report must pass.

The configs are copies of the acceptance-suite configs, not imports, so an
edit to a test cannot silently change what the benchmark measures.  ``jobs``
is left out on purpose: ``run_search`` defaults to one worker.  Seed budgets
are the benchmark's own and smaller than the acceptance budgets, so that one
run holds many searches.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable

# The acceptance suite's ELLIPSOID_DRIFT config.
DRIFT3D = {
    "mode": "search",
    "metric": {"kind": "minkowski", "alpha": [0.2, 0.0, 0.0]},
    "table": {"kind": "ellipsoid", "semi_axes": [1.0, 1.3, 1.7],
              "perturbation": {"eps": 0.02, "coeffs": [1.0, 1.0, 1.0]}},
    "r": 3,
    "bound": "general",
    "search": {"grad_tol": 1e-9},
}

# The acceptance suite's ELLIPSE_MAGNETIC config.
MAGNETIC2D = {
    "mode": "search",
    "metric": {"kind": "magnetic", "B": 0.1},
    "table": {"kind": "ellipsoid", "semi_axes": [1.2, 1.0]},
    "r": 3,
    "search": {},
}

# The acceptance suite's DISK_SEARCH config.
DISK2D = {
    "mode": "search",
    "metric": {"kind": "euclidean"},
    "table": {"kind": "ellipsoid", "semi_axes": [1.0, 1.0]},
    "r": 3,
    "search": {},
}

_EQUILATERAL = 3.0 * math.sqrt(3.0)  # perimeter of the triangle inscribed in the unit disk


def _check_drift(report: dict) -> list[str]:
    if report["bound_check"] != "pass":
        return [f"bound_check is {report['bound_check']!r}, expected 'pass'"]
    return []


def _check_magnetic(report: dict) -> list[str]:
    by_rot = report.get("classes_by_rotation", {})
    return [f"{by_rot.get(k, 0)} classes at rotation {k}, expected >= 2"
            for k in ("1", "2") if by_rot.get(k, 0) < 2]


def _check_disk(report: dict) -> list[str]:
    problems = []
    for i, orbit in enumerate(report["orbits"]):
        if abs(orbit["lambda"] - _EQUILATERAL) > 1e-7:
            problems.append(f"orbit {i}: lambda {orbit['lambda']!r} is not 3*sqrt(3)")
        if "continuum-suspect" not in orbit["flags"]:
            problems.append(f"orbit {i}: missing the continuum-suspect flag")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    seeds: int          # multistart seed budget of one search
    traced_inputs: int  # inputs of a traced run, a fixed count so that calls per search repeat
    check: Callable[[dict], list[str]]

    def search_config(self, rng_seed: int) -> dict:
        cfg = copy.deepcopy(self.config)
        cfg["search"].update(seeds=self.seeds, rng_seed=rng_seed)
        return cfg


WORKLOADS = {
    w.name: w for w in (
        Workload("drift3d", DRIFT3D, seeds=20, traced_inputs=5, check=_check_drift),
        Workload("magnetic2d", MAGNETIC2D, seeds=25, traced_inputs=5, check=_check_magnetic),
        Workload("disk2d-continuum", DISK2D, seeds=120, traced_inputs=2, check=_check_disk),
    )
}


def check_report(workload: Workload, report: dict, code: int) -> list[str]:
    """Problems with one search report; empty when it passes."""
    problems = []
    if code != 0:
        problems.append(f"run_search returned exit code {code}")
    if not report["orbits"]:
        problems.append("no orbit classes found")
    grad_tol = report["config"]["search"]["grad_tol"]
    for i, orbit in enumerate(report["orbits"]):
        if not orbit["residual"] <= grad_tol:
            problems.append(f"orbit {i}: residual {orbit['residual']!r} > grad_tol {grad_tol!r}")
    return problems + workload.check(report)


def orbit_families(report: dict, lambda_tol: float = 1e-7) -> int:
    """Isolated classes, plus one per continuum of continuum-suspect classes.

    Continuum-suspect classes are grouped by cyclic length: a whole critical
    continuum has one critical value, so merging or splitting it does not
    change the count.
    """
    isolated = 0
    levels = []
    for orbit in report["orbits"]:
        if "continuum-suspect" in orbit["flags"]:
            levels.append(orbit["lambda"])
        else:
            isolated += 1
    levels.sort()
    continua = sum(1 for i, lam in enumerate(levels) if i == 0 or lam - levels[i - 1] > lambda_tol)
    return isolated + continua


def converged_frac(report: dict) -> float:
    """Seeds that ended as guarded critical polygons, as a share of the budget."""
    return sum(o["multiplicity"] for o in report["orbits"]) / report["config"]["search"]["seeds"]
