"""Compare the benchmark workloads' search reports of two checkouts class by class.

Runs each workload in ``perfbench/workloads.py`` at rng seeds 0, 1 and 2 with
this checkout's package and with another one, each in its own subprocess, and
compares each pair of reports:

- isolated classes are matched one to one by cyclic vertex distance
  (``search._zr_distance`` within the report's ``cluster_tol``), not by list
  position, since classes whose lengths tie within float noise may swap order;
- ``continuum-suspect`` records, one per critical family, are matched one to
  one by index, degeneracy, flags, rotation number and critical value (within
  1e-7), not by vertices, since the representative can be any point of the
  family's critical manifold;
- matched records must agree in index, degeneracy, flags, rotation number and
  multiplicity (the number of seeds that reached the class or family).

Prints the largest vertex and lambda deviations and exits 1 on any mismatch:

    python3 scripts/report_parity.py --src OTHER/src
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2)
LAMBDA_TOL = 1e-7  # a critical continuum has one critical value
_CLASS_FIELDS = ("index", "degeneracy", "flags", "rotation_number", "multiplicity")
_REPORT_FIELDS = ("config", "bound", "bound_check")


def _distance(a: dict, b: dict) -> float:
    """Matching distance of two records.

    The cyclic vertex distance of two isolated classes, the lambda gap of two
    family records of the same profile, infinite otherwise.
    """
    from finsler_billiards.search import _zr_distance

    if "continuum-suspect" not in a["flags"] + b["flags"]:
        return _zr_distance(np.array(a["vertices"]), np.array(b["vertices"]))
    if any(a[key] != b[key] for key in _CLASS_FIELDS[:-1]):
        return np.inf
    return abs(a["lambda"] - b["lambda"])


def compare_reports(old: dict, new: dict) -> tuple[list[str], float, float]:
    """Problems found, largest vertex deviation and largest lambda deviation.

    Each record of ``old`` is matched to the nearest unmatched one of ``new``
    by ``_distance``: an isolated class within the cluster tolerance of
    ``old``'s config, a family record within LAMBDA_TOL.
    """
    problems = [f"{key}: {old.get(key)!r} != {new.get(key)!r}"
                for key in _REPORT_FIELDS if old.get(key) != new.get(key)]
    tol = old["config"]["search"]["cluster_tol"]
    unmatched = list(new["orbits"])
    max_vertex = max_lambda = 0.0
    for orbit in old["orbits"]:
        family = "continuum-suspect" in orbit["flags"]
        dists = [_distance(orbit, other) for other in unmatched]
        if not dists or min(dists) > (LAMBDA_TOL if family else tol):
            problems.append(f"class (lambda {orbit['lambda']!r}) has no match")
            continue
        k = int(np.argmin(dists))
        match = unmatched.pop(k)
        if not family:
            max_vertex = max(max_vertex, dists[k])
        max_lambda = max(max_lambda, abs(orbit["lambda"] - match["lambda"]))
        problems += [f"class (lambda {orbit['lambda']!r}): {key} {orbit[key]!r} != {match[key]!r}"
                     for key in _CLASS_FIELDS if orbit[key] != match[key]]
    problems += [f"new class (lambda {orbit['lambda']!r}) has no match" for orbit in unmatched]
    return problems, max_vertex, max_lambda


def _dump_reports() -> None:
    """Print {workload: [report per seed]} as JSON for the package on sys.path."""
    from finsler_billiards import cli
    from report_digests import load_workloads

    json.dump({name: [cli.run_search(workload.search_config(seed))[0] for seed in SEEDS]
               for name, workload in load_workloads().items()}, sys.stdout)


def _reports(src: str) -> dict:
    out = subprocess.run([sys.executable, __file__, "--dump", "--src", src],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="directory that holds the other checkout's finsler_billiards")
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        sys.path.insert(0, args.src)
        _dump_reports()
        return 0
    here = str(ROOT / "src")
    sys.path.insert(0, here)
    old, new = _reports(args.src), _reports(here)
    failed = False
    for name in old:
        for seed, a, b in zip(SEEDS, old[name], new[name]):
            problems, dv, dl = compare_reports(a, b)
            status = "ok" if not problems else "MISMATCH"
            print(f"{name} seed {seed}: {len(a['orbits'])} -> {len(b['orbits'])} classes, "
                  f"max vertex dev {dv:.3g}, max lambda dev {dl:.3g}: {status}")
            for line in problems:
                print(f"  {line}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
