"""Compare the benchmark workloads' search reports of two checkouts class by class.

Runs each workload in ``perfbench/workloads.py`` at rng seeds 0, 1 and 2 with
this checkout's package and with another one, each in its own subprocess, and
compares each pair of reports:

- isolated classes are matched one to one by cyclic vertex distance
  (``search._zr_distance`` within the report's ``cluster_tol``), not by list
  position, since classes whose lengths tie within float noise may swap order;
  matched classes must agree in index, degeneracy, flags, rotation number and
  multiplicity;
- ``continuum-suspect`` classes are sample points of a critical manifold, and
  where on it a seed lands is set by rounding noise in the singular Newton
  direction, so they are compared per family: the same index, degeneracy,
  flags, rotation number and critical value (within 1e-7), reached by the same
  number of seeds.

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


def _families(orbits: list) -> list:
    """[profile, lambdas, seeds] per profile and critical value, by ascending lambda."""
    families = []
    for orbit in sorted(orbits, key=lambda o: o["lambda"]):
        profile = [orbit[key] for key in _CLASS_FIELDS[:-1]]
        last = next((f for f in reversed(families) if f[0] == profile), None)
        if last is not None and orbit["lambda"] - last[1][-1] <= LAMBDA_TOL:
            last[1].append(orbit["lambda"])
            last[2] += orbit["multiplicity"]
        else:
            families.append([profile, [orbit["lambda"]], orbit["multiplicity"]])
    return families


def compare_reports(old: dict, new: dict) -> tuple[list[str], float, float]:
    """Problems found, largest vertex deviation and largest lambda deviation.

    Each isolated class of ``old`` is matched to the nearest unmatched one of
    ``new`` within the cluster tolerance of ``old``'s config, and each family
    of continuum-suspect classes to the ``new`` family of the same profile
    whose critical value lies within LAMBDA_TOL.
    """
    from finsler_billiards.search import _zr_distance

    problems = [f"{key}: {old.get(key)!r} != {new.get(key)!r}"
                for key in _REPORT_FIELDS if old.get(key) != new.get(key)]
    tol = old["config"]["search"]["cluster_tol"]
    isolated = [[o for o in r["orbits"] if "continuum-suspect" not in o["flags"]]
                for r in (old, new)]
    continua = [[o for o in r["orbits"] if "continuum-suspect" in o["flags"]]
                for r in (old, new)]
    unmatched = list(range(len(isolated[1])))
    max_vertex = max_lambda = 0.0
    for orbit in isolated[0]:
        pts = np.array(orbit["vertices"])
        dists = [_zr_distance(pts, np.array(isolated[1][j]["vertices"])) for j in unmatched]
        if not dists or min(dists) > tol:
            problems.append(f"class (lambda {orbit['lambda']!r}) has no match")
            continue
        k = int(np.argmin(dists))
        match = isolated[1][unmatched.pop(k)]
        max_vertex = max(max_vertex, dists[k])
        max_lambda = max(max_lambda, abs(orbit["lambda"] - match["lambda"]))
        problems += [f"class (lambda {orbit['lambda']!r}): {key} {orbit[key]!r} != {match[key]!r}"
                     for key in _CLASS_FIELDS if orbit[key] != match[key]]
    problems += [f"new class (lambda {isolated[1][j]['lambda']!r}) has no match"
                 for j in unmatched]

    new_families = _families(continua[1])
    for profile, lambdas, seeds in _families(continua[0]):
        match = next((f for f in new_families if f[0] == profile
                      and abs(f[1][0] - lambdas[0]) <= LAMBDA_TOL), None)
        if match is None:
            problems.append(f"continuum {profile} at lambda {lambdas[0]!r} has no match")
            continue
        new_families.remove(match)
        max_lambda = max(max_lambda, max(lambdas + match[1]) - min(lambdas + match[1]))
        if seeds != match[2]:
            problems.append(f"continuum {profile} at lambda {lambdas[0]!r}: "
                            f"{seeds} seeds != {match[2]}")
    problems += [f"new continuum {profile} at lambda {lambdas[0]!r} has no match"
                 for profile, lambdas, _ in new_families]
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
