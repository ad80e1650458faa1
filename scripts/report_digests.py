"""Print short digests of the benchmark workloads' search reports.

For each workload in ``perfbench/workloads.py`` at rng seeds 0, 1 and 2, prints
the first 16 hex digits of the sha256 of ``cli.dumps_report`` of its report.
With ``--acceptance`` it also prints one digest for each of the four search
configs of ``tests/test_acceptance.py``, which take several seconds more.
Equal lines from two checkouts mean byte-identical reports:

    python3 scripts/report_digests.py                 # this checkout's package
    python3 scripts/report_digests.py --src OTHER/src # another checkout's package
    python3 scripts/report_digests.py --acceptance    # and the acceptance configs
"""

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


# the search configs of tests/test_acceptance.py, in the order its fixtures run them
ACCEPTANCE_CONFIGS = ("DISK_SEARCH", "ELLIPSOID_EUCLID", "ELLIPSOID_DRIFT", "ELLIPSE_MAGNETIC")


def load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def load_workloads() -> dict:
    return load("perfbench_workloads", ROOT / "perfbench" / "workloads.py").WORKLOADS


def load_acceptance_configs() -> dict:
    sys.path.insert(0, str(ROOT / "tests"))  # the test module imports its conftest
    module = load("acceptance_configs", ROOT / "tests" / "test_acceptance.py")
    return {name: getattr(module, name) for name in ACCEPTANCE_CONFIGS}


def digest(cli, config: dict) -> str:
    return hashlib.sha256(cli.dumps_report(cli.run_search(config)[0]).encode()).hexdigest()[:16]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the finsler_billiards package")
    parser.add_argument("--acceptance", action="store_true",
                        help="also digest the four acceptance search configs")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from finsler_billiards import cli

    print(f"package: {Path(cli.__file__).parent}", file=sys.stderr)
    for name, workload in load_workloads().items():
        print(name, *(digest(cli, workload.search_config(seed)) for seed in (0, 1, 2)))
    if args.acceptance:
        for name, config in load_acceptance_configs().items():
            print(name, digest(cli, config))


if __name__ == "__main__":
    main()
