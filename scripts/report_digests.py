"""Print short digests of the benchmark workloads' search reports.

For each workload in ``perfbench/workloads.py`` at rng seeds 0, 1 and 2, prints
the first 16 hex digits of the sha256 of ``cli.dumps_report`` of its report.
Equal lines from two checkouts mean byte-identical reports:

    python3 scripts/report_digests.py                 # this checkout's package
    python3 scripts/report_digests.py --src OTHER/src # another checkout's package
"""

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the finsler_billiards package")
    sys.path.insert(0, parser.parse_args().src)
    from finsler_billiards import cli

    print(f"package: {Path(cli.__file__).parent}", file=sys.stderr)
    for name, workload in load_workloads().items():
        digests = [hashlib.sha256(cli.dumps_report(
            cli.run_search(workload.search_config(seed))[0]).encode()).hexdigest()[:16]
            for seed in (0, 1, 2)]
        print(name, *digests)


if __name__ == "__main__":
    main()
