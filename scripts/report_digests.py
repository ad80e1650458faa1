"""Print short digests of the benchmark workloads' search reports.

For each workload in ``perfbench/workloads.py`` at rng seeds 0, 1 and 2, prints
the first 16 hex digits of the sha256 of ``cli.dumps_report`` of its report.
With ``--acceptance`` it also prints one digest for each of the four search
configs of ``tests/test_acceptance.py``, which take several seconds more.
Equal lines from two checkouts mean byte-identical reports.  ``--against``
also digests another checkout's package, in a subprocess since both packages
are named ``finsler_billiards``, prints every line that differs and exits 1
if any does:

    python3 scripts/report_digests.py                     # this checkout's package
    python3 scripts/report_digests.py --src OTHER/src     # another checkout's package
    python3 scripts/report_digests.py --acceptance        # and the acceptance configs
    python3 scripts/report_digests.py --against OTHER/src # compare with another package
"""

import argparse
import hashlib
import importlib.util
import subprocess
import sys
from itertools import zip_longest
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


def digest_lines(src: str, acceptance: bool):
    """The digest lines of the package in ``src``, one per workload or acceptance config."""
    sys.path.insert(0, src)
    from finsler_billiards import cli

    print(f"package: {Path(cli.__file__).parent}", file=sys.stderr)
    for name, workload in load_workloads().items():
        yield " ".join([name, *(digest(cli, workload.search_config(seed)) for seed in (0, 1, 2))])
    if acceptance:
        for name, config in load_acceptance_configs().items():
            yield f"{name} {digest(cli, config)}"


def other_lines(src: str, acceptance: bool) -> list[str]:
    """``digest_lines`` of another package, run by this script in a subprocess."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--src", src]
    if acceptance:
        cmd.append("--acceptance")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: the digests of {src} failed\n{proc.stderr.strip()}")
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the finsler_billiards package")
    parser.add_argument("--acceptance", action="store_true",
                        help="also digest the four acceptance search configs")
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="another package directory to compare with; exit 1 on a difference")
    args = parser.parse_args(argv)
    other = other_lines(args.against, args.acceptance) if args.against else []
    lines = []
    for line in digest_lines(args.src, args.acceptance):
        print(line, flush=True)
        lines.append(line)
    if not args.against:
        return 0
    differing = [pair for pair in zip_longest(lines, other, fillvalue="(no line)")
                 if pair[0] != pair[1]]
    for mine, theirs in differing:
        print(f"differs: {mine}\nagainst: {theirs}")
    print(f"{len(differing)} of {max(len(lines), len(other))} lines differ from {args.against}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
