"""Record a checkout's benchmark results as BENCH_<label>.json at this repo's root.

Runs ``CHECKOUT/perfbench/run.py --trace 0 --seconds 40`` for each workload
in the checkout's ``BENCHMARK.json`` at each rng seed in ``SEEDS``, one run
at a time, and writes each run's end-to-end metrics, the median per workload
and metric, the checkout's commit and the machine record.  Exits 1 and
writes nothing if a run fails or prints ``"correct": false``.

    python3 scripts/bench_record.py --label parent --root OTHER_CHECKOUT
    python3 scripts/bench_record.py --label change

``commit`` is the checkout's HEAD, ``dirty`` says whether its working tree
differs from it, and ``src_sha256`` digests the package files that were run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1000, 1001, 1002)
SECONDS = 40


class RunFailed(Exception):
    """A benchmark run exited nonzero, printed no result or was not correct."""


def parse_run(returncode: int, stdout: str) -> tuple[dict, dict]:
    """(result, machine record) of one ``run.py`` run; raises RunFailed."""
    lines = stdout.strip().splitlines()
    if returncode != 0 or not lines:
        raise RunFailed(f"exit code {returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RunFailed("the last line is not a JSON result") from None
    if result.get("correct") is not True:
        raise RunFailed(f"not correct: {result.get('failed')} of {result.get('attempted')} "
                        "searches failed")
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), {})
    return result, machine


def medians(runs: list[dict]) -> dict:
    """Median over runs of each metric, per workload."""
    values: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        per_metric = values.setdefault(run["workload"], {})
        for name, value in run["metrics"].items():
            per_metric.setdefault(name, []).append(value)
    return {w: {name: statistics.median(v) for name, v in m.items()} for w, m in values.items()}


def run_one(root: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0", "--seconds", str(SECONDS)],
        cwd=root, capture_output=True, text=True)
    try:
        result, machine = parse_run(proc.returncode, proc.stdout)
    except RunFailed as exc:
        raise RunFailed(f"{workload} seed {seed}: {exc}\n{proc.stderr.strip()}") from None
    return {"workload": workload, "seed": seed, "attempted": result["attempted"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "machine": machine}


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "finsler_billiards").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", default=str(ROOT), help="checkout to benchmark")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.label):
        parser.error("--label may hold only letters, digits, '_', '.' and '-'")
    root = Path(args.root).resolve()
    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]

    runs = []
    try:
        for workload in workloads:
            for seed in SEEDS:
                runs.append(run_one(root, workload, seed))
                print(f"{workload} seed {seed}: search_s {runs[-1]['metrics']['search_s']:.4f}",
                      file=sys.stderr)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {
        "label": args.label,
        "commit": _git(root, "rev-parse", "HEAD"),
        "dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no")),
        "src_sha256": _src_digest(root),
        "command": f"perfbench/run.py --trace 0 --seconds {SECONDS}",
        "seeds": list(SEEDS),
        "median": medians(runs),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
