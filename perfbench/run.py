"""Search benchmark: time ``cli.run_search`` on pinned workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload drift3d --seed 0 --seconds 40 --trace 0

``--seed n`` picks the run's inputs: input j is the workload's config with
rng seed 100000 n + j.  A run searches inputs 0, 0, 1, 2, ... until
``--seconds`` pass.  Every report is checked, and a repeat must be
byte-identical to the first report of its input.

``--trace 0`` prints the end-to-end metrics; search times there are scaled
to a reference host speed by ``hostprobe.HostProbe``.  ``--trace 1``
searches a fixed number of inputs once untraced, then in traced rounds, and
prints the per-layer metrics (wall times) and the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object.  Each run also writes its result, with the machine it ran on,
to ``.perfbench_out/`` in the checkout; a traced run writes its spans there
as well.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hostprobe import HostProbe
from layers import Tracer, layer_metrics
from workloads import WORKLOADS, check_report, converged_frac, orbit_families

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

# Times one set-up in a fresh interpreter: the package import (numpy too)
# plus building the geometry, which on magnetic2d runs the field guard.
_SETUP_CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import finsler_billiards
from finsler_billiards import cli
cli._build_geometry(json.loads(sys.argv[2]))
t1 = time.perf_counter()
print(json.dumps({"s": t1 - t0, "file": finsler_billiards.__file__}))
"""


class BenchError(Exception):
    """The benchmark cannot run here: no result is printed."""


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "loadavg_start": _loadavg(),
    }


def _from_src(module_file: str) -> bool:
    return Path(module_file).resolve().is_relative_to(SRC.resolve())


def _import_package():
    if not (SRC / "finsler_billiards" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'finsler_billiards'}")
    sys.path.insert(0, str(SRC))
    import finsler_billiards
    from finsler_billiards import billiards, cli, metrics, search
    if not _from_src(finsler_billiards.__file__):
        raise BenchError(f"finsler_billiards was imported from {finsler_billiards.__file__}")
    return {"cli": cli, "search": search, "billiards": billiards, "metrics": metrics}


def _setup_times(config: dict) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), json.dumps(config)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        if not _from_src(row["file"]):
            raise BenchError(f"set-up child imported {row['file']}")
        times.append(row["s"])
    return times


class Runner:
    """Searches the run's inputs, checks each report and collects the times.

    Input j is the workload's config with rng seed ``100000 * seed + j``.
    Times go into a dict from input index to the times of its searches that
    passed every check.
    """

    def __init__(self, workload, cli, seed: int, probe: HostProbe | None):
        self.workload = workload
        self.cli = cli
        self.seed = seed
        self.probe = probe
        self.wall_s: list[float] = []  # wall time of every search that passed
        self.reference: dict[int, str] = {}
        self.reports: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _rng_seed(self, j: int) -> int:
        return 100_000 * self.seed + j

    def _timed_search(self, cfg: dict) -> tuple[dict, int, float, float]:
        """(report, code, wall time, time at reference host speed or wall time)."""
        if self.probe is None:
            t0 = time.perf_counter()
            report, code = self.cli.run_search(cfg)
            wall = time.perf_counter() - t0
            return report, code, wall, wall
        with self.probe:
            report, code = self.cli.run_search(cfg)
        return report, code, self.probe.wall_s, self.probe.scaled_s()

    def search(self, j: int, times: dict[int, list[float]]) -> None:
        """Search input j once; record its time if the report passes."""
        self.attempted += 1
        try:
            report, code, wall, elapsed = self._timed_search(
                self.workload.search_config(self._rng_seed(j)))
            text = self.cli.dumps_report(report)
        except Exception as exc:  # a search that raises counts as failed
            self._fail(j, f"raised {type(exc).__name__}: {exc}")
            return
        if j not in self.reference:
            problems = check_report(self.workload, report, code)
            if problems:
                self._fail(j, "; ".join(problems))
                return
            self.reference[j], self.reports[j] = text, report
        elif text != self.reference[j]:
            self._fail(j, "report differs from the first report of this input")
            return
        times.setdefault(j, []).append(elapsed)
        self.wall_s.append(wall)

    def _fail(self, j: int, why: str) -> None:
        self.failed += 1
        self.problems.append(f"rng_seed {self._rng_seed(j)}: {why}")

    def search_for(self, seconds: float, times: dict[int, list[float]]) -> None:
        """Search inputs 0, 0, 1, 2, ... until ``seconds`` pass.

        Input 0 goes twice, so the byte-identity check runs in every run.  A
        further search starts only if it should end less than half a search
        past the limit.
        """
        start = time.perf_counter()
        for n, j in enumerate(itertools.chain([0], itertools.count()), start=1):
            self.search(j, times)
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / n >= seconds:
                return

    def rounds_for(self, seconds: float, count: int, times: dict[int, list[float]]) -> int:
        """Rounds over inputs 0..count-1 until ``seconds`` pass; returns the rounds."""
        start = time.perf_counter()
        rounds = 0
        while True:
            for j in range(count):
                self.search(j, times)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / rounds >= seconds:
                return rounds

    def good_reports(self) -> list[dict]:
        return list(self.reports.values())


def _search_s(times: dict[int, list[float]]) -> float:
    """Mean over the run's inputs of each input's median search time.

    The median over repeats damps host noise; the mean over inputs damps
    how much the work differs from one rng seed to the next.
    """
    return _mean(statistics.median(t) for t in times.values())


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _untraced(runner: Runner, workload, seconds: float) -> tuple[dict, dict]:
    setup = _setup_times(workload.search_config(0))
    times: dict[int, list[float]] = {}
    runner.search_for(seconds, times)
    reports = runner.good_reports()
    metrics = {
        "search_s": {"value": _search_s(times), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "converged_frac": {"value": _mean(converged_frac(r) for r in reports), "unit": "ratio"},
        "orbit_families": {"value": _mean(orbit_families(r) for r in reports), "unit": "count"},
        "search_ok_frac": {"value": 1.0 - runner.failed / runner.attempted, "unit": "ratio"},
    }
    details = {
        "inputs": len(times),
        "search_samples": len(runner.wall_s),
        "search_s_by_input": {j: [round(t, 4) for t in ts] for j, ts in times.items()},
        "search_wall_s_mean": _mean(runner.wall_s),
        "search_wall_s_max": max(runner.wall_s, default=0.0),
        "setup_samples": len(setup),
        "setup_s_all": setup,
        "search_fail_frac": runner.failed / runner.attempted,
    }
    return metrics, details


def _traced(runner: Runner, workload, modules, seconds: float, seed: int) -> tuple[dict, dict]:
    count = workload.traced_inputs
    untraced: dict[int, list[float]] = {}
    t0 = time.perf_counter()
    for j in range(count):
        runner.search(j, untraced)
    left = seconds - (time.perf_counter() - t0)

    metric_cls = type(modules["metrics"].metric_from_spec(workload.config["metric"]))
    tracer = Tracer()
    traced: dict[int, list[float]] = {}
    tracer.install(modules, metric_cls)
    try:
        rounds = runner.rounds_for(left, count, traced)
    finally:
        tracer.uninstall()

    arrays = tracer.arrays()
    searches = rounds * count
    metrics, details = layer_metrics(arrays, searches)
    reports = runner.good_reports()
    metrics["search.new_class_ratio"] = {
        "value": _mean(r["classes"] / sum(o["multiplicity"] for o in r["orbits"])
                       for r in reports),
        "unit": "ratio"}
    untraced_s, traced_s = _search_s(untraced), _search_s(traced)
    metrics["trace.search_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    details.update(untraced_search_s=untraced_s, traced_rounds=rounds)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.npz"
    np.savez_compressed(spans_path, **arrays)
    details["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, details


def _print_human(workload, machine, metrics, details, runner) -> None:
    print(f"workload {workload.name}: {workload.seeds} seeds per search, "
          f"config {json.dumps(workload.config, sort_keys=True)}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for key, value in sorted(details.items()):
        print(f"  {key} = {value}")
    for key, m in metrics.items():
        print(f"  {key:<44} {m['value']:>14.6g} {m['unit']}")
    for problem in runner.problems:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    machine = _machine()
    try:
        modules = _import_package()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # The probe would run inside traced spans, so traced runs report wall time.
    probe = None if args.trace else HostProbe()
    runner = Runner(workload, modules["cli"], args.seed, probe)
    try:
        if args.trace:
            metrics, details = _traced(runner, workload, modules, args.seconds, args.seed)
        else:
            metrics, details = _untraced(runner, workload, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    machine["loadavg_end"] = _loadavg()

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    _print_human(workload, machine, metrics, details, runner)
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine, details=details, problems=runner.problems)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
