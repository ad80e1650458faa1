"""Time a parent and a change checkout in alternating benchmark pairs and compare search_s.

Runs ``CHECKOUT/perfbench/run.py --trace 0`` of both checkouts through
``bench_record.run_one``, at the benchmark's run length ``bench_record.SECONDS``,
one run at a time, in ``--pairs`` pairs (at least 10 for a claim).  The parent
runs first in odd-numbered pairs and the change in even-numbered ones.  Each
run uses its own checkout's ``run.py`` from that checkout's root, so its
output lands in that checkout.  Prints each pair's ``search_s``, each side's median and
quartiles of every end-to-end metric, the change's wins on ``search_s``, and
whether a gain may be claimed: the change wins at least nine tenths of the
pairs (ties count for neither side) and the medians differ by more than the
parent's interquartile range.  The last line is the summary as JSON.  Exits 1
if a run fails or prints ``"correct": false``.

    python3 scripts/bench_pairs.py --parent OTHER_CHECKOUT --workload drift3d --seed 4711
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_record  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
METRIC = "search_s"
MIN_PAIRS = 10


def run_order(pair: int) -> tuple[str, str]:
    """The sides in the order they run in pair number ``pair``, counted from 1."""
    return ("parent", "change") if pair % 2 else ("change", "parent")


def quartiles(values: list[float]) -> list[float]:
    """[lower quartile, median, upper quartile], interpolating between the values."""
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list[dict]) -> dict:
    """Medians, quartiles and wins of pairs of runs: {"parent": metrics, "change": metrics}."""
    sides = {}
    for side in ("parent", "change"):
        names = pairs[0][side]
        sides[side] = {name: quartiles([p[side][name] for p in pairs]) for name in names}
    parent, change = ([p[side][METRIC] for p in pairs] for side in ("parent", "change"))
    wins = sum(c < p for p, c in zip(parent, change))
    losses = sum(c > p for p, c in zip(parent, change))
    q1, median, q3 = sides["parent"][METRIC]
    gap = median - sides["change"][METRIC][1]
    return {
        "metric": METRIC, "pairs": len(pairs), "wins": wins, "losses": losses,
        "median_gap": gap, "parent_iqr": q3 - q1,
        "claim_holds": len(pairs) >= MIN_PAIRS and 10 * wins >= 9 * len(pairs) and gap > q3 - q1,
        "quartiles": sides,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent commit's checkout")
    parser.add_argument("--change", default=str(ROOT), help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="run.py's --seed")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    roots = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}

    pairs = []
    for pair in range(1, args.pairs + 1):
        order = run_order(pair)
        runs = {}
        for side in order:
            try:
                runs[side] = bench_record.run_one(roots[side], args.workload, args.seed)["metrics"]
            except bench_record.RunFailed as exc:
                print(f"error: {side} ({roots[side]}): {exc}", file=sys.stderr)
                return 1
        pairs.append(runs)
        print(f"pair {pair} ({order[0]} first): parent {runs['parent'][METRIC]:.4f} "
              f"change {runs['change'][METRIC]:.4f}", flush=True)

    summary = summarize(pairs)
    for side in ("parent", "change"):
        for name, (q1, median, q3) in summary["quartiles"][side].items():
            print(f"{side} {name}: median {median:.4f} quartiles [{q1:.4f}, {q3:.4f}]")
    print(f"change wins {summary['wins']} of {summary['pairs']} pairs "
          f"({summary['losses']} losses); median gap {summary['median_gap']:.4f}, "
          f"parent IQR {summary['parent_iqr']:.4f}; claim holds: {summary['claim_holds']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **summary,
                      "runs": pairs}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
