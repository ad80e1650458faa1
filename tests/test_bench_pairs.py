"""The run order and the summary of ``scripts/bench_pairs.py``.

The script is loaded by path and fed canned ``perfbench/run.py`` output; no
benchmark runs.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

PAIRS_PY = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def load_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_stdout(search_s, correct=True, peak_rss_mb=44.0):
    result = {"correct": correct, "attempted": 12, "failed": 0 if correct else 1,
              "metrics": {"search_s": {"value": search_s, "unit": "s"},
                          "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}}
    return "\n".join([
        "workload drift3d: 20 seeds per search, config {}",
        "machine " + json.dumps({"nproc": 2}),
        f"  search_s {search_s} s",
        json.dumps(result),
    ]) + "\n"


def fake_runs(times, log, correct=True):
    """subprocess.run that answers each checkout's runs from its list of search_s values."""
    def run(cmd, cwd, capture_output, text):
        side = Path(cwd).name
        assert cmd[cmd.index("--seconds") + 1] == "40"  # the benchmark's run length
        log.append((side, cmd[cmd.index("--seed") + 1]))
        return subprocess.CompletedProcess(cmd, 0, run_stdout(times[side].pop(0), correct), "")
    return run


def test_the_parent_runs_first_in_odd_numbered_pairs():
    bp = load_pairs()
    assert [bp.run_order(p) for p in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_summary_of_canned_pairs(tmp_path, monkeypatch, capsys):
    bp = load_pairs()
    parent = [0.27, 0.26, 0.28, 0.27, 0.25, 0.29, 0.27, 0.26, 0.28, 0.27]
    change = [0.20, 0.19, 0.21, 0.20, 0.26, 0.20, 0.19, 0.21, 0.20, 0.20]
    times, log = {"parent": list(parent), "change": list(change)}, []
    monkeypatch.setattr(bp.bench_record.subprocess, "run", fake_runs(times, log))
    assert bp.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                    "--workload", "drift3d", "--seed", "4711"]) == 0
    assert log[:4] == [("parent", "4711"), ("change", "4711"), ("change", "4711"),
                       ("parent", "4711")]
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "pair 1 (parent first): parent 0.2700 change 0.2000"
    assert lines[1] == "pair 2 (change first): parent 0.2600 change 0.1900"
    summary = json.loads(lines[-1])
    # pair 5 is a loss: 9 wins of 10, and the gap 0.07 exceeds the parent's IQR 0.015
    assert (summary["wins"], summary["losses"], summary["pairs"]) == (9, 1, 10)
    assert summary["quartiles"]["parent"]["search_s"] == pytest.approx([0.2625, 0.27, 0.2775])
    assert summary["quartiles"]["change"]["search_s"][1] == pytest.approx(0.20)
    assert summary["quartiles"]["change"]["peak_rss_mb"] == [44.0, 44.0, 44.0]
    assert summary["parent_iqr"] == pytest.approx(0.015)
    assert summary["median_gap"] == pytest.approx(0.07)
    assert summary["claim_holds"] is True
    assert "change wins 9 of 10 pairs (1 losses)" in lines[-2]


@pytest.mark.parametrize("change, pairs, holds", [
    ([0.20] * 8 + [0.30, 0.30], 10, False),  # 8 wins of 10
    ([0.262] * 10, 10, False),  # 9 wins, but the gap 0.008 is inside the IQR 0.015
    ([0.20] * 9, 9, False),  # too few pairs
    ([0.20] * 9 + [0.27], 10, True),  # a tie counts for neither side
], ids=["eight-wins", "inside-iqr", "nine-pairs", "tie"])
def test_claim_rule(change, pairs, holds):
    bp = load_pairs()
    parent = [0.27, 0.26, 0.28, 0.27, 0.25, 0.29, 0.27, 0.26, 0.28, 0.27][:pairs]
    summary = bp.summarize([{"parent": {"search_s": p}, "change": {"search_s": c}}
                            for p, c in zip(parent, change)])
    assert summary["claim_holds"] is holds


def test_a_failed_run_exits_1(tmp_path, monkeypatch, capsys):
    bp = load_pairs()
    times = {"parent": [0.27], "change": [0.20]}
    monkeypatch.setattr(bp.bench_record.subprocess, "run",
                        fake_runs(times, [], correct=False))
    assert bp.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                    "--workload", "drift3d", "--seed", "1"]) == 1
    assert "error: parent" in capsys.readouterr().err
