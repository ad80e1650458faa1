"""The result parsing and aggregation of ``scripts/bench_record.py``.

The script is loaded by path and fed canned ``perfbench/run.py`` output; no
benchmark runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

RECORD_PY = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


def load_record():
    spec = importlib.util.spec_from_file_location("bench_record", RECORD_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MACHINE = {"nproc": 2, "python": "3.12.0", "loadavg_start": "0.5 0.4 0.3 1/100 7"}


def run_stdout(search_s, correct=True, failed=0):
    result = {"correct": correct, "attempted": 12, "failed": failed,
              "metrics": {"search_s": {"value": search_s, "unit": "s"},
                          "search_ok_frac": {"value": 1.0 - failed / 12, "unit": "ratio"}}}
    return "\n".join([
        "workload drift3d: 20 seeds per search, config {}",
        "machine " + json.dumps(MACHINE),
        f"  search_s {search_s} s",
        json.dumps(result),
    ]) + "\n"


def test_parse_run_reads_result_and_machine():
    br = load_record()
    result, machine = br.parse_run(0, run_stdout(1.5))
    assert result["metrics"]["search_s"]["value"] == 1.5
    assert machine == MACHINE


@pytest.mark.parametrize("code, stdout", [
    (2, ""),
    (0, ""),
    (0, "workload drift3d\nno json here\n"),
    (0, run_stdout(1.5, correct=False, failed=1)),
    (1, run_stdout(1.5)),
], ids=["exit-2", "no-output", "no-json", "not-correct", "exit-1"])
def test_parse_run_rejects_failed_runs(code, stdout):
    br = load_record()
    with pytest.raises(br.RunFailed):
        br.parse_run(code, stdout)


def test_medians_per_workload_and_metric():
    br = load_record()
    runs = [
        {"workload": "a", "metrics": {"search_s": 3.0, "peak_rss_mb": 40.0}},
        {"workload": "a", "metrics": {"search_s": 1.0, "peak_rss_mb": 42.0}},
        {"workload": "a", "metrics": {"search_s": 2.0, "peak_rss_mb": 41.0}},
        {"workload": "b", "metrics": {"search_s": 5.0, "peak_rss_mb": 50.0}},
        {"workload": "b", "metrics": {"search_s": 6.0, "peak_rss_mb": 52.0}},
    ]
    assert br.medians(runs) == {
        "a": {"search_s": 2.0, "peak_rss_mb": 41.0},
        "b": {"search_s": 5.5, "peak_rss_mb": 51.0},
    }


def fake_checkout(tmp_path):
    root = tmp_path / "checkout"
    (root / "src" / "finsler_billiards").mkdir(parents=True)
    (root / "src" / "finsler_billiards" / "__init__.py").write_text("")
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "drift3d"}, {"name": "disk2d-continuum"}]}))
    return root


def test_record_holds_runs_medians_commit_and_machine(tmp_path, monkeypatch):
    br = load_record()
    root = fake_checkout(tmp_path)
    times = iter([2.0, 1.0, 3.0, 4.0, 6.0, 5.0])

    def run(checkout, workload, seed):
        result, machine = br.parse_run(0, run_stdout(next(times)))
        return {"workload": workload, "seed": seed, "attempted": result["attempted"],
                "metrics": {k: m["value"] for k, m in result["metrics"].items()},
                "machine": machine}

    monkeypatch.setattr(br, "ROOT", tmp_path)
    monkeypatch.setattr(br, "run_one", run)
    monkeypatch.setattr(br, "_git", lambda root, *args: "abc123" if args[0] == "rev-parse" else "")
    assert br.main(["--label", "test", "--root", str(root)]) == 0
    record = json.loads((tmp_path / "BENCH_test.json").read_text())
    assert record["commit"] == "abc123" and record["dirty"] is False
    assert record["seeds"] == list(br.SEEDS)
    assert [(r["workload"], r["seed"]) for r in record["runs"]] == [
        (w, s) for w in ("drift3d", "disk2d-continuum") for s in br.SEEDS]
    assert record["median"]["drift3d"]["search_s"] == 2.0
    assert record["median"]["disk2d-continuum"]["search_s"] == 5.0
    assert record["runs"][0]["machine"] == MACHINE


def test_a_failed_run_writes_nothing(tmp_path, monkeypatch):
    br = load_record()
    root = fake_checkout(tmp_path)

    def run(checkout, workload, seed):
        raise br.RunFailed("not correct")

    monkeypatch.setattr(br, "ROOT", tmp_path)
    monkeypatch.setattr(br, "run_one", run)
    assert br.main(["--label", "test", "--root", str(root)]) == 1
    assert not (tmp_path / "BENCH_test.json").exists()
