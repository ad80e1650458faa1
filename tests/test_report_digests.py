"""``scripts/report_digests.py --against``: the comparison of two packages' digest lines.

The script is loaded by path; its own digests and the other package's
subprocess are canned, so no search runs.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

DIGESTS_PY = Path(__file__).resolve().parents[1] / "scripts" / "report_digests.py"

LINES = ["drift3d 1111 2222 3333", "magnetic2d 4444 5555 6666", "DISK_SEARCH 7777"]


def load_digests():
    spec = importlib.util.spec_from_file_location("report_digests", DIGESTS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned(monkeypatch, mine, theirs, returncode=0):
    """The script with ``mine`` as its own lines and ``theirs`` from the subprocess; its calls."""
    rd = load_digests()
    calls = []
    monkeypatch.setattr(rd, "digest_lines", lambda src, acceptance: iter(mine))

    def run(cmd, capture_output, text):
        calls.append(cmd)
        return subprocess.CompletedProcess(cmd, returncode, "".join(f"{x}\n" for x in theirs),
                                           "Traceback: boom")

    monkeypatch.setattr(rd.subprocess, "run", run)
    return rd, calls


def test_equal_lines_exit_0(monkeypatch, capsys):
    rd, calls = canned(monkeypatch, LINES, LINES)
    assert rd.main(["--against", "other/src", "--acceptance"]) == 0
    assert calls == [[sys.executable, str(DIGESTS_PY), "--src", "other/src", "--acceptance"]]
    out = capsys.readouterr().out.splitlines()
    assert out == LINES + ["0 of 3 lines differ from other/src"]


def test_every_differing_line_is_printed_and_exits_1(monkeypatch, capsys):
    theirs = [LINES[0], "magnetic2d 4444 5555 0000"]  # one line differs, one is missing
    rd, calls = canned(monkeypatch, LINES, theirs)
    assert rd.main(["--against", "other/src"]) == 1
    assert calls[0][-2:] == ["--src", "other/src"]
    out = capsys.readouterr().out.splitlines()
    assert out[len(LINES):] == [
        "differs: magnetic2d 4444 5555 6666", "against: magnetic2d 4444 5555 0000",
        "differs: DISK_SEARCH 7777", "against: (no line)",
        "2 of 3 lines differ from other/src"]


def test_without_against_no_subprocess_runs(monkeypatch, capsys):
    rd, calls = canned(monkeypatch, LINES, [])
    assert rd.main([]) == 0
    assert calls == [] and capsys.readouterr().out.splitlines() == LINES


def test_a_failed_subprocess_stops_the_comparison(monkeypatch):
    rd, _ = canned(monkeypatch, LINES, [], returncode=1)
    with pytest.raises(SystemExit, match="the digests of other/src failed\nTraceback: boom"):
        rd.main(["--against", "other/src"])
