"""Smoke-run the fast examples end to end (they are part of the API surface)."""

import runpy
import sys

import pytest

EXAMPLES = [
    ("examples/session_estimation.py", []),
    ("examples/quickstart.py", ["11"]),
    ("examples/archive_workflow.py", []),
    # The only end-to-end run of the Section 7 monitor: its SQLite queries
    # and the fake-publisher filter.
    ("examples/live_monitor.py", []),
]


@pytest.mark.parametrize("path,argv", EXAMPLES, ids=[p for p, _ in EXAMPLES])
def test_example_runs(path, argv, capsys, monkeypatch, tmp_path):
    if path.endswith("archive_workflow.py"):
        argv = [str(tmp_path / "archive.sqlite")]
    monkeypatch.setattr(sys, "argv", [path] + argv)
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 200  # produced a real report, not a stack trace
