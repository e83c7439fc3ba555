"""Smoke tests keeping the example scripts runnable.

Each example is imported and executed in-process (argv patched), with
the slow ones downscaled through their own CLI knobs where available.
"""

import runpy
import sys


def run_example(path, argv=()):
    old_argv = sys.argv
    sys.argv = [path] + list(argv)
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart_runs(capsys):
    run_example("examples/quickstart.py")
    out = capsys.readouterr().out
    assert "outcome:            terminated" in out
    assert "no message was lost or duplicated" in out


def test_scenario_tour_runs(capsys):
    run_example("examples/scenario_tour.py")
    out = capsys.readouterr().out
    assert "PARSE + SEMANTIC CHECK" in out
    assert "nb_crash=3" in out


def test_frequency_sweep_reduced(capsys):
    # 1 rep, reduced periods via the example's own flags
    run_example("examples/frequency_sweep.py", ["--reps", "1"])
    out = capsys.readouterr().out
    assert "Fig. 5" in out


def test_frequency_sweep_parallel_workers(capsys):
    # same sweep through the shared --workers flag (runner CLI plumbing)
    run_example("examples/frequency_sweep.py",
                ["--reps", "1", "--workers", "2"])
    out = capsys.readouterr().out
    assert "Fig. 5" in out
    assert "time" in out


def test_compare_protocols_example(capsys):
    run_example("examples/compare_protocols.py")
    out = capsys.readouterr().out
    assert "Protocol comparison" in out
    assert "winner" in out
