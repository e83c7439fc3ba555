"""Tests for the timeline renderer and the CLI dispatcher."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.__main__ import COMMANDS, main, usage
from repro.analysis.timeline import render_timeline
from repro.analysis.traces import Trace


def make_trace(records):
    tr = Trace()
    for t, kind in records:
        tr.record(t, kind)
    return tr


def test_timeline_marks_land_in_buckets():
    tr = make_trace([(0.0, "progress"), (50.0, "fault_injected"),
                     (100.0, "app_done")])
    text = render_timeline(tr, width=20)
    lines = {line.split()[0]: line for line in text.splitlines()[1:-1]}
    assert lines["progress"].split()[-1][0] == "█"
    assert lines["done"].split()[-1][-1] == "D"
    assert "x" in lines["fault"]


def test_timeline_empty_trace():
    text = render_timeline(Trace(), width=20)
    assert "(0 events shown" in text
    # an empty trace still gets a visible, non-zero-width time axis
    header = text.splitlines()[0]
    assert header.startswith("time") and "─" in header
    assert "0.0" in header and "1.0" in header


def test_timeline_counts_only_degrades_gracefully():
    """A counts-only trace that saw events (what a result document
    reads back as) has no swimlanes to draw: it says so instead."""
    tr = Trace(keep=False)
    tr.record(10.0, "fault_injected")
    tr.record(50.0, "fault_injected")
    tr.record(60.0, "restart_wave")
    assert not tr.records
    with pytest.raises(ValueError, match="read back from a result document"):
        render_timeline(tr, width=20)


def test_timeline_counts_only_not_used_for_kept_traces():
    tr = make_trace([(10.0, "fault_injected")])
    assert "counts-only" not in render_timeline(tr, width=20)


def test_timeline_respects_window():
    tr = make_trace([(10.0, "fault_injected"), (90.0, "fault_injected")])
    text = render_timeline(tr, width=20, t0=0.0, t1=50.0)
    fault_line = [ln for ln in text.splitlines() if ln.startswith("fault")][0]
    assert fault_line.count("x") == 1


def test_timeline_width_validation():
    with pytest.raises(ValueError):
        render_timeline(Trace(), width=5)


def test_timeline_freeze_signature_visible():
    """A frozen run shows one early restart mark and then nothing —
    the visual the paper's red bars summarize."""
    tr = make_trace([(50.0, "restart_wave"), (51.0, "bug_misattribution")])
    text = render_timeline(tr, width=40, t0=0.0, t1=1500.0)
    restart_line = [ln for ln in text.splitlines()
                    if ln.startswith("restart")][0]
    marks = restart_line.split(None, 1)[1]
    assert marks.count("R") == 1
    assert marks.rstrip("·").endswith("R")     # nothing after the freeze


def test_timeline_on_real_run():
    from repro.mpichv.config import VclConfig
    from repro.mpichv.runtime import VclRuntime
    from repro.workloads.nas_bt import BTWorkload
    config = VclConfig(n_procs=4, n_machines=6, footprint=1.2e8)
    wl = BTWorkload(n_procs=4, niters=10, total_compute=200.0, footprint=1.2e8)
    rt = VclRuntime(config, wl.make_factory(), seed=0)
    res = rt.run()
    text = render_timeline(res.trace, width=60)
    assert "D" in text          # the run completed
    assert "C" in text          # checkpoints happened


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_usage_lists_all_commands():
    text = usage()
    for command in COMMANDS:
        assert command in text


def test_cli_help_exits_zero(capsys):
    assert main([]) == 0
    assert "usage" in capsys.readouterr().out


def test_cli_unknown_command(capsys):
    assert main(["nope"]) == 2
    assert "unknown command" in capsys.readouterr().err


def test_cli_ends_quietly_when_the_reader_closes_stdout():
    """``timeline ... | head -c 100``: the reader goes away mid-output,
    and the command ends without a traceback or an "Exception ignored"
    from the interpreter's exit flush."""
    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "timeline", "--kill", "45",
         "--width", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert len(head) == 100
    assert err == b"", err.decode(errors="replace")


def test_cli_table1_runs(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "FAIL-FCI" in out


def test_timeline_observes_its_trial_and_prints_the_phase_table(capsys):
    """``timeline`` reads the record whatever ``TrialSetup``'s default:
    its phase table, critical paths and span kinds are printed."""
    assert main(["timeline", "--kill", "45", "--procs", "4",
                 "--phases"]) == 0
    out = capsys.readouterr().out
    table = out.split("== recovery phases (sim seconds, from repro.obs "
                      "spans) ==\n")[1].splitlines()
    assert table[0].split() == ["epoch", "rank", "lane", "t_fault", "detect",
                                "relaunch", "restore", "replay", "catchup",
                                "recovery"]
    assert table[2].split()[:4] == ["1", "-", "svc0", "45.030"]
    assert "epoch 1 (full restart)  fault t=45.030" in out
    assert "\nspans: catchup x1, ckpt_wave x19" in out


@pytest.mark.parametrize("args, named", [
    (["--kill", "45:12"], "machine 12"),      # 8 procs: machines 0..11
    (["--kill", "10:99"], "machine 99"),
    (["--kill", "10:-1"], "machine -1"),
    (["--kill", "-5"], "time -5"),
    (["--partition", "10:99"], "machine 99"),
    (["--partition", "10:3,12"], "machine 12"),
    (["--procs", "2", "--kill", "10:6"], "machine 6"),
    (["--procs", "0"], "0 is not"),
    (["--workload", "nosuch"], "'nosuch'"),
])
def test_timeline_rejects_a_fault_it_cannot_inject(args, named, capsys,
                                                   monkeypatch):
    """A fault the trial could not inject is a usage error (exit 2, one
    line naming the value), not a fault-free run or a traceback."""
    monkeypatch.setattr(sys, "argv", list(sys.argv))
    with pytest.raises(SystemExit) as exit_:
        main(["timeline", *args])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    [line] = [ln for ln in err.splitlines() if "error:" in ln]
    assert named in line, line
