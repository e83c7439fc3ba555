"""Unit tests for the experiment harness and drivers (quick scales)."""

import pytest

from repro.analysis.classify import Outcome
from repro.experiments import table1_tools
from repro.experiments.fig5_frequency import setup_for_period
from repro.experiments.fig7_simultaneous import setup_for_batch
from repro.experiments.harness import (ExperimentResult, ExperimentRow,
                                       run_trials)
from repro.mpichv.runtime import RunResult

QUICK = dict(niters=10, total_compute=180.0, footprint=1e8)


def _fake_result(outcome, exec_time=None):
    from repro.analysis.classify import RunVerdict
    from repro.analysis.traces import Trace
    verdict = RunVerdict(outcome=outcome, exec_time=exec_time,
                         last_activity=0.0, reason="")
    return RunResult(verdict=verdict, trace=Trace(), sim_time=0.0,
                     events_processed=0)


def test_row_percentages_and_stats():
    row = ExperimentRow(label="x", results=[
        _fake_result(Outcome.TERMINATED, 100.0),
        _fake_result(Outcome.TERMINATED, 140.0),
        _fake_result(Outcome.NON_TERMINATING),
        _fake_result(Outcome.BUGGY),
    ])
    assert row.n == 4
    assert row.pct_terminated == 25.0 * 2
    assert row.pct_non_terminating == 25.0
    assert row.pct_buggy == 25.0
    assert row.mean_exec_time == 120.0
    assert row.stdev_exec_time == pytest.approx(28.2842712, rel=1e-6)


def test_row_without_finishers():
    row = ExperimentRow(label="x", results=[_fake_result(Outcome.BUGGY)])
    assert row.mean_exec_time is None
    assert row.stdev_exec_time is None


def test_empty_row_percentages_are_zero():
    """Regression: an empty row used to raise ZeroDivisionError."""
    row = ExperimentRow(label="empty", results=[])
    assert row.n == 0
    assert row.pct_terminated == 0.0
    assert row.pct_non_terminating == 0.0
    assert row.pct_buggy == 0.0
    assert row.total_faults == 0
    # and it renders instead of crashing the whole table
    text = ExperimentResult(name="d", rows=[row]).render()
    assert "empty" in text


def test_result_render_and_lookup():
    result = ExperimentResult(name="demo", rows=[
        ExperimentRow(label="a", results=[_fake_result(Outcome.TERMINATED, 10.0)]),
        ExperimentRow(label="b", results=[_fake_result(Outcome.BUGGY)]),
    ])
    text = result.render()
    assert "demo" in text and "a" in text and "(none finished)" in text
    assert result.row("a").n == 1
    with pytest.raises(KeyError):
        result.row("missing")


def test_trial_setup_builds_runtime_and_scenario():
    setup = setup_for_period(50, n_procs=4, n_machines=6, **QUICK)
    runtime, deployment = setup.build(seed=1)
    assert runtime.config.n_procs == 4
    assert deployment is not None
    assert "P1" in deployment.daemons
    assert len(deployment.group("G1")) == 6
    # parameters bound: N defaults to machines-1
    assert deployment.daemon("P1").machine.params["N"] == 5


def test_trial_setup_no_scenario_baseline():
    setup = setup_for_period(None, n_procs=4, n_machines=6, **QUICK)
    runtime, deployment = setup.build(seed=1)
    assert deployment is None


def test_setup_for_batch_binds_x():
    setup = setup_for_batch(3, n_procs=4, n_machines=6, **QUICK)
    _, deployment = setup.build(seed=1)
    assert deployment.daemon("P1").machine.vars["nb_crash"] == 3


def test_run_trials_deterministic_seeds():
    def setup_for(_cfg):
        return setup_for_period(None, n_procs=4, n_machines=6, **QUICK)

    first = run_trials(setup_for, configs=[0], labels=["l"], reps=2,
                       name="t", base_seed=42)
    second = run_trials(setup_for, configs=[0], labels=["l"], reps=2,
                        name="t", base_seed=42)
    assert ([r.exec_time for r in first.rows[0].results]
            == [r.exec_time for r in second.rows[0].results])


def test_run_trials_quick_fault_injection():
    result = run_trials(
        lambda p: setup_for_period(p, n_procs=4, n_machines=6, **QUICK),
        configs=[None, 35],
        labels=["no faults", "every 35 sec"],
        reps=2, name="mini fig5", base_seed=7)
    nofault = result.row("no faults")
    faulty = result.row("every 35 sec")
    assert nofault.pct_terminated == 100.0
    assert faulty.pct_terminated == 100.0
    assert faulty.mean_exec_time > nofault.mean_exec_time


def test_table1_render_contains_all_tools():
    text = table1_tools.render()
    for tool in ("NFTAPE", "LOKI", "FAIL-FCI"):
        assert tool in text
    assert len(table1_tools.build_table()) == 8   # header + 7 criteria
