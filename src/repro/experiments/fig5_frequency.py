"""Figure 5 — impact of fault frequency.

Paper setup: NAS BT class B on 49 processes, 53 machines devoted, one
fault injected every {65, 60, 55, 50, 45, 40} seconds by scenario
ADV1 (Fig. 5a) with the generic per-machine daemon ADV2 (Fig. 4), plus
the no-fault baseline; 6 repetitions per point.

Expected shape (paper §5.1):

* zero buggy runs at every frequency (no overlapping faults);
* execution time of terminated runs grows as the period shrinks;
* non-terminating percentage grows as the period shrinks, approaching
  100 % at 40 s (the fault inter-arrival undercuts checkpoint-wave
  completion);
* anomaly: 45 s behaves better than the trend because faults land just
  after the 30 s checkpoint waves, when rollback is cheapest.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.harness import ExperimentResult, TrialSetup, run_trials
from repro.experiments.runner import TrialRunner
from repro.experiments.spec import (MACHINES_FLAG, PROCS_FLAG, QUICK_BT,
                                    REPS_FLAG, ExperimentSpec)
from repro.fail import builtin_scenarios as bs

#: paper x-axis: no faults, then one fault every X seconds
PERIODS: Sequence[Optional[int]] = (None, 65, 60, 55, 50, 45, 40)
N_PROCS = 49
N_MACHINES = 53
REPS = 6


def setup_for_period(period: Optional[int],
                     n_procs: int = N_PROCS,
                     n_machines: int = N_MACHINES,
                     bug_compat: bool = True,
                     niters: Optional[int] = None,
                     total_compute: Optional[float] = None,
                     footprint: Optional[float] = None) -> TrialSetup:
    """TrialSetup for one x-axis point (None = no faults)."""
    kwargs = {}
    if niters is not None:
        kwargs["niters"] = niters
    if total_compute is not None:
        kwargs["total_compute"] = total_compute
    if footprint is not None:
        kwargs["footprint"] = footprint
    if period is None:
        return TrialSetup(n_procs=n_procs, n_machines=n_machines,
                          scenario_source=None, bug_compat=bug_compat,
                          **kwargs)
    return TrialSetup(
        n_procs=n_procs, n_machines=n_machines,
        scenario_source=bs.FIG5A_MASTER + bs.FIG4_NODE_DAEMON,
        scenario_params={"X": period},
        master_daemon="ADV1", node_daemon="ADV2",
        bug_compat=bug_compat,
        **kwargs)


def run_experiment(reps: int = REPS,
                   periods: Sequence[Optional[int]] = PERIODS,
                   n_procs: int = N_PROCS,
                   n_machines: int = N_MACHINES,
                   base_seed: int = 5000,
                   runner: Optional[TrialRunner] = None,
                   **workload_kwargs) -> ExperimentResult:
    labels = ["no faults" if p is None else f"every {p} sec" for p in periods]
    return run_trials(
        setup_for=lambda p: setup_for_period(
            p, n_procs=n_procs, n_machines=n_machines, **workload_kwargs),
        configs=list(periods),
        labels=labels,
        reps=reps,
        name=f"Fig. 5 — impact of fault frequency (BT {n_procs})",
        base_seed=base_seed,
        runner=runner)


def expect(result: ExperimentResult, kwargs) -> None:
    nofault = result.row("no faults")
    assert nofault.pct_terminated == 100.0
    # (1) zero buggy runs at every frequency;
    for row in result.rows:
        assert row.pct_buggy == 0.0, row.label
    # (2) exec time grows as the period shrinks (65 -> 50);
    t65 = result.row("every 65 sec").mean_exec_time
    t50 = result.row("every 50 sec").mean_exec_time
    assert t65 is not None and t50 is not None
    assert nofault.mean_exec_time < t65 < t50
    # (3) the 45 s anomaly: better than the 50 s trend point;
    t45 = result.row("every 45 sec").mean_exec_time
    if t45 is not None:
        assert t45 < t50
    # (4) non-termination dominates at 40 s.
    assert result.row("every 40 sec").pct_non_terminating >= 50.0


SPEC = ExperimentSpec(
    name="fig5", run=run_experiment, expect=expect,
    quick=dict(reps=2, periods=(None, 65, 50, 45, 40), n_procs=16,
               n_machines=20, **QUICK_BT),
    flags=(REPS_FLAG, PROCS_FLAG, MACHINES_FLAG))
