"""Figure 7 — impact of simultaneous faults.

Paper setup: BT class B on 49 processes; every 50 seconds the master
scenario (Fig. 7a) injects X faults back-to-back, X ∈ {1..5}; 6
repetitions.

Expected shape (paper §5.3): at X = 5 (and 6) about **one third of the
runs are buggy** — frozen during the recovery phase — while X ≤ 2
shows none.  The mechanism, located later by Figs. 9/11: a kill late
in the batch lands on a daemon that already recovered and registered,
while terminations from the first kill of the batch are still pending,
and the dispatcher misattributes the closure.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.harness import ExperimentResult, TrialSetup, run_trials
from repro.experiments.runner import TrialRunner
from repro.experiments.spec import (FIXED_FLAG, QUICK_BT, REPS_FLAG,
                                    ExperimentSpec)
from repro.fail import builtin_scenarios as bs

BATCH_SIZES: Sequence[int] = (1, 2, 3, 4, 5)
N_PROCS = 49
N_MACHINES = 53
REPS = 6


def setup_for_batch(batch: int,
                    n_procs: int = N_PROCS,
                    n_machines: int = N_MACHINES,
                    bug_compat: bool = True,
                    **workload_kwargs) -> TrialSetup:
    return TrialSetup(
        n_procs=n_procs, n_machines=n_machines,
        scenario_source=bs.FIG7A_MASTER + bs.FIG4_NODE_DAEMON,
        scenario_params={"X": batch},
        master_daemon="ADV1", node_daemon="ADV2",
        bug_compat=bug_compat,
        **workload_kwargs)


def run_experiment(reps: int = REPS,
                   batches: Sequence[int] = BATCH_SIZES,
                   n_procs: int = N_PROCS,
                   n_machines: int = N_MACHINES,
                   bug_compat: bool = True,
                   base_seed: int = 7000,
                   runner: Optional[TrialRunner] = None,
                   **workload_kwargs) -> ExperimentResult:
    return run_trials(
        setup_for=lambda x: setup_for_batch(
            x, n_procs=n_procs, n_machines=n_machines,
            bug_compat=bug_compat, **workload_kwargs),
        configs=list(batches),
        labels=[f"{x} fault{'s' if x > 1 else ''}" for x in batches],
        reps=reps,
        name=f"Fig. 7 — impact of simultaneous faults (BT {n_procs}, every 50 s)",
        base_seed=base_seed, runner=runner)


def expect(result: ExperimentResult, kwargs) -> None:
    if not kwargs["bug_compat"]:
        # the fixed dispatcher removes every buggy outcome
        for row in result.rows:
            assert row.pct_buggy == 0.0, row.label
        return
    # one fault per batch never shows the bug; large batches do (~1/3
    # at X = 5 on the paper's scale)
    assert result.row("1 fault").pct_buggy == 0.0
    assert result.row("5 faults").pct_buggy > 0.0


SPEC = ExperimentSpec(
    name="fig7", run=run_experiment, expect=expect,
    quick=dict(reps=3, batches=(1, 5), n_procs=16, n_machines=20,
               **QUICK_BT),
    ablation=dict(batches=(5,), bug_compat=False),
    flags=(REPS_FLAG, FIXED_FLAG))
