"""Figure 11 — synchronized faults depending on MPI state.

Paper setup (§5.3, final experiment): scenarios of Fig. 10.  As in
Fig. 9, but every recovery-wave relaunch is *stopped* at load; P1
designates the first reporter for a crash and releases the others with
``nocrash``.  The designated daemon is resumed with a breakpoint armed
``before(localMPI_setCommand)`` — i.e. it is killed right after the
dispatcher completed the argument exchange and considers it running.

Expected shape: **every run freezes at every scale** (100 % buggy) —
the experiment that pinpointed the dispatcher bug.  With the fixed
dispatcher (``bug_compat=False``), every run terminates.
"""

from __future__ import annotations

from repro.experiments.fig9_synchronized import synchronized_experiment
from repro.experiments.harness import ExperimentResult
from repro.experiments.spec import (FIXED_FLAG, QUICK_BT, REPS_FLAG,
                                    ExperimentSpec)
from repro.fail import builtin_scenarios as bs

run_experiment = synchronized_experiment(
    bs.FIG10A_MASTER + bs.FIG10B_NODE_DAEMON, "state-sync",
    "Fig. 11 — synchronized faults on MPI state "
    "(breakpoint at localMPI_setCommand)", 11000)


def expect(result: ExperimentResult, kwargs) -> None:
    for row in result.rows:
        if not kwargs["bug_compat"]:
            # the fix flips Fig. 11 from 100 % buggy to 100 % terminated
            assert row.pct_terminated == 100.0, row.label
        elif row.label.endswith("state-sync"):
            # the paper's headline: EVERY experiment freezes, at EVERY
            # scale — the scenario that pinpointed the dispatcher bug
            assert row.pct_buggy == 100.0, row.label


SPEC = ExperimentSpec(
    name="fig11", run=run_experiment, expect=expect,
    quick=dict(reps=2, scales=(9, 16), include_baseline=False, **QUICK_BT),
    ablation=dict(bug_compat=False, reps=3),
    flags=(REPS_FLAG, FIXED_FLAG))
