"""Figure 9 — impact of synchronized faults.

Paper setup (§5.3, "bug hunting"): scenarios of Fig. 8.  P1 injects
one random fault; each machine's FAIL daemon counts its own ``onload``
events, and the *second* load — the first recovery-wave relaunch on
that machine — triggers a ``waveok`` to P1, which immediately crashes
that reporting machine.  Only two faults total are injected.

Expected shape: at every scale *some but a minority* of runs freeze
(buggy): whether the second kill lands before or after the recovered
daemon's registration with the dispatcher decides whether detection
works (spawn watch) or the misattribution bug bites.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.experiments.harness import ExperimentResult, TrialSetup, run_trials
from repro.experiments.fig5_frequency import setup_for_period
from repro.experiments.runner import TrialRunner
from repro.experiments.spec import (FIXED_FLAG, QUICK_BT, REPS_FLAG,
                                    ExperimentSpec)
from repro.fail import builtin_scenarios as bs

SCALES: Sequence[int] = (25, 36, 49, 64)
REPS = 6


def synchronized_experiment(scenario_source: str, suffix: str, title: str,
                            seed: int):
    """The ``run_experiment`` of a two-fault scenario that the FAIL
    daemons synchronize on the recovery (Figs. 9 and 11 differ only in
    these arguments): per scale, an optional no-fault baseline row and
    the scenario's row, labelled ``BT <scale> <suffix>``."""

    def run_experiment(reps: int = REPS,
                       scales: Sequence[int] = SCALES,
                       bug_compat: bool = True,
                       include_baseline: bool = True,
                       base_seed: int = seed,
                       runner: Optional[TrialRunner] = None,
                       **workload_kwargs) -> ExperimentResult:
        configs: List[Tuple[int, bool]] = []
        labels: List[str] = []
        for scale in scales:
            if include_baseline:
                configs.append((scale, False))
                labels.append(f"BT {scale} no faults")
            configs.append((scale, True))
            labels.append(f"BT {scale} {suffix}")

        def setup_for(config: Tuple[int, bool]) -> TrialSetup:
            scale, faulty = config
            if not faulty:
                return setup_for_period(None, n_procs=scale,
                                        n_machines=scale + 4,
                                        **workload_kwargs)
            return TrialSetup(
                n_procs=scale, n_machines=scale + 4,
                scenario_source=scenario_source,
                master_daemon="ADV1", node_daemon="ADVnodes",
                bug_compat=bug_compat, **workload_kwargs)

        return run_trials(
            setup_for=setup_for, configs=configs, labels=labels, reps=reps,
            name=title, base_seed=base_seed, runner=runner)

    return run_experiment


run_experiment = synchronized_experiment(
    bs.FIG8A_MASTER + bs.FIG8B_NODE_DAEMON, "sync2",
    "Fig. 9 — impact of synchronized faults (2 faults, onload-timed)", 9000)


def expect(result: ExperimentResult, kwargs) -> None:
    if not kwargs["bug_compat"]:
        # with the fixed dispatcher the same scenario never freezes
        for row in result.rows:
            assert row.pct_buggy == 0.0, row.label
            assert row.pct_terminated == 100.0, row.label
        return
    # the bug appears, but it is a race on the recovered daemon's
    # registration: a majority of runs escape it, and they terminate
    # (2 faults cannot make BT non-terminating)
    assert sum(round(row.pct_buggy / 100.0 * row.n)
               for row in result.rows) >= 1
    for row in result.rows:
        assert row.pct_buggy <= 70.0, row.label
        assert row.pct_terminated + row.pct_buggy == 100.0, row.label


SPEC = ExperimentSpec(
    name="fig9", run=run_experiment, expect=expect,
    quick=dict(reps=6, scales=(9, 16), include_baseline=False, **QUICK_BT),
    ablation=dict(bug_compat=False, reps=4),
    flags=(REPS_FLAG, FIXED_FLAG))
