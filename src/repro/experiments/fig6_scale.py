"""Figure 6 — impact of scale.

Paper setup: BT class B on 25/36/49/64 processes (BT needs a perfect
square), one fault every 50 seconds, 5 repetitions, same number of
checkpoint servers at every scale.

Expected shape (paper §5.2):

* no-fault execution time decreases with scale (constant total work);
* the faulty execution time is erratic: its *variance grows with
  scale* because the time between the last checkpoint wave and the
  fault dominates, and the paper argues the mean alone is not
  meaningful;
* occasional non-termination at 25 nodes, where per-process checkpoint
  images are largest (checkpoint/recovery slowest) and a run whose
  waves synchronize with the 50 s faults makes no progress.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.experiments.harness import (ExperimentResult, TrialSetup,
                                       run_trials)
from repro.experiments.fig5_frequency import setup_for_period
from repro.experiments.runner import TrialRunner
from repro.experiments.spec import (QUICK_BT, REPS_FLAG, ExperimentSpec,
                                    flag)

SCALES: Sequence[int] = (25, 36, 49, 64)
#: past the paper's range (BT needs perfect squares); the sharded
#: checkpoint servers and the engine fast path make these practical —
#: see also ``python -m repro scale-sweep`` for the 512-rank axis
EXTENDED_SCALES: Sequence[int] = (25, 36, 49, 64, 121, 256)
FAULT_PERIOD = 50
REPS = 5


def run_experiment(reps: int = REPS,
                   scales: Sequence[int] = SCALES,
                   base_seed: int = 6000,
                   runner: Optional[TrialRunner] = None,
                   **workload_kwargs) -> ExperimentResult:
    configs: List[Tuple[int, bool]] = []
    labels: List[str] = []
    for scale in scales:
        configs.append((scale, False))
        labels.append(f"BT {scale} no faults")
        configs.append((scale, True))
        labels.append(f"BT {scale} 1/{FAULT_PERIOD}s")

    def setup_for(config: Tuple[int, bool]) -> TrialSetup:
        scale, faulty = config
        return setup_for_period(
            FAULT_PERIOD if faulty else None,
            n_procs=scale, n_machines=scale + 4,
            **workload_kwargs)

    return run_trials(
        setup_for=setup_for, configs=configs, labels=labels, reps=reps,
        name=f"Fig. 6 — impact of scale (1 fault / {FAULT_PERIOD} s)",
        base_seed=base_seed, runner=runner)


def expect(result: ExperimentResult, kwargs) -> None:
    scales = kwargs["scales"]
    # (1) no-fault execution time decreases with scale;
    nofault = [result.row(f"BT {s} no faults").mean_exec_time for s in scales]
    assert all(t is not None for t in nofault)
    assert all(a > b for a, b in zip(nofault, nofault[1:]))
    # (2) faults never make a scale *faster* than its no-fault time;
    for s, t in zip(scales, nofault):
        faulty = result.row(f"BT {s} 1/{FAULT_PERIOD}s").mean_exec_time
        if faulty is not None:
            assert faulty > t
    # (3) no buggy runs (single faults only).
    for row in result.rows:
        assert row.pct_buggy == 0.0, row.label


SPEC = ExperimentSpec(
    name="fig6", run=run_experiment, expect=expect,
    quick=dict(reps=2, scales=(9, 16, 25), **QUICK_BT),
    flags=(REPS_FLAG,
           flag("--extended", action="store_const", const=EXTENDED_SCALES,
                dest="scales",
                help="extend the scale axis past the paper's range (scales "
                     f"{', '.join(map(str, EXTENDED_SCALES))})")))
