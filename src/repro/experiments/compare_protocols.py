"""Protocol comparison under identical failure scenarios.

The paper's conclusion (§6) names exactly this use of FAIL-MPI: *"This
provides the opportunity to evaluate many different implementations at
large scales and compare them fairly under the same failure
scenarios"* — citing the authors' own earlier comparison of message
logging versus coordinated checkpointing [LBH+04].

This experiment runs that comparison across the whole
MPICH-V family — every protocol in
:mod:`repro.mpichv.protocols` — on the same workload, under the *same*
Fig. 5a fault-frequency scenario with the same seeds:

* **vcl** — coordinated non-blocking Chandy-Lamport: cheapest without
  faults, but every failure rolls the whole application back;
* **v2** — pessimistic sender-based message logging: a stable-logger
  round trip per message, but a failure replays one rank only;
* **v1** — remote pessimistic logging in Channel Memories: a double
  network hop per message, single-rank restart, and (unlike V2) no
  volatile state anywhere, so simultaneous failures are tolerated.

Expected shape (cf. [LBH+04]): fault-free, Vcl wins; as the fault
period shrinks the message-logging protocols keep making progress
where Vcl stalls.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.experiments.harness import ExperimentResult, TrialSetup, run_trials
from repro.experiments.runner import TrialRunner
from repro.experiments.spec import (MACHINES_FLAG, PROCS_FLAG, REPS_FLAG,
                                    ExperimentSpec, comma_list, flag,
                                    table)
from repro.fail import builtin_scenarios as bs

PERIODS: Sequence[Optional[int]] = (None, 65, 50, 40)
PROTOCOLS: Sequence[str] = ("vcl", "v2", "v1")
N_PROCS = 49
N_MACHINES = 53
REPS = 4


def setup_for(config: Tuple[str, Optional[int]],
              n_procs: int = N_PROCS,
              n_machines: int = N_MACHINES,
              **workload_kwargs) -> TrialSetup:
    protocol, period = config
    kwargs = dict(workload_kwargs)
    if period is None:
        return TrialSetup(n_procs=n_procs, n_machines=n_machines,
                          scenario_source=None, protocol=protocol, **kwargs)
    return TrialSetup(
        n_procs=n_procs, n_machines=n_machines,
        scenario_source=bs.FIG5A_MASTER + bs.FIG4_NODE_DAEMON,
        scenario_params={"X": period},
        master_daemon="ADV1", node_daemon="ADV2",
        protocol=protocol,
        **kwargs)


def _label(protocol: str, period: Optional[int]) -> str:
    suffix = "no faults" if period is None else f"1/{period}s"
    return f"{protocol} {suffix}"


def run_experiment(reps: int = REPS,
                   periods: Sequence[Optional[int]] = PERIODS,
                   protocols: Sequence[str] = PROTOCOLS,
                   n_procs: int = N_PROCS,
                   n_machines: int = N_MACHINES,
                   base_seed: int = 13000,
                   runner: Optional[TrialRunner] = None,
                   **workload_kwargs) -> ExperimentResult:
    configs: List[Tuple[str, Optional[int]]] = []
    labels: List[str] = []
    for period in periods:
        for protocol in protocols:
            configs.append((protocol, period))
            labels.append(_label(protocol, period))
    return run_trials(
        setup_for=lambda c: setup_for(c, n_procs=n_procs,
                                      n_machines=n_machines,
                                      **workload_kwargs),
        configs=configs, labels=labels, reps=reps,
        name=(f"Protocol comparison — {' vs '.join(protocols)} under the "
              f"Fig. 5 scenario (BT {n_procs})"),
        base_seed=base_seed, runner=runner)


def crossover_summary(result: ExperimentResult,
                      periods: Sequence[Optional[int]] = PERIODS,
                      protocols: Sequence[str] = PROTOCOLS) -> str:
    """Who wins at each fault period (the [LBH+04]-style digest)."""
    def fmt(t: Optional[float]) -> str:
        return "---" if t is None else f"{t:.1f}"

    header = "   period" + "".join(f"{p + ' (s)':>13}" for p in protocols) \
        + "   winner"
    lines = [header]
    for period in periods:
        suffix = "no faults" if period is None else f"1/{period}s"
        times = {p: result.row(_label(p, period)).mean_exec_time
                 for p in protocols}
        finishers = {p: t for p, t in times.items() if t is not None}
        if not finishers:
            winner = "none finishes"
        else:
            best = min(finishers, key=finishers.get)
            stalled = [p for p in protocols if p not in finishers]
            winner = best + (f" ({', '.join(stalled)} stall)" if stalled
                             else "")
        cells = "".join(f"{fmt(times[p]):>13}" for p in protocols)
        lines.append(f"{suffix:>9}{cells}   {winner}")
    return "\n".join(lines)


def expect(result: ExperimentResult, kwargs) -> None:
    # [LBH+04] via our substrate:
    # (1) fault-free, coordinated checkpointing is at least as fast as
    #     either message-logging protocol;
    t_vcl0 = result.row("vcl no faults").mean_exec_time
    assert t_vcl0 <= result.row("v2 no faults").mean_exec_time * 1.02
    assert t_vcl0 <= result.row("v1 no faults").mean_exec_time * 1.02
    # (2) at high fault frequency, message logging wins decisively.
    #     V1 always finishes (remote logs survive overlapping faults);
    #     V2 finishes at least as often as Vcl (its volatile sender
    #     logs can stall when failures overlap a recovery — faithful);
    fastest = f"1/{kwargs['periods'][-1]}s"
    vcl_hi = result.row(f"vcl {fastest}")
    v2_hi = result.row(f"v2 {fastest}")
    v1_hi = result.row(f"v1 {fastest}")
    assert v1_hi.pct_terminated == 100.0
    assert v2_hi.pct_terminated >= vcl_hi.pct_terminated
    if vcl_hi.mean_exec_time is not None:
        for row_hi in (v2_hi, v1_hi):
            if row_hi.mean_exec_time is not None:
                assert row_hi.mean_exec_time < vcl_hi.mean_exec_time, \
                    row_hi.label
    # (3) the single-rank-restart protocols never go buggy here (no
    #     Vcl dispatcher restart waves to misattribute closures in).
    for row in result.rows:
        if row.label.startswith(("v2", "v1")):
            assert row.pct_buggy == 0.0, row.label


SPEC = ExperimentSpec(
    name="compare-protocols", run=run_experiment, expect=expect,
    # the reduced run lasts ~45 s, so the fault period must sit well
    # below that for the smoke to exercise actual recovery
    quick=dict(periods=(None, 25), n_procs=4, n_machines=6, niters=10,
               total_compute=180.0, footprint=1e8),
    flags=(REPS_FLAG, PROCS_FLAG, MACHINES_FLAG,
           flag("--protocols", type=comma_list(), metavar="LIST",
                help="comma-separated protocol names (default: "
                     f"{','.join(PROTOCOLS)})")),
    blocks=(table, lambda result, kwargs: crossover_summary(
        result, kwargs["periods"], kwargs["protocols"])),
    quick_banner=("quick smoke: BT-{n_procs} on {n_machines} machines, "
                  "fault periods {periods} — reduced workload "
                  "(niters={niters})"))
