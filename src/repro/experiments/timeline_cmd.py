"""``python -m repro timeline`` — one observed trial, rendered.

Runs a single trial of any protocol under an inline fault
plan (``--kill``, ``--partition``, ``--heal-after``) and renders what
the paper's methodology reads off the execution trace: the ASCII
swimlane timeline, optionally the per-epoch recovery *phase table*
derived from the observability spans (``--phases``), and optionally a
Chrome-trace/Perfetto JSON of the same spans (``--trace-out``).  A
non-terminating trial whose relaunches kept dying says how many did,
under the header (``failed launches: N``).

Examples::

    python -m repro timeline --kill 45 --phases
    python -m repro timeline --protocol v2 --kill 45:0 --kill 80:1 \\
        --partition 120:2,3 --heal-after 30 --trace-out trial.trace.json
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.classify import Outcome
from repro.analysis.critpath import render_critical_paths
from repro.analysis.timeline import render_timeline
from repro.experiments.harness import TrialSetup
from repro.experiments.resultstore import run_result_to_dict
from repro.experiments.spec import ExperimentSpec, flag
from repro.explore import generators
from repro.explore.generators import (Heal, Step, TimedKill, TimedPartition,
                                      render_plan)
from repro.mpichv import protocols
from repro.mpichv.runtime import RunResult
from repro.obs.chrometrace import write_chrome_trace
from repro.obs.phases import render_phase_table
from repro.obs.spans import span_rollups
from repro.workloads import available_workloads


def _time(at: str) -> int:
    if int(at) < 0:
        raise argparse.ArgumentTypeError(f"time {at} is negative")
    return int(at)


def _positive(value: str) -> int:
    if int(value) < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive count")
    return int(value)


def _parse_kill(spec: str) -> TimedKill:
    """``T`` or ``T:IDX`` — kill machine IDX (default 0) at t=T."""
    at, _, target = spec.partition(":")
    return TimedKill(at=_time(at), target=int(target) if target else 0)


def _parse_partition(spec: str) -> TimedPartition:
    """``T:IDX[,IDX...]`` — isolate those machines together at t=T."""
    at, _, targets = spec.partition(":")
    if not targets:
        raise argparse.ArgumentTypeError(
            f"partition spec {spec!r} needs targets, e.g. 60:1,2")
    return TimedPartition(at=_time(at),
                          targets=tuple(int(x) for x in targets.split(",")))


def failed_launches_line(outcome: Outcome,
                         obs_doc: Optional[Dict[str, Any]]) -> Optional[str]:
    """Why a trial never ended, when its relaunches kept dying: the
    ``disp.detect.launch`` count of a non-terminating trial, else None."""
    if outcome is not Outcome.NON_TERMINATING or not obs_doc:
        return None
    launches = obs_doc["metrics"]["counters"].get("disp.detect.launch", 0)
    return f"failed launches: {launches}" if launches else None


def run(protocol: str = "vcl", n_procs: int = 8, workload: str = "ring",
        seed: int = 0, timeout: float = 600.0,
        kill: Sequence[TimedKill] = (),
        partition: Sequence[TimedPartition] = (), heal_after: int = 0,
        width: int = 72, phases: bool = False, trace_out: Optional[str] = None,
        obs_out: Optional[str] = None) -> RunResult:
    """Run the trial and write its ``trace_out`` / ``obs_out`` files."""
    machines = n_procs + 4
    for option, steps in (("--kill", kill), ("--partition", partition)):
        for step in steps:
            for idx in getattr(step, "targets", None) or (step.target,):
                if not 0 <= idx < machines:
                    raise ValueError(
                        f"argument {option}: machine {idx} is not in "
                        f"0..{machines - 1} ({n_procs} procs run on "
                        f"{machines} machines)")

    # the fault plan, in injection order
    plan: List[Step] = sorted([*kill, *partition], key=lambda s: s.at)
    if heal_after and partition:
        plan.append(Heal(after=heal_after))
    setup = TrialSetup(
        n_procs=n_procs, n_machines=machines,
        protocol=protocol, workload=workload,
        timeout=timeout, observe=True,
        scenario_source=render_plan(tuple(plan)) if plan else None,
        master_daemon=generators.MASTER,
        node_daemon=generators.NODE_DAEMON)
    result = setup.run_one(seed)
    if trace_out:
        write_chrome_trace(
            trace_out, result.obs,
            title=f"{protocol}/{workload} x{n_procs} seed={seed}")
    if obs_out:
        with open(obs_out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(run_result_to_dict(result),
                                sort_keys=True, separators=(",", ":"))
                     + "\n")
    return result


def report(result: RunResult, kwargs: Dict[str, Any]) -> str:
    """The swimlanes, the phase table and critical paths (``--phases``),
    the span kinds, and the files written."""
    lines = [f"== {kwargs['protocol']} / {kwargs['workload']} "
             f"x{kwargs['n_procs']} (seed {kwargs['seed']}) — "
             f"{result.verdict.outcome.value} =="]
    launches = failed_launches_line(result.verdict.outcome, result.obs)
    if launches:
        lines.append(launches)
    lines.append(render_timeline(result.trace, width=kwargs["width"]))
    if kwargs["phases"]:
        lines += ["", "== recovery phases (sim seconds, from repro.obs "
                      "spans) ==",
                  render_phase_table(result.obs), "",
                  "== recovery critical paths (repro.analysis.critpath) ==",
                  render_critical_paths(result.obs)]
    rollups = span_rollups(result.obs) if result.obs else None
    if rollups:
        kinds = ", ".join(f"{kind} x{agg['count']}"
                          for kind, agg in sorted(rollups.items()))
        lines += ["", f"spans: {kinds}"]
    if kwargs["trace_out"]:
        lines.append(f"wrote Chrome trace to {kwargs['trace_out']} "
                     f"(open in chrome://tracing or ui.perfetto.dev)")
    if kwargs["obs_out"]:
        lines.append(f"wrote result document to {kwargs['obs_out']}")
    return "\n".join(lines)


SPEC = ExperimentSpec(
    name="timeline", run=run, blocks=(report,),
    flags=(
        flag("--protocol", choices=list(protocols.available()),
             help="fault-tolerance protocol (default: vcl)"),
        flag("--procs", type=_positive, dest="n_procs", metavar="N",
             help="MPI processes (default: 8)"),
        flag("--workload", choices=available_workloads(),
             help="workload (default: ring)"),
        flag("--seed", type=int),
        flag("--timeout", type=float,
             help="simulated-seconds cap (default: 600)"),
        flag("--kill", action="append", type=_parse_kill, metavar="T[:IDX]",
             help="kill machine IDX (default 0) at t=T; repeatable"),
        flag("--partition", action="append", type=_parse_partition,
             metavar="T:IDX[,IDX...]",
             help="isolate machines at t=T; repeatable"),
        flag("--heal-after", type=int, metavar="S",
             help="heal every partition S seconds after the last "
                  "injection step"),
        flag("--width", type=int,
             help="timeline width in columns (default: 72)"),
        flag("--phases", action="store_true",
             help="print the span-derived per-epoch recovery phase table "
                  "(detect/relaunch/restore/replay)"),
        flag("--trace-out", metavar="FILE",
             help="write a Chrome-trace/Perfetto JSON of the trial's spans "
                  "to FILE"),
        flag("--obs-out", metavar="FILE",
             help="write the trial's full result document (verdict + obs, "
                  "the wire format) to FILE — feed two of these to "
                  "`repro trace-diff`")))
