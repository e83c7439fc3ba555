"""``python -m repro timeline`` — one observed trial, rendered.

Runs a single trial of any registered protocol under an inline fault
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
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.classify import Outcome
from repro.analysis.critpath import render_critical_paths
from repro.analysis.timeline import render_timeline
from repro.experiments.harness import TrialSetup
from repro.experiments.resultstore import run_result_to_dict
from repro.explore import generators
from repro.explore.generators import (Heal, Step, TimedKill, TimedPartition,
                                      render_plan)
from repro.mpichv import protocols
from repro.obs.chrometrace import write_chrome_trace
from repro.obs.phases import epoch_phase_table, render_phase_table
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


def build_plan(kills: List[TimedKill],
               partitions: List[TimedPartition],
               heal_after: int) -> Tuple[Step, ...]:
    """Assemble the fault plan in injection order."""
    steps: List[Step] = sorted([*kills, *partitions], key=lambda s: s.at)
    if heal_after and partitions:
        steps.append(Heal(after=heal_after))
    return tuple(steps)


def failed_launches_line(outcome: Outcome,
                         obs_doc: Optional[Dict[str, Any]]) -> Optional[str]:
    """Why a trial never ended, when its relaunches kept dying: the
    ``disp.detect.launch`` count of a non-terminating trial, else None."""
    if outcome is not Outcome.NON_TERMINATING or not obs_doc:
        return None
    launches = obs_doc["metrics"]["counters"].get("disp.detect.launch", 0)
    return f"failed launches: {launches}" if launches else None


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="repro timeline",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--protocol", default="vcl",
                        choices=list(protocols.available()),
                        help="fault-tolerance protocol (default: vcl)")
    parser.add_argument("--procs", type=_positive, default=8, metavar="N",
                        help="MPI processes (default: 8)")
    parser.add_argument("--workload", default="ring",
                        choices=available_workloads(),
                        help="registered workload (default: ring)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="simulated-seconds cap (default: 600)")
    parser.add_argument("--kill", action="append", default=[],
                        type=_parse_kill, metavar="T[:IDX]",
                        help="kill machine IDX (default 0) at t=T; repeatable")
    parser.add_argument("--partition", action="append", default=[],
                        type=_parse_partition, metavar="T:IDX[,IDX...]",
                        help="isolate machines at t=T; repeatable")
    parser.add_argument("--heal-after", type=int, default=0, metavar="S",
                        help="heal every partition S seconds after the last "
                             "injection step")
    parser.add_argument("--width", type=int, default=72,
                        help="timeline width in columns (default: 72)")
    parser.add_argument("--phases", action="store_true",
                        help="print the span-derived per-epoch recovery "
                             "phase table (detect/relaunch/restore/replay)")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write a Chrome-trace/Perfetto JSON of the "
                             "trial's spans to FILE")
    parser.add_argument("--obs-out", default=None, metavar="FILE",
                        help="write the trial's full result document "
                             "(verdict + obs, the wire format) to FILE — "
                             "feed two of these to `repro trace-diff`")
    args = parser.parse_args(argv)
    machines = args.procs + 4
    for option, steps in (("--kill", args.kill),
                          ("--partition", args.partition)):
        for step in steps:
            for idx in getattr(step, "targets", None) or (step.target,):
                if not 0 <= idx < machines:
                    parser.error(f"argument {option}: machine {idx} is not "
                                 f"in 0..{machines - 1} ({args.procs} "
                                 f"procs run on {machines} machines)")

    plan = build_plan(args.kill, args.partition, args.heal_after)
    setup = TrialSetup(
        n_procs=args.procs, n_machines=machines,
        protocol=args.protocol, workload=args.workload,
        timeout=args.timeout, keep_trace=True,
        scenario_source=render_plan(plan) if plan else None,
        master_daemon=generators.MASTER,
        node_daemon=generators.NODE_DAEMON)
    result = setup.run_one(args.seed)

    print(f"== {args.protocol} / {args.workload} x{args.procs} "
          f"(seed {args.seed}) — {result.verdict.outcome.value} ==")
    launches = failed_launches_line(result.verdict.outcome, result.obs)
    if launches:
        print(launches)
    print(render_timeline(result.trace, width=args.width))
    if args.phases:
        print()
        print("== recovery phases (sim seconds, from repro.obs spans) ==")
        print(render_phase_table(result.obs))
        print()
        print("== recovery critical paths (repro.analysis.critpath) ==")
        print(render_critical_paths(result.obs))
    if result.obs:
        rollups = span_rollups(result.obs)
        if rollups:
            print()
            kinds = ", ".join(f"{kind} x{agg['count']}"
                              for kind, agg in sorted(rollups.items()))
            print(f"spans: {kinds}")
    if args.trace_out:
        write_chrome_trace(
            args.trace_out, result.obs,
            title=f"{args.protocol}/{args.workload} x{args.procs} "
                  f"seed={args.seed}")
        print(f"wrote Chrome trace to {args.trace_out} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    if args.obs_out:
        with open(args.obs_out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(run_result_to_dict(result),
                                sort_keys=True, separators=(",", ":"))
                     + "\n")
        print(f"wrote result document to {args.obs_out}")


if __name__ == "__main__":  # pragma: no cover
    main()
