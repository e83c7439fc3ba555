"""Command-line entry point: ``python -m repro <experiment> [...]``.

Every command is a module with a ``SPEC``
(:class:`~repro.experiments.spec.ExperimentSpec`), and
:func:`repro.experiments.spec.main` is the one command line that runs
them: each takes its own flags (``--reps``, ``--kill``, ``--guided``,
…), plus the shared trial execution flags of
:mod:`repro.experiments.runner` when it runs trials through a runner.
A command's module is imported only once the command is chosen.
"""

from __future__ import annotations

import os
import sys

COMMANDS = {
    "fig5": ("repro.experiments.fig5_frequency", "impact of fault frequency"),
    "fig6": ("repro.experiments.fig6_scale", "impact of scale"),
    "fig7": ("repro.experiments.fig7_simultaneous", "simultaneous faults"),
    "fig9": ("repro.experiments.fig9_synchronized", "synchronized faults"),
    "fig11": ("repro.experiments.fig11_state_sync",
              "state-synchronized faults"),
    "table1": ("repro.experiments.table1_tools", "tool comparison table"),
    "compare-protocols": ("repro.experiments.compare_protocols",
                          "vcl vs v2 vs v1 under identical scenarios"),
    "explore": ("repro.explore.campaign",
                "generated fault scenarios + oracles + shrinking"),
    "net-sensitivity": ("repro.experiments.net_sensitivity",
                        "protocol x topology x oversubscription sweep"),
    "scale-sweep": ("repro.experiments.scale_sweep",
                    "protocol x ranks x ckpt-server shards, up to 512 ranks"),
    "timeline": ("repro.experiments.timeline_cmd",
                 "one observed trial: swimlanes, phase table, Chrome trace"),
    "trace-diff": ("repro.experiments.trace_diff_cmd",
                   "align two trials' spans + recovery critical paths"),
    "obs-report": ("repro.experiments.obs_report_cmd",
                   "campaign rollup: OpenMetrics + HTML from a result store"),
}

def usage() -> str:
    lines = ["usage: python -m repro <command> [options]", "", "commands:"]
    for name, (_module, blurb) in COMMANDS.items():
        lines.append(f"  {name:<18} {blurb}")
    lines.append("")
    lines.append("shared flags: --workers N  --cache-dir DIR  --no-cache  "
                 "--trace-out FILE  --obs-report DIR")
    lines.append("pass --help after a command for its options")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(usage())
        return 0
    command = argv.pop(0)
    entry = COMMANDS.get(command)
    if entry is None:
        print(f"unknown command {command!r}\n", file=sys.stderr)
        print(usage(), file=sys.stderr)
        return 2
    import importlib
    from repro.experiments.spec import main as run_spec
    module = importlib.import_module(entry[0])
    try:
        try:
            return run_spec(module, argv)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``): a normal end.  Point
        # stdout at /dev/null so the interpreter's exit flush of what is
        # still buffered does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
