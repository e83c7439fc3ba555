"""One spec per command, and the one command line that runs them all.

Every command module declares a ``SPEC``: its command name, its
``run`` (whose defaults are the paper's scale), the keywords of its
quick scale, its flags, what it prints after the run, the
``BENCH_*.json`` document a sweep writes, and, for a figure,
``expect`` — the shape assertions ``tests/test_experiment_specs.py``
runs at quick scale, and at paper scale under ``REPRO_FULL=1``.

:func:`main` is the command line of every spec: parse, build the
runner, run, print, write ``--json`` and print the ``[runner]`` line.
A flag sets the ``run`` keyword named by its ``dest``, and flags keep
no defaults of their own: the keywords of a run are ``run``'s
defaults, overridden by the ``--quick`` preset (every spec with one
has the flag), overridden by the flags actually given.  A ``run`` with
a ``runner`` parameter gets the runner flags and the runner they
describe (and may name a runner flag's dest to read it); a
``ValueError`` from ``run`` is a usage
error (exit 2); a result's ``exit_status``, if it has one, is the
command's exit status.
"""

from __future__ import annotations

import argparse
import inspect
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.experiments.runner import add_runner_arguments, runner_from_args

Flag = Tuple[Tuple[str, ...], Dict[str, Any]]
Keywords = Dict[str, Any]


def flag(*names: str, **options: Any) -> Flag:
    """One ``add_argument`` call, as data."""
    return names, options


def comma_list(convert: Callable[[str], Any] = str
               ) -> Callable[[str], tuple]:
    """argparse ``type``: a comma-separated list, empty items dropped."""
    return lambda text: tuple(convert(item) for item in text.split(",")
                              if item)


REPS_FLAG = flag("--reps", type=int)
PROCS_FLAG = flag("--procs", type=int, dest="n_procs")
MACHINES_FLAG = flag("--machines", type=int, dest="n_machines")
FIXED_FLAG = flag("--fixed", action="store_false", dest="bug_compat",
                  help="run with the dispatcher bug fixed (ablation)")
PROTOCOL_NAMES_FLAG = flag("--protocols", action="extend",
                           type=comma_list(), dest="protocol_names",
                           metavar="NAME[,NAME]",
                           help="protocols to sweep (default: all)")
NO_FAULTS_FLAG = flag("--no-faults", action="store_false", dest="faulty",
                      help="sweep fault-free (no recovery traffic)")

#: the figures' quick scale: a shorter BT run.  The footprint (and so
#: the checkpoint-wave length, the quantity that shapes every figure)
#: keeps its class-B value; only compute shrinks.
QUICK_BT = dict(niters=40, total_compute=2400.0)


def table(result, kwargs: Keywords) -> str:
    return result.render()


@dataclass(frozen=True)
class ExperimentSpec:
    """One command: how to run it, print it and, for a figure, check it."""

    #: the ``python -m repro`` command
    name: str
    #: the module's ``run_experiment`` (or the command's ``run``)
    run: Callable[..., Any]
    #: the figure's shape assertions, ``expect(result, kwargs)``, where
    #: ``kwargs`` are the run's keywords over ``run``'s defaults; None
    #: for a command that draws no figure
    expect: Optional[Callable[[Any, Keywords], None]] = None
    #: keywords of the quick scale: the tier-1 shape test, and the
    #: preset of the ``--quick`` flag every spec with one has
    quick: Keywords = field(default_factory=dict)
    #: keywords of the post-paper ablation, laid over either scale and
    #: checked by the same ``expect``
    ablation: Keywords = field(default_factory=dict)
    #: the command's flags (``run`` decides on the runner group)
    flags: Tuple[Flag, ...] = ()
    #: what is printed after the run, blank-line separated
    blocks: Tuple[Callable[[Any, Keywords], str], ...] = (table,)
    #: printed before a ``--quick`` run, formatted with its keywords
    quick_banner: str = ""
    #: default ``--json`` path; a spec with one has a ``--json`` flag
    bench_json: Optional[str] = None
    #: the ``--json`` document's command-specific keys
    summarize: Optional[Callable[[Any, Keywords], Keywords]] = None

    def resolve(self, kwargs: Keywords) -> Keywords:
        """``kwargs`` over ``run``'s own defaults."""
        params = inspect.signature(self.run).parameters.values()
        defaults = {p.name: p.default for p in params
                    if p.default is not p.empty}
        return {**defaults, **kwargs}


def main(module, argv) -> int:
    """Run ``module.SPEC`` as ``python -m repro <name> [argv]``; return
    the exit status."""
    spec: ExperimentSpec = module.SPEC
    params = inspect.signature(spec.run).parameters
    parser = argparse.ArgumentParser(
        prog=f"repro {spec.name}", description=module.__doc__.split("\n\n")[0],
        argument_default=argparse.SUPPRESS)
    dests = [parser.add_argument(*names, **options).dest
             for names, options in spec.flags]
    if spec.quick:
        parser.add_argument("--quick", action="store_true", help=(
            "run at the quick scale: " + ", ".join(
                f"{key}={value}" for key, value in spec.quick.items())))
    if spec.bench_json:
        parser.add_argument("--json", metavar="PATH",
                            help=f"benchmark JSON output path (default: "
                                 f"{spec.bench_json})")
    if "runner" in params:
        add_runner_arguments(parser)
    args = parser.parse_args(argv)

    given = {dest: value for dest, value in vars(args).items()
             if dest in dests or dest in params}
    quick = getattr(args, "quick", False)
    kwargs = {**(spec.quick if quick else {}), **given}
    resolved = spec.resolve(kwargs)
    if quick and spec.quick_banner:
        print(spec.quick_banner.format(**resolved))
    runner = None
    if "runner" in params:
        runner = kwargs["runner"] = runner_from_args(args)
    start = time.perf_counter()
    try:
        result = spec.run(**kwargs)
    except ValueError as err:
        parser.error(str(err))
    wall = time.perf_counter() - start

    print("\n\n".join(block(result, resolved) for block in spec.blocks))
    if runner is not None and runner.stats.total:
        print(f"[runner] {runner.stats.describe()}, wall {wall:.1f}s")
    path = getattr(args, "json", spec.bench_json)
    if path:
        doc = {"experiment": spec.name, **spec.summarize(result, resolved),
               "wall_seconds": wall, "executed": runner.stats.executed,
               "cache_hits": runner.stats.cache_hits,
               "runner_stats": runner.stats.to_doc()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return getattr(result, "exit_status", 0)
