"""One spec per experiment command, and the one CLI that runs them all.

Each figure, table and sweep module declares a ``SPEC``: its command
name, its ``run_experiment`` (whose defaults are the paper's scale),
the keywords of its quick scale, its extra flags, what it prints after
the run, the ``BENCH_*.json`` document a sweep writes, and ``expect``
— the figure's shape assertions.  ``tests/test_experiment_specs.py``
runs every spec's ``expect`` at quick scale, and at paper scale under
``REPRO_FULL=1``.

:func:`main` is the command line of every spec: parse, build the
runner, run, print, write ``--json`` and print the ``[runner]`` line.
A flag sets the ``run_experiment`` keyword named by its ``dest``, and
flags keep no defaults of their own: the keywords of a run are
``run_experiment``'s defaults, overridden by the ``--quick`` preset,
overridden by the flags actually given.
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
                           help="protocols to sweep (default: all registered)")
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
    """One experiment command: how to run it, print it and check it."""

    #: the ``python -m repro`` command
    name: str
    #: the module's ``run_experiment``
    run: Callable[..., Any]
    #: the figure's shape assertions, ``expect(result, kwargs)``, where
    #: ``kwargs`` are the run's keywords over ``run``'s defaults
    expect: Callable[[Any, Keywords], None]
    #: keywords of the quick scale: the tier-1 shape test, and the
    #: ``--quick`` preset of a command that has that flag
    quick: Keywords = field(default_factory=dict)
    #: keywords of the post-paper ablation, laid over either scale and
    #: checked by the same ``expect``
    ablation: Keywords = field(default_factory=dict)
    #: flags beyond the runner group
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


def main(module, argv) -> None:
    """Run ``module.SPEC`` as ``python -m repro <name> [argv]``."""
    spec: ExperimentSpec = module.SPEC
    parser = argparse.ArgumentParser(prog=f"repro {spec.name}",
                                     description=module.__doc__,
                                     argument_default=argparse.SUPPRESS)
    dests = [parser.add_argument(*names, **options).dest
             for names, options in spec.flags]
    if spec.bench_json:
        parser.add_argument("--json", metavar="PATH",
                            help=f"benchmark JSON output path (default: "
                                 f"{spec.bench_json})")
    add_runner_arguments(parser)
    args = parser.parse_args(argv)

    given = {dest: getattr(args, dest) for dest in dests if hasattr(args, dest)}
    quick = given.pop("quick", False)
    kwargs = {**(spec.quick if quick else {}), **given}
    resolved = spec.resolve(kwargs)
    if quick and spec.quick_banner:
        print(spec.quick_banner.format(**resolved))
    runner = runner_from_args(args)
    start = time.perf_counter()
    result = spec.run(runner=runner, **kwargs)
    wall = time.perf_counter() - start

    print("\n\n".join(block(result, resolved) for block in spec.blocks))
    stats = runner.stats
    if stats.total:
        print(f"[runner] {stats.describe()}, wall {wall:.1f}s")
    path = getattr(args, "json", spec.bench_json)
    if path:
        doc = {"experiment": spec.name, **spec.summarize(result, resolved),
               "wall_seconds": wall, "executed": stats.executed,
               "cache_hits": stats.cache_hits,
               "runner_stats": stats.to_doc()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
