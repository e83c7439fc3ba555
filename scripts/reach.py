#!/usr/bin/env python
"""List every function under ``src/repro/`` that no product command runs.

Runs a fixed command set in this process under ``sys.setprofile``,
serially (the runner's default ``--workers 1``; the profile does not
follow a fork): every ``python -m repro`` command at its smallest
scale, ``explore --replay`` of a plan the fuzzer shrank and of
``scripts/reach.fail`` (the FAIL paths no shipped scenario uses), a
guided campaign run twice (the second reloads its corpus), each
registered workload, and the five ``examples/``.  Then it rewrites
``reach.txt`` at the repository root: one line per function that none
of them called, ``path:qualname — reason``, sorted.

The reasons are kept by hand.  A rerun keeps the reason of a function
still unreached, drops the line of a function now reached, and writes
a newly unreached function with no reason; the script exits 1 while
any line lacks one.  Dunders are out of scope.  A function nothing
needs is deleted, not listed.

Run from anywhere, stdlib only (about two minutes on one core):
``python scripts/reach.py``.  CI then runs
``git diff --exit-code reach.txt``, which fails on a stale line.
"""

from __future__ import annotations

import ast
import contextlib
import glob
import io
import os
import runpy
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
REACH = os.path.join(ROOT, "reach.txt")
SCENARIO = os.path.join(ROOT, "scripts", "reach.fail")
SEP = " \N{EM DASH} "
HEADER = (
    "# Functions under src/repro/ that no command of scripts/reach.py\n"
    "# calls, each with the reason it stays.  Rewritten by\n"
    "# `python scripts/reach.py`; a reason is written by hand.\n"
)

#: a guided campaign small enough to finish in seconds whose mutants
#: use every operator; the second run replays the corpus the first wrote
GUIDED = ("explore", "--guided", "--budget", "12", "--seed", "4",
          "--out", "guided", "--cache-dir", "store")
#: a planted replay bug the shrinker minimises into ``shrunk/*.fail``
SHRINK = ("explore", "--quick", "--seed", "7", "--protocols", "v1",
          "--families", "random_schedule", "--override", "cm_replay=false",
          "--max-shrinks", "1", "--out", "shrunk")


def commands():
    """The command set, in order: later ones read what earlier wrote.
    An ``argv`` whose first word is a ``.py`` file runs that example."""
    yield ("--help",)
    yield ("table1",)
    yield ("fig5", "--reps", "1", "--procs", "4", "--machines", "6")
    yield ("fig6", "--quick", "--reps", "1")
    yield ("fig7", "--quick", "--reps", "1", "--fixed")
    yield ("fig9", "--quick", "--reps", "1")
    yield ("fig11", "--quick", "--reps", "1", "--fixed")
    yield ("compare-protocols", "--quick", "--reps", "1",
           "--cache-dir", "store", "--trace-out", "compare.trace.json",
           "--obs-report", "rollup")
    yield ("net-sensitivity", "--quick", "--cache-dir", "store",
           "--json", "net.json")
    yield ("scale-sweep", "--quick", "--json", "scale.json")
    # every workload; at seed 11 a partition trial does not finish, and
    # the oracles ask whether its plan heals
    yield ("explore", "--quick", "--seed", "11", "--workloads",
           "ring,bt,masterworker", "--out", "quick", "--json", "quick.json")
    yield SHRINK
    yield from (("explore", "--replay", path, "--protocols", "v1",
                 "--override", "cm_replay=false")
                for path in sorted(glob.glob("shrunk/*.fail")))
    yield ("explore", "--replay", SCENARIO, "--protocols", "vcl",
           "--procs", "4", "--machines", "5")
    yield GUIDED
    yield GUIDED
    for protocol in ("vcl", "v2", "v1"):
        yield ("timeline", "--protocol", protocol, "--kill", "45",
               "--partition", "90:2", "--heal-after", "20", "--phases",
               "--trace-out", f"{protocol}.trace.json",
               "--obs-out", f"{protocol}.json")
    yield ("timeline", "--workload", "masterworker", "--procs", "4",
           "--kill", "30")
    yield ("trace-diff", "vcl.json", "v2.json")
    yield ("obs-report", "--store", "store", "--out", "report")
    examples = os.path.join(ROOT, "examples")
    yield (os.path.join(examples, "quickstart.py"),)
    yield (os.path.join(examples, "scenario_tour.py"),)
    yield (os.path.join(examples, "frequency_sweep.py"), "--reps", "1")
    yield (os.path.join(examples, "compare_protocols.py"),)
    yield (os.path.join(examples, "bug_hunt.py"),)


def run(argv, seen) -> None:
    """Run one command with every function call recorded in ``seen``."""
    from repro.__main__ import main

    def profile(frame, event, arg, add=seen.add):
        add(frame.f_code)

    saved = sys.argv
    out = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            if argv[0].endswith(".py"):
                sys.argv = list(argv)
                runpy.run_path(argv[0], run_name="__main__")
            else:
                main(list(argv))
    except SystemExit as stop:
        if stop.code not in (None, 0, 1):
            raise RuntimeError(f"{argv} exited {stop.code}:\n"
                               f"{out.getvalue()}")
    finally:
        sys.setprofile(None)
        sys.argv = saved


def functions():
    """Every non-dunder function under the package:
    ``(path, firstlineno) -> "path:qualname"``."""
    found = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                                 recursive=True)):
        rel = os.path.relpath(path, PACKAGE)
        real = os.path.realpath(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    name = child.name
                    if not (name.startswith("__") and name.endswith("__")):
                        # a decorated function's code starts at its
                        # first decorator
                        first = min([child.lineno] + [
                            d.lineno for d in child.decorator_list])
                        found[(real, first)] = f"{rel}:{prefix}{name}"
                    walk(child, f"{prefix}{name}.<locals>.")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return found


def read_reasons():
    reasons = {}
    if os.path.exists(REACH):
        with open(REACH, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line and not line.startswith("#"):
                    name, _, reason = line.partition(SEP)
                    reasons[name] = reason.strip()
    return reasons


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    seen = set()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            for argv in commands():
                began = time.perf_counter()
                run(argv, seen)
                label = " ".join([os.path.basename(argv[0]), *argv[1:3]])
                print(f"  {time.perf_counter() - began:6.1f}s  {label}",
                      file=sys.stderr, flush=True)
        finally:
            os.chdir(cwd)
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno)
               for code in seen}
    unreached = sorted(name for key, name in functions().items()
                       if key not in reached)
    reasons = read_reasons()
    with open(REACH, "w", encoding="utf-8") as fh:
        fh.write(HEADER)
        for name in unreached:
            reason = reasons.get(name)
            fh.write(f"{name}{SEP}{reason}\n" if reason else f"{name}\n")
    missing = [name for name in unreached if not reasons.get(name)]
    print(f"{len(unreached)} unreached functions, {len(missing)} without "
          f"a reason; {time.perf_counter() - start:.0f}s", file=sys.stderr)
    for name in missing:
        print(f"no reason: {name}", file=sys.stderr)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
