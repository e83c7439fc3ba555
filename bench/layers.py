"""The one map from source files to layers, and the profile fold.

A layer is a module (or a few that only make sense together).  Every
``src/repro/**/*.py`` belongs to exactly one: ``FILES`` names the
exceptions, ``DIRS`` the rest by top-level package, and
``test_bench_contract.py`` fails when a new file matches neither — a
new module can never fall silently into a bucket.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, Optional, Tuple

#: the twelve modules, then the two buckets for code that is not the
#: repo's: C builtins, and every other Python frame (stdlib, harness)
LAYERS = ("engine", "process", "network", "cluster", "mpichv", "mpi",
          "fail", "obs", "analysis", "resultstore", "runner", "explore",
          "builtin", "stdlib_other")

#: path relative to ``src/repro`` -> layer, for files that do not
#: follow their directory
FILES = {
    "simkernel/process.py": "process",
    "cluster/network.py": "network",
    "experiments/resultstore.py": "resultstore",
    # the registry idiom behind the protocol / workload / fabric tables
    "registry.py": "mpichv",
    "__init__.py": "runner",
    "__main__.py": "runner",
}

#: first path component under ``src/repro`` -> layer
DIRS = {
    "simkernel": "engine",
    "netmodel": "network",
    "cluster": "cluster",
    "mpichv": "mpichv",
    "mpi": "mpi",
    "workloads": "mpi",
    "fail": "fail",
    "obs": "obs",
    "analysis": "analysis",
    # runner.py, harness.py and the figure drivers built on them
    "experiments": "runner",
    "explore": "explore",
}

#: stdlib packages (and their C accelerators) charged to the layer
#: that is their only caller here
STDLIB = {
    "json": "resultstore", "_json": "resultstore",
    "concurrent": "runner", "multiprocessing": "runner",
    "pickle": "runner", "_pickle": "runner",
}

_REPRO = os.sep + os.path.join("src", "repro") + os.sep


def layer_of_source(relpath: str) -> Optional[str]:
    """Layer of ``relpath`` (posix, relative to ``src/repro``)."""
    return FILES.get(relpath) or DIRS.get(relpath.split("/", 1)[0])


def layer_of_code(code: Any) -> str:
    """Layer of one ``cProfile`` entry's ``code``."""
    if isinstance(code, str):
        # "<built-in method _json.encode_basestring_ascii>",
        # "<method 'append' of 'list' objects>"
        for module, layer in STDLIB.items():
            if f" {module}." in code or f"'{module}." in code:
                return layer
        return "builtin"
    filename = code.co_filename
    at = filename.rfind(_REPRO)
    if at >= 0:
        rel = filename[at + len(_REPRO):].replace(os.sep, "/")
        return layer_of_source(rel) or "stdlib_other"
    parts = filename.replace(os.sep, "/").split("/")
    for module, layer in STDLIB.items():
        if module in parts or f"{module}.py" == parts[-1]:
            return layer
    return "stdlib_other"


def fold(entries: Iterable[Any]) -> Dict[str, Tuple[float, int]]:
    """``{layer: (self seconds, calls)}`` of ``Profile.getstats()``."""
    out = {layer: [0.0, 0] for layer in LAYERS}
    for entry in entries:
        cell = out[layer_of_code(entry.code)]
        cell[0] += entry.inlinetime
        cell[1] += entry.callcount
    return {layer: (cell[0], cell[1]) for layer, cell in out.items()}


def cumulative(entries: Iterable[Any], relpath: str, *names: str) -> float:
    """Cumulative seconds of the named functions of one repo file."""
    suffix = _REPRO + relpath.replace("/", os.sep)
    return sum(entry.totaltime for entry in entries
               if not isinstance(entry.code, str)
               and entry.code.co_filename.endswith(suffix)
               and entry.code.co_name in names)
