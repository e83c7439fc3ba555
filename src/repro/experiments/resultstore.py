"""Serialization and on-disk storage of :class:`RunResult`.

The parallel runner (:mod:`repro.experiments.runner`) needs two forms
of a trial result:

* a *wire form* it can ship back from a worker process;
* a *rest form* it can write to the result cache so a re-run of a
  figure, or a resumed campaign, skips trials that already computed.

Both are the same JSON document, produced by
:func:`run_result_to_dict` and consumed by :func:`run_result_from_dict`,
so a pooled and a cached result come back through one reader and
serial == pooled == cached holds by construction.  It holds the verdict,
the trace's per-kind ``counts`` and — when the trial kept them — its
records, then every other :class:`RunResult` field under its own name,
in declaration order.  The run counters (restarts, failures detected,
bug events, committed waves) are trace counts, so they are not stated
again.  A document that lacks a key is unusable, like one of another
format.  A reloaded trace's ``last`` / ``last_t`` are rebuilt from the
records it restores.

:class:`ResultStore` is the cache: one JSON file per trial under a
root directory, written atomically so an interrupted campaign never
leaves a truncated entry behind.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from typing import Any, Dict, List, Optional

from repro.analysis.classify import Outcome, RunVerdict
from repro.analysis.traces import Trace
from repro.mpichv.runtime import RunResult
from repro.obs.spans import json_safe

#: the one version of the result document: bump when its layout or
#: the simulation's semantics change; readers reject other versions
#: and the cache re-executes their entries.  No field carries wall
#: clock, so the document is byte-identical however the trial ran.
FORMAT_VERSION = 14   # 14: FAIL's ``/`` is exact integer division
#                       (no float).  Earlier formats: EXPERIMENTS.md,
#                       version history.


def trace_to_dict(trace: Trace) -> Dict[str, Any]:
    return {
        "counts": dict(trace.counts),
        "records": [[r.t, r.kind, json_safe(r.fields)]
                    for r in trace.records],
    }


def trace_from_dict(doc: Dict[str, Any]) -> Trace:
    trace = Trace(keep=bool(doc["records"]))
    for t, kind, fields in doc["records"]:
        trace.record(t, kind, **fields)
    trace.counts = dict(doc["counts"])
    return trace


#: the result's flat fields, in declaration order — the document's key
#: order after ``format``, ``verdict`` and ``trace``
_FLAT = tuple(f.name for f in dataclasses.fields(RunResult)
              if f.name not in ("verdict", "trace"))


def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    """JSON-safe document capturing one trial's result."""
    verdict = result.verdict
    doc: Dict[str, Any] = {
        "format": FORMAT_VERSION,
        "verdict": {
            "outcome": verdict.outcome.value,
            "exec_time": verdict.exec_time,
            "last_activity": verdict.last_activity,
            "reason": verdict.reason,
        },
        "trace": trace_to_dict(result.trace),
    }
    for name in _FLAT:
        doc[name] = getattr(result, name)
    return doc


def run_result_from_dict(doc: Dict[str, Any]) -> RunResult:
    """Inverse of :func:`run_result_to_dict`; a missing key raises
    ``KeyError``."""
    version = doc.get("format")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported result format {version!r} "
                         f"(expected {FORMAT_VERSION})")
    v = doc["verdict"]
    verdict = RunVerdict(
        outcome=Outcome(v["outcome"]),
        exec_time=v["exec_time"],
        last_activity=v["last_activity"],
        reason=v["reason"],
    )
    return RunResult(verdict=verdict, trace=trace_from_dict(doc["trace"]),
                     **{name: doc[name] for name in _FLAT})


#: what reading a present but unusable entry raises: truncated or not
#: JSON, wrong shape, a missing key, another :data:`FORMAT_VERSION`
UNREADABLE = (OSError, ValueError, KeyError, TypeError, AttributeError)


def entry_paths(root: str) -> List[str]:
    """The entry files of the result store at ``root``, in sorted order:
    ``<key[:2]>/<key>.json`` only, so what else lives under the root (a
    guided campaign's ``corpus/``) is no entry."""
    paths = []
    for shard in sorted(os.listdir(root)):
        folder = os.path.join(root, shard)
        if len(shard) == 2 and os.path.isdir(folder):
            paths.extend(os.path.join(folder, name)
                         for name in sorted(os.listdir(folder))
                         if name.startswith(shard) and name.endswith(".json"))
    return paths


def write_json(path: str, doc: Any, **options: Any) -> None:
    """Write ``doc`` as JSON (``json.dumps`` ``options``) to ``path``
    atomically: into a temp file beside it, then :func:`os.replace`.  A
    dump or write that fails removes the temp file and leaves any
    earlier ``path`` as it was."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # dumps, not dump: one pass of the C encoder and one write,
            # where dump(fh) iterates in Python per token
            fh.write(json.dumps(doc, **options))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultStore:
    """Directory of per-trial JSON documents keyed by the trial hash.

    Layout: ``<root>/<key[:2]>/<key>.json`` — two-level sharding keeps
    directory listings manageable for campaigns with tens of thousands
    of trials.  Writes go through a temp file + :func:`os.replace` so a
    killed run can always be resumed against an uncorrupted store.
    """

    def __init__(self, root: str):
        self.root = root
        try:
            os.makedirs(root, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as err:
            raise NotADirectoryError(
                f"result cache path {root!r} exists and is not a "
                f"directory") from err
        #: entries :meth:`get` found but could not use
        self.stale = 0

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path_for(key))

    def get(self, key: str) -> Optional[RunResult]:
        """The stored result, or None on a miss.

        An entry that is present but unusable — truncated, wrong shape,
        a missing key, another :data:`FORMAT_VERSION` — also reads as a miss (the trial
        re-executes and overwrites it) and is counted in :attr:`stale`.
        """
        try:
            with open(self.path_for(key), "r", encoding="utf-8") as fh:
                return run_result_from_dict(json.loads(fh.read()))
        except FileNotFoundError:
            return None
        except UNREADABLE:
            self.stale += 1
            return None

    def put_dict(self, key: str, doc: Dict[str, Any]) -> None:
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_json(path, doc, separators=(",", ":"))

    def __len__(self) -> int:
        return len(entry_paths(self.root))
