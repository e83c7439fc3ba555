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
the trace's per-kind ``counts`` (never its records: they stay with the
process that ran the trial), then every other :class:`RunResult` field
under its own name, in declaration order.  The run counters (restarts,
failures detected, bug events, committed waves) are trace counts, so
they are not stated again.  A document that lacks a key is unusable,
like one of another format.  A reloaded trace holds counts only: no
records, and no ``last`` / ``last_t``.

:class:`ResultStore` is the cache: one file per trial under a root
directory, written atomically so an interrupted campaign never leaves
a truncated entry behind.  An entry is the document as compact JSON —
as two texts when the trial was observed: its ``obs`` document, one
``\n``, then the rest of the document (:func:`entry_text`).  Compact
JSON holds no raw newline, so the last one splits the two, and a
reader (:func:`read_entry`) decodes only the rest: the ``obs`` section,
most of an observed entry's bytes, stays text in
:attr:`RunResult.obs` until something reads it.  It comes first so
that a truncated entry always loses part of the rest, which then fails
to decode: a stale miss, like any unreadable entry.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from typing import Any, Dict, List, Optional

from repro.analysis.classify import Outcome, RunVerdict
from repro.analysis.traces import Trace
from repro.mpichv.runtime import ObsText, RunResult

#: the one version of the result document: bump when its layout or
#: the simulation's semantics change; readers reject other versions
#: and the cache re-executes their entries.  No field carries wall
#: clock, so the document is byte-identical however the trial ran.
FORMAT_VERSION = 15   # 15: the trace section is its counts alone.
#                       Earlier formats: EXPERIMENTS.md, version history.


def trace_to_dict(trace: Trace) -> Dict[str, Any]:
    return {"counts": dict(trace.counts)}


def trace_from_dict(doc: Dict[str, Any]) -> Trace:
    trace = Trace(keep=False)
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

_COMPACT = (",", ":")


def entry_text(doc: Dict[str, Any]) -> str:
    """A result store entry's text: ``doc`` as compact JSON, its
    ``obs`` document, when it has one, first and on a line of its own."""
    obs = doc.get("obs")
    if obs is None:
        return json.dumps(doc, separators=_COMPACT)
    rest = {name: value for name, value in doc.items() if name != "obs"}
    return (json.dumps(obs, separators=_COMPACT) + "\n"
            + json.dumps(rest, separators=_COMPACT))


def read_entry(path: str, decode_obs: bool = False) -> RunResult:
    """The result in the file at ``path``: an :func:`entry_text`, or
    any one JSON result document on one line (an entry an older store
    wrote, ``timeline --obs-out``).  Only the part after the last
    newline is decoded now; what comes before it is the ``obs``
    section, decoded on first read of :attr:`RunResult.obs` — or now,
    with ``decode_obs``.  An unusable file raises one of
    :data:`UNREADABLE`."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    obs, _, rest = text.rstrip("\n").rpartition("\n")
    doc = json.loads(rest)
    if obs:
        section = ObsText(obs, path)
        doc["obs"] = section.decode() if decode_obs else section
    return run_result_from_dict(doc)


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


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically: into a temp file beside
    it, then :func:`os.replace`.  A write that fails removes the temp
    file and leaves any earlier ``path`` as it was."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultStore:
    """Directory of per-trial entries (:func:`entry_text`) keyed by the
    trial hash.

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

    def get(self, key: str, decode_obs: bool = False
            ) -> Optional[RunResult]:
        """The stored result (:func:`read_entry`), or None on a miss.

        An entry that is present but unusable — truncated, wrong shape,
        a missing key, another :data:`FORMAT_VERSION` — also reads as a
        miss (the trial re-executes and overwrites it) and is counted
        in :attr:`stale`.  A damaged ``obs`` section behind an intact
        rest is one too with ``decode_obs``; without, it is found
        later, by the first read of the result's ``obs``.
        """
        try:
            return read_entry(self.path_for(key), decode_obs)
        except FileNotFoundError:
            return None
        except UNREADABLE:
            self.stale += 1
            return None

    def put_dict(self, key: str, doc: Dict[str, Any]) -> None:
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_text(path, entry_text(doc))

    def __len__(self) -> int:
        return len(entry_paths(self.root))
