"""Structured execution traces.

Every subsystem logs through :meth:`Engine.log`, which lands here.  The
experiment harness classifies run outcomes *only* from the trace, the
same way the paper's authors "analyse the execution trace" to separate
non-progressing runs from buggy ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class TraceRecord:
    """One structured trace line: a timestamp, a kind tag and fields."""

    t: float
    kind: str
    fields: Dict[str, Any]

    def __getattr__(self, item: str) -> Any:
        # via ``__dict__``: a copy or an unpickle asks before it is set
        try:
            return self.__dict__["fields"][item]
        except KeyError as err:
            raise AttributeError(item) from err

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        kv = " ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"[{self.t:10.3f}] {self.kind} {kv}"


class Trace:
    """An append-only log of :class:`TraceRecord` with query helpers.

    Nothing listens: each fact a run acts on is handed over by the call
    site that knows it, so a trace is plain data once its run returns.
    ``counts`` is the one tally of what a run did (restarts, detected
    failures, committed waves are counts of their kinds), all a result
    document carries: records never leave the process that ran the
    trial.  ``last`` holds each kind's latest ``(t, fields)``, kept even
    when the records are not, so
    :func:`repro.analysis.classify.classify_run` and the runtime read a
    ``keep=False`` trace too.
    """

    def __init__(self, keep: bool = True):
        self.records: List[TraceRecord] = []
        self.keep = keep
        #: running counters per kind, maintained even when keep=False so
        #: long runs can classify outcomes without storing every record.
        self.counts: Dict[str, int] = {}
        #: kind -> ``(t, fields)`` of its latest record
        self._last: Dict[str, Tuple[float, Dict[str, Any]]] = {}

    def record(self, t: float, kind: str, **fields: Any) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self._last[kind] = (t, fields)
        if self.keep:
            self.records.append(TraceRecord(t, kind, fields))

    # -- queries ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def of_kind(self, kind: str) -> List[TraceRecord]:
        return [r for r in self.records if r.kind == kind]

    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    def last(self, kind: str) -> Optional[TraceRecord]:
        latest = self._last.get(kind)
        return None if latest is None else TraceRecord(latest[0], kind,
                                                       latest[1])

    def last_t(self, kind: str) -> Optional[float]:
        latest = self._last.get(kind)
        return None if latest is None else latest[0]
