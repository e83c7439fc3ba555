"""Structured execution traces.

Every subsystem logs through :meth:`Engine.log`, which lands here.  The
experiment harness classifies run outcomes *only* from the trace, the
same way the paper's authors "analyse the execution trace" to separate
non-progressing runs from buggy ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One structured trace line: a timestamp, a kind tag and fields."""

    t: float
    kind: str
    fields: Dict[str, Any]

    def __getattr__(self, item: str) -> Any:
        try:
            return self.fields[item]
        except KeyError as err:
            raise AttributeError(item) from err

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        kv = " ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"[{self.t:10.3f}] {self.kind} {kv}"


class Trace:
    """An append-only list of :class:`TraceRecord` with query helpers.

    ``counts`` is the one tally of what a run did (restarts, detected
    failures, committed waves are counts of their kinds) and travels in
    the result document; ``last_time`` is live state for
    :func:`repro.analysis.classify.classify_run` and does not.
    """

    def __init__(self, keep: bool = True):
        self.records: List[TraceRecord] = []
        self.keep = keep
        #: running counters per kind, maintained even when keep=False so
        #: long runs can classify outcomes without storing every record.
        self.counts: Dict[str, int] = {}
        self.last_time: Dict[str, float] = {}
        self._listeners: List[Callable[[TraceRecord], None]] = []

    def record(self, t: float, kind: str, **fields: Any) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.last_time[kind] = t
        rec = TraceRecord(t, kind, fields)
        if self.keep:
            self.records.append(rec)
        for listener in self._listeners:
            listener(rec)

    def subscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Register a live listener (the obs recorder, a run's stop and
        checksum hooks, a caller's observer)."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Remove one registered listener (unknown listeners are a
        no-op, so teardown paths can be unconditional)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def clear_listeners(self) -> None:
        """Drop every listener — live wiring must not outlive the run
        whose records this trace now merely archives."""
        self._listeners.clear()

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
        for rec in reversed(self.records):
            if rec.kind == kind:
                return rec
        return None

    def last_t(self, kind: str) -> Optional[float]:
        return self.last_time.get(kind)

    def between(self, t0: float, t1: float) -> List[TraceRecord]:
        return [r for r in self.records if t0 <= r.t <= t1]

    def dump(self, limit: Optional[int] = None) -> str:
        """Human-readable dump (for debugging failed experiments)."""
        recs = self.records if limit is None else self.records[-limit:]
        return "\n".join(repr(r) for r in recs)
