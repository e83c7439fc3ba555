"""Spans: nested sim-time intervals recorded at protocol call sites.

A span is ``[t0, t1)`` on a *lane* — a host name (``m3``, ``svc0``) or
the synthetic ``net`` lane — with a ``kind`` tag and a small field
dict.  Call sites open spans through
:meth:`repro.simkernel.engine.Engine.span`; with no :class:`Obs`
recorder attached the call returns the shared :data:`NULL_SPAN` and
costs one attribute read: the ``keep=False``-style off switch for the
engine hot path.

Determinism contract: recording a span never schedules engine events,
never writes the trace, and never consumes ``engine.random`` — the
span list is derived *from* the simulated history, so the golden
digest matrix (``tests/test_golden_digests.py``) and the byte
equality of serial / pooled / cached results are unaffected by turning
observation on or off.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.causal import CausalGraph
from repro.simkernel.engine import _NULL_SPAN as NULL_SPAN

#: indices into a span row ``[t0, t1, kind, lane, fields]``
T0, T1, KIND, LANE, FIELDS = 0, 1, 2, 3, 4

#: hard cap on recorded spans per trial — a deterministic bound (spans
#: record in dispatch order, so truncation cuts the same tail
#: everywhere); overflow is counted in ``dropped_spans``
MAX_SPANS = 50000


def json_safe(value: Any) -> Any:
    """Best-effort conversion of a span or trace field to a JSON value."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    return repr(value)


class Span:
    """One open or closed interval (mutated in place on close)."""

    __slots__ = ("obs", "kind", "lane", "t0", "t1", "fields")

    def __init__(self, obs: "Obs", kind: str, lane: str, t0: float,
                 fields: Dict[str, Any]):
        self.obs = obs
        self.kind = kind
        self.lane = lane
        self.t0 = t0
        self.t1: Optional[float] = None
        self.fields = fields

    @property
    def closed(self) -> bool:
        return self.t1 is not None

    def close(self, **fields: Any) -> "Span":
        """Close at the engine's current instant (idempotent)."""
        if self.t1 is None:
            self.obs._close(self, self.obs.engine.now, fields)
        return self

    def close_at(self, t1: float, **fields: Any) -> "Span":
        if self.t1 is None:
            self.obs._close(self, t1, fields)
        return self

    def to_row(self) -> List[Any]:
        return [self.t0, self.t1, self.kind, self.lane,
                json_safe(self.fields)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        end = f"{self.t1:.3f}" if self.t1 is not None else "…"
        return f"<Span {self.kind}@{self.lane} [{self.t0:.3f},{end})>"


class Obs:
    """Per-trial recorder: the span list and the causal graph."""

    def __init__(self, engine=None, max_spans: int = MAX_SPANS):
        self.engine = engine
        self.max_spans = max_spans
        #: every recorded span, in open (dispatch) order
        self.spans: List[Span] = []
        #: kind -> open spans of that kind, in open order (FIFO)
        self._open: Dict[str, List[Span]] = {}
        self.dropped_spans = 0
        self.truncated_spans = 0
        #: causal message graph (see :mod:`repro.obs.causal`), fed by
        #: the network's send loops
        self.causal = CausalGraph()
        self._finalized = False

    # -- span lifecycle ----------------------------------------------------
    def open(self, kind: str, lane: str, t0: float,
             fields: Dict[str, Any]):
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return NULL_SPAN
        span = Span(self, kind, lane, t0, fields)
        self.spans.append(span)
        self._open.setdefault(kind, []).append(span)
        return span

    def _close(self, span: Span, t1: float, fields: Dict[str, Any]) -> None:
        span.t1 = t1
        if fields:
            span.fields.update(fields)
        bucket = self._open.get(span.kind)
        if bucket is not None and span in bucket:
            bucket.remove(span)

    def end_oldest(self, kind: str, t1: float,
                   match: Optional[Dict[str, Any]] = None,
                   **fields: Any) -> Optional[Span]:
        """Close the oldest open span of ``kind`` (FIFO hand-off).

        With ``match``, only a span whose fields agree on every given
        key qualifies — e.g. the dispatcher closing the ``detect`` span
        of the machine whose daemon's socket just dropped, not whichever
        kill happened to land first.  Returns the closed span, or None
        when nothing (matching) was open.
        """
        for span in self._open.get(kind, ()):
            if match is not None and any(span.fields.get(k) != v
                                         for k, v in match.items()):
                continue
            self._close(span, t1, fields)
            return span
        return None

    def close_all(self, kind: str, t1: float, **fields: Any) -> int:
        """Close every open span of ``kind``; returns how many."""
        bucket = self._open.pop(kind, None)
        if not bucket:
            return 0
        for span in bucket:
            span.t1 = t1
            if fields:
                span.fields.update(fields)
        return len(bucket)

    # -- log hook ----------------------------------------------------------
    def on_log(self, kind: str, t: float) -> None:
        """Called by :meth:`repro.simkernel.engine.Engine.log` with each
        trace record's kind and instant: application progress ends
        catch-up.

        The ``catchup`` phase has no natural closing call site — "the
        system is caught up" is observable only as the application
        making progress again — so the first ``progress`` /
        ``verify_ok`` / ``app_done`` record closes every open catch-up
        span, and a new ``failure_detected`` cuts them short (the next
        recovery supersedes the current one).
        """
        if kind in ("progress", "verify_ok", "app_done"):
            if self._open.get("catchup"):
                self.close_all("catchup", t)
        elif kind == "failure_detected":
            if self._open.get("catchup"):
                self.close_all("catchup", t, cut_short=True)

    # -- end of run --------------------------------------------------------
    def finalize(self, end_time: float) -> None:
        """Close every span still open at the end of the run.

        A span left open means its closing site never ran — a daemon
        died mid-checkpoint-transfer, a partition was never healed.
        Those close at ``end_time`` with a ``_truncated`` marker so
        exporters can render them while the nesting checks exclude
        them.
        """
        if self._finalized:
            return
        self._finalized = True
        for bucket in self._open.values():
            for span in bucket:
                span.t1 = end_time
                span.fields["_truncated"] = True
                self.truncated_spans += 1
        self._open.clear()

    def to_doc(self, metrics: Dict[str, Any]) -> Dict[str, Any]:
        """The compact ``obs`` wire document (see RunResult.obs); of
        the causal table it carries the folds, the per-epoch ones over
        the recovery windows the span rows define.  ``metrics`` is the
        runtime's end-of-run fold
        (:meth:`repro.mpichv.runtime.VclRuntime._finalize_obs`)."""
        # function-level: the phase table is built on this module
        from repro.obs.phases import epoch_phase_table, recovery_window
        spans = [s.to_row() for s in self.spans]
        windows = [recovery_window(prow)
                   for prow in epoch_phase_table({"spans": spans})]
        return {
            "spans": spans,
            "dropped_spans": self.dropped_spans,
            "truncated_spans": self.truncated_spans,
            "metrics": metrics,
            "causal": self.causal.to_doc(windows),
        }


def span_rollups(obs_doc: Optional[Dict[str, Any]]
                 ) -> Dict[str, Dict[str, float]]:
    """Per-kind rollups of an ``obs`` document's span rows.

    ``{kind: {count, total, max, truncated}}`` with durations in
    simulated seconds.  Tolerates ``None`` (observation was off) by
    returning an empty dict, so consumers can stay unconditional.
    """
    rollups: Dict[str, Dict[str, float]] = {}
    if not obs_doc:
        return rollups
    for row in obs_doc.get("spans", ()):
        kind = row[KIND]
        entry = rollups.setdefault(
            kind, {"count": 0, "total": 0.0, "max": 0.0, "truncated": 0})
        entry["count"] += 1
        fields = row[FIELDS] or {}
        if fields.get("_truncated"):
            entry["truncated"] += 1
            continue
        dur = (row[T1] if row[T1] is not None else row[T0]) - row[T0]
        entry["total"] += dur
        if dur > entry["max"]:
            entry["max"] = dur
    return rollups
