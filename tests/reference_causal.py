"""The causal recorder as it was when a context was a ``(trace_id,
parent_trace_id)`` string pair and every transmitted copy was one
:meth:`CausalGraph.on_transmit` call — kept verbatim as the oracle the
integer-context recorder of :mod:`repro.obs.causal` must equal
(``tests/test_causal_differential.py``).  Only the constants are shared.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.causal import ATTRIBUTION, MAX_CAUSAL_NODES, MAX_CHAIN

#: the attribute causal context rides on (wire dataclasses define no
#: ``__slots__``, so the stamp never touches a constructor — see
#: :func:`stamp`)
_CTX_ATTR = "_causal_ctx"

_EPS = 1e-9


class _StringTable(dict):
    """``string -> index`` in first-seen order."""

    def __missing__(self, name: str) -> int:
        index = self[name] = len(self)
        return index


class CausalGraph:
    """Per-trial recorder: one row per stamped transmission."""

    def __init__(self, max_nodes: int = MAX_CAUSAL_NODES):
        self.max_rows = max_nodes // 2
        #: the columns.  ``tid``: node-id stem (the trace id, ``#n``-
        #: suffixed on re-transmission); ``src`` / ``dst`` / ``kind``
        #: index the string tables; ``parent``: the row whose receive
        #: caused this send (-1: none recorded)
        self.tid: List[str] = []
        self.t_send: List[float] = []
        self.t_recv: List[float] = []
        self.src: List[int] = []
        self.dst: List[int] = []
        self.kind: List[int] = []
        self.parent: List[int] = []
        self.hosts = _StringTable()
        self.kinds = _StringTable()
        self.dropped_nodes = 0
        self.dropped_edges = 0
        #: send instant of the first transmission the cap dropped
        self.first_drop_t: Optional[float] = None
        #: total contexts minted (recorded or not)
        self.minted = 0
        self._site_seq: Dict[str, int] = {}
        #: trace id -> its first row (what a ``parent`` resolves to)
        self._first_row: Dict[str, int] = {}
        #: trace id -> transmissions so far, for traces sent more than
        #: once (broadcast fan-out, log replay)
        self._fanout: Dict[str, int] = {}

    # -- minting -----------------------------------------------------------
    def mint_id(self, site: str, now: float) -> str:
        """A fresh trace id: ``<site>.<seq>.<t_us>``."""
        seq = self._site_seq.get(site, 0) + 1
        self._site_seq[site] = seq
        self.minted += 1
        return f"{site}.{seq}.{int(round(now * 1e6))}"

    # -- recording ---------------------------------------------------------
    def on_transmit(self, ctx: Tuple[str, Optional[str]], kind: str,
                    src_host: str, dst_host: str,
                    t_send: float, t_recv: float, size: int) -> None:
        """Record one stamped transmission (network choke point).

        Calls arrive in transmit order (``t_send`` never decreases).  A
        re-transmitted object (broadcast fan-out, log replay) gets a
        ``#n`` suffix on its trace id so node ids stay unique; the
        parent link is shared — every copy was caused by the same
        upstream receive, the first one of the parent trace.
        """
        trace_id, parent_id = ctx
        row = len(self.tid)
        if row >= self.max_rows:
            # both nodes, the net edge and (if any) the causal edge
            if self.first_drop_t is None:
                self.first_drop_t = t_send
            self.dropped_nodes += 2
            self.dropped_edges += 1 if parent_id is None else 2
            return
        first_row = self._first_row
        if trace_id in first_row:
            n = self._fanout.get(trace_id, 1)
            self._fanout[trace_id] = n + 1
            self.tid.append(f"{trace_id}#{n}")
        else:
            first_row[trace_id] = row
            self.tid.append(trace_id)
        parent = -1
        if parent_id is not None:
            parent = first_row.get(parent_id, -1)
            if parent < 0:          # the causing row fell to the cap
                self.dropped_edges += 1
        self.t_send.append(t_send)
        self.t_recv.append(t_recv)
        self.src.append(self.hosts[src_host])
        self.dst.append(self.hosts[dst_host])
        self.kind.append(self.kinds[kind])
        self.parent.append(parent)

    # -- folds -------------------------------------------------------------
    def totals(self) -> Dict[str, int]:
        """Graph-view size: two nodes and a net edge per row, a causal
        edge per recorded parent link."""
        parent = self.parent
        return {"nodes": 2 * len(parent),
                "edges": 2 * len(parent) - parent.count(-1),
                "minted": self.minted,
                "dropped_nodes": self.dropped_nodes,
                "dropped_edges": self.dropped_edges}

    def kind_rollup(self) -> Dict[str, Dict[str, float]]:
        """``{kind: {count, seconds}}`` where ``seconds`` sums the
        in-flight time (receive minus send) of every recorded
        transmission of that kind, in row order."""
        count = [0] * len(self.kinds)
        seconds = [0.0] * len(self.kinds)
        for k, sent, received in zip(self.kind, self.t_send, self.t_recv):
            count[k] += 1
            seconds[k] += received - sent
        return {name: {"count": count[k], "seconds": round(seconds[k], 9)}
                for name, k in self.kinds.items()}

    def fold_epochs(self, windows: Sequence[Tuple[float, float]]
                    ) -> List[Dict[str, Any]]:
        """The causal half of a critical path per recovery window
        ``(t_fault, t_end)``: ``attribution`` — the transmissions sent
        inside it, by :data:`ATTRIBUTION` category; ``chain`` — node ids
        of the backward walk from its last receive, alternating ``net``
        edges (receive ← send) and ``causal`` edges (send ← the receive
        that caused it) until it leaves the window, oldest first;
        ``causal_truncated`` — the window reaches past the first
        dropped transmission, so either may be missing rows."""
        if not windows:
            return []
        t_send, t_recv, parent = self.t_send, self.t_recv, self.parent
        category = [ATTRIBUTION.get(name, "other") for name in self.kinds]
        # rows by receive instant (the sort is stable: ties in row order)
        recv_order = sorted(range(len(t_recv)), key=t_recv.__getitem__)
        recv_times = [t_recv[row] for row in recv_order]

        folds: List[Dict[str, Any]] = []
        for t0, t_end in windows:
            lo, hi = t0 - _EPS, t_end + _EPS
            attribution: Dict[str, Dict[str, float]] = {}
            # rows are in send order: the window's sends are one slice
            for row in range(bisect_left(t_send, lo),
                             bisect_right(t_send, hi)):
                entry = attribution.setdefault(
                    category[self.kind[row]], {"count": 0, "seconds": 0.0})
                entry["count"] += 1
                entry["seconds"] += t_recv[row] - t_send[row]
            for entry in attribution.values():
                entry["seconds"] = round(entry["seconds"], 9)

            # a receive steps to its own send, a send to the receive
            # that caused it
            chain: List[str] = []
            last = bisect_right(recv_times, hi) - 1
            row = recv_order[last] if last >= 0 else -1
            at_recv = True
            while row >= 0 and len(chain) < MAX_CHAIN:
                if (t_recv[row] if at_recv else t_send[row]) < lo:
                    break
                chain.append(f"{self.tid[row]}:{'r' if at_recv else 's'}")
                if not at_recv:
                    row = parent[row]
                at_recv = not at_recv
            chain.reverse()         # chronological: cause first

            folds.append({
                "attribution": attribution, "chain": chain,
                "causal_truncated": (self.first_drop_t is not None
                                     and self.first_drop_t <= hi)})
        return folds

    # -- document ----------------------------------------------------------
    def to_doc(self, windows: Sequence[Tuple[float, float]] = ()
               ) -> Dict[str, Any]:
        """The ``causal`` section: the folds every reader needs, with
        one ``epochs`` entry per recovery window."""
        return {"totals": self.totals(), "kinds": self.kind_rollup(),
                "epochs": self.fold_epochs(windows)}


# -- stamping helpers (protocol call sites) --------------------------------

def ctx_of(msg: Any) -> Optional[Tuple[str, Optional[str]]]:
    """The causal context riding on ``msg``, or None."""
    return getattr(msg, _CTX_ATTR, None)


def parent_of(msg: Any) -> Optional[str]:
    """The trace id of an inbound stamped message: the ``parent`` of a
    message *caused by* ``msg`` — the new send hangs off the instant
    ``msg``'s trace first arrived."""
    ctx = getattr(msg, _CTX_ATTR, None)
    return None if ctx is None else ctx[0]


def stamp(engine: Any, msg: Any, site: str,
          parent: Optional[str] = None) -> None:
    """Mint a fresh context for ``msg`` (no-op when observation is off).

    ``site`` is the minting component's stable name (``disp``,
    ``sched``, ``r<rank>``, ``cm<i>``, ...); ``parent`` — usually
    :func:`parent_of` an inbound message — links the new trace to its
    cause.  Wire dataclasses take the stamp through
    ``object.__setattr__`` (they define no ``__slots__``).
    """
    obs = engine.obs
    if obs is None:
        return
    object.__setattr__(msg, _CTX_ATTR,
                       (obs.causal.mint_id(site, engine.now), parent))


def derive(engine: Any, msg: Any, site: str, cause: Any) -> None:
    """Stamp ``msg`` with a fresh trace parented on inbound ``cause``."""
    if engine.obs is not None:
        stamp(engine, msg, site, parent=parent_of(cause))


def adopt(msg: Any, original: Any) -> None:
    """Copy ``original``'s context onto ``msg`` verbatim.

    The wrapper case: a daemon enveloping an application message
    (``DataMsg``/``V2Data``/``CMPut`` around an ``AppMessage``)
    continues the *same* trace — the envelope's journey is the
    message's journey.
    """
    ctx = getattr(original, _CTX_ATTR, None)
    if ctx is not None:
        object.__setattr__(msg, _CTX_ATTR, ctx)

