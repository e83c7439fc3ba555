"""Causal message tracing: a bounded per-trial table of transmissions.

Every wire message a protocol component *mints* carries a causal
context — a ``(trace_id, parent_trace_id)`` pair attached to the
message object itself — and the network's single transmit choke point
(:meth:`repro.cluster.network.Socket.send`) turns each stamped
transmission into one *row*: when it left and arrived, between which
hosts, what kind of message, and which earlier row's receive *caused*
it.  As a graph, a row is two nodes (send ``<tid>:s``, receive
``<tid>:r``) joined by a ``net`` edge, and its parent link a ``causal``
edge from the parent row's receive to this row's send; walking those
backward recovers the dependency chain behind any instant — what
:mod:`repro.analysis.critpath` does per recovery epoch.  Rows are held,
in memory and in the ``obs`` document, as parallel columns; the layout
is private to this module (readers: :func:`causal_columns`,
:func:`node_id`, :func:`causal_totals`, :func:`causal_kind_rollup`).

Identity is deterministic by construction: a trace id is
``<site>.<seq>.<t_us>`` — the minting component's stable site name, a
per-site sequence number and the integer microsecond of simulated mint
time.  No RNG, no wall clock, nothing that could differ between serial,
pooled or cached execution of the same trial.
With no :class:`Obs` recorder on the engine, :func:`stamp` and
:func:`derive` return after one attribute read and attach nothing.

Bounding mirrors ``MAX_SPANS``: the table caps at
:data:`MAX_CAUSAL_NODES` graph nodes, i.e. half as many rows, cut from
the tail (rows record in transmit order).  Each dropped transmission
counts two ``dropped_nodes``; a link whose two rows are not both
recorded counts into ``dropped_edges`` and never reaches the document.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: version of the ``obs`` wire document (3: columnar causal section)
OBS_VERSION = 3

#: hard cap on recorded causal nodes per trial (mirrors ``MAX_SPANS``)
MAX_CAUSAL_NODES = 50000

#: the attribute causal context rides on (wire dataclasses are frozen
#: but define no ``__slots__``, so the stamp never touches a
#: constructor — see :func:`stamp`)
_CTX_ATTR = "_causal_ctx"


class _StringTable(dict):
    """``string -> index`` in first-seen order; the keys are the wire form."""

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
        self._hosts = _StringTable()
        self._kinds = _StringTable()
        self.dropped_nodes = 0
        self.dropped_edges = 0
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

        A re-transmitted object (broadcast fan-out, log replay) gets a
        ``#n`` suffix on its trace id so node ids stay unique; the
        parent link is shared — every copy was caused by the same
        upstream receive, the first one of the parent trace.
        """
        trace_id, parent_id = ctx
        row = len(self.tid)
        if row >= self.max_rows:
            # both nodes, the net edge and (if any) the causal edge
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
        self.src.append(self._hosts[src_host])
        self.dst.append(self._hosts[dst_host])
        self.kind.append(self._kinds[kind])
        self.parent.append(parent)

    # -- document ----------------------------------------------------------
    def to_doc(self) -> Dict[str, Any]:
        """The ``causal`` section: the columns themselves, not copies."""
        return {
            "tid": self.tid, "t_send": self.t_send, "t_recv": self.t_recv,
            "src": self.src, "dst": self.dst, "kind": self.kind,
            "parent": self.parent,
            "hosts": list(self._hosts), "kinds": list(self._kinds),
            "dropped_nodes": self.dropped_nodes,
            "dropped_edges": self.dropped_edges,
            "minted": self.minted,
        }


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
    cause.  Frozen wire dataclasses take the stamp through
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


# -- reading the document ---------------------------------------------------

def causal_section(obs_doc: Optional[Dict[str, Any]],
                   where: str = "") -> Dict[str, Any]:
    """The ``causal`` section of an obs document ({} when there is
    none); ``ValueError`` if it was recorded under another layout."""
    causal = (obs_doc or {}).get("causal") or {}
    if causal and obs_doc.get("version") != OBS_VERSION:
        raise ValueError(f"{where}obs document version "
                         f"{obs_doc.get('version')}, expected {OBS_VERSION}")
    return causal


def causal_columns(obs_doc: Optional[Dict[str, Any]]
                   ) -> Tuple[List[float], List[float], List[str],
                              List[int]]:
    """``(t_send, t_recv, kind, parent)``, one entry per recorded
    transmission in transmit order: the two instants, the wire message
    kind by name, and the row whose receive caused the send (-1: none).
    Empty for ``None`` and documents without a causal section.
    """
    causal = causal_section(obs_doc)
    if not causal:
        return [], [], [], []
    kinds = causal["kinds"]
    return (causal["t_send"], causal["t_recv"],
            [kinds[k] for k in causal["kind"]], causal["parent"])


def node_id(obs_doc: Dict[str, Any], row: int, recv: bool) -> str:
    """Graph node id of one end of transmission ``row``."""
    return f"{obs_doc['causal']['tid'][row]}:{'r' if recv else 's'}"


def causal_totals(obs_doc: Optional[Dict[str, Any]]) -> Dict[str, int]:
    """Graph-view size of a document's causal section: two nodes and a
    net edge per row, a causal edge per recorded parent link."""
    causal = causal_section(obs_doc)
    parent = causal.get("parent", ())
    return {"nodes": 2 * len(parent),
            "edges": len(parent) + sum(1 for p in parent if p >= 0),
            "minted": causal.get("minted", 0),
            "dropped_nodes": causal.get("dropped_nodes", 0),
            "dropped_edges": causal.get("dropped_edges", 0)}


def causal_kind_rollup(obs_doc: Optional[Dict[str, Any]]
                       ) -> Dict[str, Dict[str, float]]:
    """Per-message-kind rollup of an obs document's transmissions.

    ``{kind: {count, seconds}}`` where ``seconds`` sums the in-flight
    time (receive minus send) of every recorded transmission of that
    kind.  Tolerates ``None`` and documents without a causal section.
    """
    rollup: Dict[str, Dict[str, float]] = {}
    t_send, t_recv, kind, _parent = causal_columns(obs_doc)
    for row, name in enumerate(kind):
        entry = rollup.setdefault(name, {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += t_recv[row] - t_send[row]
    for entry in rollup.values():
        entry["seconds"] = round(entry["seconds"], 9)
    return rollup
