"""Causal message tracing: a bounded per-trial table of transmissions.

Every wire message a protocol component *mints* carries a causal
context — an integer, the index of its mint in the recorder, attached
to the message object itself (:func:`stamp`, :func:`derive`;
:func:`adopt` hands a context on to an envelope).  A mint is recorded
once: the minting site, the instant and the context that caused it.
The network's transmit path turns each stamped transmission into one
*row*: :meth:`repro.cluster.network.Network._wire` reads the context
once per send, the two ``send_all`` loops (``Network.send_all`` over
sockets, ``Mesh.send_all`` over mesh rows) append each copy's arrival
and hosts through :attr:`CausalGraph.put`, and one
:meth:`CausalGraph.on_send` call per send records what its rows share
— the context, the message kind and the send instant.  As a graph, a
row is two nodes (send ``<tid>:s``, receive ``<tid>:r``) joined by a
``net`` edge, and its parent link a ``causal`` edge from the parent
row's receive to this row's send; walking those backward recovers the
dependency chain behind any instant — what
:meth:`CausalGraph.fold_epochs` does per recovery epoch.  Recording is
appends, in memory only: the rows die with the recorder, and the
``obs`` document carries their *folds* — graph totals, the per-kind
rollup, each recovery epoch's attribution and chain
(:meth:`CausalGraph.to_doc`; readers: :func:`causal_totals`,
:func:`causal_kind_rollup`, :func:`repro.analysis.critpath
.critical_paths`).  The column view — ``tid``, ``t_send``, ``t_recv``,
``src``, ``dst``, ``kind``, ``parent`` and the ``hosts`` / ``kinds``
string tables — is derived from the mints, rows and sends when a fold
or a reader asks; code that wants it reads ``runtime.obs.causal``
while it still holds the runtime.

Identity is deterministic by construction: a trace id is
``<site>.<seq>.<t_us>`` — the minting component's stable site name, a
per-site sequence number and the integer microsecond of simulated mint
time — and a context's later copies (broadcast fan-out, log replay)
are ``#1``, ``#2``, ...  The strings are formatted only for chain nodes
and the column view.  No RNG, no wall clock, nothing that could differ
between serial, pooled or cached execution of the same trial.  With no
:class:`Obs` recorder on the engine, :func:`stamp` and :func:`derive`
return after one attribute read and attach nothing.

Bounding mirrors ``MAX_SPANS``: the table caps at
:data:`MAX_CAUSAL_NODES` graph nodes, i.e. half as many rows, cut from
the tail (rows record in transmit order); past the cap the send loops
write nothing and :meth:`CausalGraph.on_send` only counts.  Each
dropped transmission counts two ``dropped_nodes``; a link whose two
rows are not both recorded counts into ``dropped_edges``.  The instant
of the first drop is kept: an epoch whose window reaches past it is
``causal_truncated``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import chain, compress, repeat
from operator import ge, lt, sub
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: hard cap on recorded causal nodes per trial (mirrors ``MAX_SPANS``)
MAX_CAUSAL_NODES = 50000

#: the attribute causal context rides on (wire dataclasses are frozen
#: but define no ``__slots__``, so the stamp never touches a
#: constructor — see :func:`stamp`; the network reads it by name)
_CTX_ATTR = "_causal_ctx"


#: wire message kind -> attribution category (anything else: "other")
ATTRIBUTION = {
    # pulling the checkpoint image back from its server
    "FetchReq": "restore_transfer",
    "FetchResp": "restore_transfer",
    # fetching the logged delivery history (V2 event logger, V1 CM)
    "EvFetch": "log_fetch",
    "EvFetchResp": "log_fetch",
    "CMAttach": "log_fetch",
    # redelivering logged messages to the recovering rank
    "CMDeliver": "replay",
    "V2Data": "replay",
    "DataMsg": "replay",
    # scheduler wave machinery
    "Marker": "sched_commit",
    "SchedAck": "sched_commit",
    "WaveCommit": "sched_commit",
    # dispatcher-driven restart control traffic
    "Register": "relaunch_control",
    "RegisterAck": "relaunch_control",
    "CommandMap": "relaunch_control",
    "Terminate": "relaunch_control",
    # mesh / service (re)connection chatter
    "Hello": "mesh",
    "V2Hello": "mesh",
    "SchedHello": "mesh",
}

#: backward-walk bound: a chain longer than this is cut (never loops —
#: edges always point backward in time — but stays bounded regardless)
MAX_CHAIN = 64

_EPS = 1e-9


class _StringTable(dict):
    """``string -> index`` in first-seen order."""

    def __missing__(self, name: str) -> int:
        index = self[name] = len(self)
        return index


def _each(values: Iterable[Any], counts: Iterable[int]) -> List[Any]:
    """``values``, each repeated by its count, as one list."""
    return list(chain.from_iterable(map(repeat, values, counts)))


class _Sends:
    """A recorder's sends as columns, derived at fold time: per send
    its context, kind index, send instant, rows ``[start, end)``, and
    ``parent`` — the first row of the context that caused it, which is
    a link only if it comes before ``start`` (:meth:`parent_row`).  All
    rows of a send share these, so the folds walk sends, not rows."""

    __slots__ = ("ctx", "kind", "t_send", "start", "end", "count",
                 "parent", "kinds", "first", "t_recv", "linked",
                 "unresolved")

    def __init__(self, graph: "CausalGraph"):
        sends, rows = graph.sends, len(graph.rows) // 3
        self.ctx = ctx = sends[0::4]
        self.t_send = sends[2::4]
        self.end = end = sends[3::4]
        self.start = start = [0] + end[:-1]
        self.count = count = list(map(sub, end, start))
        self.kinds = kinds = _StringTable()
        self.kind = list(map(kinds.__getitem__, sends[1::4]))
        self.t_recv = graph.rows[0::3]
        #: per context, its first recorded row (``rows``: none); the
        #: extra last entry is what "no cause" (-1) looks up
        self.first = first = [rows] * (graph.minted + 1)
        for c, row in zip(reversed(ctx), reversed(start)):
            first[c] = row
        causes = list(map(graph.mints[2::3].__getitem__, ctx))
        self.parent = list(map(first.__getitem__, causes))
        #: rows with a parent link, and rows whose cause has no row
        #: before theirs
        self.linked = sum(compress(count, map(lt, self.parent, start)))
        self.unresolved = sum(compress(
            count, map(ge, causes, repeat(0)))) - self.linked

    def of(self, row: int) -> int:
        """The send ``row`` belongs to."""
        return bisect_right(self.end, row)

    def parent_row(self, send: int) -> int:
        """The row whose receive caused ``send`` (-1: none recorded)."""
        row = self.parent[send]
        return row if row < self.start[send] else -1

    def copy(self, row: int) -> Tuple[int, int]:
        """``(context, n)``: ``row`` is the ``n``-th recorded copy of
        that context (0: its first transmission)."""
        ctxs, count = self.ctx, self.count
        send = self.of(row)
        ctx = ctxs[send]
        n = row - self.start[send]
        earlier = self.of(self.first[ctx])
        while earlier < send:
            n += count[earlier]
            earlier = ctxs.index(ctx, earlier + 1)
        return ctx, n


class CausalGraph:
    """Per-trial recorder: one row per stamped transmission.

    Recording is extending three flat lists (flat, so a trial's
    thousands of records are no objects the cyclic GC walks):
    ``mints`` takes ``site, t, parent`` per context (``parent``: the
    causing context, or -1), ``rows`` takes ``t_recv, src_host,
    dst_host`` per recorded transmission (the network's send loops
    write them through :attr:`put`), and ``sends`` takes ``ctx, kind,
    t_send, end`` per send that recorded rows — its rows run from the
    previous send's ``end`` to its own.  The folds walk sends; the
    table's columns (:attr:`tid`, :attr:`t_send`, :attr:`t_recv`,
    :attr:`src`, :attr:`dst`, :attr:`kind`, :attr:`parent`, the
    :attr:`hosts` / :attr:`kinds` string tables) are derived when read.
    """

    def __init__(self, max_nodes: int = MAX_CAUSAL_NODES):
        self.max_rows = max_nodes // 2
        self.mints: List[Any] = []
        self.rows: List[Any] = []
        self.sends: List[Any] = []
        #: what a send loop writes a row with; None once the cap is
        #: reached — past it the loops write nothing per row
        self.put = self.rows.extend if self.max_rows > 0 else None
        self.dropped_nodes = 0
        #: edges dropped along with their transmissions (parent links
        #: that resolve to no row are counted at fold time)
        self._cap_edges = 0
        #: send instant of the first transmission the cap dropped
        self.first_drop_t: Optional[float] = None
        self._derived: Optional[_Sends] = None

    # -- recording ---------------------------------------------------------
    def on_send(self, ctx: int, kind: str, t_send: float, sent: int) -> None:
        """Close one send of context ``ctx``: the ``sent`` rows the loop
        just wrote through :attr:`put` (none past the cap) are its
        copies.  Sends arrive in transmit order (``t_send`` never
        decreases).  Rows beyond the cap are cut and, with every copy
        sent past it, counted as dropped."""
        if self.put is not None:
            rows, cap = self.rows, self.max_rows
            end = len(rows) // 3
            if end < cap:
                if sent:
                    self.sends.extend((ctx, kind, t_send, end))
                return
            # this send reached the cap: keep its copies up to it
            del rows[3 * cap:]
            self.put = None
            self.sends.extend((ctx, kind, t_send, cap))
            sent = end - cap
        if sent:
            # both nodes, the net edge and (if any) the causal edge
            if self.first_drop_t is None:
                self.first_drop_t = t_send
            self.dropped_nodes += 2 * sent
            self._cap_edges += sent if self.mints[3 * ctx + 2] < 0 \
                else 2 * sent

    def _sends(self) -> _Sends:
        """The derived sends, rebuilt only after new ones."""
        derived = self._derived
        if derived is None or 4 * len(derived.ctx) != len(self.sends):
            derived = self._derived = _Sends(self)
        return derived

    # -- identity ----------------------------------------------------------
    def trace_ids(self, ctxs: Iterable[int]) -> Dict[int, str]:
        """``{ctx: "<site>.<seq>.<t_us>"}`` for each context of
        ``ctxs``; ``seq`` counts the site's mints up to this one."""
        ids: Dict[int, str] = {}
        seen: Counter = Counter()
        mints = self.mints
        done = 0
        for ctx in sorted(set(ctxs)):
            seen.update(mints[3 * done:3 * ctx + 3:3])
            done = ctx + 1
            site, t = mints[3 * ctx], mints[3 * ctx + 1]
            ids[ctx] = f"{site}.{seen[site]}.{int(round(t * 1e6))}"
        return ids

    def _stems(self, rows: Iterable[int]) -> List[str]:
        """The node-id stem of each of ``rows``: its trace id, ``#n``-
        suffixed on the context's ``n``-th re-transmission."""
        sends = self._sends()
        copies = [sends.copy(row) for row in rows]
        ids = self.trace_ids(ctx for ctx, _n in copies)
        return [f"{ids[ctx]}#{n}" if n else ids[ctx] for ctx, n in copies]

    # -- the column view ---------------------------------------------------
    @property
    def tid(self) -> List[str]:
        """Node-id stem per row (see :meth:`_stems`)."""
        return self._stems(range(len(self.rows) // 3))

    @property
    def t_send(self) -> List[float]:
        sends = self._sends()
        return _each(sends.t_send, sends.count)

    @property
    def t_recv(self) -> List[float]:
        return self.rows[0::3]

    @property
    def src(self) -> List[int]:
        """Per row, its source host's index in :attr:`hosts`."""
        return self._host_columns()[1]

    @property
    def dst(self) -> List[int]:
        return self._host_columns()[2]

    @property
    def kind(self) -> List[int]:
        """Per row, its message kind's index in :attr:`kinds`."""
        sends = self._sends()
        return _each(sends.kind, sends.count)

    @property
    def parent(self) -> List[int]:
        """Per row, the row whose receive caused its send (-1: none
        recorded)."""
        sends = self._sends()
        return _each(map(sends.parent_row, range(len(sends.ctx))),
                     sends.count)

    @property
    def hosts(self) -> Dict[str, int]:
        """Host name -> index, in first-seen order (source first)."""
        return self._host_columns()[0]

    @property
    def kinds(self) -> Dict[str, int]:
        return self._sends().kinds

    def _host_columns(self) -> Tuple[Dict[str, int], List[int], List[int]]:
        hosts = _StringTable()
        ids = list(map(hosts.__getitem__, chain.from_iterable(
            zip(self.rows[1::3], self.rows[2::3]))))
        return hosts, ids[0::2], ids[1::2]

    @property
    def minted(self) -> int:
        """Contexts minted (recorded or not)."""
        return len(self.mints) // 3

    @property
    def dropped_edges(self) -> int:
        return self._cap_edges + self._sends().unresolved

    # -- folds -------------------------------------------------------------
    def totals(self) -> Dict[str, int]:
        """Graph-view size: two nodes and a net edge per row, a causal
        edge per recorded parent link."""
        rows = len(self.rows) // 3
        return {"nodes": 2 * rows,
                "edges": rows + self._sends().linked,
                "minted": self.minted,
                "dropped_nodes": self.dropped_nodes,
                "dropped_edges": self.dropped_edges}

    def kind_rollup(self) -> Dict[str, Dict[str, float]]:
        """``{kind: {count, seconds}}`` where ``seconds`` sums the
        in-flight time (receive minus send) of every recorded
        transmission of that kind, in row order."""
        sends = self._sends()
        t_recv = sends.t_recv
        count = [0] * len(sends.kinds)
        seconds = [0.0] * len(sends.kinds)
        for k, sent, start, n in zip(sends.kind, sends.t_send,
                                     sends.start, sends.count):
            count[k] += n
            if n == 1:
                seconds[k] += t_recv[start] - sent
            else:
                total = seconds[k]
                for received in t_recv[start:start + n]:
                    total += received - sent
                seconds[k] = total
        return {name: {"count": count[k], "seconds": round(seconds[k], 9)}
                for name, k in sends.kinds.items()}

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
        sends = self._sends()
        t_send, t_recv = sends.t_send, sends.t_recv
        category = [ATTRIBUTION.get(name, "other") for name in sends.kinds]

        folds: List[Dict[str, Any]] = []
        walks: List[List[Tuple[int, bool]]] = []
        for t0, t_end in windows:
            lo, hi = t0 - _EPS, t_end + _EPS
            attribution: Dict[str, Dict[str, float]] = {}
            # sends are in time order: the window's are one slice
            for send in range(bisect_left(t_send, lo),
                              bisect_right(t_send, hi)):
                entry = attribution.setdefault(
                    category[sends.kind[send]], {"count": 0, "seconds": 0.0})
                sent = t_send[send]
                for row in range(sends.start[send], sends.end[send]):
                    entry["count"] += 1
                    entry["seconds"] += t_recv[row] - sent
            for entry in attribution.values():
                entry["seconds"] = round(entry["seconds"], 9)

            # a receive steps to its own send, a send to the receive
            # that caused it
            walk: List[Tuple[int, bool]] = []
            # the walk starts at the latest receive up to ``hi`` (of
            # equal ones, the latest row)
            last = max(filter(hi.__ge__, t_recv), default=None)
            row = -1 if last is None \
                else len(t_recv) - 1 - t_recv[::-1].index(last)
            at_recv = True
            while row >= 0 and len(walk) < MAX_CHAIN:
                send = sends.of(row)
                if (t_recv[row] if at_recv else t_send[send]) < lo:
                    break
                walk.append((row, at_recv))
                if not at_recv:
                    row = sends.parent_row(send)
                at_recv = not at_recv
            walk.reverse()          # chronological: cause first
            walks.append(walk)

            folds.append({
                "attribution": attribution, "chain": [],
                "causal_truncated": (self.first_drop_t is not None
                                     and self.first_drop_t <= hi)})
        # node ids for the chain rows only
        rows = sorted({row for walk in walks for row, _at_recv in walk})
        stem = dict(zip(rows, self._stems(rows)))
        for fold, walk in zip(folds, walks):
            fold["chain"] = [f"{stem[row]}:{'r' if at_recv else 's'}"
                             for row, at_recv in walk]
        return folds

    # -- document ----------------------------------------------------------
    def to_doc(self, windows: Sequence[Tuple[float, float]] = ()
               ) -> Dict[str, Any]:
        """The ``causal`` section: the folds every reader needs, with
        one ``epochs`` entry per recovery window."""
        return {"totals": self.totals(), "kinds": self.kind_rollup(),
                "epochs": self.fold_epochs(windows)}


# -- stamping helpers (protocol call sites) --------------------------------

def ctx_of(msg: Any) -> Optional[int]:
    """The causal context riding on ``msg``, or None.  The context of
    an inbound message is the ``parent`` of a message *caused by* it —
    the new send hangs off the instant that context first arrived."""
    return getattr(msg, _CTX_ATTR, None)


def stamp(engine: Any, msg: Any, site: str,
          parent: Optional[int] = None) -> None:
    """Mint a fresh context for ``msg`` (no-op when observation is off).

    ``site`` is the minting component's stable name (``disp``,
    ``sched``, ``r<rank>``, ``cm<i>``, ...), held by the component;
    ``parent`` — usually :func:`ctx_of` an inbound message — links the
    new trace to its cause.  Frozen wire dataclasses define no
    ``__slots__``: the context goes straight into the instance dict.
    """
    obs = engine.obs
    if obs is None:
        return
    mints = obs.causal.mints
    msg.__dict__[_CTX_ATTR] = len(mints) // 3
    mints.extend((site, engine.now, -1 if parent is None else parent))


def derive(engine: Any, msg: Any, site: str, cause: Any) -> None:
    """Stamp ``msg`` with a fresh trace parented on inbound ``cause``."""
    obs = engine.obs
    if obs is None:
        return
    mints = obs.causal.mints
    msg.__dict__[_CTX_ATTR] = len(mints) // 3
    mints.extend((site, engine.now, getattr(cause, _CTX_ATTR, -1)))


def adopt(msg: Any, original: Any) -> None:
    """Copy ``original``'s context onto ``msg`` verbatim.

    The wrapper case: a daemon enveloping an application message
    (``DataMsg``/``V2Data``/``CMPut`` around an ``AppMessage``)
    continues the *same* trace — the envelope's journey is the
    message's journey.
    """
    ctx = getattr(original, _CTX_ATTR, None)
    if ctx is not None:
        msg.__dict__[_CTX_ATTR] = ctx


# -- reading the document ---------------------------------------------------

def causal_section(obs_doc: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The ``causal`` section of an obs document ({} when there is
    none)."""
    return (obs_doc or {}).get("causal") or {}


def causal_totals(obs_doc: Optional[Dict[str, Any]]) -> Dict[str, int]:
    """Graph-view size of a document's causal section
    (:meth:`CausalGraph.totals`); all zero for ``None`` and documents
    without one."""
    return causal_section(obs_doc).get("totals") or CausalGraph().totals()


def causal_kind_rollup(obs_doc: Optional[Dict[str, Any]]
                       ) -> Dict[str, Dict[str, float]]:
    """Per-message-kind rollup of an obs document's transmissions
    (:meth:`CausalGraph.kind_rollup`); empty for ``None`` and documents
    without a causal section."""
    return causal_section(obs_doc).get("kinds", {})
