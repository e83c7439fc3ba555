"""A TCP-like network model over a pluggable fabric.

Characteristics modelled (and why):

* **per-connection FIFO** with delivery time computed by the
  deployment's fabric model (:mod:`repro.netmodel`).  The default
  ``uniform`` fabric keeps the historical arithmetic
  ``max(prev_arrival, now + latency + size/bandwidth)`` bit for bit —
  messages on a connection never reorder, and large transfers
  (checkpoint images) take size-proportional time, which drives the
  paper's Fig. 6 observation about 25-node checkpoints being slower.
  Non-uniform fabrics (``star``, ``twotier``) additionally queue on
  shared per-link pipes — uplink contention and core oversubscription;
* **closure notification** — closing either end (explicitly or because
  the owning process was killed) closes the peer's receive stream after
  one path latency, so a blocked ``recv`` fails with
  :class:`ConnectionClosed`.  This is exactly the failure-detection
  channel MPICH-V's dispatcher uses ("a failure is assumed after any
  unexpected socket closure");
* **connection refusal** when nothing listens on the target address;
* **partitions and link cuts** — :meth:`Network.cut_link`,
  :meth:`Network.isolate`, :meth:`Network.partition` and
  :meth:`Network.heal` mutate reachability at runtime.  Packets into a
  cut vanish; established connections spanning a cut are severed after
  one path latency (both receive streams fail with
  :class:`ConnectionClosed`, indistinguishable from peer death — the
  *false suspicion* adversary); a connection attempt across a cut is
  refused after the round trip.  Healing restores reachability for
  new connections but never resurrects severed ones — and a heal that
  lands before the severance notification does (within one latency)
  leaves the connection untouched, so partitions can race the failure
  detector.

The paper's experiments kill whole tasks, never the network; the
uniform no-partition default reproduces that regime exactly, while the
fault-injection layer (``partition``/``heal`` FAIL actions) opens the
partition fault class the paper leaves out.
"""

from __future__ import annotations

from typing import (Any, Dict, FrozenSet, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from repro.netmodel import (DEFAULT_BANDWIDTH, DEFAULT_LATENCY, build_fabric)
from repro.simkernel.engine import Engine
from repro.simkernel.events import Event
from repro.simkernel.store import Store


class Address(NamedTuple):
    """A (host, port) endpoint address."""

    host: str
    port: int

    def __str__(self) -> str:  # pragma: no cover - cosmetics
        return f"{self.host}:{self.port}"


class ConnectionClosed(Exception):
    """The peer endpoint closed (or its process died)."""


class ConnectionRefused(Exception):
    """No listener at the target address (or the path is cut)."""


DEFAULT_MSG_SIZE = 1024         # bytes, when a message has no size hint


class Network:
    """The fabric connecting all nodes of the simulated cluster."""

    def __init__(self, engine: Engine,
                 latency: float = DEFAULT_LATENCY,
                 bandwidth: float = DEFAULT_BANDWIDTH,
                 topology=None):
        if latency < 0 or bandwidth <= 0:
            raise ValueError("latency must be >=0 and bandwidth >0")
        self.engine = engine
        self.fabric = build_fabric(topology, latency, bandwidth)
        #: resolved base parameters (a TopologySpec may override the args)
        self.latency = self.fabric.latency
        self.bandwidth = self.fabric.bandwidth
        self._listeners: Dict[Address, "ListenSocket"] = {}
        #: monotone id source for connections (stable trace labels)
        self._next_conn_id = 1
        self.bytes_sent = 0
        self.messages_sent = 0
        #: uniform fabric -> the hot path never consults the fabric
        self._fast_uniform = self.fabric.is_uniform
        #: live connection endpoints (for partition severing); an
        #: insertion-ordered dict-as-set — severance must scan
        #: connections in creation order or same-instant closure
        #: notifications land in address-dependent (nondeterministic)
        #: tie-break order
        self._sockets: Dict["Socket", None] = {}
        #: every endpoint/listener ever created, closed ones included —
        #: consumed only by teardown (VclRuntime.dispose), which must
        #: break the ``_peer`` cycles of sockets long forgotten here
        self._all_sockets: List["Socket"] = []
        self._all_listeners: List["ListenSocket"] = []
        #: hosts on the isolated side of an accumulated partition
        self._isolated: Set[str] = set()
        #: explicitly cut host pairs
        self._cut_pairs: Set[FrozenSet[str]] = set()

    # -- topology ------------------------------------------------------------
    def register_host(self, host: str) -> None:
        """Declare a host to the fabric (rack assignment order)."""
        self.fabric.register_host(host)

    def _latency_between(self, a: str, b: str) -> float:
        if self._fast_uniform:
            return self.latency
        return self.fabric.latency_between(a, b)

    # -- link state ------------------------------------------------------------
    @property
    def partitioned(self) -> bool:
        """True while any cut is active."""
        return bool(self._isolated or self._cut_pairs)

    def reachable(self, a: str, b: str) -> bool:
        """Can hosts ``a`` and ``b`` currently exchange packets?"""
        if a == b:
            return True
        if self._cut_pairs and frozenset((a, b)) in self._cut_pairs:
            return False
        if self._isolated and ((a in self._isolated) != (b in self._isolated)):
            return False
        return True

    def cut_link(self, host_a: str, host_b: str) -> None:
        """Cut the path between one host pair."""
        if host_a == host_b:
            raise ValueError("cannot cut a host from itself")
        self._cut_pairs.add(frozenset((host_a, host_b)))
        self.engine.span("netsplit", lane="net", op="cut_link",
                         hosts=sorted((host_a, host_b)))
        self._sever_spanning()

    def isolate(self, *hosts: str) -> None:
        """Move ``hosts`` onto the isolated side of the partition.

        Isolation accumulates: isolated hosts stay connected to *each
        other* but lose every host on the majority side — so isolating
        a CM neighborhood one machine at a time builds one coherent
        minority partition.
        """
        self._isolated.update(hosts)
        self.engine.span("netsplit", lane="net", op="isolate",
                         hosts=sorted(hosts))
        self._sever_spanning()

    def partition(self, groups: Sequence[Sequence[str]]) -> None:
        """Cut every path between hosts of different ``groups``.

        Hosts absent from every group keep full connectivity.
        """
        groups = [list(g) for g in groups]
        for i, ga in enumerate(groups):
            for gb in groups[i + 1:]:
                for a in ga:
                    for b in gb:
                        if a != b:
                            self._cut_pairs.add(frozenset((a, b)))
        self.engine.span("netsplit", lane="net", op="partition",
                         groups=[sorted(g) for g in groups])
        self._sever_spanning()

    def heal(self) -> None:
        """Restore full reachability.

        Pending severance notifications re-check reachability when they
        fire, so a heal within one path latency of the cut wins the
        race and the connection survives; already-severed connections
        stay dead (a healed partition does not resurrect them).
        """
        self._isolated.clear()
        self._cut_pairs.clear()
        # one heal ends every open split at the same instant, so
        # overlapping cuts close nested-at-boundary
        obs = self.engine.obs
        if obs is not None:
            obs.close_all("netsplit", self.engine.now)

    def _sever_spanning(self) -> None:
        """Schedule severance of live connections that now span a cut."""
        for sock in list(self._sockets):
            peer = sock._peer
            if peer is None or not sock._initiator:
                continue            # pairs are processed once, client side
            if sock._rx.closed and peer._rx.closed:
                continue            # already dead
            if sock._sever_pending:
                continue
            if self.reachable(sock.local_host, peer.local_host):
                continue
            sock._sever_pending = True
            delay = self._latency_between(sock.local_host, peer.local_host)

            def _fire(a=sock, b=peer) -> None:
                a._sever_pending = False
                if self.reachable(a.local_host, b.local_host):
                    return          # healed before the closure landed
                for s in (a, b):
                    if not s._rx.closed:
                        s._rx.close()
                        s._peer_closed = True
                    # dead for good: drop from the severing scan set
                    self._sockets.pop(s, None)

            self.engine.call_later(delay, _fire)

    # -- traffic accounting ----------------------------------------------------
    def link_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-link counters; the uniform fabric reports its single
        aggregate pipe (the hot path keeps no per-link books)."""
        if self._fast_uniform:
            return {"fabric": {"bytes": self.bytes_sent,
                               "messages": self.messages_sent}}
        return self.fabric.link_stats()

    def hotspot(self) -> Tuple[Optional[str], int]:
        """``(link name, bytes)`` of the busiest link.

        The uniform fabric reports ``(None, 0)``: it keeps no per-link
        books (the hot path never consults the fabric), so there is no
        busiest link — the old ``("fabric", total)`` answer read as a
        100 %-saturated link in benchmark rows when it was really just
        the aggregate restated (see ``tests/test_netmodel.py``).
        """
        if self._fast_uniform:
            return (None, 0)
        return self.fabric.hotspot()

    # -- listening -----------------------------------------------------------
    def listen(self, addr: Address, owner=None) -> "ListenSocket":
        """Bind a listening socket at ``addr``."""
        if addr in self._listeners:
            raise OSError(f"address {addr} already in use")
        ls = ListenSocket(self, addr, owner=owner)
        self._listeners[addr] = ls
        self._all_listeners.append(ls)
        if owner is not None:
            owner.adopt_socket(ls)
        return ls

    def _unbind(self, addr: Address) -> None:
        self._listeners.pop(addr, None)

    # -- connecting -----------------------------------------------------------
    def connect(self, src_host: str, addr: Address, owner=None):
        """Open a connection to ``addr``.

        Returns an :class:`Event` which succeeds with the client
        :class:`Socket` after one round trip, or fails with
        :class:`ConnectionRefused` — also when the path is cut (the
        handshake cannot cross a partition).
        """
        ev = self.engine.event(name=f"connect({addr})")
        rtt = 2 * self._latency_between(src_host, addr.host)
        listener = self._listeners.get(addr)
        if listener is None or listener.closed \
                or not self.reachable(src_host, addr.host):
            # Refusal (or the partition timeout) still takes a round trip.
            self.engine.call_later(
                rtt,
                lambda: ev.fail(ConnectionRefused(f"no listener at {addr}")))
            return ev
        conn_id = self._next_conn_id
        self._next_conn_id += 1
        client = Socket(self, conn_id, local_host=src_host, remote=addr,
                        owner=owner, initiator=True)
        server = Socket(self, conn_id, local_host=addr.host,
                        remote=Address(src_host, -conn_id), owner=listener.owner)
        client._peer = server
        server._peer = client
        if owner is not None:
            owner.adopt_socket(client)
        if listener.owner is not None:
            listener.owner.adopt_socket(server)

        def _deliver() -> None:
            if listener.closed \
                    or not self.reachable(src_host, addr.host):
                ev.fail(ConnectionRefused(f"listener at {addr} closed"))
                return
            self._sockets[client] = None
            self._sockets[server] = None
            listener._rx.put(server)
            ev.succeed(client)

        self.engine.call_later(rtt, _deliver)
        return ev

    # -- closure (socket-internal) -----------------------------------------------
    def _notify_close(self, sock: "Socket") -> None:
        """Propagate a close to the peer after one path latency.

        Deliberately ignores cuts: a close during a partition surfaces
        at the peer anyway (the OS reset once packets flow again),
        which keeps half-open connections from hanging forever.
        """
        peer = sock._peer
        if peer is None:
            return
        arrival = max(sock._pipe_free,
                      self.engine.now
                      + self._latency_between(sock.local_host, peer.local_host))

        def _close_peer() -> None:
            peer._rx.close()
            peer._peer_closed = True

        self.engine.call_at(arrival, _close_peer)

    def _forget(self, sock: "Socket") -> None:
        self._sockets.pop(sock, None)

    def dispose(self) -> None:
        """Break every endpoint's reference cycles, dead ones included
        (teardown only — see ``VclRuntime.dispose``)."""
        for sock in self._all_sockets:
            sock.dispose()
        self._all_sockets.clear()
        self._sockets.clear()
        for listener in self._all_listeners:
            listener.dispose()
        self._all_listeners.clear()
        self._listeners.clear()


class ListenSocket:
    """A bound listening endpoint; ``accept()`` yields server sockets."""

    __slots__ = ("network", "addr", "owner", "_rx", "closed")

    def __init__(self, network: Network, addr: Address, owner=None):
        self.network = network
        self.addr = addr
        self.owner = owner
        #: the backlog of accepted server sockets; named like
        #: :attr:`Socket._rx` so a reader binds to either endpoint
        self._rx: Store = Store(network.engine, name=("listen(%s)", addr))
        self.closed = False

    def accept(self) -> Event:
        """Event yielding the next incoming :class:`Socket`.

        Fails with :class:`StoreClosed` if the listener closes while
        waiting.
        """
        return self._rx.get()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.network._unbind(self.addr)
        # Refuse queued, never-accepted connections: close their peers.
        while len(self._rx):
            srv = self._rx.get_nowait()
            srv.close()
        self._rx.close()

    def dispose(self) -> None:
        """Teardown-only cycle breaking (owner link, queued peers)."""
        self.owner = None
        self._rx.dispose()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ListenSocket {self.addr} closed={self.closed}>"


class Socket:
    """One endpoint of an established connection.

    A 128-rank mesh is 16 256 of these at once (a 512-rank one
    261 632), so the instance is slotted and its receive store starts
    empty-handed (see :class:`~repro.simkernel.store.Store`).
    """

    __slots__ = ("network", "conn_id", "local_host", "remote", "owner",
                 "_rx", "_peer", "_pipe_free", "closed", "_peer_closed",
                 "_initiator", "_sever_pending")

    def __init__(self, network: Network, conn_id: int, local_host: str,
                 remote: Address, owner=None, initiator: bool = False):
        self.network = network
        self.conn_id = conn_id
        self.local_host = local_host
        self.remote = remote
        self.owner = owner
        self._rx: Store = Store(network.engine,
                                name=("sock#%d@%s", conn_id, local_host))
        self._peer: Optional["Socket"] = None
        self._pipe_free: float = 0.0  # next time the outgoing pipe is free
        self.closed = False
        self._peer_closed = False
        self._initiator = initiator
        self._sever_pending = False
        network._all_sockets.append(self)

    # -- I/O ------------------------------------------------------------------
    def send(self, msg: Any, size: Optional[int] = None) -> None:
        """Queue ``msg`` for delivery (non-blocking, buffered).

        ``size`` defaults to the message's own ``size`` hint, else
        :data:`DEFAULT_MSG_SIZE`.  The whole transmission is this one
        frame — every message of a trial passes through it — and its
        arrival joins the batch of whatever else lands in the same
        instant (:meth:`~repro.simkernel.engine.Engine.put_at`).
        """
        if self.closed:
            raise ConnectionClosed(f"send on closed socket #{self.conn_id}")
        peer = self._peer
        if peer is None or peer._rx.closed:
            return  # packets to a dead endpoint vanish
        net = self.network
        if (net._isolated or net._cut_pairs) \
                and not net.reachable(self.local_host, peer.local_host):
            return  # packets into a cut vanish
        if size is None:
            size = getattr(msg, "size", None)
            if isinstance(size, (int, float)) and size >= 0:
                size = int(size)
            else:
                size = DEFAULT_MSG_SIZE
        net.bytes_sent += size
        net.messages_sent += 1
        engine = net.engine
        now = engine.now
        if net._fast_uniform:
            # Hot path: the historical arithmetic, no fabric lookup —
            # max(pipe free, now + latency + size / bandwidth).
            arrival = now + net.latency + size / net.bandwidth
            if arrival < self._pipe_free:
                arrival = self._pipe_free
        else:
            arrival = net.fabric.delivery(now, self.local_host,
                                          peer.local_host, size,
                                          self._pipe_free)
        self._pipe_free = arrival
        obs = engine.obs
        if obs is not None:
            # Causal choke point: every stamped message crosses here
            # exactly once per transmission, with the arrival already
            # computed — so the graph is a pure function of the
            # simulated history (see repro.obs.causal).
            ctx = getattr(msg, "_causal_ctx", None)
            if ctx is not None:
                obs.causal.on_transmit(ctx, type(msg).__name__,
                                       self.local_host, peer.local_host,
                                       now, arrival, size)
        engine.put_at(arrival, peer._rx, msg)

    def recv(self) -> Event:
        """Event yielding the next message.

        The event *fails* with the store-level
        :class:`~repro.simkernel.store.StoreClosed` if the peer closed
        (including peer-process death); catch that at the waiting site.
        Code that only loops over ``recv()`` is a reader instead — see
        :meth:`repro.cluster.unixproc.UnixProcess.spawn_reader`.
        """
        return self._rx.get()

    def close(self) -> None:
        """Close this endpoint; peer learns after one latency."""
        if self.closed:
            return
        self.closed = True
        self._rx.close()
        if self.owner is not None:
            self.owner.disown_socket(self)
        self.network._forget(self)
        self.network._notify_close(self)

    @property
    def peer_alive(self) -> bool:
        return not self._peer_closed and not self._rx.closed

    def dispose(self) -> None:
        """Teardown-only cycle breaking (the ``_peer`` pair link is the
        cycle; owner and buffered messages pin the rest)."""
        self._peer = None
        self.owner = None
        self._rx.dispose()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Socket #{self.conn_id} {self.local_host}->{self.remote} "
                f"closed={self.closed}>")
