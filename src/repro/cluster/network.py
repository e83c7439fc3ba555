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

from typing import (Any, Callable, Dict, FrozenSet, Iterable,
                    NamedTuple, Optional, Sequence, Set, Tuple, Union)

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
            if peer is None or sock.remote is None:
                continue            # pairs are processed once, client side
            if sock._rx.closed and peer._rx.closed:
                continue            # already dead
            if sock._sever_pending:
                continue
            if self.reachable(sock.local_host, peer.local_host):
                continue
            sock._sever_pending = True
            delay = self._latency_between(sock.local_host, peer.local_host)
            sock._rx._inflight += 1
            peer._rx._inflight += 1

            def _fire(a=sock, b=peer) -> None:
                a._sever_pending = False
                a._rx._inflight -= 1
                b._rx._inflight -= 1
                if self.reachable(a.local_host, b.local_host):
                    return          # healed before the closure landed
                for s in (a, b):
                    s._rx.close()
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
        if owner is not None:
            owner.adopt_socket(ls)
        return ls

    def _unbind(self, addr: Address) -> None:
        self._listeners.pop(addr, None)

    # -- connecting -----------------------------------------------------------
    def connect(self, src_host: str, addr: Address, owner,
                deliver: Callable[[Union["Socket", ConnectionRefused]], None]
                ) -> None:
        """Open a connection to ``addr``: after one round trip,
        ``deliver`` gets the client :class:`Socket` or a
        :class:`ConnectionRefused` (nothing listens, or the path is cut),
        inside the delivery payload — a caller that reacts later
        schedules its reaction from there (:meth:`repro.cluster.node.Node.connect`
        succeeds an Event, a mesh dialer schedules itself)."""
        engine = self.engine
        rtt = 2 * self._latency_between(src_host, addr.host)
        listener = self._listeners.get(addr)
        if listener is None or listener.closed \
                or not self.reachable(src_host, addr.host):
            # Refusal (or the partition timeout) still takes a round trip.
            engine.call_later(rtt, lambda: deliver(
                ConnectionRefused(f"no listener at {addr}")))
            return
        conn_id = self._next_conn_id
        self._next_conn_id += 1
        client = Socket(self, conn_id, src_host, addr, owner)
        # the server end is the listener's until accepted: its owner
        # adopts it when it enters the backlog
        server = Socket(self, conn_id, addr.host, None, listener.owner)
        client._peer = server
        server._peer = client
        if owner is not None:
            owner.adopt_socket(client)

        def _deliver() -> None:
            if listener.closed or not self.reachable(src_host, addr.host):
                # refused at the far end: nobody will ever hold either
                # end, so nothing is left to close or to notify
                if owner is not None:
                    owner.disown_socket(client)
                client._peer = server._peer = None
                deliver(ConnectionRefused(f"listener at {addr} closed"))
                return
            self._sockets[client] = None
            self._sockets[server] = None
            if server.owner is not None:
                server.owner.adopt_socket(server)
            listener._rx.put(server)
            deliver(client)

        engine.call_later(rtt, _deliver)

    # -- transmission ------------------------------------------------------------
    def send_all(self, socks: Iterable["Socket"], msg: Any,
                 size: Optional[int] = None) -> None:
        """Queue ``msg`` on every open socket of ``socks`` (a marker
        flood; :meth:`Socket.send` is the one-socket case).  ``size``
        defaults to the message's ``size`` hint, else
        :data:`DEFAULT_MSG_SIZE`.  What no connection changes is worked
        out once; each socket pays for its own pipe and arrival, which
        joins the batch of its instant.  Every message passes here.
        """
        if size is None:
            size = getattr(msg, "size", None)
            if isinstance(size, (int, float)) and size >= 0:
                size = int(size)
            else:
                size = DEFAULT_MSG_SIZE
        engine = self.engine
        now = engine.now
        obs = engine.obs
        # Causal choke point: every stamped message crosses here once
        # per transmission, with the arrival already computed — so the
        # graph is a pure function of the simulated history (see
        # repro.obs.causal).
        ctx = getattr(msg, "_causal_ctx", None) if obs is not None else None
        cut = self._isolated or self._cut_pairs
        uniform = self._fast_uniform
        if uniform:
            # the historical arithmetic, no fabric lookup:
            # max(pipe free, now + latency + size / bandwidth)
            earliest = now + self.latency + size / self.bandwidth
        schedule = engine._schedule     # put_at, minus its past check
        sent = 0
        last = batch = None
        for sock in socks:
            if sock.closed:
                continue
            peer = sock._peer
            if peer is None or peer._rx.closed:
                continue        # packets to a dead endpoint vanish
            if cut and not self.reachable(sock.local_host, peer.local_host):
                continue        # packets into a cut vanish
            sent += 1
            if uniform:
                arrival = sock._pipe_free
                if arrival < earliest:
                    arrival = earliest
            else:
                arrival = self.fabric.delivery(now, sock.local_host,
                                               peer.local_host, size,
                                               sock._pipe_free)
            sock._pipe_free = arrival
            if ctx is not None:
                obs.causal.on_transmit(ctx, type(msg).__name__,
                                       sock.local_host, peer.local_host,
                                       now, arrival, size)
            rx = peer._rx
            if arrival == last:     # that arrival's batch still ends the slot
                rx._inflight += 1
                batch.items.append((rx, msg))
            else:
                batch, last = schedule(arrival - now, rx, msg), arrival
        self.messages_sent += sent
        self.bytes_sent += sent * size

    def dispose(self) -> None:
        """Break the reference cycles of every endpoint still open at
        the end (teardown only — see ``VclRuntime.dispose``); a pair
        closed at both ends unlinked itself."""
        for sock in self._sockets:
            sock.dispose()
        self._sockets.clear()
        for listener in self._listeners.values():
            listener.dispose()
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
        self._rx: Store = Store(network.engine, name=f"listen({addr})")
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
        self.owner = None
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
    261 632), so the instance is slotted, its receive store is lean, a
    server end keeps no remote address, and a pair closed at both ends
    unlinks itself.  :attr:`tag` is the owner's (a mesh peer's rank).
    """

    __slots__ = ("network", "conn_id", "local_host", "remote", "owner",
                 "_rx", "_peer", "_pipe_free", "closed", "_sever_pending",
                 "tag")

    def __init__(self, network: Network, conn_id: int, local_host: str,
                 remote: Optional[Address], owner=None):
        self.network = network
        self.conn_id = conn_id
        self.local_host = local_host
        #: the dialed address at the client end, None at the server end
        self.remote = remote
        self.owner = owner
        self._rx: Store = Store(network.engine, name=conn_id)
        self._peer: Optional["Socket"] = None
        self._pipe_free: float = 0.0  # next time the outgoing pipe is free
        self.closed = False
        self._sever_pending = False
        self.tag: Any = None

    # -- I/O ------------------------------------------------------------------
    def send(self, msg: Any, size: Optional[int] = None) -> None:
        """Queue ``msg`` for delivery (non-blocking, buffered): the
        one-socket case of :meth:`Network.send_all`."""
        if self.closed:
            raise ConnectionClosed(f"send on closed socket #{self.conn_id}")
        self.network.send_all((self,), msg, size)

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
        """Close this endpoint; a peer still open learns after one
        latency, cut or no cut (the OS reset once packets flow again —
        half-open connections must not hang forever)."""
        if self.closed:
            return
        self.closed = True
        self._rx.close()
        if self.owner is not None:
            self.owner.disown_socket(self)
            self.owner = None
        network = self.network
        network._sockets.pop(self, None)
        peer = self._peer
        if peer is None:
            return
        if peer.closed:
            self._peer = peer._peer = None
            return
        arrival = max(self._pipe_free,
                      network.engine.now
                      + network._latency_between(self.local_host,
                                                 peer.local_host))
        peer._rx._inflight += 1
        network.engine.call_at(arrival, peer._closed_by_peer)

    def _closed_by_peer(self) -> None:
        self._rx._inflight -= 1
        self._rx.close()

    @property
    def peer_alive(self) -> bool:
        return not self._rx.closed      # a peer's close notice closes it

    def dispose(self) -> None:
        """Teardown-only cycle breaking (the ``_peer`` pair link is the
        cycle; owner and buffered messages pin the rest)."""
        self._peer = None
        self.owner = self.tag = None
        self._rx.dispose()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Socket #{self.conn_id} {self.local_host}->{self.remote} "
                f"closed={self.closed}>")
