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
  :class:`~repro.simkernel.store.StoreClosed`.  This is exactly the
  failure-detection channel MPICH-V's dispatcher uses ("a failure is
  assumed after any unexpected socket closure");
* **connection refusal** when nothing listens on the target address;
* **partitions** — :meth:`Network.isolate` and :meth:`Network.heal`
  mutate reachability at runtime.  Packets into a cut vanish;
  established connections spanning a cut are severed after one path
  latency (a blocked ``recv`` at either end fails with
  ``StoreClosed``, indistinguishable from peer death — the *false
  suspicion* adversary); a connection attempt across a cut is refused
  after the round trip.  Healing restores reachability for new
  connections but never resurrects severed ones — and a heal that
  lands before the severance notification does (within one latency)
  leaves the connection untouched, so partitions can race the failure
  detector.

The paper's experiments kill whole tasks, never the network; the
uniform no-partition default reproduces that regime exactly, while the
fault-injection layer (``partition``/``heal`` FAIL actions) opens the
partition fault class the paper leaves out.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import partial
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Sequence, Set, Tuple)

from repro.netmodel.fabric import build_fabric
from repro.netmodel.spec import DEFAULT_BANDWIDTH, DEFAULT_LATENCY
from repro.obs.causal import stamp
from repro.simkernel.engine import Engine
from repro.simkernel.events import PRIORITY_URGENT, Event
from repro.simkernel.process import CallbackThread
from repro.simkernel.store import Store


class Address(NamedTuple):
    """A (host, port) endpoint address."""

    host: str
    port: int

    def __str__(self) -> str:  # pragma: no cover - cosmetics
        return f"{self.host}:{self.port}"


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
        self.latency = latency
        self.bandwidth = bandwidth
        self.fabric = build_fabric(topology, latency, bandwidth)
        self._listeners: Dict[Address, "ListenSocket"] = {}
        #: monotone id source for connections (stable trace labels)
        self._next_conn_id = 1
        self.bytes_sent = 0
        self.messages_sent = 0
        #: uniform fabric -> the hot path never consults the fabric
        self._fast_uniform = self.fabric.is_uniform
        #: what holds live connections, for partition severing: a
        #: client :class:`Socket` -> its registration number, or a
        #: :class:`Mesh` (its dialed rows carry theirs).  Severance must
        #: scan connections in registration order or same-instant
        #: closure notifications land in address-dependent
        #: (nondeterministic) tie-break order
        self._conns: Dict[Any, Optional[int]] = {}
        #: the next registration number
        self._register: Callable[[], int] = itertools.count().__next__
        #: connections whose severance is on its way
        self._severing: Set[Any] = set()
        #: hosts on the isolated side of an accumulated partition
        self._isolated: Set[str] = set()

    # -- topology ------------------------------------------------------------
    def register_host(self, host: str) -> None:
        """Declare a host to the fabric (rack assignment order)."""
        self.fabric.register_host(host)

    def _latency_between(self, a: str, b: str) -> float:
        if self._fast_uniform:
            return self.latency
        return self.fabric.latency_between(a, b)

    # -- link state ------------------------------------------------------------
    def reachable(self, a: str, b: str) -> bool:
        """Can hosts ``a`` and ``b`` currently exchange packets?"""
        if a == b:
            return True
        if self._isolated and ((a in self._isolated) != (b in self._isolated)):
            return False
        return True

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

    def heal(self) -> None:
        """Restore full reachability.

        Pending severance notifications re-check reachability when they
        fire, so a heal within one path latency of the cut wins the
        race and the connection survives; already-severed connections
        stay dead (a healed partition does not resurrect them).
        """
        self._isolated.clear()
        # one heal ends every open split at the same instant, so
        # overlapping cuts close nested-at-boundary
        obs = self.engine.obs
        if obs is not None:
            obs.close_all("netsplit", self.engine.now)

    def _sever_spanning(self) -> None:
        """Schedule severance of live connections that now span a cut."""
        live = [entry for conn, seq in self._conns.items()
                for entry in conn._live(seq)]
        live.sort(key=lambda entry: entry[0])
        for _seq, key, a, b in live:
            if key in self._severing or self.reachable(a, b):
                continue
            self._severing.add(key)
            self.engine.call_later(self._latency_between(a, b),
                                   partial(self._sever, key, a, b))

    def _sever(self, key, a: str, b: str) -> None:
        """A severance lands: both receive streams close, unless a heal
        came first."""
        self._severing.discard(key)
        if not self.reachable(a, b):
            key[0]._sever(key)

    # -- traffic accounting ----------------------------------------------------
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
    def connect(self, src_host: str, addr: Address, owner) -> Event:
        """Open a connection to ``addr``: an Event that yields the client
        :class:`Socket` after one round trip, or fails with
        :class:`ConnectionRefused` (nothing listens, or the path is
        cut)."""
        engine = self.engine
        ev = Event(engine, name=f"connect({addr})")
        rtt = 2 * self._latency_between(src_host, addr.host)
        listener = self._listeners.get(addr)
        if listener is None or listener.closed \
                or not self.reachable(src_host, addr.host):
            # Refusal (or the partition timeout) still takes a round trip.
            engine.call_later(rtt, lambda: ev.fail(
                ConnectionRefused(f"no listener at {addr}")))
            return ev
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
                ev.fail(ConnectionRefused(f"listener at {addr} closed"))
                return
            if not client.closed:   # a dialer that died in the round trip
                self._conns[client] = self._register()
            if server.owner is not None:
                server.owner.adopt_socket(server)
            listener._rx.put(server)
            ev.succeed(client)

        engine.call_later(rtt, _deliver)
        return ev

    # -- transmission ------------------------------------------------------------
    def _wire(self, msg: Any, size: Optional[int], site: Optional[str],
              cause: Any):
        """What no connection changes about sending ``msg``: its size
        (``size``, else the message's ``size`` hint, else
        :data:`DEFAULT_MSG_SIZE`), now, the landing time on an idle
        pipe of the uniform fabric (None on another: each pair asks the
        fabric), its causal context (None when nothing records it), and
        whether a cut is on.

        Causal choke point: a message with no context yet is minted
        here, at the sender's ``site`` and parented on ``cause``, before
        any endpoint is skipped; the send then writes one row per copy,
        with the arrival already computed, and closes with one
        :meth:`~repro.obs.causal.CausalGraph.on_send` — so the graph is
        a pure function of the simulated history (see
        :mod:`repro.obs.causal`).
        """
        if size is None:
            size = getattr(msg, "size", None)
            size = int(size) if isinstance(size, (int, float)) \
                and size >= 0 else DEFAULT_MSG_SIZE
        engine = self.engine
        now = engine.now
        # the historical arithmetic, no fabric lookup:
        # max(pipe free, now + latency + size / bandwidth)
        earliest = now + self.latency + size / self.bandwidth \
            if self._fast_uniform else None
        ctx = None
        if engine.obs is not None:
            ctx = getattr(msg, "_causal_ctx", None)
            if ctx is None:
                ctx = stamp(engine, msg, site, cause)
        return size, now, earliest, ctx, self._isolated

    def send_all(self, socks: Iterable["Socket"], msg: Any,
                 size: Optional[int] = None, cause: Any = None) -> None:
        """Queue ``msg`` on every open socket of ``socks`` (a marker
        flood; :meth:`Socket.send` is the one-socket case).  The sockets
        are the sending process's: a message with no causal context is
        minted at their :attr:`Socket.site` (:meth:`_wire`).  What no
        connection changes is worked out once; each socket pays for its
        own pipe and arrival, which joins the batch of its instant.
        :meth:`Mesh.send_all` is the mesh's half.
        """
        site = None
        if self.engine.obs is not None:
            for sock in socks:      # the first names the sender's site
                site = sock.site
                break
            else:
                return              # no socket: nothing sent or minted
        size, now, earliest, ctx, cut = self._wire(msg, size, site, cause)
        causal = put = None
        if ctx is not None:
            causal = self.engine.obs.causal
            put = causal.put
        schedule = self.engine._schedule    # put_at, minus its past check
        sent = 0
        last = batch = None
        for sock in socks:
            if sock.closed:
                continue
            peer = sock._peer
            if peer is None or peer._rx.closed:
                continue        # packets to a dead endpoint vanish
            a, b = sock.local_host, peer.local_host
            if cut and not self.reachable(a, b):
                continue        # packets into a cut vanish
            sent += 1
            arrival = sock._pipe_free
            if earliest is None:
                arrival = self.fabric.delivery(now, a, b, size, arrival)
            elif arrival < earliest:
                arrival = earliest
            sock._pipe_free = arrival
            if put is not None:
                put((arrival, a, b))
            rx = peer._rx
            if arrival == last:     # that arrival's batch still ends the slot
                batch.items.append((rx, msg))
            else:
                batch, last = schedule(arrival - now, rx, msg), arrival
        if causal is not None:
            causal.on_send(ctx, type(msg).__name__, now, sent)
        self.messages_sent += sent
        self.bytes_sent += sent * size


class ListenSocket:
    """A bound listening endpoint; ``accept()`` yields server sockets."""

    __slots__ = ("network", "addr", "owner", "_rx", "closed", "mesh")

    def __init__(self, network: Network, addr: Address, owner=None):
        self.network = network
        self.addr = addr
        self.owner = owner
        #: the backlog of accepted server sockets; named like
        #: :attr:`Socket._rx` so a reader serves either endpoint
        self._rx: Store = Store(network.engine, name=f"listen({addr})")
        self.closed = False
        #: the :class:`Mesh` that accepts what is dialed here, if any
        self.mesh: Optional["Mesh"] = None

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
        if self.mesh is not None:
            self.mesh._refuse_backlog()
            self.mesh = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ListenSocket {self.addr} closed={self.closed}>"


class Socket:
    """One endpoint of an established service connection (dispatcher,
    scheduler, checkpoint shards, event logger, channel memories): a
    few per daemon, where the daemons' full mesh is one :class:`Mesh`
    each.  Slotted; a server end keeps no remote address, and a pair
    closed at both ends unlinks itself.
    """

    __slots__ = ("network", "conn_id", "local_host", "remote", "owner",
                 "site", "_rx", "_peer", "_pipe_free", "closed")

    def __init__(self, network: Network, conn_id: int, local_host: str,
                 remote: Optional[Address], owner=None):
        self.network = network
        self.conn_id = conn_id
        self.local_host = local_host
        #: the dialed address at the client end, None at the server end
        self.remote = remote
        self.owner = owner
        #: the owner's causal site, kept after a close drops the owner
        self.site = None if owner is None else owner.site
        self._rx: Store = Store(network.engine, name=conn_id)
        self._peer: Optional["Socket"] = None
        self._pipe_free: float = 0.0  # next time the outgoing pipe is free
        self.closed = False

    # -- I/O ------------------------------------------------------------------
    def send(self, msg: Any, size: Optional[int] = None,
             cause: Any = None) -> None:
        """Queue ``msg`` for delivery (non-blocking, buffered): the
        one-socket case of :meth:`Network.send_all`.  On a closed
        socket the message is dropped."""
        self.network.send_all((self,), msg, size, cause)

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
        network._conns.pop(self, None)
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
        network.engine.call_at(arrival, peer._closed_by_peer)

    def _closed_by_peer(self) -> None:
        self._rx.close()

    def _live(self, seq: int):
        """:meth:`Network._sever_spanning`'s view of this connection."""
        far = self._peer
        if far is None or (self._rx.closed and far._rx.closed):
            return ()
        return ((seq, (self, far), self.local_host, far.local_host),)

    def _sever(self, key) -> None:
        # dead for good: drop from the severing scan set
        self.network._conns.pop(self, None)
        self._rx.close()
        key[1]._rx.close()

    @property
    def peer_alive(self) -> bool:
        return not self._rx.closed      # a peer's close notice closes it

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Socket #{self.conn_id} {self.local_host}->{self.remote} "
                f"closed={self.closed}>")


#: a :class:`Mesh` row's end: none, reserved by a dial still in its round
#: trip, dialing, landed (awaiting the accept side), accepted, dialed (its
#: outcome not yet seen), connected
FREE, INCOMING, DIALING, PENDING, SERVER, DIALED, CLIENT = range(7)
#: a row reader's (or, on a PENDING row, the accept side's) next step:
#: none, wait, read the handed-over item, first look, see the close
IDLE, WAIT, ITEM, START, CLOSE = range(5)
#: the accept side waits for a landing / has a look at the backlog due
_ACCEPTING, _ACCEPT_DUE = -1, -2
#: the arrival that closes a row's receive stream: a close notice
_NOTICE = object()


def _counts(n: int, old: Optional[memoryview] = None) -> memoryview:
    """A column of ``n`` unsigned C ints, starting with ``old``'s."""
    column = memoryview(bytearray(4 * n)).cast("I")
    if old is not None:
        column[:len(old)] = old
    return column


class Mesh(CallbackThread):
    """One daemon incarnation's end of its full mesh of connections.

    Every connection of the mesh is simulated — dial, round trip,
    handshake, FIFO pipe, close notice, severance — at the instant and
    slot position a :class:`Socket` pair read by a
    :class:`~repro.simkernel.store.Reader` at each end took, but as a
    *row*: an end is entry ``row`` of per-row columns (the far end's
    mesh, None once this end's receive stream closed, and its row
    there; the pipe's free time; arrivals in flight; the inbound queue),
    served by one handler.  The connection with rank ``r`` is row ``r``
    unless the last one on it is still going — a restarted incarnation
    dialing in while its predecessor's close is unread, or a dial each
    way — and then a spill row past the ranks (:meth:`rank_of`).  The
    daemon talks to each rank over the row it joined (:meth:`join`).

    The mesh is its process's thread and the payload of every read: an
    arrival is a ``(row, message)`` item of its instant's
    :class:`~repro.simkernel.engine.Batch`, handed to a waiting row
    and read in a payload of its own (a hop; :attr:`_hops` says which
    row), where the reader's was.  Dials start in one payload, land and
    reach ``on_connected`` together per round trip, and back off; a
    landed end waits in the backlog, and the accept side looks at one
    connection at a time, handing its first message to ``on_hello``.
    A debugger stop parks hops; at the continue each is re-run from an
    URGENT payload of its own, in the process's thread order
    (:meth:`unpark`): a row reader where it was served, the accept side
    where the mesh was built, a dial where it was made.  When the
    process dies each end closes in the order the process opened it
    (:attr:`fd`), owing a notice to a far end still reading.
    """

    __slots__ = ("network", "proc", "host", "site", "rank", "n", "closed",
                 "_died", "on_msg", "on_gone", "on_hello", "on_connected",
                 "far", "frow", "pipe", "state", "inbox", "item", "inflight",
                 "rd", "fd", "born", "pos", "peers", "attached", "_spilled",
                 "_pos", "_hops", "_backlog", "_acc", "_backoff_max",
                 "_stop")

    def __init__(self, proc, listener: ListenSocket, rank: int, n: int,
                 on_msg: Callable[[int, Any], None],
                 on_gone: Optional[Callable[[int], None]],
                 on_hello: Callable[[int, Any], None],
                 on_connected: Callable[[List[int]], None]):
        super().__init__(proc.engine, start=False)
        self.network = listener.network
        self.proc = proc
        self.host = proc.node.name
        self.site = proc.site
        self.rank = rank
        self.n = n
        self.closed = False
        self._died = 0.0
        #: each handler names the connection by its row
        self.on_msg, self.on_gone = on_msg, on_gone
        self.on_hello, self.on_connected = on_hello, on_connected
        self.far: List[Optional[Mesh]] = [None] * n
        self.frow: List[int] = [rank] * n
        self.pipe: List[float] = [0.0] * n
        self.state = bytearray(n)               # FREE
        #: lists, not deques: a row rarely queues more than its hello,
        #: and at N(N-1) rows a deque's block is a noticeable share
        self.inbox: List[Optional[list]] = [None] * n
        self.item: List[Any] = [None] * n
        self.inflight: List[int] = [0] * n
        self.rd = bytearray(n)                  # IDLE
        #: when the process opened each end, when the network
        #: registered each connection, where each row's reader stands
        #: in the process's thread order: C ints, not N(N-1) int objects
        self.fd, self.born, self.pos = _counts(n), _counts(n), _counts(n)
        #: the joined rows, in the order they joined (a marker flood
        #: goes out in this order), and each rank's joined row or -1
        self.peers: List[int] = []
        self.attached: List[int] = [-1] * n
        #: spill row -> its rank
        self._spilled: Dict[int, int] = {}
        self._hops: deque = deque()     # -1: the accept side's look
        self._backlog: deque = deque()
        self._acc = _ACCEPTING
        #: ``(thread position, hop)`` of what fired while stopped
        self._parked = []
        listener.mesh = proc.mesh = self
        proc.adopt_thread(self)
        self._pos = proc._threads[self]

    @property
    def name(self) -> str:
        return f"mesh.r{self.rank}@{self.host}"

    def rank_of(self, row: int) -> int:
        """The rank at the far end of ``row``."""
        return row if row < self.n else self._spilled[row]

    def join(self, row: int) -> None:
        """The daemon talks to ``row``'s rank over ``row``: it takes the
        place in :attr:`peers` of the row the rank had, else the end."""
        rank = row if row < self.n else self._spilled[row]
        old = self.attached[rank]
        if old == row:
            return
        self.attached[rank] = row
        if old < 0:
            self.peers.append(row)
        else:
            self.peers[self.peers.index(old)] = row

    def leave(self, row: int) -> None:
        """``row`` leaves :attr:`peers`, if it is the rank's row."""
        rank = self.rank_of(row)
        if self.attached[rank] == row:
            self.attached[rank] = -1
            self.peers.remove(row)

    def _row(self, rank: int) -> int:
        """The row a new connection with ``rank`` takes."""
        if not self.state[rank] and not self.rd[rank] \
                and not self.inflight[rank] and self.attached[rank] != rank:
            return rank                 # FREE, and nothing owed
        if self._over(rank):
            return rank
        for row in self._spilled:
            if self._over(row):
                self._spilled[row] = rank
                return row
        row = len(self.far)
        self._spilled[row] = rank
        for column, blank in ((self.far, None), (self.frow, 0),
                              (self.pipe, 0.0), (self.state, FREE),
                              (self.inbox, None), (self.item, None),
                              (self.inflight, 0), (self.rd, IDLE)):
            column.append(blank)
        self.fd, self.born, self.pos = (_counts(row + 1, column)
                                        for column in (self.fd, self.born,
                                                       self.pos))
        return row

    def _over(self, row: int) -> bool:
        """Nothing more can happen to ``row``'s last connection: not
        joined, its receive stream closed and read to the end, nothing
        in flight to it, no dial or accept step owed."""
        return self.far[row] is None and not self.rd[row] \
            and not self.inflight[row] \
            and self.state[row] in (FREE, SERVER, CLIENT) \
            and self.attached[self.rank_of(row)] != row

    # -- dialing ---------------------------------------------------------------
    def dial(self, targets: Sequence[Tuple[int, Address]], backoff: float,
             backoff_max: float, stop: Callable[[], bool]) -> None:
        """Dial every ``(rank, address)``, from one payload at this
        instant; a refused dial retries ``backoff`` seconds later,
        doubling up to ``backoff_max``, unless ``stop()``."""
        self._backoff_max = backoff_max
        self._stop = stop
        if targets and self.alive:
            tick = self.proc._tick
            targets = [(rank, addr, tick()) for rank, addr in targets]
            self.engine._schedule(0.0, None,
                                  partial(self._redial, targets, backoff))

    def _redial(self, targets, delay: float) -> None:
        if not self.alive:
            return
        if self.suspended:
            self._parked.append(
                (targets[0][2], partial(self._redial, targets, delay)))
            return
        if self._stop():
            return
        network, host, tick = self.network, self.host, self.proc._tick
        cut = network._isolated
        rtt = 2 * network.latency if network._fast_uniform else None
        landings: Dict[float, list] = {}
        for rank, addr, pos in targets:
            listener = network._listeners.get(addr)
            row = far = fr = None
            if listener is not None and not listener.closed \
                    and (not cut or network.reachable(host, addr.host)):
                far = listener.mesh
                row, fr = self._row(rank), far._row(self.rank)
                far.state[fr] = INCOMING
                far.frow[fr] = row
                self.state[row] = DIALING
                self.far[row], self.frow[row] = far, fr
                self.pipe[row] = 0.0
                self.fd[row] = tick()
            when = rtt or 2 * network.fabric.latency_between(host, addr.host)
            landings.setdefault(when, []).append(
                (rank, addr, pos, row, far, fr, delay))
        for rtt, dials in landings.items():
            self.engine._schedule(rtt, None, partial(self._land, dials))

    def _land(self, dials) -> None:
        """Dials land, in the order they were made; their outcomes follow
        where the first one's payload was, in runs (:meth:`_dialed`) that
        end after connected rows: what ``on_connected`` puts at URGENT
        runs before the next outcome, as between two payloads."""
        network = self.network
        cut = network._isolated
        outcomes = None
        for rank, addr, pos, row, far, fr, delay in dials:
            if far is not None and not far.closed \
                    and (not cut or network.reachable(self.host, far.host)):
                if self.closed:
                    # died in the round trip: its close notice reached
                    # the far end first, or is still on its way
                    dead = self._died + network._latency_between(
                        self.host, far.host) < self.engine.now
                    far._landed(fr, None if dead else self)
                    continue
                network._conns.setdefault(self, None)
                self.born[row] = far.born[fr] = network._register()
                far._landed(fr, self)
                self.state[row] = DIALED
            else:
                if far is not None and not far.closed \
                        and far.state[fr] == INCOMING:
                    far.state[fr] = FREE
                if self.closed:
                    continue
                if far is not None:
                    self.state[row] = FREE
                    self.far[row] = None
                row = -1
                if outcomes is not None and outcomes[-1][3] >= 0:
                    outcomes = None
            if outcomes is None:
                outcomes = []
                self.engine._schedule(0.0, None,
                                      partial(self._dialed, outcomes))
            outcomes.append((rank, addr, pos, row, delay))

    def _dialed(self, outcomes) -> None:
        """A run of outcomes, refused (row -1) before connected: a refused
        dial retries ``delay`` later, the rows reached go to
        ``on_connected`` in one call.  Stopped, each parks where its
        dial was made."""
        if not self.alive:
            return
        if self.suspended:
            self._parked.extend((outcome[2], partial(self._dialed, [outcome]))
                                for outcome in outcomes)
            return
        try:
            rows = []
            for rank, addr, pos, row, delay in outcomes:
                if row >= 0:
                    self.state[row] = CLIENT
                    rows.append(row)
                    continue
                self.engine.cover("daemon.connect.refused")
                self.engine._schedule(delay, None, partial(
                    self._redial, ((rank, addr, pos),),
                    min(delay * 2, self._backoff_max)))
            if rows:
                self.on_connected(rows)
        except Exception as err:
            self._crash(err)

    # -- accepting ---------------------------------------------------------------
    def _landed(self, row: int, dialer: Optional["Mesh"]) -> None:
        """A dial lands on ``row`` (``dialer`` None: closed already)."""
        self.state[row] = PENDING
        self.far[row] = dialer
        self.pipe[row] = 0.0
        self.inbox[row] = self.item[row] = None
        self.rd[row] = IDLE
        self.fd[row] = self.proc._tick()
        if self._acc != _ACCEPTING:
            self._backlog.append(row)
        elif dialer is not None and not self.suspended:
            # the accept side's look at it would find nothing yet
            self._acc = row
            self.rd[row] = WAIT
        else:
            self._backlog.append(row)
            self._acc = _ACCEPT_DUE
            self._hop(-1)

    def _first_word(self, row: int) -> None:
        """The accept side's hop on a landed end: its first message goes
        to ``on_hello`` (a silent close is skipped); the next one's turn."""
        handed = self.rd[row] == ITEM
        self.rd[row] = IDLE
        self._acc = _ACCEPT_DUE
        if handed:
            msg, self.item[row] = self.item[row], None
            self.on_hello(row, msg)
        if self.state[row] == PENDING:
            self.state[row] = SERVER        # accepted, and never read
        if not self.alive:
            return
        if self._backlog:
            self._hop(-1)
        else:
            self._acc = _ACCEPTING

    # -- reading -------------------------------------------------------------------
    def serve(self, row: int) -> None:
        """Read ``row``: ``on_msg(row, message)`` per arrival,
        ``on_gone(row)`` once it closes.  It waits at once where its
        first look would find nothing (nothing queued or in flight, the
        stream open, the process running), else looks in a payload."""
        if self.state[row] == PENDING:
            self.state[row] = SERVER
        self.pos[row] = self.proc._tick()
        if self.inbox[row] or self.far[row] is None or self.inflight[row] \
                or self.suspended:
            self.rd[row] = START
            self._hops.append(row)
            self.engine._schedule(0.0, None, self)
        else:
            self.rd[row] = WAIT

    def _hop(self, row: int) -> None:
        self._hops.append(row)
        self.engine._enqueue(self)

    def __call__(self) -> None:
        """A hop: the accept side's look at the backlog (row -1), its
        wake-up on a landed end, or a row reader's."""
        if not self.alive:
            return
        row = self._hops.popleft()
        if self.suspended:
            self._parked.append((self._pos if row < 0
                                 or self.state[row] == PENDING
                                 else self.pos[row], row))
            return
        try:
            if row < 0:
                row = self._acc = self._backlog.popleft()
            elif self.state[row] == PENDING:
                return self._first_word(row)
            else:
                mode = self.rd[row]
                if mode == ITEM:
                    msg, self.item[row] = self.item[row], None
                    self.on_msg(row, msg)
                    if not self.alive:
                        return
                elif mode == CLOSE:
                    self.rd[row] = IDLE
                    return self.on_gone(row)
                elif mode != START:
                    return
            # the next look
            queue = self.inbox[row]
            if queue:
                self.item[row] = queue.pop(0)
                if not queue:
                    self.inbox[row] = None
                self.rd[row] = ITEM
                self._hop(row)
            elif self.far[row] is None:
                self._gone(row)
            else:
                self.rd[row] = WAIT
        except Exception as err:
            self._crash(err)

    def _gone(self, row: int) -> None:
        if self.on_gone is None and self.state[row] != PENDING:
            self.rd[row] = IDLE         # the loop that simply returned
        else:
            self.rd[row] = CLOSE
            self._hop(row)

    def put(self, arrival: Tuple[int, Any]) -> None:
        """A :class:`~repro.simkernel.engine.Batch` item lands: a message
        for row ``arrival[0]``, or its close notice."""
        row, msg = arrival
        self.inflight[row] -= 1
        if self.far[row] is None:
            return                      # the receive stream has closed
        rd = self.rd
        if msg is _NOTICE:
            self._close_rx(row)
        elif rd[row] == WAIT:
            self.item[row] = msg
            rd[row] = ITEM
            self._hops.append(row)
            self.engine._enqueue(self)
        elif self.inbox[row] is None:
            self.inbox[row] = [msg]
        else:
            self.inbox[row].append(msg)

    def _close_rx(self, row: int) -> None:
        """``row``'s receive stream closes: what waits in it is lost, an
        item already handed over is still read."""
        self.far[row] = self.inbox[row] = None
        if self.rd[row] == WAIT:
            self._gone(row)

    # -- sending -------------------------------------------------------------------
    def send(self, row: int, msg: Any, size: Optional[int] = None,
             cause: Any = None) -> None:
        self.send_all((row,), msg, size, cause)

    def send_all(self, rows: Iterable[int], msg: Any,
                 size: Optional[int] = None, cause: Any = None) -> None:
        """:meth:`Network.send_all` over ``rows``: an arrival per row
        whose far end still reads and is reachable.  ``msg`` is one
        message for every row (a flood), or a list of one per row, all
        of one kind and size (a note per peer): each of those is a send
        of its own context, closed as its row goes out.  A message with
        no context is minted at :attr:`site` (:meth:`Network._wire`); a
        list, each of its messages in list order.  Either happens before
        any row is skipped."""
        each = type(msg) is list
        if each:
            if not msg:
                return
            if self.engine.obs is not None:
                for one in msg:
                    if getattr(one, "_causal_ctx", None) is None:
                        stamp(self.engine, one, self.site, cause)
        network = self.network
        size, now, earliest, ctx, cut = network._wire(
            msg[0] if each else msg, size, self.site, cause)
        if self.closed:
            return
        causal = put = None
        if ctx is not None:
            causal = network.engine.obs.causal
            put = causal.put
        schedule = network.engine._schedule
        host, me, far_of, frow, pipe = (self.host, self.rank, self.far,
                                        self.frow, self.pipe)
        ones = iter(msg) if each else None
        one = msg
        item = (me, msg)
        sent = 0
        last = batch = None
        for row in rows:
            if each:
                one = next(ones)
            far = far_of[row]
            if far is None or far.closed:
                continue        # packets to a dead endpoint vanish
            if cut and not network.reachable(host, far.host):
                continue        # packets into a cut vanish
            sent += 1
            arrival = pipe[row]
            if earliest is None:
                arrival = network.fabric.delivery(now, host, far.host, size,
                                                  arrival)
            elif arrival < earliest:
                arrival = earliest
            pipe[row] = arrival
            if put is not None:
                put((arrival, host, far.host))
            fr = frow[row]
            far.inflight[fr] += 1
            landing = item if fr == me and not each else (fr, one)
            if arrival == last:     # that arrival's batch still ends the slot
                batch.items.append((far, landing))
            else:
                batch, last = schedule(arrival - now, far, landing), arrival
            if each and causal is not None:
                causal.on_send(one._causal_ctx, type(one).__name__, now, 1)
                put = causal.put        # None once that send hit the cap
        if causal is not None and not each:
            causal.on_send(ctx, type(msg).__name__, now, sent)
        network.messages_sent += sent
        network.bytes_sent += sent * size

    # -- closing ---------------------------------------------------------------------
    def close_end(self, row: int, read: bool = False) -> None:
        """Close this end of ``row`` as its process dies (``read``: as
        it lives on, and reads the close); a far end still reading
        learns one latency later, behind what this end sent."""
        if self.state[row] < DIALING:
            return
        self.state[row] = FREE
        far = self.far[row]
        if read:
            self._close_rx(row)
        else:
            self.far[row] = None
        if far is None or far.closed:
            return
        now = self.engine.now
        arrival = max(self.pipe[row], now + self.network._latency_between(
            self.host, far.host))
        fr = self.frow[row]
        far.inflight[fr] += 1
        self.engine._schedule(arrival - now, far, (fr, _NOTICE))

    def _refuse_backlog(self) -> None:
        """The listener closes: ends never accepted close first."""
        for row in self._backlog:
            self.close_end(row)

    def open_ends(self) -> List[Tuple[int, int]]:
        """``(fd, row)`` of every end, in the order they were opened."""
        return sorted((self.fd[row], row)
                      for row, state in enumerate(self.state)
                      if state >= DIALING)

    # -- severance ---------------------------------------------------------------
    def _live(self, _seq: int):
        """:meth:`Network._sever_spanning`'s view: ``(registration,
        key, host, far host)`` per dialed connection still open."""
        far_of, frow, born = self.far, self.frow, self.born
        return [(born[row], (self, row, frow[row], far_of[row], born[row]),
                 self.host, far_of[row].host)
                for row, state in enumerate(self.state)
                if state >= DIALED and far_of[row] is not None]

    def _sever(self, key) -> None:
        """Both receive streams of a connection close, if it is still
        the one on those rows."""
        _, row, fr, far, born = key
        if not self.closed and self.far[row] is far \
                and self.born[row] == born:
            self._close_rx(row)
        if not far.closed and far.far[fr] is self and far.born[fr] == born:
            far._close_rx(fr)

    # -- the thread's control verbs ------------------------------------------------
    def kill(self) -> None:
        super().kill()
        if not self.closed:
            self.closed = True
            self._died = self.engine.now
            self.network._conns.pop(self, None)

    def resume(self) -> None:
        self.suspended = False

    def unpark(self) -> List[Tuple[int, Any]]:
        """What fired while the process was stopped, by thread position
        (:meth:`UnixProcess.resume_all` re-runs each with
        :meth:`rerun` at its place among the process's threads)."""
        parked, self._parked = self._parked, []
        parked.sort(key=lambda entry: entry[0])
        return parked

    def rerun(self, pos: int, hop) -> None:
        self.engine._enqueue(partial(self._rerun, pos, hop), 0.0,
                             PRIORITY_URGENT)

    def _rerun(self, pos: int, hop) -> None:
        if not self.alive:
            return
        if self.suspended:
            self._parked.append((pos, hop))
        elif type(hop) is int:
            self._hops.appendleft(hop)
            self()
        else:
            hop()

    def dispose(self) -> None:
        """Drop columns and handlers: a late landing, arrival or
        severance reads no more of a dead mesh than :attr:`closed`."""
        super().dispose()
        self.closed = True
        self.proc = self.on_msg = self.on_gone = self.on_hello = None
        self.on_connected = self._stop = None
        self.far = self.frow = self.pipe = self.state = self.inbox = None
        self.item = self.inflight = self.rd = self.fd = self.born = None
        self.pos = self.peers = self.attached = self._spilled = None
        self._hops = self._backlog = self._parked = None
