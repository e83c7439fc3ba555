"""Shared lifecycle of every MPICH-V communication daemon.

All members of the MPICH-V family (Vcl, V2, V1, ...) run the same
daemon skeleton — one process per MPI rank that owns every connection
of the rank and relays application traffic — and differ only in the
fault-tolerance protocol layered on top.  This module captures the
skeleton once:

1. bind the mesh listener (before anything else, so peers never race);
2. exec + library initialisation delay;
3. argument exchange with the dispatcher (``Register``/``RegisterAck``);
4. the paper's instrumentation boundary ``localMPI_setCommand``;
5. wait for the command map (handling early ``Terminate``/``Shutdown``);
6. connect to the protocol's services and restore state (hooks);
7. build the peer mesh (protocol-declared dial targets and handshake);
8. protocol post-mesh work (scheduler hello, replay, checkpoint loop);
9. spawn the MPI application thread and idle until told to stop.

Termination semantics are uniform across protocols: a ``Terminate``
order is acknowledged by socket closure *after* the
``TERMINATE_CLEANUP`` delay (the daemon tearing its state down), and a
``Shutdown`` exits immediately.  Protocols plug in by subclassing
:class:`MpichDaemon` and adding a
:class:`repro.mpichv.protocols.ProtocolSpec` to ``PROTOCOLS``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from repro.analysis.coverage import hit_bucket
from repro.cluster.network import ConnectionRefused, Mesh
from repro.cluster.unixproc import UnixProcess
from repro.mpi.endpoint import LocalDelivery, MpiEndpoint
from repro.mpi.message import AppMessage
from repro.mpichv import shardmap, wire
from repro.mpichv.checkpoint import CheckpointImage, node_local_store, snapshot
from repro.mpichv.config import (CONNECT_RETRY_INITIAL, CONNECT_RETRY_MAX,
                                 DAEMON_STARTUP, LOCAL_DISK_BW,
                                 TERMINATE_CLEANUP)
from repro.simkernel.store import StoreClosed


def connect_retry(proc: UnixProcess, addr, backoff_initial: float,
                  backoff_max: float, stop: Callable[[], bool] = lambda: False):
    """Connect with exponential backoff; loops while refused.

    This retry loop is load-bearing for the reproduction: daemons that
    keep retrying a peer that will never come back are *how the
    dispatcher bug manifests as a freeze* (§5.3).
    """
    delay = backoff_initial
    while not stop():
        try:
            sock = yield proc.node.connect(addr, owner=proc)
            return sock
        except ConnectionRefused:
            proc.engine.cover("daemon.connect.refused")
            yield proc.engine.timeout(delay)
            delay = min(delay * 2, backoff_max)
    return None


class MpichDaemon:
    """State, threads and reader handlers shared by every communication
    daemon instance.

    Subclasses set :attr:`protocol` (the protocol's name, also used for
    thread names and the ``proc.tags`` entry) and :attr:`hello_cls`
    (the wire type their mesh handshake uses; ``None`` when the
    protocol builds no peer mesh), and implement the protocol hooks.
    """

    #: name of the protocol this daemon implements (a ``PROTOCOLS`` key)
    protocol: str = "?"
    #: mesh handshake message type accepted by the listener (None: no mesh)
    hello_cls: Optional[type] = None
    #: handlers of the mesh, if there is one: ``on_peer_msg(row, msg)``
    #: per message on mesh row ``row``, ``on_peer_gone(row)`` once its
    #: connection closes (``mesh.rank_of(row)`` is the peer's rank)
    on_peer_msg: Optional[Callable[[int, Any], None]] = None
    on_peer_gone: Optional[Callable[[int], None]] = None

    def __init__(self, proc: UnixProcess, config, rank: int, epoch: int,
                 incarnation: int, app_factory: Callable[[MpiEndpoint], Any]):
        self.proc = proc
        self.engine = proc.engine
        self.network = proc.node.cluster.network
        self.config = config
        self.rank = rank
        self.epoch = epoch
        self.incarnation = incarnation
        self.app_factory = app_factory
        self.n = config.n_procs

        # app-side plumbing: deliveries land directly in the
        # checkpointable state buffer (see repro.mpi.endpoint.Transport)
        self.app_state: dict = {}
        self.init_state_keys()
        self.delivery = LocalDelivery(self.engine, self.app_state,
                                      name=f"{self.protocol}.inbox.r{rank}")
        self.endpoint: Optional[MpiEndpoint] = None

        # mesh: its ``peers`` are the ranks this daemon talks to
        self.mesh: Optional[Mesh] = None
        self.expected_peers = self.n - 1 if self.hello_cls is not None else 0
        self.mesh_ready = self.engine.event(
            name=f"{self.protocol}.mesh.r{rank}")

        # service sockets
        self.disp_sock = None
        self.ckpt_sock = None

        self.terminating = False
        self.finished = False
        self.ckpt_counter = 0
        #: handle of the MPI computation thread (blocking mode freezes it)
        self.app_proc = None
        self.init_protocol()

    # ------------------------------------------------------------------
    # subclass extension points
    # ------------------------------------------------------------------
    def init_state_keys(self) -> None:
        """Seed protocol bookkeeping keys into ``app_state`` (also run
        after a restore, so old images gain any missing keys)."""

    def init_protocol(self) -> None:
        """Initialise protocol-private fields (runs at the end of
        ``__init__``)."""

    def app_send(self, msg: AppMessage) -> None:
        raise NotImplementedError

    def on_mesh_hello(self, row: int, hello) -> None:
        """The mesh connection on ``row``, dialed by
        ``mesh.rank_of(row)``, completed its handshake."""
        raise NotImplementedError

    def connect_services(self, cmd: wire.CommandMap):
        """Generator: dial the services this protocol declares."""
        yield from ()

    def restore_state(self, cmd: wire.CommandMap):
        """Generator: load committed state before joining the mesh."""
        yield from ()

    def mesh_dial_targets(self, cmd: wire.CommandMap) -> Iterable[int]:
        """Peer ranks this daemon actively dials (it accepts the rest)."""
        return range(self.rank)

    def on_peer_connected(self, rows: List[int]) -> None:
        """Dials of ours that landed together reached ``rows`` (the rank
        of each is ``mesh.rank_of(row)``), in dial order: shake hands."""
        raise NotImplementedError

    def after_mesh(self, cmd: wire.CommandMap):
        """Generator: protocol work once the mesh is complete (announce
        to services, replay history, start checkpoint loops, ...)."""
        yield from ()

    # ------------------------------------------------------------------
    # transport interface used by MpiEndpoint
    # ------------------------------------------------------------------
    def app_inbox_get(self):
        return self.delivery.doorbell()

    def app_done(self) -> None:
        self.finished = True
        if self.disp_sock is not None and not self.disp_sock.closed:
            self.disp_sock.send(wire.Done(rank=self.rank))

    def app_thread(self):
        ep = MpiEndpoint(self.rank, self.n, self.app_state, self, self.engine)
        self.endpoint = ep
        yield from self.app_factory(ep)

    # ------------------------------------------------------------------
    # mesh bookkeeping
    # ------------------------------------------------------------------
    @property
    def restarted(self) -> bool:
        return self.incarnation > 1

    def check_mesh(self) -> None:
        if len(self.mesh.peers) == self.expected_peers \
                and not self.mesh_ready.triggered:
            self.mesh_ready.succeed()

    # ------------------------------------------------------------------
    # service dialing helpers
    # ------------------------------------------------------------------
    def connect_service(self, node_name: str, port: int):
        """Generator: dial ``node_name:port`` with the standard backoff."""
        addr = self.proc.node.cluster.node(node_name).addr(port)
        sock = yield from connect_retry(
            self.proc, addr, CONNECT_RETRY_INITIAL, CONNECT_RETRY_MAX)
        return sock

    def connect_ckpt_server(self):
        """Generator: dial this rank's checkpoint-server shard.

        The shard is a pure function of ``(rank, n_ckpt_servers)``
        (:func:`repro.mpichv.shardmap.ckpt_shard`), so every
        incarnation of a rank — including a restart fetching the
        committed image — dials the same server that stored it.
        """
        node, port = shardmap.ckpt_server_for_rank(self.config, self.rank)
        self.ckpt_sock = yield from self.connect_service(node, port)
        return self.ckpt_sock

    # ------------------------------------------------------------------
    # uncoordinated checkpointing (V2/V1-style protocols)
    # ------------------------------------------------------------------
    def independent_ckpt_loop(self):
        """Per-rank snapshots on a staggered timer (no marker waves)."""
        period = self.config.ckpt_period
        # stagger ranks across the period to spread server load
        offset = period * (self.rank + 1) / (self.n + 1)
        first = period + offset - (self.engine.now % period)
        yield self.engine.timeout(max(first, 1.0))
        while not self.terminating:
            self.ckpt_counter += 1
            img = CheckpointImage(
                rank=self.rank, wave=self.ckpt_counter,
                state=snapshot(self.app_state),
                img_size=int(self.config.image_size), complete=True)
            yield from self.write_image(img)
            self.post_checkpoint(img)
            self.engine.log(f"{self.protocol}_ckpt", rank=self.rank,
                            wave=img.wave)
            yield self.engine.timeout(period)

    def post_checkpoint(self, img: CheckpointImage) -> None:
        """Hook: garbage-collection notes after an independent snapshot."""

    def restore_latest_own(self):
        """Generator: load the newest local/remote image of this rank.

        Used by the single-rank-restart protocols (V2, V1) where only
        the failed rank reloads — survivors never roll back.
        """
        waves = node_local_store(self.proc.node).waves_for(self.rank)
        img = yield from self.load_image(waves[-1] if waves else None,
                                         cover=True)
        if img is None:
            return              # nothing stored: fresh start
        self.adopt_state(img.state)
        self.ckpt_counter = img.wave
        self.engine.log("restore", rank=self.rank, wave=img.wave,
                        replayed=0, protocol=self.protocol)

    # ------------------------------------------------------------------
    # checkpoint images (every protocol writes and loads them here)
    # ------------------------------------------------------------------
    def write_image(self, img: CheckpointImage):
        """Generator: the fork-clone of the paper — write ``img`` to the
        node-local disk, then pipeline it to this rank's shard."""
        span = self.engine.span("transfer", lane=self.proc.node.name,
                                rank=self.rank, wave=img.wave,
                                bytes=img.img_size)
        yield self.engine.timeout(img.img_size / LOCAL_DISK_BW)
        node_local_store(self.proc.node).store(img)
        self.on_image_local(img)
        if self.ckpt_sock is not None and not self.ckpt_sock.closed:
            self.ckpt_sock.send(wire.CkptStore(rank=self.rank, wave=img.wave,
                                               state=img.state,
                                               img_size=img.img_size))
        self.engine.end(span)

    def on_image_local(self, img: CheckpointImage) -> None:
        """Hook: the local checkpoint file of ``img`` exists."""

    def load_image(self, wave: Optional[int], cover: bool = False):
        """Generator: this rank's image of ``wave`` — the complete
        node-local file if there is one, else the shard's copy (for
        ``wave=None``, of the shard's committed wave) — or None when
        neither holds it.  ``cover`` counts where it came from in the
        ``daemon.restore.*`` probes."""
        img = node_local_store(self.proc.node).load(self.rank, wave)
        if img is not None and img.complete:
            if cover:
                self.engine.cover("daemon.restore.local")
            yield self.engine.timeout(img.img_size / LOCAL_DISK_BW)
            return img.snapshot_of()
        self.ckpt_sock.send(wire.FetchReq(rank=self.rank, wave=wave))
        resp = yield self.ckpt_sock.recv()
        assert isinstance(resp, wire.FetchResp), resp
        if cover:
            self.engine.cover("daemon.restore.fresh" if resp.wave is None
                              else "daemon.restore.remote")
        if resp.wave is None:
            return None
        return CheckpointImage(rank=self.rank, wave=resp.wave,
                               state=snapshot(resp.state),
                               logs=list(resp.logs), img_size=resp.img_size)

    def adopt_state(self, state: dict) -> None:
        """Make a restored ``state`` the application's: bookkeeping keys
        it lacks are seeded, and deliveries land in it."""
        self.app_state = state
        self.init_state_keys()
        self.delivery.rebind(state)

    # ------------------------------------------------------------------
    # dispatcher connection (uniform across protocols)
    # ------------------------------------------------------------------
    def on_dispatcher_msg(self, msg) -> None:
        """Reader handler of the dispatcher connection (a closure of it
        means the experiment is over: nothing to do)."""
        if isinstance(msg, wire.Terminate):
            self.engine.cover("daemon.terminate_order")
            self.terminating = True
            self.proc.spawn_thread(self._terminator(), name="terminator")
        elif isinstance(msg, wire.Shutdown):
            self.engine.cover("daemon.shutdown_order")
            self.proc.exit()

    def accept_hello(self, row: int, hello) -> None:
        """The mesh's accept side: the connection on ``row`` said its
        first word."""
        if isinstance(hello, self.hello_cls):
            self.on_mesh_hello(row, hello)

    def _terminator(self):
        """Cleanup then clean exit; the dispatcher reads the resulting
        socket closure as the termination acknowledgement."""
        yield self.engine.timeout(
            self.engine.random.uniform(*TERMINATE_CLEANUP))
        self.proc.exit()

    def dispose(self) -> None:
        """Cycle breaking, reached through ``proc.tags`` when the
        process exits."""
        self.endpoint = self.proc = self.mesh = None


def daemon_lifecycle(core_cls, proc: UnixProcess, config, rank: int,
                     epoch: int, incarnation: int, app_factory):
    """Generic main generator of one communication daemon process.

    ``core_cls`` is the :class:`MpichDaemon` subclass implementing the
    protocol; everything else is the paper's daemon lifecycle, shared
    verbatim across the family.
    """
    engine = proc.engine
    proc.site = f"r{rank}"
    cluster = proc.node.cluster
    if incarnation > 1:
        # a restarted rank: the recovery path itself is coverage
        engine.cover(f"daemon.restarted.x{hit_bucket(incarnation - 1)}")
    if epoch > 0:
        engine.cover("daemon.launched_in_restart_epoch")

    # Bind the mesh listener before anything else so peers never race
    # us, and so a daemon that cannot bind builds nothing.
    try:
        listener = proc.node.listen(shardmap.DAEMON_PORT_BASE + rank,
                                    owner=proc)
    except OSError:
        # The port is held by this rank's previous daemon: the
        # dispatcher suspected it across a partition and relaunched
        # while it still runs.  bind() fails, the daemon exits non-zero
        # and the dispatcher relaunches again — modelled behaviour, not
        # a crashed thread.
        proc.abort()
        return

    core = core_cls(proc, config, rank, epoch, incarnation, app_factory)
    proc.tags["vcl"] = core        # FAIL_READ inspects app state here
    proc.tags[core.protocol] = core
    name = core.protocol
    if core.hello_cls is not None:
        core.mesh = Mesh(proc, listener, rank, core.n, core.on_peer_msg,
                         core.on_peer_gone, core.accept_hello,
                         core.on_peer_connected)

    # exec + library initialisation time
    yield engine.timeout(engine.random.uniform(*DAEMON_STARTUP))

    # --- argument exchange with the dispatcher ----------------------------
    disp_addr = cluster.node(shardmap.DISPATCHER_NODE).addr(
        shardmap.DISPATCHER_PORT)
    core.disp_sock = yield from connect_retry(
        proc, disp_addr, CONNECT_RETRY_INITIAL, CONNECT_RETRY_MAX)
    core.disp_sock.send(wire.Register(rank=rank, addr=listener.addr,
                                      epoch=epoch, incarnation=incarnation))
    try:
        ack = yield core.disp_sock.recv()
    except StoreClosed:
        engine.cover("daemon.register_closed")
        proc.abort()
        return
    assert isinstance(ack, wire.RegisterAck), ack

    # The paper's instrumentation boundary: the dispatcher now counts
    # this daemon as running.
    yield from proc.trace_point("localMPI_setCommand")

    try:
        cmd = yield core.disp_sock.recv()
    except StoreClosed:
        engine.cover("daemon.cmdmap_closed")
        proc.abort()
        return
    if isinstance(cmd, wire.Terminate):
        # Uniform termination semantics: cleanup delay, then the socket
        # closure acknowledges — identical for every protocol.
        engine.cover("daemon.terminate_before_cmdmap")
        core.terminating = True
        yield engine.timeout(engine.random.uniform(*TERMINATE_CLEANUP))
        proc.exit()
        return
    if isinstance(cmd, wire.Shutdown):
        engine.cover("daemon.shutdown_before_cmdmap")
        proc.exit()
        return
    assert isinstance(cmd, wire.CommandMap), cmd
    proc.spawn_reader(core.disp_sock, core.on_dispatcher_msg)

    # --- protocol services + state restore --------------------------------
    yield from core.connect_services(cmd)
    if epoch > 0 or incarnation > 1:
        # a recovering daemon (restart epoch or single-rank respawn):
        # the restore phase spans service dialing through state load
        restore_span = engine.span("restore", lane=proc.node.name,
                                   rank=rank, epoch=epoch,
                                   incarnation=incarnation)
        yield from core.restore_state(cmd)
        engine.end(restore_span)
    else:
        yield from core.restore_state(cmd)

    # --- build the peer mesh ----------------------------------------------
    if core.mesh is not None:
        core.mesh.dial([(peer, cmd.addrs[peer])
                        for peer in core.mesh_dial_targets(cmd)],
                       CONNECT_RETRY_INITIAL, CONNECT_RETRY_MAX,
                       stop=lambda: core.terminating)
    if core.expected_peers:
        yield core.mesh_ready

    # --- protocol post-mesh work ------------------------------------------
    yield from core.after_mesh(cmd)

    # --- run the application ----------------------------------------------
    core.app_proc = proc.spawn_thread(core.app_thread(), name=f"mpi.{rank}")

    # Main thread idles; the process lives until Terminate/Shutdown.
    yield engine.event(name=f"{name}.{rank}.forever")
