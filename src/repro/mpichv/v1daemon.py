"""The V1 communication daemon: remote pessimistic logging through
Channel Memories (MPICH-V1, the ``V1`` box of the paper's Fig. 2a).

Contrast with the other family members:

* like V2, checkpoints are per-rank and independent (no marker waves)
  and a failure restarts **only the failed rank**;
* unlike V2, nothing fault-critical is kept in volatile daemon memory:
  every application message transits the receiver's home **Channel
  Memory**, which logs it durably *before* forwarding it — remote
  pessimistic logging.  The price is a double network hop per message;
  the payoff is that **simultaneous failures are tolerated**: each
  recovering rank independently replays its delivery history from its
  CM, with no dependence on other (possibly also dead) ranks' state;
* daemons build **no peer mesh** — their only data connections are to
  the Channel Memories.

Recovery of rank ``r``: the new incarnation reloads ``r``'s latest
image (delivery position ``D``, per-destination send counters),
re-attaches to its home CM with ``CMAttach(r, after=D)``, and the CM
replays the logged messages past ``D`` in their original order while
the application deterministically re-executes.  Messages ``r`` re-sends
during re-execution carry the same channel sequence numbers and are
deduplicated at the destination CMs.

Bookkeeping lives in the application state dict (``_v1_delivered``,
``_v1_sent``), updated in the same atomic step as the delivery/send it
describes, so every snapshot is internally consistent.  ``_v1_sent``
is sparse (an absent destination reads 0): an image copies only those sent to.
"""

from __future__ import annotations

from repro.mpi.message import AppMessage
from repro.mpichv import shardmap, wire
from repro.mpichv.checkpoint import CheckpointImage
from repro.mpichv.daemonbase import MpichDaemon
from repro.obs import causal

DELIVERED = "_v1_delivered"      # position in the home CM's delivery order
SENT = "_v1_sent"                # dst -> last channel seq sent (sparse)


def home_cm(rank: int, n_channel_memories: int) -> int:
    """Index of the Channel Memory that owns ``rank``'s delivery log."""
    return rank % n_channel_memories


class V1Daemon(MpichDaemon):
    """Channel-memory protocol logic of one daemon instance."""

    protocol = "v1"
    hello_cls = None            # no peer mesh: all traffic transits CMs

    def init_state_keys(self) -> None:
        self.app_state.setdefault(DELIVERED, 0)
        self.app_state.setdefault(SENT, {})

    def init_protocol(self) -> None:
        ncm = self.config.n_channel_memories
        self.cm_socks = [None] * ncm
        self.home_cm = home_cm(self.rank, ncm)

    # ------------------------------------------------------------------
    # transport interface used by MpiEndpoint
    # ------------------------------------------------------------------
    def app_send(self, msg: AppMessage) -> None:
        if msg.dst == self.rank:
            # self-sends need no fault-tolerance plumbing
            self.delivery.deliver(msg)
            return
        sent = self.app_state[SENT]
        seq = sent[msg.dst] = sent.get(msg.dst, 0) + 1
        sock = self.cm_socks[home_cm(msg.dst, len(self.cm_socks))]
        if sock is not None and not sock.closed:
            put = wire.CMPut(src=self.rank, dst=msg.dst, seq=seq, app=msg)
            causal.adopt(put, msg)      # first hop of the double transit
            sock.send(put)
        # CMs live on service nodes and never fail in our scenarios, so
        # a closed socket here only happens during daemon teardown.

    # ------------------------------------------------------------------
    # inbound data path (the CM already logged the message)
    # ------------------------------------------------------------------
    def on_deliver(self, pos: int, msg: AppMessage) -> None:
        if pos <= self.app_state[DELIVERED]:
            return          # duplicate (replay overlapping live traffic)
        # atomic with the buffer append: the counter is in the same state
        self.app_state[DELIVERED] = pos
        self.delivery.deliver(msg)

    def on_cm_msg(self, msg) -> None:
        if isinstance(msg, wire.CMDeliver):
            self.on_deliver(msg.pos, msg.app)

    # ------------------------------------------------------------------
    # independent checkpointing (loop shared with V2 via the base)
    # ------------------------------------------------------------------
    def post_checkpoint(self, img: CheckpointImage) -> None:
        # the home CM may discard log entries this image covers
        sock = self.cm_socks[self.home_cm]
        if sock is not None and not sock.closed:
            sock.send(wire.CMPrune(rank=self.rank,
                                   upto=img.state[DELIVERED]))

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def connect_services(self, cmd):
        yield from self.connect_ckpt_server()
        for i in range(len(self.cm_socks)):
            self.cm_socks[i] = yield from self.connect_service(
                shardmap.cm_node(self.config, i),
                shardmap.cm_port(i))

    def restore_state(self, cmd):
        if self.restarted:
            yield from self.restore_latest_own()

    def after_mesh(self, cmd):
        # (Re)bind the forwarding channel: the CM replays everything
        # past the restored delivery position, then streams live.
        sock = self.cm_socks[self.home_cm]
        sock.send(wire.CMAttach(rank=self.rank,
                                after=self.app_state[DELIVERED]))
        self.proc.spawn_reader(sock, self.on_cm_msg)
        self.proc.spawn_thread(self.independent_ckpt_loop(),
                               name=f"v1.{self.rank}.ckpt")
        yield from ()
