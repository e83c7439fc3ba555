"""The V2 communication daemon: pessimistic sender-based message
logging with uncoordinated checkpointing (MPICH-V2, [BCH+03] in the
paper's related work; the ``V2`` box of its Fig. 2a).

Contrast with Vcl:

* checkpoints are **per-rank and independent** (no marker waves, no
  checkpoint scheduler); each rank snapshots on its own staggered
  timer;
* every outbound message is kept in the **sender's volatile log**
  (pruned when the receiver's checkpoint covers it);
* every delivery is recorded at a **stable event logger** *before* the
  message reaches the application — the pessimistic property that
  makes single-failure recovery orphan-free;
* on a failure **only the failed rank restarts**: it reloads its own
  latest image, fetches its post-snapshot delivery history from the
  event logger, asks each peer to re-send logged messages, and
  re-executes deterministically — survivors keep running, deduplicate
  the re-sent traffic by sequence number, and never roll back.

Known (and faithful) limitation: with *simultaneous* failures the
senders' volatile logs needed by one recovering rank may have died
with another — recovery can then stall, which is precisely the kind of
behaviour the FAIL-MPI scenarios of the paper are designed to expose.
(MPICH-V1's remote channel memories, :mod:`repro.mpichv.v1daemon`,
trade per-message latency for immunity to exactly this.)

Checkpoint-safety bookkeeping lives inside the application state dict
(``_v2_delivered``, ``_v2_sent``, ``_v2_pos``), written by the daemon
in the same atomic step as the delivery/send it describes, so every
snapshot is internally consistent.  The per-peer counters are sparse
(an absent peer reads 0): an image copies only the peers touched.

The generic daemon lifecycle lives in :mod:`repro.mpichv.daemonbase`;
this module contains only the message-logging protocol logic.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

from repro.mpi.message import AppMessage
from repro.mpichv import shardmap, wire
from repro.mpichv.checkpoint import CheckpointImage
from repro.mpichv.daemonbase import MpichDaemon
from repro.obs import causal

DELIVERED = "_v2_delivered"
SENT = "_v2_sent"
POS = "_v2_pos"


class V2Daemon(MpichDaemon):
    """Sender-based message-logging logic of one daemon instance."""

    protocol = "v2"
    hello_cls = wire.V2Hello

    def init_state_keys(self) -> None:
        self.app_state.setdefault(DELIVERED, {})
        self.app_state.setdefault(SENT, {})
        self.app_state.setdefault(POS, 0)

    def init_protocol(self) -> None:
        #: sender-side volatile logs: dst -> deque of (seq, AppMessage),
        #: made by the first send to dst — an empty deque per peer is
        #: half a kilobyte, O(N²) over the deployment
        self.send_log: Dict[int, deque] = {}

        #: pessimistic delivery pipeline: held messages awaiting their
        #: event-logger ack, in log order
        self.held: deque = deque()          # (pos, src, src_seq, AppMessage)
        self.next_pos_to_log = None         # filled from state at start

        #: replay mode: delivery events to reproduce, staged messages.
        #: A restarted incarnation starts *already* in replay mode:
        #: peers re-send their logged messages the moment the mesh
        #: handshake completes, which races the event-log fetch in
        #: :meth:`after_mesh` — delivering those early arrivals through
        #: the normal path can skip sequence numbers (``DELIVERED[src] =
        #: seq`` jumps the gap) and the dedup then drops the skipped
        #: messages forever, deadlocking the application.  Staging until
        #: :meth:`begin_replay` preserves the logged delivery order.
        self.replaying = self.restarted
        self.replay_events: deque = deque()            # (src, src_seq)
        self.staging: Dict[Tuple[int, int], AppMessage] = {}
        #: replay mode may only end once the delivery history has been
        #: fetched (begin_replay ran) — a resend arriving earlier must
        #: stay staged, not trick _drain_replay into an early exit
        self.history_fetched = not self.restarted
        #: the open ``replay`` span row of :meth:`begin_replay`
        self._replay_span = None

        self.evlog_sock = None

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
        log = self.send_log.get(msg.dst)
        if log is None:
            log = self.send_log[msg.dst] = deque()
        log.append((seq, msg))
        row = self.mesh.attached[msg.dst]
        if row >= 0:
            data = wire.V2Data(app=msg, seq=seq)
            causal.adopt(data, msg)     # envelope continues the trace
            self.mesh.send(row, data)
        # else: peer down — the log holds it until the new incarnation
        # dials in and requests a resend.

    # ------------------------------------------------------------------
    # inbound data path (pessimistic logging)
    # ------------------------------------------------------------------
    def on_data(self, src: int, seq: int, msg: AppMessage) -> None:
        delivered = self.app_state[DELIVERED]
        if seq <= delivered.get(src, 0):
            return                      # duplicate (re-sent/re-executed)
        if self.replaying:
            self.staging[(src, seq)] = msg
            self._drain_replay()
            return
        self._log_then_deliver(src, seq, msg)

    def _log_then_deliver(self, src: int, seq: int, msg: AppMessage) -> None:
        pos = self.next_pos_to_log + 1
        self.next_pos_to_log = pos
        self.held.append((pos, src, seq, msg))
        if self.evlog_sock is not None and not self.evlog_sock.closed:
            # the log record is caused by the message's arrival
            self.evlog_sock.send(wire.EvLog(rank=self.rank, pos=pos, src=src,
                                            src_seq=seq), cause=msg)

    def on_evlog_ack(self, pos: int) -> None:
        # acks arrive in order (FIFO connection); deliver the head
        while self.held and self.held[0][0] <= pos:
            _pos, src, seq, msg = self.held.popleft()
            self._deliver_now(src, seq, msg)

    def _deliver_now(self, src: int, seq: int, msg: AppMessage) -> None:
        # atomic with the buffer append: counters are in the same state
        self.app_state[DELIVERED][src] = seq
        self.app_state[POS] += 1
        self.delivery.deliver(msg)

    # ------------------------------------------------------------------
    # replay (restart of this rank only)
    # ------------------------------------------------------------------
    def begin_replay(self, events: List[Tuple[int, int]]) -> None:
        self.replay_events = deque(events)
        self.replaying = True
        self.history_fetched = True
        if self.replay_events:
            self.engine.log("v2_replay_start", rank=self.rank,
                            events=len(self.replay_events))
            self._replay_span = self.engine.span(
                "replay", lane=self.proc.node.name, rank=self.rank,
                replayed=len(self.replay_events))
        self._drain_replay()

    def _drain_replay(self) -> None:
        while self.replaying and self.replay_events:
            src, seq = self.replay_events[0]
            msg = self.staging.pop((src, seq), None)
            if msg is None:
                return                  # wait for the re-send to arrive
            self.replay_events.popleft()
            # already on the event log: deliver without re-logging
            self._deliver_now(src, seq, msg)
        if self.replaying and not self.replay_events and self.history_fetched:
            # replay finished (or the fetched history was empty); flush
            # anything that arrived while staged.  history_fetched keeps
            # a pre-fetch resend from ending replay mode early — it must
            # wait for the event-log response it might belong to.
            self.replaying = False
            # Replayed deliveries advanced POS without logging (their
            # events are already stable); resume logging *after* them,
            # or fresh events would collide with existing positions and
            # be dropped by the logger's idempotence check — corrupting
            # the history the next restore of this rank replays.
            self.next_pos_to_log = max(self.next_pos_to_log,
                                       self.app_state[POS])
            self.engine.log("v2_replay_done", rank=self.rank)
            self.engine.end(self._replay_span)
            # post-replay traffic processes through the normal
            # pessimistic path, in (src, seq) order per source
            for (src, seq) in sorted(self.staging):
                msg = self.staging.pop((src, seq))
                if seq > self.app_state[DELIVERED].get(src, 0):
                    self._log_then_deliver(src, seq, msg)

    # ------------------------------------------------------------------
    # peer handling
    # ------------------------------------------------------------------
    def attach_peer(self, row: int, resend_from: int) -> None:
        # talk to the peer over ``row`` from now on; a connection it
        # still had (a dial each way, or an unread close) is closed
        mesh = self.mesh
        peer_rank = mesh.rank_of(row)
        old = mesh.attached[peer_rank]
        if old >= 0 and old != row:
            mesh.close_end(old, True)
        mesh.join(row)
        if resend_from:
            for seq, msg in self.send_log.get(peer_rank, ()):
                if seq >= resend_from:
                    data = wire.V2Data(app=msg, seq=seq)
                    causal.adopt(data, msg)     # replay: same trace, new hop
                    mesh.send(row, data)
        self.check_mesh()

    def on_peer_msg(self, row: int, msg) -> None:
        if isinstance(msg, wire.V2Data):
            self.on_data(self.mesh.rank_of(row), msg.seq, msg.app)
        elif isinstance(msg, wire.V2GcNote):
            log = self.send_log.get(msg.rank)
            while log and log[0][0] <= msg.upto:
                log.popleft()

    def on_peer_gone(self, row: int) -> None:
        # peer failed: keep its slot; the new incarnation dials in
        self.mesh.leave(row)

    def on_evlog_msg(self, msg) -> None:
        if isinstance(msg, wire.EvLogAck):
            self.on_evlog_ack(msg.pos)

    # ------------------------------------------------------------------
    # independent checkpointing (loop shared with V1 via the base)
    # ------------------------------------------------------------------
    def post_checkpoint(self, img: CheckpointImage) -> None:
        # sender logs + event log can be pruned up to this image
        mesh, delivered = self.mesh, img.state[DELIVERED]
        mesh.send_all(mesh.peers, [
            wire.V2GcNote(rank=self.rank,
                          upto=delivered.get(mesh.rank_of(row), 0))
            for row in mesh.peers])
        if self.evlog_sock is not None and not self.evlog_sock.closed:
            self.evlog_sock.send(wire.EvPrune(rank=self.rank,
                                              upto=img.state[POS]))

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def on_mesh_hello(self, row: int, hello) -> None:
        self.mesh.serve(row)
        self.attach_peer(row, hello.resend_from)

    def connect_services(self, cmd):
        yield from self.connect_ckpt_server()
        self.evlog_sock = yield from self.connect_service(
            shardmap.COORDINATOR_NODE, shardmap.EVENTLOG_PORT)

    def restore_state(self, cmd):
        if self.restarted:
            yield from self.restore_latest_own()
        self.next_pos_to_log = self.app_state[POS]

    def mesh_dial_targets(self, cmd):
        # initial launch: dial lower ranks; a restarted incarnation dials
        # everyone (survivors only accept)
        if not self.restarted:
            return range(self.rank)
        return [r for r in range(self.n) if r != self.rank]

    def on_peer_connected(self, rows: List[int]) -> None:
        for row in rows:        # a hello each; an attach may close a row
            peer_rank = self.mesh.rank_of(row)
            resend_from = (self.app_state[DELIVERED].get(peer_rank, 0) + 1
                           if self.restarted else 0)
            self.mesh.send(row, wire.V2Hello(rank=self.rank,
                                             incarnation=self.incarnation,
                                             resend_from=resend_from))
            self.mesh.serve(row)
            self.attach_peer(row, 0)

    def after_mesh(self, cmd):
        # --- replay the delivery history of a restarted incarnation ---
        if self.restarted:
            self.evlog_sock.send(wire.EvFetch(rank=self.rank,
                                              after=self.app_state[POS]))
            resp = yield self.evlog_sock.recv()
            assert isinstance(resp, wire.EvFetchResp), resp
            self.begin_replay(list(resp.events))
        self.proc.spawn_reader(self.evlog_sock, self.on_evlog_msg)
        self.proc.spawn_thread(self.independent_ckpt_loop(),
                               name=f"v2.{self.rank}.ckpt")
