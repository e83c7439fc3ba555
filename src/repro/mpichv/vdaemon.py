"""The MPICH-V communication daemon (Vdaemon) running the Vcl protocol.

One daemon process per MPI rank.  It owns every connection of the rank
(dispatcher, scheduler, its checkpoint-server shard — see
:mod:`repro.mpichv.shardmap` — and the peer mesh), relays
application messages, and implements the *non-blocking* Chandy-Lamport
algorithm:

* on the first marker of a wave it snapshots the MPI process state
  (the fork-clone of the paper).  Delivered-but-unprocessed messages
  are part of that state by construction — the delivery contract of
  :class:`repro.mpi.endpoint.Transport` places every inbound message
  into the checkpointable buffer *before* waking the application, so
  no message can sit in scheduling limbo during a snapshot;
* it then relays the marker on every outgoing channel and, per inbound
  channel, logs messages until that channel's marker arrives;
* the application keeps computing throughout; the image and the logged
  messages stream to the checkpoint server in the background;
* when the image and the channel logs are durably stored, the daemon
  acknowledges the wave to the checkpoint scheduler.

On restart the daemon restores the committed image (node-local disk if
present, checkpoint-server fetch otherwise), replays logged messages
into the application inbox, re-establishes the mesh and resumes the
application from the restored state.

The generic lifecycle (listener, dispatcher exchange, trace point,
mesh build, termination) lives in :mod:`repro.mpichv.daemonbase`; this
module contains only the Chandy-Lamport protocol logic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.mpi.message import AppMessage
from repro.mpichv import shardmap, wire
from repro.mpichv.checkpoint import CheckpointImage, snapshot
from repro.mpichv.daemonbase import MpichDaemon
from repro.obs import causal

__all__ = ["VclDaemon"]


class VclDaemon(MpichDaemon):
    """Chandy-Lamport protocol logic of one communication daemon."""

    protocol = "vcl"
    hello_cls = wire.Hello

    def init_protocol(self) -> None:
        #: blocking variant: arrivals on already-flushed channels, held
        #: out of the snapshot until the wave ends
        self.post_flush: List[AppMessage] = []

        # Chandy-Lamport bookkeeping
        self.current_wave = 0
        self.logging_wave: Optional[int] = None
        self.pending_markers: Set[int] = set()
        self.wave_img: Optional[CheckpointImage] = None
        self.late_logs: List[AppMessage] = []
        self.store_acks: Dict[int, int] = {}     # wave -> acks received (need 2)
        self.logging_done: Set[int] = set()

        self.sched_sock = None

    # ------------------------------------------------------------------
    # transport interface used by MpiEndpoint
    # ------------------------------------------------------------------
    def app_send(self, msg: AppMessage) -> None:
        if msg.dst == self.rank:
            self.delivery.deliver(msg)
            return
        row = self.mesh.attached[msg.dst]
        if row >= 0:
            dm = wire.DataMsg(msg)
            causal.adopt(dm, msg)   # the envelope continues the trace
            self.mesh.send(row, dm)
        # else: peer dead — a failure is being detected; the rollback
        # will discard this whole execution line anyway.

    # ------------------------------------------------------------------
    # Chandy-Lamport
    # ------------------------------------------------------------------
    def handle_marker(self, marker: wire.Marker) -> None:
        wave = marker.wave
        if wave <= self.current_wave:
            return                      # duplicate / stale marker
        if self.logging_wave is None and wave > self.current_wave:
            self._begin_local_checkpoint(wave, from_rank=marker.src_rank,
                                         cause=marker)
        if marker.src_rank >= 0 and self.logging_wave == wave:
            self.pending_markers.discard(marker.src_rank)
            if not self.pending_markers:
                self._finish_logging()

    def _begin_local_checkpoint(self, wave: int, from_rank: int,
                                cause=None) -> None:
        self.logging_wave = wave
        self.store_acks[wave] = 0
        if self.config.blocking:
            # Blocking variant (§3): freeze the computation, flush the
            # channels with the markers, snapshot afterwards.
            if self.app_proc is not None and self.app_proc.alive:
                self.app_proc.suspend()
            self.wave_img = None
            self.late_logs = []
            self.post_flush = []
        else:
            # Non-blocking Vcl: snapshot now (the fork).  The copy of
            # the MPI process state already contains every delivered
            # message (delivery contract), so the image needs no
            # separate in-buffer capture — only the channel-state
            # messages still to arrive (late_logs).
            self.wave_img = CheckpointImage(
                rank=self.rank, wave=wave,
                state=snapshot(self.app_state),
                logs=[], img_size=int(self.config.image_size))
            self.late_logs = []
        # Relay the marker on every outgoing channel: one flood.
        out_marker = wire.Marker(wave=wave, src_rank=self.rank)
        causal.derive(self.engine, out_marker, self.site, cause)
        self.mesh.send_all(self.mesh.peers, out_marker)
        self.pending_markers = set(r for r in range(self.n) if r != self.rank)
        if from_rank >= 0:
            self.pending_markers.discard(from_rank)
        if not self.config.blocking:
            # Background transfer of the image (clone + pipeline of paper).
            self.proc.spawn_thread(self.write_image(self.wave_img),
                                   name=f"vdaemon.{self.rank}.ckpt{wave}")
        if not self.pending_markers:
            self._finish_logging()

    def _finish_logging(self) -> None:
        wave = self.logging_wave
        if wave is None:
            return
        self.logging_wave = None
        self.current_wave = wave
        self.logging_done.add(wave)
        if self.config.blocking:
            # Channels are flushed (all markers in, computation frozen):
            # snapshot now — the flushed channel contents are already
            # in the state buffer.  Messages from channels that flushed
            # early (post-marker sends by peers) were held back; they
            # belong to the next execution interval, so deliver them
            # only after the snapshot is taken.
            img = CheckpointImage(
                rank=self.rank, wave=wave,
                state=snapshot(self.app_state),
                logs=[], img_size=int(self.config.image_size),
                complete=True)
            self.wave_img = img
            held, self.post_flush = self.post_flush, []
            for msg in held:
                self.delivery.deliver(msg)
            self.proc.spawn_thread(self.write_image(img),
                                   name=f"vdaemon.{self.rank}.ckpt{wave}")
            return
        img = self.wave_img
        img.logs.extend(self.late_logs)
        img.complete = True
        if self.ckpt_sock is not None and not self.ckpt_sock.closed:
            append = wire.CkptLogAppend(rank=self.rank, wave=wave,
                                        logs=list(self.late_logs))
            causal.stamp(self.engine, append, self.site)
            self.ckpt_sock.send(append)
        self.late_logs = []

    def on_image_local(self, img: CheckpointImage) -> None:
        if self.config.blocking and self.app_proc is not None \
                and self.app_proc.alive:
            # blocking variant: computation resumes once the local
            # checkpoint file exists
            self.app_proc.resume()

    def _note_store_ack(self, wave: int) -> None:
        self.store_acks[wave] = self.store_acks.get(wave, 0) + 1
        self._maybe_ack_scheduler(wave)

    def _maybe_ack_scheduler(self, wave: int) -> None:
        # Local checkpoint is finished when the image AND (non-blocking
        # only) the channel logs are durably stored, and logging ended.
        needed = 1 if self.config.blocking else 2
        if (self.store_acks.get(wave, 0) >= needed
                and wave in self.logging_done
                and self.sched_sock is not None and not self.sched_sock.closed):
            ack = wire.SchedAck(rank=self.rank, wave=wave)
            causal.stamp(self.engine, ack, self.site)
            self.sched_sock.send(ack)

    def on_data(self, from_rank: int, msg: AppMessage) -> None:
        if self.logging_wave is not None:
            if self.config.blocking:
                if from_rank not in self.pending_markers:
                    # blocking: the channel already flushed — this is a
                    # post-snapshot message; hold it out of the image
                    self.post_flush.append(msg)
                    return
            elif from_rank in self.pending_markers:
                # non-blocking channel state: received after our
                # snapshot, sent before the peer's marker -> log it
                # (and deliver: the application never stalls).
                self.late_logs.append(msg)
        self.delivery.deliver(msg)

    # ------------------------------------------------------------------
    # reader handlers
    # ------------------------------------------------------------------
    def on_peer_msg(self, row: int, msg) -> None:
        if isinstance(msg, wire.Marker):
            self.handle_marker(msg)
        elif isinstance(msg, wire.DataMsg):
            self.on_data(self.mesh.rank_of(row), msg.app)

    def on_sched_msg(self, msg) -> None:
        if isinstance(msg, wire.Marker):
            self.handle_marker(msg)

    def on_ckpt_msg(self, msg) -> None:
        if isinstance(msg, wire.CkptStoredAck):
            self._note_store_ack(msg.wave)
        # FetchResp is consumed inline by load_image(); it only occurs
        # before this reader is spawned.

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def on_mesh_hello(self, row: int, hello) -> None:
        self.mesh.join(row)
        self.mesh.serve(row)
        self.check_mesh()

    def connect_services(self, cmd):
        if not self.config.fault_tolerant:
            return
        self.sched_sock = yield from self.connect_service(
            shardmap.COORDINATOR_NODE, self.config.scheduler_port)
        yield from self.connect_ckpt_server()

    def restore_state(self, cmd):
        """Roll back to the committed image (none: start afresh) and
        replay its channel state, before joining the mesh."""
        img = None
        if self.config.fault_tolerant and cmd.restore_wave is not None:
            img = yield from self.load_image(cmd.restore_wave)
        self.adopt_state({} if img is None else img.state)
        if img is not None:
            self.current_wave = img.wave
            for logged in img.logs:
                self.delivery.deliver(logged)
            self.engine.log("restore", rank=self.rank, wave=img.wave,
                            replayed=len(img.logs),
                            buffered=len(self.app_state.get("_mpi_unmatched", [])))
            if img.logs:
                # channel-state redelivery is instantaneous in Vcl (the
                # logs rode inside the image): a zero-length replay phase
                self.engine.span("replay", lane=self.proc.node.name,
                                 rank=self.rank, wave=img.wave,
                                 replayed=len(img.logs)).close()
        if self.config.fault_tolerant:
            self.proc.spawn_reader(self.ckpt_sock, self.on_ckpt_msg)

    def on_peer_connected(self, rows: List[int]) -> None:
        for row in rows:
            self.on_mesh_hello(row, None)   # as the accept side does
        # one Hello flood; observed, a stamped copy per row
        hellos = [wire.Hello(rank=self.rank, epoch=self.epoch)
                  for _ in (rows if self.engine.obs else rows[:1])]
        for hello in hellos:
            causal.stamp(self.engine, hello, self.site)
        self.mesh.send_all(rows, hellos if self.engine.obs else hellos[0])

    def after_mesh(self, cmd):
        # Announce to the scheduler only once the mesh is complete, so a
        # marker wave can never catch this daemon with missing outgoing
        # channels (which would strand the wave).
        if self.config.fault_tolerant:
            shello = wire.SchedHello(rank=self.rank, epoch=self.epoch)
            causal.stamp(self.engine, shello, self.site)
            self.sched_sock.send(shello)
            self.proc.spawn_reader(self.sched_sock, self.on_sched_msg)
        yield from ()
