"""The checkpoint scheduler (paper §3, "Checkpoint Scheduler").

Sends a marker wave to every MPI process on a fixed period (30 s in
the paper), waits for every rank's acknowledgement before declaring the
wave complete, and only then may a new wave start.  The tick grid is
anchored to absolute time (t = k·period), which is what creates the
phase interplay between faults and waves behind the paper's Fig. 5
"every 45 s" anomaly.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.cluster.unixproc import UnixProcess
from repro.mpichv import shardmap, wire
from repro.mpichv.daemonbase import connect_retry
from repro.obs import causal

#: the scheduler redials a service that refused it every 50 ms
RETRY_DELAY = 0.05


class SchedulerState:
    """Introspectable state of the scheduler (tests reach in here)."""

    def __init__(self) -> None:
        self.wave_id = 0
        self.in_progress = False
        self.acks: Set[int] = set()
        self.committed_wave: Optional[int] = None
        #: rank -> socket of currently-connected daemons
        self.conns: Dict[int, object] = {}
        self.waves_started = 0
        self.waves_committed = 0
        self.waves_aborted = 0


def scheduler_main(proc: UnixProcess, config):
    """Main generator of the checkpoint scheduler process."""
    engine = proc.engine
    state = SchedulerState()
    proc.tags["sched_state"] = state
    n = config.n_procs
    network = proc.node.cluster.network
    listener = proc.node.listen(config.scheduler_port, owner=proc)

    server_socks = []
    dispatcher_sock = [None]
    #: the open ``ckpt_wave`` span of the wave in progress
    wave_span = [None]

    def connect_services():
        # every checkpoint-server shard: wave commits must reach all of
        # them, or a shard could serve an uncommitted image on restart
        for i in range(config.n_ckpt_servers):
            addr = proc.node.cluster.node(shardmap.ckpt_server_node(i)).addr(
                shardmap.ckpt_server_port(config, i))
            server_socks.append((yield from connect_retry(
                proc, addr, RETRY_DELAY, RETRY_DELAY)))
        # dispatcher (for commit notes)
        addr = proc.node.cluster.node(shardmap.DISPATCHER_NODE).addr(
            config.dispatcher_port)
        dispatcher_sock[0] = yield from connect_retry(
            proc, addr, RETRY_DELAY, RETRY_DELAY)

    proc.spawn_thread(connect_services(), name="sched.connect")

    def abort_wave(reason: str) -> None:
        if state.in_progress:
            state.in_progress = False
            state.acks.clear()
            state.waves_aborted += 1
            engine.log("ckpt_wave_abort", wave=state.wave_id, reason=reason)
            span = wave_span[0]
            if span is not None:
                span.close(aborted=True, reason=reason)
                wave_span[0] = None

    def commit_wave(cause=None) -> None:
        state.in_progress = False
        state.committed_wave = state.wave_id
        state.waves_committed += 1
        engine.log("ckpt_wave_complete", wave=state.wave_id)
        # the commit point is a boundary, not an interval — a
        # zero-length child closing the wave
        engine.span("commit", lane=shardmap.COORDINATOR_NODE,
                    wave=state.wave_id).close()
        span = wave_span[0]
        if span is not None:
            span.close(acks=n)
            wave_span[0] = None
        note = wire.WaveCommit(wave=state.wave_id)
        # the commit is caused by the last ack that completed the wave
        causal.derive(engine, note, "sched", cause)
        network.send_all(server_socks, note)
        disp = dispatcher_sock[0]
        if disp is not None and not disp.closed:
            disp.send(note)

    def serve_daemon(sock) -> None:
        rank = None

        def on_msg(msg) -> None:
            nonlocal rank
            if isinstance(msg, wire.SchedHello):
                rank = msg.rank
                state.conns[rank] = sock
            elif isinstance(msg, wire.SchedAck):
                if state.in_progress and msg.wave == state.wave_id:
                    state.acks.add(msg.rank)
                    if len(state.acks) == n:
                        commit_wave(msg)
            elif isinstance(msg, wire.Shutdown):
                engine.call_later(0.0, proc.kill)
                reader.kill()

        def on_gone() -> None:
            if rank is not None and state.conns.get(rank) is sock:
                del state.conns[rank]
                # A participant vanished: the wave cannot complete.
                abort_wave(f"rank {rank} disconnected")

        reader = proc.spawn_reader(sock, on_msg, on_gone)

    proc.spawn_reader(listener, serve_daemon)

    # --- the tick grid: absolute multiples of ckpt_period ------------------
    tick = 1
    while True:
        next_t = tick * config.ckpt_period
        delay = next_t - engine.now
        if delay > 0:
            yield engine.timeout(delay)
        tick += 1
        if state.in_progress:
            continue            # previous wave still draining
        if len(state.conns) < n:
            continue            # system not stable (launch or recovery)
        state.wave_id += 1
        state.in_progress = True
        state.acks = set()
        state.waves_started += 1
        engine.log("ckpt_wave_start", wave=state.wave_id)
        wave_span[0] = engine.span("ckpt_wave",
                                   lane=shardmap.COORDINATOR_NODE,
                                   wave=state.wave_id)
        # marker broadcast happens at this instant: zero-length child
        engine.span("initiate", lane=shardmap.COORDINATOR_NODE,
                    wave=state.wave_id, ranks=n).close()
        marker = wire.Marker(wave=state.wave_id, src_rank=-1)
        causal.stamp(engine, marker, "sched")
        network.send_all(state.conns.values(), marker)
