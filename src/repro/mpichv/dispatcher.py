"""The MPICH-V dispatcher: launch, failure detection, restart.

Failure detection follows the paper exactly: *"A failure is assumed
after any unexpected socket closure"* — and since experiments kill
tasks (not machines), the closure is observed immediately.

Restart protocol (§3 + §5.3): on a failure the dispatcher orders every
surviving communication daemon of the current execution wave to
terminate, and relaunches a daemon on each machine as that machine
frees up (the failed machines are free at once, the surviving ones
when their termination acknowledgement — the socket closure — comes
back).  Relaunched daemons register, and once all N are registered the
dispatcher broadcasts the command map and the recovery wave is over.

THE BUG (``bug_compat=True``, faithful to the paper's diagnosis):
while a restart is in progress **and** terminations of the previous
wave are still pending, the dispatcher attributes *any* socket closure
to the previous wave's cleanup.  If the closed socket actually belonged
to an already-recovered daemon of the *new* wave, that daemon's death
goes unnoticed: its machine is never relaunched, every other daemon
retries connecting to it forever, and the application freezes — the
dispatcher "is confused about the state of each process and forgets to
launch at least one computing node".

The fix (``bug_compat=False``) tags each connection with its execution
epoch, so a new-wave closure during a restart is recognised as a fresh
failure and triggers a new restart wave.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.analysis.coverage import hit_bucket
from repro.cluster.unixproc import UnixProcess
from repro.mpichv import protocols, shardmap, wire

LAUNCHING = "launching"
RUNNING = "running"
RESTARTING = "restarting"
DONE = "done"


class DispatcherState:
    """Observable dispatcher state (tests and the harness read this)."""

    def __init__(self) -> None:
        self.epoch = 0
        self.phase = LAUNCHING
        self.assignment: Dict[int, str] = {}       # rank -> machine name
        self.incarnation: Dict[int, int] = {}
        self.status: Dict[int, str] = {}           # rank -> spawning|registered
        self.reg: Dict[int, Any] = {}              # rank -> socket (current epoch)
        self.addrs: Dict[int, Any] = {}
        self.proc_handles: Dict[int, Any] = {}     # rank -> UnixProcess
        self.pending_term: Dict[int, int] = {}     # rank -> old epoch awaited
        self.done_ranks: Set[int] = set()
        self.last_committed: Optional[int] = None
        self.restore_wave: Optional[int] = None


def dispatcher_main(proc: UnixProcess, config, app_factory,
                    machines: List[str]):
    """Main generator of the dispatcher process."""
    engine = proc.engine
    proc.site = "disp"
    cluster = proc.node.cluster
    n = config.n_procs
    spec = protocols.get_spec(config.protocol)
    daemon_entry = protocols.daemon_main_for(config)
    # message-logging protocols recover by restarting the failed rank
    # alone; coordinated checkpointing rolls the whole application back
    single_rank_restart = config.fault_tolerant and spec.single_rank_restart
    state = DispatcherState()
    proc.tags["disp_state"] = state
    listener = proc.node.listen(shardmap.DISPATCHER_PORT, owner=proc)
    sched_conn = [None]
    # open span rows (None when engine.obs is None): the full-restart
    # relaunch span of the epoch in progress, and the per-rank relaunch
    # spans of message-logging restarts
    epoch_relaunch: List[Any] = [None]
    relaunch_by_rank: Dict[int, Any] = {}

    def close_detect(rank: int, fallback: bool = True,
                     **fields: Any) -> None:
        """End the ``detect`` span of this rank's machine.

        The span was opened by the fault injector on the victim's lane
        (:func:`repro.fail.daemon`); matching on the machine name keeps
        simultaneous kills on different machines from cross-matching.
        A closure with no open span is a *false suspicion* (e.g. a
        partitioned-but-alive daemon): with ``fallback`` set, record a
        zero-length boundary so the phase table still shows the
        recovery row.  Launch deaths pass ``fallback=False`` — a
        partitioned rank respawns in a tight loop, and fabricating a
        span per lap would flood the trace with noise.
        """
        obs = engine.obs
        if obs is None:
            return
        node = state.assignment[rank]
        span = obs.end_oldest("detect", engine.now, match={"node": node},
                              rank=rank, **fields)
        if span is None and fallback:
            engine.end(engine.span("detect", lane=node, node=node, rank=rank,
                                   suspected=True, **fields))

    if len(machines) < n:
        raise ValueError("not enough machines for the requested ranks")
    for rank in range(n):
        state.assignment[rank] = machines[rank]
        state.incarnation[rank] = 0

    # ------------------------------------------------------------------
    # spawning
    # ------------------------------------------------------------------
    def spawn_slot(rank: int) -> None:
        state.incarnation[rank] += 1
        inc = state.incarnation[rank]
        ep = state.epoch
        state.status[rank] = "spawning"
        machine = state.assignment[rank]

        def main(p, _rank=rank, _ep=ep, _inc=inc, _entry=daemon_entry):
            return _entry(p, config, _rank, _ep, _inc, app_factory)

        def watch(up, _rank=rank, _ep=ep, _inc=inc):
            state.proc_handles[_rank] = up
            up.on_exit(lambda p, how: on_spawn_exit(_rank, _ep, _inc))

        cluster.remote_spawn(machine, f"vdaemon.{rank}", main,
                             tags={"rank": rank, "epoch": ep, "incarnation": inc},
                             notify=True, done=watch)

    def on_spawn_exit(rank: int, ep: int, inc: int) -> None:
        """ssh-side observation of the launched child exiting."""
        if state.phase == DONE:
            return
        if ep != state.epoch or inc != state.incarnation[rank]:
            return                      # stale incarnation
        if state.status.get(rank) == "registered":
            return                      # the socket-closure path owns it
        # Death during launch, before the argument exchange finished.
        # Both the buggy and the fixed dispatcher handle this correctly
        # (the paper's bug needs the daemon to be *running* already).
        engine.cover("disp.launch_death")
        engine.log("failure_detected", rank=rank, where="launch")
        close_detect(rank, fallback=False, where="launch")
        spawn_slot(rank)

    # ------------------------------------------------------------------
    # wave management
    # ------------------------------------------------------------------
    def all_registered() -> None:
        cmd = wire.CommandMap(epoch=state.epoch, addrs=dict(state.addrs),
                              restore_wave=state.restore_wave)
        cluster.network.send_all(state.reg.values(), cmd)
        prev = state.phase
        state.phase = RUNNING
        if prev == RESTARTING:
            engine.cover("disp.wave.recovery_complete")
            engine.log("recovery_complete", epoch=state.epoch)
            engine.end(epoch_relaunch[0], ranks=n)
            # catch-up runs from here to the first application progress
            # (closed by Obs.on_log, which Engine.log calls)
            engine.span("catchup", lane=shardmap.DISPATCHER_NODE,
                        epoch=state.epoch)
        else:
            engine.cover("disp.wave.app_start")
            engine.log("app_start", epoch=state.epoch)

    def initiate_restart(failed_ranks: Set[int]) -> None:
        state.epoch += 1
        engine.cover(f"disp.restart.epoch.x{hit_bucket(state.epoch)}")
        engine.cover(f"disp.restart.failed.x{hit_bucket(len(failed_ranks))}")
        state.phase = RESTARTING
        state.restore_wave = state.last_committed
        state.done_ranks.clear()
        engine.log("restart_wave", epoch=state.epoch,
                   restore=state.restore_wave, failed=sorted(failed_ranks))
        # a failure mid-restart starts a fresh wave: the running
        # relaunch span is superseded, not completed
        engine.end(epoch_relaunch[0], superseded=True)
        epoch_relaunch[0] = engine.span(
            "relaunch", lane=shardmap.DISPATCHER_NODE, epoch=state.epoch,
            mode="full", restore=state.restore_wave)
        old_reg, state.reg = state.reg, {}
        state.addrs = {}
        for rank, sock in old_reg.items():
            if rank in failed_ranks or sock.closed:
                spawn_slot(rank)            # machine already free
            else:
                state.pending_term[rank] = state.epoch - 1
                sock.send(wire.Terminate())
        # Ranks that were mid-spawn (no socket yet) get torn down and
        # relaunched for the new epoch — their machine must be freed
        # before the new daemon can bind the port.
        for rank in range(n):
            if rank not in old_reg and rank not in failed_ranks \
                    and rank not in state.pending_term:
                engine.cover("disp.restart.midspawn_teardown")
                handle = state.proc_handles.get(rank)
                if handle is not None and handle.state.alive:
                    handle.kill()
                spawn_slot(rank)

    def finish() -> None:
        state.phase = DONE
        engine.log("app_done", epoch=state.epoch)
        # Stop the engine the moment the application finalizes so the
        # measured execution time is the app_done instant, not whatever
        # cleanup runs afterwards (stop() only flags the run loop,
        # which halts after the current payload).
        engine.stop()
        down = wire.Shutdown()
        cluster.network.send_all(state.reg.values(), down)
        if sched_conn[0] is not None:
            sched_conn[0].send(down)    # the same message: one context
        engine.call_later(2.0, proc.exit)

    # ------------------------------------------------------------------
    # closure attribution — the heart of the reproduction
    # ------------------------------------------------------------------
    def on_closure(rank: int, ep: int, sock) -> None:
        if state.phase == DONE:
            return
        if ep == state.epoch and state.reg.get(rank) is sock:
            # a *current-wave, running* daemon's connection dropped
            if state.phase == RESTARTING and config.bug_compat \
                    and state.pending_term:
                # THE PAPER'S BUG: with terminations of the previous
                # wave outstanding, the closure is booked against that
                # cleanup; the new-wave failure goes unnoticed and the
                # machine is never relaunched.
                engine.cover("disp.closure.bug_misattribution")
                engine.log("bug_misattribution", rank=rank, epoch=ep)
                # the failure *was* observable (the socket closed) but
                # the dispatcher booked it against the old wave — the
                # detect span ends here, marked missed, with no
                # relaunch ever following it
                close_detect(rank, missed=True, epoch=ep)
                return
            engine.cover(f"disp.closure.failure.{state.phase}")
            engine.log("failure_detected", rank=rank, where=state.phase)
            close_detect(rank, where=state.phase, epoch=ep)
            if single_rank_restart:
                # message logging: only the failed rank restarts
                engine.cover("disp.closure.single_rank_restart")
                del state.reg[rank]
                engine.log("restart_wave", epoch=state.epoch,
                           restore=spec.name, failed=[rank])
                engine.end(relaunch_by_rank.get(rank), superseded=True)
                relaunch_by_rank[rank] = engine.span(
                    "relaunch", lane=state.assignment[rank], rank=rank,
                    epoch=state.epoch, mode="single")
                spawn_slot(rank)
            else:
                engine.cover("disp.closure.full_restart")
                initiate_restart({rank})
        else:
            # old-epoch connection: expected termination acknowledgement
            if state.pending_term.get(rank) == ep:
                engine.cover("disp.closure.term_ack")
                del state.pending_term[rank]
                spawn_slot(rank)
            else:
                # stale residue, correctly ignored
                engine.cover("disp.closure.stale")

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def serve_conn(sock) -> None:
        def on_first(first) -> None:
            engine.cover(f"disp.rx.{type(first).__name__}")
            if isinstance(first, wire.WaveCommit):
                # the checkpoint scheduler's commit-note connection
                sched_conn[0] = sock
                on_sched_msg(first)
                reader.retarget(on_sched_msg)
            elif isinstance(first, wire.Register):
                on_register(first)
            else:
                sock.close()

        def on_sched_msg(msg) -> None:
            if isinstance(msg, wire.WaveCommit):
                engine.cover(
                    f"disp.sched.commit.x{hit_bucket(max(1, msg.wave))}")
                state.last_committed = msg.wave

        def on_register(msg) -> None:
            rank, ep, inc = msg.rank, msg.epoch, msg.incarnation
            if state.phase == DONE or ep != state.epoch \
                    or inc != state.incarnation.get(rank):
                engine.cover("disp.reg.stale")
                sock.close()                 # stale or late registration
                return
            state.reg[rank] = sock
            state.addrs[rank] = msg.addr
            state.status[rank] = "registered"
            sock.send(wire.RegisterAck(rank=rank), cause=msg)
            if state.phase == RUNNING and single_rank_restart:
                # single-rank restart: the rest of the system never
                # stopped; hand the newcomer its command map directly.
                engine.cover("disp.reg.single_rank_cmdmap")
                cmd = wire.CommandMap(epoch=state.epoch,
                                      addrs=dict(state.addrs),
                                      restore_wave=None)
                sock.send(cmd, cause=msg)
                engine.log("recovery_complete", epoch=state.epoch, rank=rank,
                           protocol=spec.name)
                engine.end(relaunch_by_rank.pop(rank, None))
                engine.span("catchup", lane=state.assignment[rank], rank=rank,
                            epoch=state.epoch)
            elif len(state.reg) == n and not state.pending_term:
                all_registered()

            # from here on: Done notifications until closure
            def on_daemon_msg(msg) -> None:
                engine.cover(f"disp.rx.{type(msg).__name__}")
                if isinstance(msg, wire.Done):
                    if state.phase == RUNNING and ep == state.epoch:
                        state.done_ranks.add(msg.rank)
                        if len(state.done_ranks) == n:
                            finish()

            reader.retarget(on_daemon_msg,
                            lambda: on_closure(rank, ep, sock))

        reader = proc.spawn_reader(sock, on_first)

    proc.spawn_reader(listener, serve_conn)

    # initial launch
    engine.log("launch", n_procs=n)
    for rank in range(n):
        spawn_slot(rank)

    yield engine.event(name="dispatcher.forever")
