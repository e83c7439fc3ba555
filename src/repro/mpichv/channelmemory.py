"""The Channel Memory service of the V1 protocol (MPICH-V1).

MPICH-V1 routes *every* application message through a stable Channel
Memory (CM) associated with the receiver: the sender's daemon puts the
message at the receiver's home CM, the CM appends it to the receiver's
totally-ordered log, and only then forwards it.  Because the log write
precedes the delivery, the logging is pessimistic — and because the
log lives on a stable service node rather than in the senders'
volatile memory (V2's approach), a recovering rank can always replay
its exact delivery history from its CM, even when *several* ranks
failed at the same instant.

The CM keeps, per receiver rank it is home to:

* the ordered message log ``(pos, src, seq, message)`` with ``pos``
  monotonically increasing (pruning never reuses positions);
* the last channel sequence number seen per sender, to drop the
  duplicate puts a recovering sender regenerates while re-executing;
* the forwarding socket of the currently-attached receiver daemon.

``CMAttach(rank, after)`` (re)binds the forwarding socket and replays
every logged entry past ``after`` — the whole V1 recovery protocol.
``CMPrune`` discards entries a receiver checkpoint covers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.unixproc import UnixProcess
from repro.mpi.message import AppMessage
from repro.mpichv import shardmap, wire

#: log entry: (pos, src, src_seq, message)
LogEntry = Tuple[int, int, int, AppMessage]


class ChannelMemoryState:
    """Per-receiver ordered message logs (introspectable)."""

    def __init__(self) -> None:
        #: dst -> ordered log entries; pos strictly increasing
        self.logs: Dict[int, List[LogEntry]] = {}
        #: dst -> next position counter (survives pruning)
        self.next_pos: Dict[int, int] = {}
        #: dst -> src -> last channel seq logged (dedup for re-sends)
        self.last_seq: Dict[int, Dict[int, int]] = {}
        self.logged = 0
        self.duplicates = 0
        self.forwarded = 0
        self.pruned = 0

    def record(self, src: int, dst: int, seq: int,
               msg: AppMessage) -> Optional[int]:
        """Append one put to ``dst``'s log; None if it is a duplicate."""
        chan = self.last_seq.setdefault(dst, {})
        if seq <= chan.get(src, 0):
            self.duplicates += 1
            return None
        chan[src] = seq
        pos = self.next_pos.get(dst, 0) + 1
        self.next_pos[dst] = pos
        self.logs.setdefault(dst, []).append((pos, src, seq, msg))
        self.logged += 1
        return pos

    def replay_after(self, dst: int, after: int) -> List[LogEntry]:
        return [e for e in self.logs.get(dst, []) if e[0] > after]

    def prune(self, dst: int, upto: int) -> None:
        entries = self.logs.get(dst)
        if entries:
            kept = [e for e in entries if e[0] > upto]
            self.pruned += len(entries) - len(kept)
            self.logs[dst] = kept


def channel_memory_main(proc: UnixProcess, config, index: int):
    """Main generator of one channel-memory service process."""
    engine = proc.engine
    proc.site = f"cm{index}"
    state = ChannelMemoryState()
    proc.tags["cm_state"] = state
    listener = proc.node.listen(shardmap.cm_port(index), owner=proc)
    #: receiver rank -> forwarding socket of its attached daemon
    attached: Dict[int, Any] = {}

    def forward(sock, dst: int, entry: LogEntry, cause) -> None:
        pos, src, seq, msg = entry
        # second hop: caused by the put (live) or the attach (replay)
        sock.send(wire.CMDeliver(rank=dst, pos=pos, src=src, seq=seq,
                                 app=msg), cause=cause)
        state.forwarded += 1

    def serve_conn(sock) -> None:
        attached_rank = None         # rank attached through this socket

        def on_msg(msg) -> None:
            nonlocal attached_rank
            if isinstance(msg, wire.CMPut):
                pos = state.record(msg.src, msg.dst, msg.seq, msg.app)
                if pos is not None:
                    out = attached.get(msg.dst)
                    if out is not None and not out.closed and out.peer_alive:
                        forward(out, msg.dst,
                                (pos, msg.src, msg.seq, msg.app), msg)
            elif isinstance(msg, wire.CMAttach):
                attached_rank = msg.rank
                attached[msg.rank] = sock
                # cm_replay=False is the deliberately-broken knob used
                # by the exploration oracles: the log is kept but never
                # redelivered, so a recovering rank starves.
                entries = (state.replay_after(msg.rank, msg.after)
                           if config.cm_replay else [])
                engine.log("cm_attach", rank=msg.rank, cm=index,
                           after=msg.after, replayed=len(entries))
                if entries:
                    # redelivery is a burst of sends at this instant —
                    # a zero-length replay phase on the CM's lane
                    # (initial attaches replay nothing and stay silent)
                    engine.end(engine.span("replay", lane=proc.node.name,
                                           rank=msg.rank, cm=index,
                                           replayed=len(entries)))
                for entry in entries:
                    if sock.closed or not sock.peer_alive:
                        break
                    forward(sock, msg.rank, entry, msg)
            elif isinstance(msg, wire.CMPrune):
                state.prune(msg.rank, msg.upto)
            elif isinstance(msg, wire.Shutdown):
                engine.call_later(0.0, proc.kill)
                reader.kill()

        def on_gone() -> None:
            # a dead receiver keeps its log; the new incarnation
            # re-attaches and replays
            if attached_rank is not None \
                    and attached.get(attached_rank) is sock:
                del attached[attached_rank]

        reader = proc.spawn_reader(sock, on_msg, on_gone)

    proc.spawn_reader(listener, serve_conn)
    yield engine.event(name=f"cm{index}.forever")
