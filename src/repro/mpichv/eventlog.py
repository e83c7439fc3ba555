"""The stable event logger of the V2 protocol.

Pessimistic message logging needs every *delivery event* — "rank r's
n-th delivery was message (src, src_seq)" — on stable storage before
the delivery happens, so a restarted process can replay its exact
reception order.  This service is that stable storage (MPICH-V2 keeps
it on the dispatcher's reliable node; we give it its own service
process on ``svc1``, the slot the Vcl scheduler occupies).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cluster.unixproc import UnixProcess
from repro.mpichv import shardmap, wire


class EventLogState:
    """Per-rank ordered delivery histories (introspectable)."""

    def __init__(self) -> None:
        #: rank -> list of (pos, src, src_seq); pos strictly increasing
        self.events: Dict[int, List[Tuple[int, int, int]]] = {}
        self.logged = 0
        self.pruned = 0

    def append(self, rank: int, pos: int, src: int, src_seq: int) -> None:
        history = self.events.setdefault(rank, [])
        # idempotent: a retransmitted log request must not duplicate
        if history and history[-1][0] >= pos:
            return
        history.append((pos, src, src_seq))
        self.logged += 1

    def fetch_after(self, rank: int, after: int) -> List[Tuple[int, int]]:
        return [(src, src_seq)
                for pos, src, src_seq in self.events.get(rank, [])
                if pos > after]

    def prune(self, rank: int, upto: int) -> None:
        history = self.events.get(rank)
        if history:
            kept = [e for e in history if e[0] > upto]
            self.pruned += len(history) - len(kept)
            self.events[rank] = kept


def eventlog_main(proc: UnixProcess):
    """Main generator of the event-logger service process."""
    engine = proc.engine
    proc.site = "evlog"
    state = EventLogState()
    proc.tags["evlog_state"] = state
    listener = proc.node.listen(shardmap.EVENTLOG_PORT, owner=proc)

    def serve_conn(sock) -> None:
        def on_msg(msg) -> None:
            if isinstance(msg, wire.EvLog):
                state.append(msg.rank, msg.pos, msg.src, msg.src_seq)
                if not sock.closed and sock.peer_alive:
                    sock.send(wire.EvLogAck(rank=msg.rank, pos=msg.pos),
                              cause=msg)
            elif isinstance(msg, wire.EvFetch):
                events = state.fetch_after(msg.rank, msg.after)
                if not sock.closed and sock.peer_alive:
                    resp = wire.EvFetchResp(
                        rank=msg.rank, events=events,
                        size=max(256, 32 * len(events)))
                    sock.send(resp, cause=msg)
            elif isinstance(msg, wire.EvPrune):
                state.prune(msg.rank, msg.upto)
            elif isinstance(msg, wire.Shutdown):
                engine.call_later(0.0, proc.kill)
                reader.kill()

        reader = proc.spawn_reader(sock, on_msg)

    proc.spawn_reader(listener, serve_conn)
    yield engine.event(name="eventlog.forever")
