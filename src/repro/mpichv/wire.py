"""Wire-level message types of the MPICH-V runtime.

Each dataclass carries a ``size`` attribute so the network model can
charge realistic transfer times (checkpoint images are large; control
messages are tiny).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.mpi.message import AppMessage


@dataclass(frozen=True)
class Register:
    """Daemon -> dispatcher: initial argument exchange."""

    rank: int
    addr: Any                 # repro.cluster.network.Address of the daemon's listener
    epoch: int                # execution wave the daemon was launched for
    incarnation: int          # spawn attempt id for this (rank, epoch)
    size: int = 256


@dataclass(frozen=True)
class RegisterAck:
    """Dispatcher -> daemon: per-daemon completion of argument exchange.

    After receiving this the daemon is *running* from the dispatcher's
    point of view — the paper's ``localMPI_setCommand`` boundary.
    """

    rank: int
    size: int = 64


@dataclass(frozen=True)
class CommandMap:
    """Dispatcher -> daemons: everyone registered; addresses + restore info."""

    epoch: int
    addrs: Dict[int, Any]     # rank -> listener address
    restore_wave: Optional[int]   # committed wave to roll back to (None = fresh)
    size: int = 2048


@dataclass(frozen=True)
class Terminate:
    """Dispatcher -> daemon: stop for a restart wave (closure acks it)."""

    size: int = 64


@dataclass(frozen=True)
class Shutdown:
    """Dispatcher -> everyone: clean end of the experiment."""

    size: int = 64


@dataclass(frozen=True)
class Done:
    """Daemon -> dispatcher: local MPI rank reached MPI_Finalize."""

    rank: int
    size: int = 64


@dataclass(frozen=True)
class Hello:
    """Daemon -> daemon: mesh connection handshake."""

    rank: int
    epoch: int
    size: int = 64


@dataclass(frozen=True)
class DataMsg:
    """Daemon -> daemon: an application message in flight."""

    app: AppMessage

    @property
    def size(self) -> int:
        return self.app.size


@dataclass(frozen=True)
class Marker:
    """Chandy-Lamport marker, scheduler- or peer-originated."""

    wave: int
    src_rank: int             # -1 when sent by the scheduler
    size: int = 64


@dataclass(frozen=True)
class SchedHello:
    """Daemon -> scheduler: (re)connection of rank in epoch."""

    rank: int
    epoch: int
    size: int = 64


@dataclass(frozen=True)
class SchedAck:
    """Daemon -> scheduler: local checkpoint of ``wave`` fully stored."""

    rank: int
    wave: int
    size: int = 64


@dataclass(frozen=True)
class WaveCommit:
    """Scheduler -> servers/dispatcher: wave globally complete."""

    wave: int
    size: int = 64


@dataclass(frozen=True)
class CkptStore:
    """Daemon -> server: full image transfer (data connection).

    ``state`` is the snapshot of the MPI process; ``img_size`` drives
    both network and server-disk time.  The channel-state messages of
    a Chandy-Lamport wave travel apart, in :class:`CkptLogAppend`.
    """

    rank: int
    wave: int
    state: Any
    img_size: int

    @property
    def size(self) -> int:
        return self.img_size


@dataclass(frozen=True)
class CkptLogAppend:
    """Daemon -> server: late channel-state messages for a wave
    (message connection; sent at the end of every non-blocking wave,
    empty when no message was in flight)."""

    rank: int
    wave: int
    logs: List[AppMessage]

    @property
    def size(self) -> int:
        return max(64, sum(m.size for m in self.logs))


@dataclass(frozen=True)
class CkptStoredAck:
    """Server -> daemon: image durably stored."""

    rank: int
    wave: int
    size: int = 64


@dataclass(frozen=True)
class FetchReq:
    """Daemon -> server: request the image of ``wave`` for ``rank``.

    Pinning the wave (rather than "latest committed") keeps a restart
    consistent even when a commit note races the failure detection.
    """

    rank: int
    wave: Optional[int] = None
    size: int = 64


@dataclass(frozen=True)
class FetchResp:
    """Server -> daemon: the image (or None: restart from scratch)."""

    rank: int
    wave: Optional[int]
    state: Any
    logs: List[AppMessage] = field(default_factory=list)
    img_size: int = 64

    @property
    def size(self) -> int:
        return self.img_size


# ---------------------------------------------------------------------------
# V2 protocol (pessimistic sender-based message logging, cf. [BCH+03])
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class V2Hello:
    """Daemon -> daemon mesh handshake for the V2 protocol.

    ``resend_from`` asks the peer to re-send its logged messages with
    sequence numbers >= this value (used by a restarted incarnation to
    recover in-flight traffic; 0 on the initial connection).
    """

    rank: int
    incarnation: int
    resend_from: int = 0
    size: int = 64


@dataclass(frozen=True)
class V2Data:
    """Daemon -> daemon: an application message with its channel
    sequence number (per sender->receiver channel, starting at 1)."""

    app: AppMessage
    seq: int

    @property
    def size(self) -> int:
        return self.app.size


@dataclass(frozen=True)
class V2GcNote:
    """Receiver -> sender: my latest checkpoint covers your messages up
    to ``upto`` — the sender may prune its volatile log."""

    rank: int
    upto: int
    size: int = 64


@dataclass(frozen=True)
class EvLog:
    """Daemon -> event logger: about to deliver (src, src_seq) as my
    delivery number ``pos`` (pessimistic: delivery waits for the ack)."""

    rank: int
    pos: int
    src: int
    src_seq: int
    size: int = 64


@dataclass(frozen=True)
class EvLogAck:
    """Event logger -> daemon: delivery event ``pos`` is stable."""

    rank: int
    pos: int
    size: int = 64


@dataclass(frozen=True)
class EvFetch:
    """Restarted daemon -> event logger: my delivery history after
    position ``after`` (the delivery count in my restored image)."""

    rank: int
    after: int
    size: int = 64


@dataclass(frozen=True)
class EvFetchResp:
    """Event logger -> daemon: ordered (src, src_seq) delivery events."""

    rank: int
    events: List[Any]          # [(src, src_seq), ...]
    size: int = 256


@dataclass(frozen=True)
class EvPrune:
    """Daemon -> event logger: my checkpoint covers deliveries up to
    ``upto``; earlier events may be discarded."""

    rank: int
    upto: int
    size: int = 64


# ---------------------------------------------------------------------------
# V1 protocol (remote pessimistic logging in Channel Memories, MPICH-V1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CMPut:
    """Daemon -> channel memory: relay an application message to
    ``dst`` through its home CM.  ``seq`` is the per (src, dst) channel
    sequence number (starting at 1), used by the CM to deduplicate the
    re-sends a recovering sender regenerates."""

    src: int
    dst: int
    seq: int
    app: AppMessage

    @property
    def size(self) -> int:
        return self.app.size


@dataclass(frozen=True)
class CMDeliver:
    """Channel memory -> daemon: the next message of ``rank``'s total
    delivery order.  ``pos`` is the position the CM assigned when it
    logged the message — the log write precedes this forward, which is
    what makes the logging pessimistic."""

    rank: int                 # receiver
    pos: int                  # position in the receiver's delivery order
    src: int
    seq: int                  # sender's channel sequence number
    app: AppMessage

    @property
    def size(self) -> int:
        return self.app.size


@dataclass(frozen=True)
class CMAttach:
    """Daemon -> its home channel memory: start (or resume) forwarding
    my delivery order after position ``after`` (the delivery count in
    my restored image; 0 on a fresh start)."""

    rank: int
    after: int
    size: int = 64


@dataclass(frozen=True)
class CMPrune:
    """Daemon -> its home channel memory: my checkpoint covers
    deliveries up to position ``upto``; earlier log entries may go."""

    rank: int
    upto: int
    size: int = 64
