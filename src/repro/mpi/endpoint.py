"""The MPI endpoint: what application code programs against.

One :class:`MpiEndpoint` lives inside each MPI computation thread.  It
delegates actual communication to a :class:`Transport` (the MPICH-V
communication daemon, or a direct test transport) and keeps the
restartability bookkeeping described in :mod:`repro.mpi`.
"""

from __future__ import annotations

from typing import Any, List, Protocol

from repro.mpi.message import ANY, AppMessage
from repro.obs.causal import stamp

#: key under which the endpoint stores unmatched-but-consumed messages
UNMATCHED_KEY = "_mpi_unmatched"


class Transport(Protocol):
    """What an endpoint needs from the communication layer.

    Delivery contract (checkpoint-safety): the transport must place an
    inbound message **directly into the endpoint's state buffer**
    (``state[UNMATCHED_KEY]``) and then signal the doorbell returned by
    :meth:`app_inbox_get`.  A message is therefore *always* either
    un-delivered (still the transport's channel state) or inside the
    checkpointable state — there is no instant at which it exists only
    in a wakeup event, which is what makes snapshots race-free.
    """

    def app_send(self, msg: AppMessage) -> None:
        """Eager-send ``msg`` towards its destination rank."""

    def app_inbox_get(self):
        """Return a doorbell Event: 'the state buffer may have grown'."""

    def app_done(self) -> None:
        """Signal MPI_Finalize reached by the local rank."""


class LocalDelivery:
    """Reference implementation of the delivery contract.

    Owns the doorbell store and performs state-buffer appends; the
    MPICH-V daemon and the in-process test transports both reuse it.
    """

    def __init__(self, engine, state: dict, name: str = "inbox"):
        from repro.simkernel.store import Store
        self.state = state
        state.setdefault(UNMATCHED_KEY, [])
        self.bell = Store(engine, name=name)

    def deliver(self, msg: AppMessage) -> None:
        """Atomically buffer ``msg`` in checkpointable state + ring."""
        self.state[UNMATCHED_KEY].append(msg)
        if not self.bell.closed:
            self.bell.put(None)

    def rebind(self, state: dict) -> None:
        """Point deliveries at a restored state dict (rollback)."""
        self.state = state
        state.setdefault(UNMATCHED_KEY, [])

    def doorbell(self):
        return self.bell.get()


class MpiEndpoint:
    """Rank-local MPI interface.

    Parameters
    ----------
    rank, size:
        This process's rank and the communicator size.
    state:
        The checkpointable application state dict.  The endpoint stores
        its own unmatched-message buffer under :data:`UNMATCHED_KEY` so
        a snapshot always contains every consumed-but-unprocessed
        message.
    transport:
        The communication daemon binding.
    engine:
        The simulation engine (for ``compute`` timeouts).
    """

    def __init__(self, rank: int, size: int, state: dict, transport: Transport, engine):
        self.rank = rank
        #: causal site name of the messages this rank sends
        self.site = f"r{rank}"
        self.size = size
        self.state = state
        self.transport = transport
        self.engine = engine
        state.setdefault(UNMATCHED_KEY, [])
        #: counters for tests / traces
        self.sent_count = 0
        self.recv_count = 0

    # -- point to point -------------------------------------------------------
    def send(self, dst: int, tag: int, payload: Any, size: int = 1024) -> None:
        """Standard-mode eager send (buffered, non-blocking).

        MPICH's eager protocol never blocks the sender for the message
        sizes BT exchanges, so modelling send as asynchronous is
        faithful for this workload.
        """
        if not (0 <= dst < self.size):
            raise ValueError(f"send to invalid rank {dst}")
        msg = AppMessage(self.rank, dst, tag, payload, size)
        # root of a causal trace: every hop this message takes (daemon
        # envelope, channel-memory relay, logged replay) extends it
        stamp(self.engine, msg, self.site)
        self.transport.app_send(msg)
        self.sent_count += 1

    def recv(self, src: int = ANY, tag: int = ANY):
        """Blocking receive; use as ``msg = yield from ep.recv(...)``.

        Returns the matching :class:`AppMessage`.  Messages live in the
        state buffer from the moment of delivery (see
        :class:`Transport`), so a snapshot at any instant sees every
        delivered-but-unprocessed message; the doorbell the endpoint
        waits on carries no payload.
        """
        while True:
            buf: List[AppMessage] = self.state[UNMATCHED_KEY]
            for i, queued in enumerate(buf):
                if queued.matches(src, tag):
                    del buf[i]
                    self.recv_count += 1
                    # NOTE: no yield between unbuffering and returning —
                    # the caller updates its state in the same step.
                    return queued
            yield self.transport.app_inbox_get()

    def sendrecv(self, dst: int, send_tag: int, payload: Any,
                 src: int, recv_tag: int, size: int = 1024):
        """Combined send+recv, the BT sweep staple."""
        self.send(dst, send_tag, payload, size=size)
        msg = yield from self.recv(src, recv_tag)
        return msg

    # -- computation ------------------------------------------------------------
    def compute(self, seconds: float):
        """Burn ``seconds`` of simulated CPU time."""
        if seconds < 0:
            raise ValueError("negative compute time")
        if seconds > 0:
            yield self.engine.timeout(seconds)

    # -- lifecycle -----------------------------------------------------------------
    def finalize(self) -> None:
        """MPI_Finalize: report completion to the runtime."""
        self.transport.app_done()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MpiEndpoint rank={self.rank}/{self.size}>"
