"""Inter-daemon messaging for the FCI platform.

FAIL daemons coordinate over the cluster network; we model their mesh
as a bus with a fixed one-way latency per message.  Delivery is
reliable and per-pair FIFO (TCP between daemons); the *handling* time
at the receiver — the FCI daemon's processing plus the GDB verb cost —
is charged by :class:`repro.fail.daemon.FailDaemon`, not here.
"""

from __future__ import annotations

from typing import Dict

from repro.simkernel.engine import Engine

#: one-way latency of a message between two FAIL daemons, s
BUS_LATENCY = 2e-4


class FailBus:
    """Name-addressed message fabric between FAIL daemon instances."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self._registry: Dict[str, "object"] = {}
        self.messages_sent = 0
        self.messages_lost = 0

    def register(self, instance: str, daemon) -> None:
        if instance in self._registry:
            raise ValueError(f"FAIL instance {instance!r} already registered")
        self._registry[instance] = daemon

    def send(self, src: str, dst: str, msg: str) -> None:
        """Deliver ``msg`` (a bare name, as in the paper) to ``dst``."""
        target = self._registry.get(dst)
        self.messages_sent += 1
        if target is None:
            self.messages_lost += 1
            self.engine.log("fail_msg_lost", src=src, dst=dst, msg=msg)
            return
        self.engine.call_later(BUS_LATENCY,
                               lambda: target.deliver_msg(msg, src))
