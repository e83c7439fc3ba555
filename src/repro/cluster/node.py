"""A cluster node: a named machine hosting unix processes.

Nodes expose spawn/kill and *lifecycle listeners* — the hook the
FAIL-MPI daemon uses to observe processes starting (``onload``) and
ending (``onexit`` / ``onerror``) on its machine, per §4 of the paper.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional

from repro.cluster.network import Address
from repro.cluster.unixproc import UnixProcess
from repro.simkernel.events import Event


class Node:
    """One machine of the simulated cluster."""

    def __init__(self, cluster, name: str, index: int):
        self.cluster = cluster
        self.engine = cluster.engine
        self.name = name
        self.index = index
        #: live processes (a dead one breaks its own cycles on exit)
        self.procs: List[UnixProcess] = []
        self._spawn_listeners: List[Callable[[UnixProcess], None]] = []

    # -- process management ------------------------------------------------
    def spawn(self, name: str, main: Callable[[UnixProcess], Generator],
              tags: Optional[Dict[str, Any]] = None,
              notify: bool = True) -> UnixProcess:
        """Start a process on this node.

        ``notify=False`` spawns silently (used for infrastructure
        processes like the FAIL daemons themselves, which must not
        trigger their own ``onload``).
        """
        proc = UnixProcess(self, name, main, tags=tags)
        self.procs.append(proc)
        self.engine.log("proc_launch", pid=proc.pid, name=name, node=self.name)
        if notify:
            for listener in list(self._spawn_listeners):
                listener(proc)
        return proc

    def _proc_gone(self, proc: UnixProcess) -> None:
        if proc in self.procs:
            self.procs.remove(proc)

    def on_spawn(self, listener: Callable[[UnixProcess], None]) -> None:
        """Observe future spawns on this node (FAIL ``onload``)."""
        self._spawn_listeners.append(listener)

    def running(self, name_prefix: Optional[str] = None) -> List[UnixProcess]:
        """Live processes, optionally filtered by program-name prefix."""
        out = [p for p in self.procs if p.state.alive]
        if name_prefix is not None:
            out = [p for p in out if p.name.startswith(name_prefix)]
        return out

    # -- network shorthand ----------------------------------------------------
    def addr(self, port: int) -> Address:
        return Address(self.name, port)

    def listen(self, port: int, owner: Optional[UnixProcess] = None):
        return self.cluster.network.listen(self.addr(port), owner=owner)

    def connect(self, addr: Address,
                owner: Optional[UnixProcess] = None) -> Event:
        """:meth:`repro.cluster.network.Network.connect` from here."""
        return self.cluster.network.connect(self.name, addr, owner)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name} procs={len(self.procs)}>"
