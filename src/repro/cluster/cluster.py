"""Cluster orchestration: the set of nodes plus shared services.

Also provides the ssh-like remote spawn used by self-deploying
middleware (the dispatcher launches remote daemons through
:meth:`Cluster.remote_spawn`, paying a connection-setup latency, as
MPICH-V does with ssh).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional

from repro.simkernel.engine import Engine
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.unixproc import UnixProcess

#: one-off cost of an ssh-style remote launch (connection + exec)
SSH_LATENCY = 0.05


class Cluster:
    """A named set of :class:`Node` machines sharing one network."""

    def __init__(self, engine: Engine, n_nodes: int,
                 latency: Optional[float] = None,
                 bandwidth: Optional[float] = None,
                 name_prefix: str = "node",
                 topology=None):
        if n_nodes <= 0:
            raise ValueError("cluster needs at least one node")
        self.engine = engine
        kwargs: Dict[str, Any] = {}
        if latency is not None:
            kwargs["latency"] = latency
        if bandwidth is not None:
            kwargs["bandwidth"] = bandwidth
        if topology is not None:
            kwargs["topology"] = topology
        self.network = Network(engine, **kwargs)
        self.nodes: List[Node] = [
            Node(self, f"{name_prefix}{i}", i) for i in range(n_nodes)
        ]
        self._by_name: Dict[str, Node] = {n.name: n for n in self.nodes}
        # Node-creation order pins the fabric's host (rack) assignment.
        for node in self.nodes:
            self.network.register_host(node.name)
        self._pid_counter = 0

    def add_node(self, name: str) -> Node:
        """Append an extra named node (e.g. dedicated service machines)."""
        if name in self._by_name:
            raise ValueError(f"node name {name!r} already exists")
        node = Node(self, name, len(self.nodes))
        self.nodes.append(node)
        self._by_name[name] = node
        self.network.register_host(name)
        return node

    def next_pid(self) -> int:
        self._pid_counter += 1
        return self._pid_counter

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, key) -> Node:
        """Look up a node by index or name."""
        if isinstance(key, int):
            return self.nodes[key]
        return self._by_name[key]

    def remote_spawn(self, node_key, name: str,
                     main: Callable[[UnixProcess], Generator],
                     tags: Optional[Dict[str, Any]] = None,
                     notify: bool = True,
                     done: Optional[Callable[[UnixProcess], None]] = None) -> None:
        """ssh-like launch: spawn ``name`` on ``node_key`` after
        :data:`SSH_LATENCY`; optionally call ``done(proc)`` once started."""
        node = self.node(node_key)

        def _launch() -> None:
            proc = node.spawn(name, main, tags=tags, notify=notify)
            if done is not None:
                done(proc)

        self.engine.call_later(SSH_LATENCY, _launch)

    def all_procs(self, name_prefix: Optional[str] = None) -> List[UnixProcess]:
        out: List[UnixProcess] = []
        for node in self.nodes:
            out.extend(node.running(name_prefix))
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Cluster nodes={len(self.nodes)}>"
