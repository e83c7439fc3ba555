"""Pluggable fabric models behind the :class:`repro.cluster.network.Network` API.

A *fabric model* turns (source host, destination host, message size)
into a delivery time by walking per-link queues, and carries per-link
byte counters the experiments surface as the busiest link.
The models are listed by name in the :data:`FABRICS` table, selected
per deployment through a :class:`~repro.netmodel.spec.TopologySpec`.

Built-in models:

``uniform``
    Today's single homogeneous fabric: per-connection pipelining only,
    infinite switching capacity.  This is the default and is
    bit-identical to the historical :class:`Network` arithmetic — the
    network hot path special-cases it so no per-message topology
    lookup happens at all (guarded by ``tests/test_netmodel.py``).
``star``
    Every host hangs off one shared switch through a private
    access-link pair (up/down).  Uplinks serialize: concurrent
    transfers from one host contend for its uplink, concurrent
    transfers *to* one host contend for its downlink — the
    checkpoint-server ingest pattern of the paper's Fig. 6.
``twotier``
    Racks of ``rack_size`` hosts with fast intra-rack switching and an
    oversubscribed inter-rack core: the core link of a rack carries
    ``bandwidth * rack_size / oversubscription``, so rack-crossing
    checkpoint waves queue behind each other.

Transmission is store-and-forward: each link adds its own latency and
serialization delay, and a link busy until ``free_at`` queues the
message (``max(free_at, ...)``).  Per-connection FIFO is preserved on
top by the network layer's per-socket pipe clamp.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.netmodel.spec import DEFAULT_BANDWIDTH, DEFAULT_LATENCY, TopologySpec
from repro.registry import lookup

#: forwarding delay added once per switch traversal (star / twotier)
SWITCH_LATENCY = 5e-6


def validate_model(name: str) -> None:
    """Raise ``ValueError`` for unknown fabric model names."""
    lookup(FABRICS, "fabric model", name)


def build_fabric(topology, latency: float = DEFAULT_LATENCY,
                 bandwidth: float = DEFAULT_BANDWIDTH) -> "FabricModel":
    """Instantiate the fabric a :class:`TopologySpec` describes, with
    ``latency`` / ``bandwidth`` as its host-to-host base parameters."""
    spec = TopologySpec.coerce(topology)
    cls = lookup(FABRICS, "fabric model", spec.model)
    return cls(spec, latency, bandwidth)


class Link:
    """One directed link: latency, bandwidth, a queue, and counters."""

    __slots__ = ("name", "latency", "bandwidth", "free_at", "bytes")

    def __init__(self, name: str, latency: float, bandwidth: float):
        self.name = name
        self.latency = latency
        self.bandwidth = bandwidth
        self.free_at = 0.0
        self.bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (f"<Link {self.name} lat={self.latency} bw={self.bandwidth} "
                f"bytes={self.bytes}>")


class FabricModel:
    """Base class: host registry, cached paths, store-and-forward."""

    #: True only for the uniform model, enabling the network fast path
    is_uniform = False

    def __init__(self, spec: TopologySpec, latency: float, bandwidth: float):
        self.spec = spec
        self.latency = latency
        self.bandwidth = bandwidth
        self._hosts: Dict[str, int] = {}       # host -> registration index
        self._links: Dict[str, Link] = {}
        self._paths: Dict[Tuple[str, str], Tuple[Link, ...]] = {}

    # -- hosts ---------------------------------------------------------------
    def register_host(self, host: str) -> None:
        """Declare a host (idempotent).  Registration order is the
        cluster's node-creation order, which pins rack assignment."""
        if host not in self._hosts:
            self._hosts[host] = len(self._hosts)
            self._host_added(host)

    def _host_added(self, host: str) -> None:
        """Hook: build the host's access links."""

    def _link(self, name: str, latency: float, bandwidth: float) -> Link:
        link = self._links.get(name)
        if link is None:
            link = self._links[name] = Link(name, latency, bandwidth)
        return link

    # -- paths ---------------------------------------------------------------
    def path(self, src: str, dst: str) -> Tuple[Link, ...]:
        key = (src, dst)
        cached = self._paths.get(key)
        if cached is None:
            self.register_host(src)
            self.register_host(dst)
            cached = self._paths[key] = self._build_path(src, dst)
        return cached

    def _build_path(self, src: str, dst: str) -> Tuple[Link, ...]:
        raise NotImplementedError

    def latency_between(self, src: str, dst: str) -> float:
        """One-way zero-byte latency (connection setup, close notify)."""
        if src == dst:
            return self.latency
        path = self.path(src, dst)
        if not path:
            return self.latency
        return sum(link.latency for link in path)

    # -- transmission ---------------------------------------------------------
    def delivery(self, now: float, src: str, dst: str, size: int,
                 pipe_free: float) -> float:
        """Arrival time of a ``size``-byte message sent at ``now``.

        Walks the path store-and-forward, queueing on busy links, and
        clamps with ``pipe_free`` so per-connection FIFO survives any
        topology.  Also accounts the bytes on every traversed link.
        """
        path = self.path(src, dst)
        if not path:        # same host (or degenerate): uniform formula
            return max(pipe_free, now + self.latency + size / self.bandwidth)
        t = now
        for link in path:
            # serialization gates the start: the link transmits one
            # message at a time; propagation latency then pipelines
            start = max(t, link.free_at)
            link.free_at = start + size / link.bandwidth
            t = link.free_at + link.latency
            link.bytes += size
        return max(t, pipe_free)

    # -- accounting -----------------------------------------------------------
    def hotspot(self) -> Tuple[Optional[str], int]:
        """``(link name, bytes)`` of the busiest link (deterministic
        tie-break on name); ``(None, 0)`` before any traffic."""
        best: Optional[Link] = None
        for _name, link in sorted(self._links.items()):
            if best is None or link.bytes > best.bytes:
                best = link
        if best is None or best.bytes == 0:
            return (None, 0)
        return (best.name, best.bytes)


class UniformFabric(FabricModel):
    """The historical model: one homogeneous fabric, per-connection
    pipelining only, infinite switching capacity.

    Every path is empty, so ``delivery`` is the seed arithmetic bit for
    bit; the network layer computes it inline (the fast path), so
    uniform runs never consult the fabric per message.
    """

    is_uniform = True

    def _build_path(self, src: str, dst: str) -> Tuple[Link, ...]:
        return ()


class StarFabric(FabricModel):
    """Per-host access links feeding one shared switch."""

    def _host_added(self, host: str) -> None:
        self._link(f"{host}/up", self.latency / 2 + SWITCH_LATENCY,
                   self.bandwidth)
        self._link(f"{host}/down", self.latency / 2, self.bandwidth)

    def _build_path(self, src: str, dst: str) -> Tuple[Link, ...]:
        if src == dst:
            return ()
        return (self._links[f"{src}/up"], self._links[f"{dst}/down"])


class TwoTierFabric(FabricModel):
    """Racks with fast intra-rack links and an oversubscribed core.

    Hosts are assigned to racks in registration (node-creation) order:
    ``rack = index // rack_size``.  Intra-rack traffic crosses only the
    two access links; inter-rack traffic additionally queues on the
    source rack's core uplink and the destination rack's core
    downlink, each carrying ``bandwidth * rack_size /
    oversubscription``.
    """

    def _core_bandwidth(self) -> float:
        spec = self.spec
        return self.bandwidth * spec.rack_size / spec.oversubscription

    def _host_added(self, host: str) -> None:
        spec = self.spec
        self._link(f"{host}/up", self.latency / 2 + SWITCH_LATENCY,
                   self.bandwidth)
        self._link(f"{host}/down", self.latency / 2, self.bandwidth)
        rack = self._hosts[host] // spec.rack_size
        half_core = self.latency / 2
        self._link(f"rack{rack}/up", half_core, self._core_bandwidth())
        self._link(f"rack{rack}/down", half_core, self._core_bandwidth())

    def _build_path(self, src: str, dst: str) -> Tuple[Link, ...]:
        if src == dst:
            return ()
        src_rack = self._hosts[src] // self.spec.rack_size
        dst_rack = self._hosts[dst] // self.spec.rack_size
        if src_rack == dst_rack:
            return (self._links[f"{src}/up"], self._links[f"{dst}/down"])
        return (self._links[f"{src}/up"],
                self._links[f"rack{src_rack}/up"],
                self._links[f"rack{dst_rack}/down"],
                self._links[f"{dst}/down"])


#: fabric model name -> :class:`FabricModel` subclass
FABRICS: Dict[str, type] = {
    "uniform": UniformFabric,
    "star": StarFabric,
    "twotier": TwoTierFabric,
}
