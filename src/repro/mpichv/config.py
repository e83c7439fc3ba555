"""Configuration and timing model for the MPICH-V stack.

All durations are in simulated seconds and calibrated so that absolute
magnitudes land in the paper's ballpark (BT-49 class B ≈ 190 s without
faults; checkpoint wave every 30 s taking a few seconds to drain to
the checkpoint servers; recovery in the low seconds).  EXPERIMENTS.md
records the calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.netmodel.fabric import validate_model as _validate_fabric_model
from repro.netmodel.spec import (DEFAULT_BANDWIDTH, DEFAULT_LATENCY,
                                 TopologySpec)

MB = 1e6
GB = 1e9


@dataclass
class TimingModel:
    """Every latency/bandwidth knob of the simulated testbed.

    The stochastic entries are (lo, hi) uniform ranges sampled from the
    engine RNG, so runs remain reproducible per seed.
    """

    # network fabric (GigE-like); the defaults are the single source of
    # truth in repro.netmodel.spec, shared with repro.cluster.network
    net_latency: float = DEFAULT_LATENCY
    net_bandwidth: float = DEFAULT_BANDWIDTH

    # process management
    ssh_latency: float = 0.05
    #: daemon exec + library init before it contacts the dispatcher
    daemon_startup: Tuple[float, float] = (0.02, 0.12)
    #: cleanup time between receiving Terminate and exiting
    terminate_cleanup: Tuple[float, float] = (0.3, 1.5)

    # checkpointing
    local_disk_bw: float = 40 * MB      # clone writes local image
    server_disk_bw: float = 60 * MB     # server ingest (serialized per server)
    ckpt_fork_pause: float = 0.02       # brief stop while fork-cloning

    # failure injection (FAIL-side, see repro.fail)
    fail_bus_latency: float = 2e-4
    #: FCI daemon handling of an injection order (includes GDB verb cost)
    fail_order_handling: Tuple[float, float] = (0.004, 0.04)
    #: FCI daemon handling of a local event (onload/onexit/breakpoint)
    fail_event_handling: Tuple[float, float] = (0.001, 0.01)

    # mesh connection retry backoff (daemons waiting for peers)
    connect_retry_initial: float = 0.05
    connect_retry_max: float = 5.0

    def uniform(self, rng, rng_range: Tuple[float, float]) -> float:
        lo, hi = rng_range
        return rng.uniform(lo, hi)


@dataclass
class VclConfig:
    """Deployment + protocol parameters for one run."""

    #: number of MPI processes (BT needs a perfect square)
    n_procs: int = 4
    #: machines devoted to computation (>= n_procs; spares included).
    #: The paper uses 53 machines for BT-49.
    n_machines: Optional[int] = None
    #: seconds between checkpoint waves (paper: 30 s)
    ckpt_period: float = 30.0
    #: number of checkpoint-server shards; ranks are assigned by the
    #: deterministic shard map (:mod:`repro.mpichv.shardmap`,
    #: ``rank % k``) so checkpoint ingest spreads over k servers.
    #: ``k = 1`` is the classic single-server deployment;
    #: ``k > n_procs`` leaves the surplus servers idle.
    n_ckpt_servers: int = 2
    #: total application memory footprint in bytes (class B model);
    #: per-process image size = footprint / n_procs.
    footprint: float = 1.6 * GB
    #: reproduce the paper's dispatcher bug (True) or the fix (False)
    bug_compat: bool = True
    #: blocking Chandy-Lamport variant (paper §3: "The blocking
    #: implementation uses markers to flush the communication channels
    #: and freezes the communications during a checkpoint wave").
    #: False = the paper's non-blocking Vcl.
    blocking: bool = False
    #: experiment timeout (paper: 1500 s)
    timeout: float = 1500.0
    #: enable checkpoint/rollback at all (False = Vdummy baseline)
    fault_tolerant: bool = True
    #: fault-tolerance protocol, looked up in the registry of
    #: :mod:`repro.mpichv.protocols`.  Built-ins: "vcl" (coordinated
    #: Chandy-Lamport, the paper's subject), "v2" (pessimistic
    #: sender-based message logging, cf. MPICH-V2 [BCH+03]), "v1"
    #: (remote pessimistic logging in Channel Memories, MPICH-V1).
    protocol: str = "vcl"
    #: number of Channel Memory services (v1 protocol only); a rank's
    #: home CM is ``rank % n_channel_memories``
    n_channel_memories: int = 2
    #: v1 only: replay the Channel Memory log to a re-attaching rank.
    #: Disabling this *breaks the protocol on purpose* — it is the
    #: reference "planted bug" the exploration oracles must catch
    #: (``repro.explore``); never disable it for real experiments.
    cm_replay: bool = True
    #: network fabric shape (see :mod:`repro.netmodel`); accepts a
    #: :class:`TopologySpec`, a bare model name ("uniform", "star",
    #: "twotier") or a knob dict — coerced in ``__post_init__``.  The
    #: runtime builds the cluster's fabric from this.
    topology: object = field(default_factory=TopologySpec)
    timing: TimingModel = field(default_factory=TimingModel)

    # service ports
    dispatcher_port: int = 7000
    scheduler_port: int = 7001
    ckpt_server_port_base: int = 7100
    eventlog_port: int = 7002
    channel_memory_port_base: int = 7200
    daemon_port_base: int = 6000

    def __post_init__(self) -> None:
        if self.n_machines is None:
            # default: a handful of spares, like the paper's 53-for-49
            self.n_machines = self.n_procs + 4
        if self.n_machines < self.n_procs:
            raise ValueError("need at least n_procs machines")
        if self.n_procs < 1:
            raise ValueError("n_procs must be >= 1")
        if self.n_ckpt_servers < 1:
            raise ValueError("need at least one checkpoint server")
        if self.ckpt_period <= 0:
            raise ValueError("ckpt_period must be positive")
        self.topology = TopologySpec.coerce(self.topology)
        _validate_fabric_model(self.topology.model)   # unknown model raises
        # Registry-driven: unknown protocols and protocol/config
        # conflicts (e.g. ``blocking`` with a non-vcl protocol) raise
        # from the protocol's own validate hook.
        from repro.mpichv.protocols import validate_config
        validate_config(self)

    @property
    def image_size(self) -> float:
        """Per-process checkpoint image size in bytes."""
        return self.footprint / self.n_procs

    @property
    def n_service_nodes(self) -> int:
        """dispatcher + svc1 + checkpoint servers + protocol extras"""
        from repro.mpichv.protocols import extra_service_nodes
        return 2 + self.n_ckpt_servers + extra_service_nodes(self)
