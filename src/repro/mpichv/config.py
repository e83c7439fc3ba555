"""Per-run configuration and the testbed calibration of the MPICH-V stack.

:class:`VclConfig` holds what an experiment varies.  The testbed
itself is fixed, as in the paper: its durations and rates are the
module constants below (the FAIL daemon's in :mod:`repro.fail.daemon`
and :mod:`repro.fail.bus`, the network's in :mod:`repro.netmodel.spec`,
the service ports in :mod:`repro.mpichv.shardmap`).  All durations are
in simulated seconds and calibrated so that absolute magnitudes land
in the paper's ballpark (BT-49 class B ≈ 190 s without faults;
checkpoint wave every 30 s taking a few seconds to drain to the
checkpoint servers; recovery in the low seconds).  EXPERIMENTS.md
records the calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.netmodel.fabric import validate_model as _validate_fabric_model
from repro.netmodel.spec import TopologySpec

MB = 1e6
GB = 1e9


#: daemon exec + library init before it contacts the dispatcher,
#: uniform (lo, hi) in s drawn from the engine RNG
DAEMON_STARTUP: Tuple[float, float] = (0.02, 0.12)
#: cleanup between receiving Terminate and exiting, uniform (lo, hi) in s
TERMINATE_CLEANUP: Tuple[float, float] = (0.3, 1.5)
#: checkpoint clone writing its local image, bytes/s
LOCAL_DISK_BW = 40 * MB
#: checkpoint-server ingest (serialized per server), bytes/s
SERVER_DISK_BW = 60 * MB
#: connection retry backoff of daemons waiting for a peer or service:
#: first delay and cap, s
CONNECT_RETRY_INITIAL = 0.05
CONNECT_RETRY_MAX = 5.0


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
    #: fault-tolerance protocol, looked up in
    #: :data:`repro.mpichv.protocols.PROTOCOLS`.  Built-ins: "vcl" (coordinated
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
        # Table-driven: unknown protocols and protocol/config
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
