"""The fault-tolerance protocols of the MPICH-V family.

Every protocol the runtime can deploy is described by one
:class:`ProtocolSpec` in the :data:`PROTOCOLS` table; the dispatcher,
the runtime and the configuration validator all consult the table
instead of string-matching protocol names.  Adding a protocol takes a
daemon class (a :class:`repro.mpichv.daemonbase.MpichDaemon`) and one
entry here declaring the services its deployment needs.

A spec declares:

* ``core_cls`` — the daemon class; the generic lifecycle in
  :mod:`repro.mpichv.daemonbase` drives it;
* ``service_plan(config)`` — which service processes
  :meth:`repro.mpichv.runtime.VclRuntime.deploy` spawns (checkpoint
  servers, scheduler, event logger, channel memories, ...), as
  ``(process name, service node, main)`` triples;
* ``single_rank_restart`` — whether a failure restarts only the failed
  rank (message-logging protocols) or rolls the whole application back
  (coordinated checkpointing);
* ``validate(config)`` — protocol-specific configuration checks;
* ``extra_service_nodes(config)`` — service nodes needed beyond the
  family baseline (dispatcher + svc1 + checkpoint servers).

Built-in protocols:

========  =============================================================
``vcl``   Coordinated non-blocking Chandy-Lamport (the paper's
          subject).  Scheduler-driven marker waves; any failure rolls
          every rank back to the last committed wave.
``v2``    Pessimistic sender-based message logging [BCH+03].
          Independent checkpoints + a stable event logger; only the
          failed rank restarts, but simultaneous failures can stall on
          lost volatile sender logs.
``v1``    Remote pessimistic logging in Channel Memories (MPICH-V1).
          Every message transits the receiver's home CM; higher
          fault-free cost, but simultaneous failures are tolerated.
========  =============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.registry import lookup
from repro.mpichv import shardmap
from repro.mpichv.ckptserver import ckpt_server_main
from repro.mpichv.channelmemory import channel_memory_main
from repro.mpichv.daemonbase import daemon_lifecycle
from repro.mpichv.eventlog import eventlog_main
from repro.mpichv.scheduler import scheduler_main
from repro.mpichv.v1daemon import V1Daemon
from repro.mpichv.v2daemon import V2Daemon
from repro.mpichv.vdaemon import VclDaemon


@dataclass(frozen=True)
class ServiceSpec:
    """One service process a protocol's deployment spawns."""

    name: str                         # process name (e.g. "scheduler")
    node: str                         # service node (e.g. "svc1")
    main: Callable[[Any], Any]        # proc -> generator


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything the runtime needs to deploy one protocol."""

    name: str
    core_cls: type
    #: config -> [ServiceSpec]; spawned in order by deploy()
    service_plan: Callable[[Any], List[ServiceSpec]]
    #: failure recovery restarts only the failed rank (vs. everyone)
    single_rank_restart: bool
    description: str = ""
    #: protocol-specific config checks; raises ValueError
    validate: Optional[Callable[[Any], None]] = None
    #: service nodes beyond the baseline (dispatcher + svc1 + servers)
    extra_service_nodes: Callable[[Any], int] = field(
        default=lambda config: 0)
    #: post-run correctness invariants: ``runtime -> [violation, ...]``.
    #: Called by :meth:`repro.mpichv.runtime.VclRuntime.run` after the
    #: simulation finishes (service state objects outlive their
    #: processes); the exploration oracles (:mod:`repro.explore`)
    #: treat any returned string as a protocol bug.
    invariants: Optional[Callable[[Any], List[str]]] = None
    #: how many *simultaneous* failures the protocol promises to
    #: survive; ``None`` means no documented limit.  V2's volatile
    #: sender logs make concurrent failures beyond one a known, faithful
    #: stall mode (module docstring of :mod:`repro.mpichv.v2daemon`) —
    #: the exploration oracles excuse a non-terminating run only when
    #: the fault plan exceeded this.
    simultaneous_tolerance: Optional[int] = None

    def daemon_main(self, proc, config, rank: int, epoch: int,
                    incarnation: int, app_factory):
        """Main generator of this protocol's communication daemon."""
        return daemon_lifecycle(self.core_cls, proc, config, rank, epoch,
                                incarnation, app_factory)


def available() -> List[str]:
    """Protocol names, sorted."""
    return sorted(PROTOCOLS)


def get_spec(name: str) -> ProtocolSpec:
    """Look a protocol up; unknown names raise ``ValueError``."""
    return lookup(PROTOCOLS, "protocol", name)


def daemon_main_for(config) -> Callable:
    """The daemon entry point ``dispatcher.spawn_slot`` launches.

    Without fault tolerance every protocol degrades to the plain Vcl
    daemon relaying messages with no services attached (the paper's
    Vdummy baseline).
    """
    name = config.protocol if config.fault_tolerant else "vcl"
    return get_spec(name).daemon_main


def validate_config(config) -> None:
    """Protocol-specific part of ``VclConfig.__post_init__``."""
    spec = get_spec(config.protocol)       # raises on unknown protocol
    if spec.validate is not None:
        spec.validate(config)


def extra_service_nodes(config) -> int:
    return get_spec(config.protocol).extra_service_nodes(config)


def check_invariants(runtime) -> List[str]:
    """Run the deployed protocol's invariant hook against ``runtime``.

    Returns the (possibly empty) list of violations; protocols without
    a hook — and non-fault-tolerant deployments, which run none of the
    protocol services — report none.
    """
    if not runtime.config.fault_tolerant:
        return []
    spec = get_spec(runtime.config.protocol)
    if spec.invariants is None:
        return []
    return list(spec.invariants(runtime))


# ---------------------------------------------------------------------------
# built-in protocols
# ---------------------------------------------------------------------------

def _ckpt_servers(config) -> List[ServiceSpec]:
    """One checkpoint server per shard (placement: repro.mpichv.shardmap)."""
    return [
        ServiceSpec(name=f"ckptserver.{i}", node=shardmap.ckpt_server_node(i),
                    main=(lambda p, i=i: ckpt_server_main(p, config, i)))
        for i in range(config.n_ckpt_servers)
    ]


def _vcl_plan(config) -> List[ServiceSpec]:
    return _ckpt_servers(config) + [
        ServiceSpec(name="scheduler", node=shardmap.COORDINATOR_NODE,
                    main=lambda p: scheduler_main(p, config)),
    ]


def _v2_plan(config) -> List[ServiceSpec]:
    # uncoordinated checkpoints need no scheduler; the coordinator slot
    # hosts the stable event logger instead
    return _ckpt_servers(config) + [
        ServiceSpec(name="eventlog", node=shardmap.COORDINATOR_NODE,
                    main=lambda p: eventlog_main(p, config)),
    ]


def _v1_plan(config) -> List[ServiceSpec]:
    # no scheduler and no event logger (the coordinator node stays
    # idle): the channel memories are both the transport and the
    # stable log
    return _ckpt_servers(config) + [
        ServiceSpec(
            name=f"channelmemory.{i}",
            node=shardmap.cm_node(config, i),
            main=(lambda p, i=i: channel_memory_main(p, config, i)))
        for i in range(config.n_channel_memories)
    ]


def _dense_suffix_violations(label: str, histories) -> List[str]:
    """Positions of a pessimistic log must stay strictly consecutive.

    Both stable logs (V2 delivery events, V1 CM entries) allocate
    strictly increasing positions and prune only prefixes, so whatever
    survives must be a dense run — any gap means a logged event was
    lost, i.e. the "logged before delivered" guarantee broke.
    """
    out: List[str] = []
    for rank, positions in histories:
        for prev, cur in zip(positions, positions[1:]):
            if cur != prev + 1:
                out.append(f"{label}: rank {rank} log gap "
                           f"(pos {prev} -> {cur})")
                break
    return out


def _vcl_invariants(runtime) -> List[str]:
    """Coordinated-checkpoint consistency (Chandy-Lamport)."""
    out: List[str] = []
    sched = runtime.scheduler_state
    disp = runtime.dispatcher_state
    if sched is not None:
        if sched.waves_committed + sched.waves_aborted > sched.waves_started:
            out.append(
                f"vcl: {sched.waves_committed} committed + "
                f"{sched.waves_aborted} aborted waves exceed "
                f"{sched.waves_started} started")
        if sched.committed_wave is not None \
                and sched.committed_wave > sched.wave_id:
            out.append(f"vcl: committed wave {sched.committed_wave} "
                       f"was never started (latest {sched.wave_id})")
    if disp is not None and disp.restore_wave is not None:
        committed = sched.committed_wave if sched is not None else None
        if committed is None or disp.restore_wave > committed:
            out.append(
                f"vcl: rollback restored wave {disp.restore_wave} which "
                f"the scheduler never committed (committed={committed})")
    return out


def _v2_invariants(runtime) -> List[str]:
    """Sender-based logging: the stable delivery log must be complete."""
    proc = runtime.eventlog_proc
    state = proc.tags.get("evlog_state") if proc is not None else None
    if state is None:
        return ["v2: event logger never deployed"]
    return _dense_suffix_violations(
        "v2 event log",
        [(rank, [pos for pos, _src, _seq in history])
         for rank, history in sorted(state.events.items())])


def _v1_invariants(runtime) -> List[str]:
    """Channel Memories: total order per receiver, FIFO per channel."""
    out: List[str] = []
    states = [proc.tags.get("cm_state") for proc in runtime.cm_procs]
    if not states or any(s is None for s in states):
        return ["v1: channel memories never deployed"]
    for cm_index, state in enumerate(states):
        out.extend(_dense_suffix_violations(
            f"v1 CM {cm_index}",
            [(dst, [pos for pos, _src, _seq, _msg in entries])
             for dst, entries in sorted(state.logs.items())]))
        for dst, entries in sorted(state.logs.items()):
            seen: dict = {}
            for pos, src, seq, _msg in entries:
                if seq <= seen.get(src, 0):
                    out.append(f"v1 CM {cm_index}: channel {src}->{dst} "
                               f"seq {seq} out of order at pos {pos}")
                    break
                seen[src] = seq
            last = state.next_pos.get(dst, 0)
            if entries and entries[-1][0] > last:
                out.append(f"v1 CM {cm_index}: receiver {dst} position "
                           f"counter {last} behind log tail {entries[-1][0]}")
    return out


def _require_non_blocking(config) -> None:
    if config.blocking:
        raise ValueError("blocking applies to the vcl protocol only")


def _validate_v1(config) -> None:
    _require_non_blocking(config)
    if config.n_channel_memories < 1:
        raise ValueError("v1 needs at least one channel memory")


#: every protocol the runtime can deploy, by name
PROTOCOLS: Dict[str, ProtocolSpec] = {spec.name: spec for spec in (
    ProtocolSpec(
        name="vcl",
        core_cls=VclDaemon,
        service_plan=_vcl_plan,
        single_rank_restart=False,
        description=("coordinated non-blocking Chandy-Lamport "
                     "checkpointing (the paper's protocol)"),
        invariants=_vcl_invariants,
    ),
    ProtocolSpec(
        name="v2",
        core_cls=V2Daemon,
        service_plan=_v2_plan,
        single_rank_restart=True,
        description=("pessimistic sender-based message logging with "
                     "uncoordinated checkpoints [BCH+03]"),
        validate=_require_non_blocking,
        invariants=_v2_invariants,
        simultaneous_tolerance=1,
    ),
    ProtocolSpec(
        name="v1",
        core_cls=V1Daemon,
        service_plan=_v1_plan,
        single_rank_restart=True,
        description=("remote pessimistic logging in stable Channel "
                     "Memories (MPICH-V1)"),
        validate=_validate_v1,
        extra_service_nodes=lambda config: config.n_channel_memories,
        invariants=_v1_invariants,
    ),
)}
