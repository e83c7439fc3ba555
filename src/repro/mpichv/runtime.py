"""Top-level wiring: build a cluster, deploy MPICH-V, run an app.

A :class:`VclRuntime` owns one complete deployment (Fig. 2b of the
paper, generalized to sharded services): compute machines
``m0..m{M-1}`` plus the service nodes laid out by
:mod:`repro.mpichv.shardmap` — the dispatcher, the protocol's
coordinator (scheduler / event logger), ``n_ckpt_servers``
checkpoint-server shards, and any protocol extras (channel
memories).  The runtime is also what the FAIL-MPI platform attaches
to (it injects faults into the ``vdaemon.*`` processes spawned on the
compute machines).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.classify import Outcome, RunVerdict, classify_run
from repro.analysis.coverage import run_signature
from repro.analysis.traces import Trace
from repro.cluster.cluster import Cluster
from repro.mpichv import protocols, shardmap
from repro.mpichv.config import VclConfig
from repro.mpichv.dispatcher import dispatcher_main
from repro.obs.spans import Obs
from repro.simkernel.engine import Engine, gc_paused


#: the dispatcher's metric counters, as folds of its coverage probes'
#: hit counts: each probe label starting with the first entry counts
#: into the second (``None``: the label names its own counter).  A
#: failure detected on a socket closure is one probe per dispatcher
#: phase, so those sum into one counter.
METRIC_COUNTERS = (
    ("disp.rx.", None),
    ("disp.launch_death", "disp.detect.launch"),
    ("disp.closure.bug_misattribution", "disp.detect.missed"),
    ("disp.closure.failure.", "disp.detect.closure"),
)


@dataclass
class RunResult:
    """Everything an experiment needs from a single run.

    The run's counted facts — restarts, detected failures, the paper's
    bug events, committed checkpoint waves — are the trace's per-kind
    ``counts``, read through properties: the trace states them once.
    """

    verdict: RunVerdict
    trace: Trace
    sim_time: float
    events_processed: int
    #: workload verification checksum (the ``checksum`` of the last
    #: ``verify_ok`` record; every workload logs ``verify_ok`` only
    #: once its total equals the expected value, and raises otherwise,
    #: so the last is the first), or None when the run never verified
    #: — the exploration oracles compare it bit-for-bit against a
    #: fault-free golden run
    app_signature: Optional[int] = None
    #: violations reported by the protocol's invariant hook
    #: (:func:`repro.mpichv.protocols.check_invariants`)
    invariant_violations: List[str] = field(default_factory=list)
    #: fabric traffic accounting (see :mod:`repro.netmodel`): totals
    #: plus the busiest link and its byte count (the hot spot)
    net_bytes: int = 0
    net_messages: int = 0
    net_hotspot: Optional[str] = None
    net_hotspot_bytes: int = 0
    #: per-shard checkpoint-server ingest (bytes written through each
    #: server's disk, indexed by shard) — how evenly the shard map
    #: spreads the Fig. 6 ingest bottleneck over ``n_ckpt_servers``
    ckpt_shard_bytes: List[int] = field(default_factory=list)
    #: hex wire form of the run's coverage signature (see
    #: :mod:`repro.analysis.coverage`): dispatcher/daemon probe labels
    #: plus hit-bucketed trace counters, folded into a fixed-width
    #: bitmap.
    coverage: str = ""
    #: the compact observability document (see :mod:`repro.obs`):
    #: span rows, the metrics and the causal folds.  ``None``
    #: when the trial ran with ``observe=False``.  All of it is a pure
    #: function of the simulated history — serialized, cached, and
    #: byte-compared across serial/pooled/cached execution.
    obs: Optional[Dict[str, Any]] = None

    @property
    def ckpt_shard_imbalance(self) -> float:
        """max/mean ingest ratio across shards (1.0 = perfectly even;
        0.0 when nothing was ingested)."""
        per_shard = self.ckpt_shard_bytes
        if not per_shard or not sum(per_shard):
            return 0.0
        return max(per_shard) / (sum(per_shard) / len(per_shard))

    @property
    def restarts(self) -> int:
        return self.trace.count("restart_wave")

    @property
    def bug_events(self) -> int:
        return self.trace.count("bug_misattribution")

    @property
    def failures_detected(self) -> int:
        return self.trace.count("failure_detected")

    @property
    def waves_committed(self) -> int:
        return self.trace.count("ckpt_wave_complete")

    @property
    def outcome(self) -> Outcome:
        return self.verdict.outcome

    @property
    def exec_time(self) -> Optional[float]:
        return self.verdict.exec_time


class VclRuntime:
    """One deployment of the MPICH-V(cl) environment."""

    def __init__(self, config: VclConfig,
                 app_factory: Callable,
                 seed: int = 0,
                 keep_trace: bool = True,
                 observe: bool = True):
        self.config = config
        self.trace = Trace(keep=keep_trace)
        self.engine = Engine(seed=seed, trace=self.trace)
        #: recovery-phase spans + the causal record (see
        #: :mod:`repro.obs`); with ``observe=False`` every instrumented
        #: call site short-circuits to a shared null span and the result
        #: carries ``obs=None``
        self.obs: Optional[Obs] = Obs(self.engine) if observe else None
        self.engine.obs = self.obs
        self.cluster = Cluster(
            self.engine, config.n_machines,
            latency=config.timing.net_latency,
            bandwidth=config.timing.net_bandwidth,
            name_prefix="m",
            topology=config.topology,
        )
        for i in range(config.n_service_nodes):
            self.cluster.add_node(f"svc{i}")
        self.machines: List[str] = [f"m{i}" for i in range(config.n_machines)]
        self.app_factory = app_factory
        self._deployed = False
        self.dispatcher_proc = None
        #: service-process name -> UnixProcess (protocol service plan)
        self.service_procs: Dict[str, Any] = {}

    # -- deployment -----------------------------------------------------------
    def deploy(self) -> None:
        """Spawn the service processes (idempotent).

        Which services run — checkpoint servers, a scheduler, an event
        logger, channel memories — is the protocol's *service plan*,
        declared by its :class:`repro.mpichv.protocols.ProtocolSpec`.
        """
        if self._deployed:
            return
        self._deployed = True
        cfg = self.config
        if cfg.fault_tolerant:
            spec = protocols.get_spec(cfg.protocol)
            for svc in spec.service_plan(cfg):
                proc = self.cluster.node(svc.node).spawn(
                    svc.name, svc.main, notify=False)
                self.service_procs[svc.name] = proc
        self.dispatcher_proc = self.cluster.node(shardmap.DISPATCHER_NODE).spawn(
            "dispatcher",
            lambda p: dispatcher_main(p, cfg, self.app_factory, self.machines),
            notify=False)

    # -- service-process views (by conventional plan names) -------------------
    @property
    def scheduler_proc(self):
        return self.service_procs.get("scheduler")

    @property
    def eventlog_proc(self):
        return self.service_procs.get("eventlog")

    @property
    def cm_procs(self) -> List[Any]:
        return [proc for name, proc in self.service_procs.items()
                if name.startswith("channelmemory.")]

    @property
    def dispatcher_state(self):
        return self.dispatcher_proc.tags.get("disp_state") if self.dispatcher_proc else None

    @property
    def scheduler_state(self):
        return self.scheduler_proc.tags.get("sched_state") if self.scheduler_proc else None

    # -- execution --------------------------------------------------------------
    def run(self, timeout: Optional[float] = None) -> RunResult:
        """Deploy (if needed) and run until completion or ``timeout``.

        As in the paper, a run that has not finalized by the timeout is
        killed and classified from its trace.
        """
        timeout = timeout if timeout is not None else self.config.timeout
        self.deploy()
        # Large deployments are GC-bound, not CPU-bound: pause the
        # cyclic collector for the simulation (see
        # :func:`repro.simkernel.engine.gc_paused` for the policy;
        # ``TrialSetup.run_one`` holds an outer pause until the
        # deployment is dropped, a caller that keeps the runtime gets
        # the collector back here).  The dispatcher stops the engine at
        # ``app_done``.
        with gc_paused():
            self.engine.run(until=timeout)
        # A crashed simulated thread usually shows up only as the
        # timeout it causes; name it in the trace so the timeline and
        # the verdict's reason do.
        for failed in self.engine.process_failures:
            self.engine.log("thread_crashed", thread=failed.name,
                            error=repr(failed.error))

        # Coverage signature: probe labels hit during the run (branch
        # points in the dispatcher / daemon lifecycle) plus
        # hit-bucketed trace-kind counters — the greybox search signal
        # of :mod:`repro.explore`.  Computed here so pooled and
        # cache-loaded results carry it identically to live ones.
        coverage = run_signature(self.engine.coverage,
                                 self.trace.counts).hex
        network = self.cluster.network
        hotspot_link, hotspot_bytes = network.hotspot()
        # per-shard ingest accounting (service state outlives the procs)
        shard_bytes = [int(ckpt_state.bytes_ingested)
                       if ckpt_state is not None else 0
                       for ckpt_state in self._ckpt_states()]
        obs_doc = self._finalize_obs()
        verdict = classify_run(self.trace, timeout)
        verified = self.trace.last("verify_ok")
        return RunResult(
            verdict=verdict,
            trace=self.trace,
            sim_time=self.engine.now,
            events_processed=self.engine.events_processed,
            app_signature=(verified.fields.get("checksum")
                           if verified is not None else None),
            invariant_violations=protocols.check_invariants(self),
            net_bytes=network.bytes_sent,
            net_messages=network.messages_sent,
            net_hotspot=hotspot_link,
            net_hotspot_bytes=hotspot_bytes,
            ckpt_shard_bytes=shard_bytes,
            coverage=coverage,
            obs=obs_doc,
        )

    def _ckpt_states(self) -> List[Any]:
        """Each checkpoint server's state (None if it never started),
        in shard order."""
        server_items = sorted(
            ((name, proc) for name, proc in self.service_procs.items()
             if name.startswith("ckptserver.")),
            key=lambda item: int(item[0].split(".")[-1]))
        return [proc.tags.get("ckpt_state") for _name, proc in server_items]

    def _finalize_obs(self) -> Optional[Dict[str, Any]]:
        """Fold end-of-run state into the ``metrics`` document and
        freeze the obs document.

        Every metric is a fold of state the run keeps anyway: the
        dispatcher's counters are hit counts of its coverage probes
        (:data:`METRIC_COUNTERS`), the disk-wait histograms are the
        checkpoint servers' own, the gauges are the channel memories'
        counters.  The dispatcher, scheduler, fabric and
        checkpoint-ingest totals are flat fields of the result and are
        not restated here.
        """
        obs = self.obs
        if obs is None:
            return None
        counters: Dict[str, int] = {}
        for label, hits in self.engine.coverage.items():
            for probe, name in METRIC_COUNTERS:
                if label.startswith(probe):
                    name = name or label
                    counters[name] = counters.get(name, 0) + hits
                    break
        gauges: Dict[str, int] = {}
        cm_items = sorted(
            (name, proc) for name, proc in self.service_procs.items()
            if name.startswith("channelmemory."))
        for name, proc in cm_items:
            cm = proc.tags.get("cm_state")
            if cm is None:
                continue
            prefix = f"cm.{name.split('.')[-1]}"
            for field_name in ("logged", "duplicates", "forwarded", "pruned"):
                gauges[f"{prefix}.{field_name}"] = getattr(cm, field_name)
        histograms = {
            f"ckptsrv.{i}.disk.wait_ms": ckpt_state.disk_wait_ms
            for i, ckpt_state in enumerate(self._ckpt_states())
            if ckpt_state is not None and ckpt_state.disk_wait_ms}
        metrics = {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": {
                name: {str(b): n for b, n in sorted(hist.items())}
                for name, hist in sorted(histograms.items())},
        }
        obs.finalize(self.engine.now)
        return obs.to_doc(metrics)

    # -- teardown ---------------------------------------------------------------
    def dispose(self) -> None:
        """Does nothing; kept because ``bench/child.py`` times it.

        A :class:`RunResult` names nothing of the deployment — its
        trace is plain data with no live wiring — so dropping the
        runtime is all teardown takes, and the collector frees the
        dead deployment's O(N) cycles in one pass.
        """
