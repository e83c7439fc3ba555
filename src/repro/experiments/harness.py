"""Shared experiment machinery.

One *trial* = one deployment of the MPICH-V runtime (any of its
protocols) running one of the workloads (BT by default) under a FAIL
scenario, killed at the 1500 s timeout if still running, classified
from its trace exactly as in the paper (§5: terminated /
non-terminating / buggy).  One *row* = several repetitions of the same
configuration (the paper runs 5–6); a *result* = the set of rows a
figure plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.classify import Outcome
from repro.analysis.stats import mean, stdev
from repro.experiments.runner import TrialRunner
from repro.fail.scenario import Binding, deploy_scenario
from repro.mpichv.config import VclConfig
from repro.mpichv.runtime import RunResult, VclRuntime
from repro.netmodel.spec import TopologySpec
from repro.simkernel.engine import gc_paused
from repro.workloads import build_workload


@dataclass
class TrialSetup:
    """Everything needed to build one trial, and nothing more.

    A trial is its setup and its seed: :meth:`build` reads every field,
    and :func:`~repro.experiments.runner.trial_key` hashes them all.  A
    field ``build`` did not read would split one trial over several
    cache slots, so where a scenario came from (a generator family, a
    shrink, a ``.fail`` file) is not recorded here.
    """

    n_procs: int
    n_machines: int
    scenario_source: Optional[str] = None
    scenario_params: Dict[str, int] = field(default_factory=dict)
    #: instance -> daemon name; groups bind to all compute machines
    master_daemon: str = "ADV1"
    node_daemon: str = "ADV2"
    bug_compat: bool = True
    timeout: float = 1500.0
    #: fault-tolerance protocol, a key of
    #: :data:`repro.mpichv.protocols.PROTOCOLS` ("vcl", "v2", "v1")
    protocol: str = "vcl"
    #: workload name, a key of :data:`repro.workloads.WORKLOADS`
    #: ("bt", "ring", "masterworker")
    workload: str = "bt"
    #: workload-specific parameter overrides (e.g. ``{"rounds": 30}``)
    workload_params: Dict[str, float] = field(default_factory=dict)
    #: calibration (reduced in tests, class-B-like in benchmarks);
    #: non-BT workload builders adapt these to their own knobs
    niters: int = 120
    total_compute: float = 8800.0
    footprint: float = 1.6e9
    #: the other :class:`VclConfig` attributes (e.g. ``{"cm_replay":
    #: False}`` to plant the broken-replay bug the exploration oracles
    #: hunt, or ``{"ckpt_period": 15.0}``); a field of the setup itself
    #: is not one of them.  A ``topology`` override is held as its
    #: :class:`TopologySpec`, so ``"star"``, ``{"model": "star"}`` and
    #: ``TopologySpec("star")`` are one trial under one key; leaving
    #: ``topology`` out and overriding it with ``"uniform"`` build the
    #: same trial under two keys
    config_overrides: Dict[str, object] = field(default_factory=dict)
    #: record recovery-phase spans, the metrics and the causal record
    #: (see :mod:`repro.obs`).  Off by default: no table reads the
    #: ``obs`` document, so a trial is observed only when something
    #: will — a runner with a ``trace_out`` / ``obs_report`` turns it
    #: on for every job (:meth:`TrialRunner.run_jobs`), ``timeline``
    #: asks for it.  Changes what the result *carries*, never what the
    #: simulation *does*, but it IS part of the cache key — an observed
    #: and an unobserved result are different wire documents and must
    #: not alias a cache slot.
    observe: bool = False

    def __post_init__(self):
        # an override restating a field would give one trial two cache
        # keys, and one differing from it would leave the config and
        # the workload disagreeing
        for name in sorted(self.config_overrides):
            if name in _SETUP_FIELDS:
                raise ValueError(
                    f"config override {name!r} is a TrialSetup field, "
                    f"not an extra VclConfig attribute")
        if "topology" in self.config_overrides:
            self.config_overrides = {
                **self.config_overrides,
                "topology": TopologySpec.coerce(
                    self.config_overrides["topology"])}

    def build(self, seed: int, keep_trace: bool = True):
        """Construct (runtime, deployment) for one repetition.  With
        ``keep_trace=False`` the trace keeps no records: the result
        document, and so the cache key, is the same either way."""
        config = VclConfig(
            n_procs=self.n_procs,
            n_machines=self.n_machines,
            bug_compat=self.bug_compat,
            timeout=self.timeout,
            protocol=self.protocol,
            footprint=self.footprint,
            **self.config_overrides,
        )
        workload = build_workload(
            self.workload,
            n_procs=self.n_procs,
            niters=self.niters,
            total_compute=self.total_compute,
            footprint=self.footprint,
            params=self.workload_params,
        )
        runtime = VclRuntime(config, workload.make_factory(), seed=seed,
                             keep_trace=keep_trace,
                             observe=self.observe)
        deployment = None
        if self.scenario_source is not None:
            params = dict(self.scenario_params)
            params.setdefault("N", self.n_machines - 1)
            bindings = {
                "P1": Binding(daemon=self.master_daemon, nodes=None),
                "G1": Binding(daemon=self.node_daemon,
                              nodes=list(runtime.machines)),
            }
            deployment = deploy_scenario(runtime, self.scenario_source,
                                         params=params, bindings=bindings)
        return runtime, deployment

    def run_one(self, seed: int, keep_trace: bool = True) -> RunResult:
        # Throughput path: the collector stays off from the first
        # object of the deployment to the last — with it on, a faulted
        # 512-rank trial takes ~1.35x the CPU in passes that find
        # nothing to free (see gc_paused).  The deployment is dropped
        # inside the pause, on error paths too; the dead graph is O(N)
        # cycles, and the first collection after the pause frees it:
        # the result is plain data and names none of it.
        with gc_paused():
            runtime, deployment = self.build(seed, keep_trace)
            try:
                return runtime.run()
            finally:
                del runtime, deployment


_SETUP_FIELDS = frozenset(f.name for f in fields(TrialSetup))


@dataclass
class ExperimentRow:
    """Aggregated repetitions of one configuration (one bar/point)."""

    label: str
    results: List[RunResult]

    @property
    def n(self) -> int:
        return len(self.results)

    def count(self, outcome: Outcome) -> int:
        return sum(1 for r in self.results if r.outcome is outcome)

    def _pct(self, outcome: Outcome) -> float:
        """Outcome share; an empty row has no runs in any class."""
        return 100.0 * self.count(outcome) / self.n if self.n else 0.0

    @property
    def pct_terminated(self) -> float:
        return self._pct(Outcome.TERMINATED)

    @property
    def pct_non_terminating(self) -> float:
        return self._pct(Outcome.NON_TERMINATING)

    @property
    def pct_buggy(self) -> float:
        return self._pct(Outcome.BUGGY)

    @property
    def exec_times(self) -> List[float]:
        return [r.exec_time for r in self.results if r.exec_time is not None]

    @property
    def mean_exec_time(self) -> Optional[float]:
        times = self.exec_times
        return mean(times) if times else None

    @property
    def stdev_exec_time(self) -> Optional[float]:
        times = self.exec_times
        return stdev(times) if times else None

    @property
    def total_faults(self) -> int:
        return sum(r.failures_detected for r in self.results)

    # -- fabric traffic accounting (see repro.netmodel) --------------------
    @property
    def mean_net_bytes(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.net_bytes for r in self.results) / self.n

    def _hottest_result(self):
        """The repetition with the busiest link (by byte count)."""
        return max(self.results, key=lambda r: r.net_hotspot_bytes,
                   default=None)

    @property
    def hotspot_link(self) -> Optional[str]:
        best = self._hottest_result()
        return best.net_hotspot if best is not None else None

    @property
    def hotspot_share(self) -> float:
        """That same repetition's single-link share of its traffic."""
        best = self._hottest_result()
        if best is None or not best.net_bytes:
            return 0.0
        return best.net_hotspot_bytes / best.net_bytes


@dataclass
class ExperimentResult:
    """All rows of one figure, with rendering helpers."""

    name: str
    rows: List[ExperimentRow]

    def render(self) -> str:
        """ASCII table in the shape of the paper's plots."""
        header = (f"{'config':>22} | {'runs':>4} | {'%term':>6} | "
                  f"{'%non-term':>9} | {'%buggy':>6} | {'exec time (s)':>16} | "
                  f"{'net MB':>8}")
        lines = [f"== {self.name} ==", header, "-" * len(header)]
        for row in self.rows:
            t = row.mean_exec_time
            s = row.stdev_exec_time
            if t is None:
                timing = "(none finished)"
            else:
                timing = f"{t:8.1f} ± {s:6.1f}" if s is not None else f"{t:8.1f}"
            lines.append(
                f"{row.label:>22} | {row.n:>4} | {row.pct_terminated:>6.1f} | "
                f"{row.pct_non_terminating:>9.1f} | {row.pct_buggy:>6.1f} | "
                f"{timing:>16} | {row.mean_net_bytes / 1e6:>8.1f}")
        return "\n".join(lines)

    def row(self, label: str) -> ExperimentRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)


def trial_seed(base_seed: int, config_index: int, rep: int) -> int:
    """Seed for repetition ``rep`` of the ``config_index``-th config.

    The scheme is ``base_seed + 7919 * config_index + rep`` (7919 is
    the 1000th prime, comfortably larger than any repetition count, so
    configs can never collide).  Seeds are a pure function of the
    campaign *layout* — never of scheduling: :func:`run_trials`
    computes the full job list up front and hands it to the runner, so
    worker count, completion order, and cache hits cannot change which
    seed a trial gets.  That is what makes ``workers=N`` bit-for-bit
    reproducible against ``workers=1``.
    """
    return base_seed + 7919 * config_index + rep


def run_trials(setup_for: Callable[[object], TrialSetup],
               configs: Sequence,
               labels: Sequence[str],
               reps: int,
               name: str,
               base_seed: int = 1000,
               runner: Optional[TrialRunner] = None) -> ExperimentResult:
    """Run ``reps`` repetitions of each configuration.

    ``setup_for(config)`` builds the TrialSetup for one x-axis value.
    Seeds come from :func:`trial_seed` — deterministic in
    ``(config index, rep)`` and independent of execution order.

    Execution is delegated to ``runner`` (pass one to choose the pool
    width and cache, and to share them and their stats across figures;
    the default runs serially, uncached).  The whole campaign is
    submitted as a single flat job list so a multi-worker pool stays
    busy across row boundaries.
    """
    runner = runner or TrialRunner()
    pairs = list(zip(configs, labels))
    setups = [setup_for(config) for config, _label in pairs]
    jobs = [(setup, trial_seed(base_seed, ci, rep))
            for ci, setup in enumerate(setups)
            for rep in range(reps)]
    flat = runner.run_jobs(jobs)
    rows = [ExperimentRow(label=label,
                          results=flat[ci * reps:(ci + 1) * reps])
            for ci, (_config, label) in enumerate(pairs)]
    return ExperimentResult(name=name, rows=rows)
