"""Exploration campaigns: sweep protocol × workload × generator grids.

A campaign turns a trial budget into a deterministic matrix of
generated fault scenarios, executes every trial through the shared
:class:`~repro.experiments.runner.TrialRunner` (inheriting worker
fan-out, the on-disk result cache and the parallel == serial
bit-for-bit guarantee), checks each result against the recovery
oracles, and delta-debugs any failure down to a minimal ``.fail``
reproducer.

Everything that lands in the verdict table is a pure function of the
campaign seed and configuration: scenario text, trial seeds, row order
and formatting.  Two runs of ``python -m repro explore --quick --seed
7`` produce byte-identical tables — wall-clock numbers go only to the
benchmark JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.experiments.harness import TrialSetup
from repro.experiments.resultstore import ResultStore
from repro.experiments.runner import TrialRunner
from repro.experiments.spec import (MACHINES_FLAG, PROCS_FLAG,
                                    ExperimentSpec, comma_list, flag)
import repro.analysis.coverage as coveragelib
import repro.explore.shrink as shrinklib
from repro.explore import generators
from repro.explore.generators import (GeneratedScenario, GeneratorContext,
                                      render_plan)
from repro.explore.corpus import Corpus, CorpusEntry, default_corpus_dir
from repro.explore.mutate import mutate
from repro.explore.oracles import (OracleReport, coverage_labels,
                                   failed_names, run_oracles)
from repro.fail.lang.errors import FailError
from repro.mpichv import protocols
from repro.mpichv.config import VclConfig
from repro.mpichv.runtime import RunResult
from repro.workloads import available_workloads

#: per-workload calibration at the campaign's default 4-process scale:
#: long enough that the fault window (``generators.WINDOW``) lands mid-run,
#: short enough that a quick campaign stays CI-sized.
CALIBRATIONS: Dict[str, Dict[str, float]] = {
    "ring": {"niters": 40, "total_compute": 1280.0},      # ≈80 s fault-free
    "bt": {"niters": 30, "total_compute": 480.0},         # ≈120 s fault-free
    "masterworker": {"niters": 40, "total_compute": 480.0},
}


def derive_seed(*parts: object) -> int:
    """Stable 31-bit seed from arbitrary labels (hash-stable)."""
    text = ":".join(map(str, parts))
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:8], 16)


@dataclass(frozen=True)
class ExploreConfig:
    """One campaign, fully determined (with a seed) by these knobs."""

    protocols: Tuple[str, ...] = ()          # () -> every protocol
    workloads: Tuple[str, ...] = ("ring",)
    families: Tuple[str, ...] = ()           # () -> every family
    #: total fault-trial budget, split evenly over the grid
    budget: int = 90
    seed: int = 0
    n_procs: int = 4
    n_machines: int = 7
    #: simulated-time budget per trial (the oracle's progress horizon)
    timeout: float = 300.0
    #: explore the fixed dispatcher by default; True hunts the paper's bug
    bug_compat: bool = False
    #: extra VclConfig attributes (e.g. {"cm_replay": False})
    config_overrides: Dict[str, object] = field(default_factory=dict)
    #: candidate-trial budget per shrink, and how many failures to shrink
    shrink_budget: int = 48
    max_shrinks: int = 4
    #: candidate-trial budget for minimize-on-admit in the guided loop
    #: (kept small: corpus plans only need to be *lean*, not minimal)
    corpus_shrink_budget: int = 12

    def resolved_protocols(self) -> Tuple[str, ...]:
        return tuple(self.protocols) or tuple(protocols.available())

    def resolved_families(self) -> Tuple[str, ...]:
        return tuple(sorted(self.families or generators.FAMILIES))

    def resolved_workloads(self) -> Tuple[str, ...]:
        for name in self.workloads:
            if name not in available_workloads():
                raise ValueError(f"unknown workload {name!r}")
        return tuple(self.workloads)

    def generator_context(self) -> GeneratorContext:
        overrides = self.config_overrides
        stride = int(overrides.get("n_channel_memories",
                                   VclConfig.n_channel_memories))
        servers = int(overrides.get("n_ckpt_servers",
                                    VclConfig.n_ckpt_servers))
        return GeneratorContext(
            n_machines=self.n_machines, n_busy=self.n_procs,
            cm_stride=max(1, stride), n_ckpt_servers=max(1, servers))


def quick_config(seed: int = 0, **overrides) -> ExploreConfig:
    """The CI-sized campaign: one scenario per grid cell, ring only."""
    overrides.setdefault("workloads", ("ring",))
    cfg = ExploreConfig(seed=seed, budget=0, **overrides)
    return replace(cfg, budget=len(cfg.resolved_families())
                   * len(golden_cells(cfg)))


# ---------------------------------------------------------------------------
# trial construction
# ---------------------------------------------------------------------------

def trial_setup(cfg: ExploreConfig, workload: str, protocol: str,
                source: Optional[str] = None,
                n_machines: Optional[int] = None) -> TrialSetup:
    """One explore trial: the fault-free golden run without ``source``,
    else the FAIL scenario ``source`` deployed through the generators'
    daemons, on ``n_machines`` machines when a shrink drops some."""
    calibration = CALIBRATIONS.get(workload, {})
    scenario = {} if source is None else dict(
        scenario_source=source, master_daemon=generators.MASTER,
        node_daemon=generators.NODE_DAEMON)
    return TrialSetup(
        n_procs=cfg.n_procs,
        n_machines=cfg.n_machines if n_machines is None else n_machines,
        bug_compat=cfg.bug_compat, timeout=cfg.timeout,
        protocol=protocol, workload=workload,
        niters=int(calibration.get("niters", 30)),
        total_compute=float(calibration.get("total_compute", 480.0)),
        footprint=1e8,
        config_overrides=dict(cfg.config_overrides),
        **scenario,
    )


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    """One trial's classification plus its oracle reports."""

    scenario: GeneratedScenario
    protocol: str
    workload: str
    trial_seed: int
    result: RunResult
    oracles: List[OracleReport]

    @property
    def failed(self) -> List[str]:
        return failed_names(self.oracles)

    def signature(self) -> coveragelib.Signature:
        """The trial's full coverage signature: the runtime's probe
        bitmap (``RunResult.coverage``) OR-ed with the oracle-branch
        and invariant-violation labels — the novelty signal of the
        guided explorer."""
        return (coveragelib.Signature.from_hex(self.result.coverage)
                | coveragelib.Signature.from_labels(
                    coverage_labels(self.oracles, self.result)))

    def sort_key(self):
        return (self.scenario.family, self.scenario.index, self.protocol,
                self.workload)

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario.scenario_id,
            "family": self.scenario.family,
            "index": self.scenario.index,
            "description": self.scenario.description,
            "plan": repr(self.scenario.plan),
            "protocol": self.protocol,
            "workload": self.workload,
            "trial_seed": self.trial_seed,
            "outcome": self.result.outcome.value,
            "exec_time": self.result.exec_time,
            "failures_detected": self.result.failures_detected,
            "restarts": self.result.restarts,
            "app_signature": self.result.app_signature,
            "oracles": {r.name: {"passed": r.passed, "detail": r.detail,
                                 "branch": r.branch}
                        for r in self.oracles},
            "failed": self.failed,
        }


@dataclass
class ShrinkReport:
    """A failing trial reduced to its minimal reproducer."""

    verdict: Verdict
    outcome: shrinklib.ShrinkResult
    #: written .fail path (None when the campaign has no output dir)
    fail_file: Optional[str]
    command: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.verdict.scenario.scenario_id,
            "protocol": self.verdict.protocol,
            "workload": self.verdict.workload,
            "minimal_plan": repr(self.outcome.plan),
            "n_machines": self.outcome.n_machines,
            "trials_used": self.outcome.trials_used,
            "reductions": list(self.outcome.reductions),
            "fail_file": self.fail_file,
            "command": self.command,
        }


@dataclass
class GuidedStats:
    """What the greybox loop did with its budget (all deterministic)."""

    corpus_dir: str
    corpus_size_start: int
    corpus_size_end: int
    edges_start: int
    edges_end: int
    #: trial index (1-based) of every novel-coverage admission
    admit_trials: List[int]
    replayed: int
    seeded: int
    mutants: int
    first_failure_trial: Optional[int]
    baseline_first_failure_trial: Optional[int]

    @property
    def novel_admits(self) -> int:
        return len(self.admit_trials)

    def to_dict(self, total_trials: int) -> Dict[str, object]:
        return {
            "corpus_dir": self.corpus_dir,
            "corpus_size_start": self.corpus_size_start,
            "corpus_size_end": self.corpus_size_end,
            "edges_start": self.edges_start,
            "edges_end": self.edges_end,
            "novel_admits": self.novel_admits,
            "admit_trials": list(self.admit_trials),
            # mean trials spent per novel admission (search efficiency)
            "trials_to_novelty": (total_trials / self.novel_admits
                                  if self.admit_trials else None),
            "replayed": self.replayed,
            "seeded": self.seeded,
            "mutants": self.mutants,
            "first_failure_trial": self.first_failure_trial,
            "baseline_first_failure_trial":
                self.baseline_first_failure_trial,
        }


@dataclass
class CampaignResult:
    config: ExploreConfig
    rows: List[Verdict]
    goldens: Dict[Tuple[str, str], RunResult]
    shrinks: List[ShrinkReport]
    executed: int
    cache_hits: int
    wall_seconds: float
    #: present on guided (--guided) campaigns only
    guided: Optional[GuidedStats] = None
    #: the ``explore`` command's exit status (``--require-clean``)
    exit_status: int = 0

    @property
    def failures(self) -> List[Verdict]:
        return [v for v in self.rows if v.failed]

    def oracle_pass_rates(self) -> Dict[str, float]:
        rates: Dict[str, float] = {}
        if not self.rows:
            return rates
        for name in [r.name for r in self.rows[0].oracles]:
            passed = sum(1 for v in self.rows
                         for r in v.oracles if r.name == name and r.passed)
            rates[name] = passed / len(self.rows)
        return rates

    def family_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for v in self.rows:
            counts[v.scenario.family] = counts.get(v.scenario.family, 0) + 1
        return counts

    # -- rendering (fully deterministic) -----------------------------------
    def render_table(self) -> str:
        header = (f"{'scenario':>26} | {'protocol':>8} | {'workload':>12} | "
                  f"{'outcome':>15} | {'time':>7} | {'inj':>3} | oracles")
        lines = [f"== explore campaign (seed {self.config.seed}, "
                 f"{len(self.rows)} trials) ==", header, "-" * len(header)]
        for v in self.rows:
            t = v.result.exec_time
            timing = f"{t:7.1f}" if t is not None else "      -"
            status = "ok" if not v.failed else ",".join(v.failed)
            lines.append(
                f"{v.scenario.scenario_id:>26} | {v.protocol:>8} | "
                f"{v.workload:>12} | {v.result.outcome.value:>15} | "
                f"{timing} | {v.result.failures_detected:>3} | {status}")
        lines.append("-" * len(header))
        for name, rate in sorted(self.oracle_pass_rates().items()):
            lines.append(f"oracle {name:>22}: {100.0 * rate:6.1f} % pass")
        for family, count in sorted(self.family_counts().items()):
            lines.append(f"family {family:>22}: {count} trial(s)")
        if self.guided is not None:
            g = self.guided
            lines.append(
                f"guided: corpus {g.corpus_size_start} -> "
                f"{g.corpus_size_end} entries, edges {g.edges_start} -> "
                f"{g.edges_end}, {g.novel_admits} admits "
                f"({g.replayed} replayed, {g.seeded} seeded, "
                f"{g.mutants} mutants)")
            if g.first_failure_trial is not None:
                lines.append(
                    f"guided: first unexcused failure at trial "
                    f"{g.first_failure_trial}")
        lines.append(f"failures: {len(self.failures)}")
        for report in self.shrinks:
            lines.append(
                f"shrunk {report.verdict.scenario.scenario_id} "
                f"[{report.verdict.protocol}/{report.verdict.workload}]: "
                + shrinklib.describe(report.outcome,
                                     report.verdict.scenario.plan))
        return "\n".join(lines) + "\n"

    def to_json(self) -> Dict[str, object]:
        """Deterministic document (no wall-clock entries)."""
        return {
            "seed": self.config.seed,
            "protocols": list(self.config.resolved_protocols()),
            "workloads": list(self.config.resolved_workloads()),
            "families": list(self.config.resolved_families()),
            "budget": self.config.budget,
            "trials": len(self.rows),
            "rows": [v.to_dict() for v in self.rows],
            "oracle_pass_rates": self.oracle_pass_rates(),
            "family_counts": self.family_counts(),
            "failures": len(self.failures),
            "shrinks": [s.to_dict() for s in self.shrinks],
            "guided": (self.guided.to_dict(len(self.rows))
                       if self.guided is not None else None),
        }

    def bench_json(self) -> Dict[str, object]:
        """Benchmark document (includes wall-clock); the command adds
        ``wall_seconds``, ``executed`` and ``cache_hits``."""
        total = self.executed + self.cache_hits
        return {
            "campaign": {
                "seed": self.config.seed,
                "trials": len(self.rows),
                "goldens": len(self.goldens),
                "failures": len(self.failures),
            },
            "trials_per_second": (total / self.wall_seconds
                                  if self.wall_seconds > 0 else None),
            "oracle_pass_rates": self.oracle_pass_rates(),
            "shrink_steps": [s.to_dict() for s in self.shrinks],
            "guided": (self.guided.to_dict(len(self.rows))
                       if self.guided is not None else None),
        }


# ---------------------------------------------------------------------------
# the judge: every trial the explorer runs goes through it
# ---------------------------------------------------------------------------

class Trial(NamedTuple):
    """One fault trial: ``scenario`` on a ``(protocol, workload)`` cell."""

    scenario: GeneratedScenario
    protocol: str
    workload: str
    seed: int


def golden_cells(cfg: ExploreConfig) -> List[Tuple[str, str]]:
    """The campaign's ``(protocol, workload)`` cells, in golden order."""
    return [(protocol, workload) for protocol in cfg.resolved_protocols()
            for workload in cfg.resolved_workloads()]


def _seeded_trial(cfg: ExploreConfig, scenario: GeneratedScenario,
                  protocol: str, workload: str) -> Trial:
    return Trial(scenario, protocol, workload,
                 derive_seed(cfg.seed, scenario.family, scenario.index,
                             protocol, workload))


def judge(cfg: ExploreConfig, runner: TrialRunner,
          goldens: Dict[Tuple[str, str], RunResult], trials: List[Trial],
          cells: Sequence[Tuple[str, str]] = ()) -> List[Verdict]:
    """Run (or load) ``trials`` in one batch and judge each by the oracles.

    This is where golden runs are made: the fault-free golden of every
    cell in ``cells`` or among ``trials`` that ``goldens`` lacks leads
    the same batch and is added to ``goldens``.  A trial's plan feeds
    the progress oracle's documented-limitation excuse; a scenario
    without one (a replayed ``.fail`` file) is judged strictly.
    """
    wanted = [*cells, *((t.protocol, t.workload) for t in trials)]
    missing = [cell for cell in dict.fromkeys(wanted) if cell not in goldens]
    jobs = [(trial_setup(cfg, workload, protocol),
             derive_seed(cfg.seed, "golden", protocol, workload))
            for protocol, workload in missing]
    jobs += [(trial_setup(cfg, t.workload, t.protocol,
                          source=t.scenario.source,
                          n_machines=t.scenario.n_machines), t.seed)
             for t in trials]
    results = runner.run_jobs(jobs)
    goldens.update(zip(missing, results))
    return [Verdict(scenario=t.scenario, protocol=t.protocol,
                    workload=t.workload, trial_seed=t.seed, result=result,
                    oracles=run_oracles(result,
                                        goldens[(t.protocol, t.workload)],
                                        plan=t.scenario.plan,
                                        protocol=t.protocol))
            for t, result in zip(trials, results[len(missing):])]


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def _repro_command(cfg: ExploreConfig, verdict: Verdict,
                   outcome: shrinklib.ShrinkResult,
                   fail_file: Optional[str]) -> str:
    """One line that replays the minimal scenario."""
    parts = [
        "python -m repro explore",
        f"--replay {fail_file or '<scenario.fail>'}",
        f"--protocols {verdict.protocol}",
        f"--workloads {verdict.workload}",
        f"--procs {cfg.n_procs}",
        f"--machines {outcome.n_machines}",
        f"--trial-seed {verdict.trial_seed}",
        f"--timeout {cfg.timeout:g}",
    ]
    if cfg.bug_compat:
        parts.append("--bug-compat")
    for key, value in sorted(cfg.config_overrides.items()):
        parts.append(f"--override {key}={value}")
    return " ".join(parts)


def run_campaign(cfg: ExploreConfig,
                 runner: Optional[TrialRunner] = None,
                 out_dir: Optional[str] = None) -> CampaignResult:
    """Execute one campaign; see the module docstring for guarantees."""
    t0 = time.perf_counter()
    runner = runner or TrialRunner()
    before = runner.stats.snapshot()
    families = cfg.resolved_families()
    cells = golden_cells(cfg)
    per_family = max(1, cfg.budget // max(1, len(families) * len(cells)))
    scenarios = generators.generate_suite(families, per_family, cfg.seed,
                                          cfg.generator_context())

    # one batch: the goldens first, then every (scenario, cell) trial
    goldens: Dict[Tuple[str, str], RunResult] = {}
    rows = judge(cfg, runner, goldens,
                 [_seeded_trial(cfg, scenario, protocol, workload)
                  for scenario in scenarios for protocol, workload in cells],
                 cells=cells)
    rows.sort(key=Verdict.sort_key)

    shrinks = _shrink_failures(cfg, rows, goldens, runner, out_dir)
    executed, hits = runner.stats.snapshot()
    return CampaignResult(
        config=cfg, rows=rows, goldens=goldens, shrinks=shrinks,
        executed=executed - before[0], cache_hits=hits - before[1],
        wall_seconds=time.perf_counter() - t0)


def _shrink_failures(cfg: ExploreConfig, rows: List[Verdict],
                     goldens: Dict[Tuple[str, str], RunResult],
                     runner: TrialRunner,
                     out_dir: Optional[str]) -> List[ShrinkReport]:
    reports: List[ShrinkReport] = []
    for verdict in [v for v in rows if v.failed][:cfg.max_shrinks]:

        def still_fails(plan, n_machines, _verdict=verdict):
            scenario = replace(_verdict.scenario, plan=plan,
                               n_machines=n_machines,
                               source=render_plan(plan))
            (candidate,) = judge(cfg, runner, goldens, [Trial(
                scenario, _verdict.protocol, _verdict.workload,
                _verdict.trial_seed)])
            return bool(candidate.failed)

        outcome = shrinklib.shrink(
            verdict.scenario.plan, cfg.n_machines,
            still_fails=still_fails, min_machines=cfg.n_procs,
            budget=cfg.shrink_budget)
        fail_file = None
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            name = (f"shrunk_{verdict.scenario.family}"
                    f"{verdict.scenario.index}_{verdict.protocol}"
                    f"_{verdict.workload}.fail")
            fail_file = os.path.join(out_dir, name)
            with open(fail_file, "w", encoding="utf-8") as fh:
                fh.write(outcome.source)
        reports.append(ShrinkReport(
            verdict=verdict, outcome=outcome, fail_file=fail_file,
            command=_repro_command(cfg, verdict, outcome, fail_file)))
    return reports


# ---------------------------------------------------------------------------
# the guided (greybox) driver
# ---------------------------------------------------------------------------

def _guided_scenario(cfg: ExploreConfig, plan,
                     description: str) -> GeneratedScenario:
    """Wrap a plan for a guided trial with digest-only identity.

    The scenario id is a pure function of the plan (no trial counter,
    no campaign seed), so re-running the same plan — in this campaign,
    the next one, or a corpus replay — reconstructs a byte-identical
    :class:`TrialSetup` and lands on the same trial-cache key.
    """
    digest = generators.plan_digest(plan, cfg.n_machines)
    return GeneratedScenario(
        family=f"g{digest[:10]}", index=0, plan=plan,
        n_machines=cfg.n_machines, source=render_plan(plan),
        description=description)


def _guided_trial(cfg: ExploreConfig, scenario: GeneratedScenario,
                  protocol: str, workload: str) -> Trial:
    return Trial(scenario, protocol, workload,
                 derive_seed(cfg.seed, "guided", scenario.family, protocol,
                             workload))


def _minimize_for_corpus(cfg: ExploreConfig, runner: TrialRunner,
                         goldens: Dict[Tuple[str, str], RunResult],
                         verdict: Verdict,
                         mask: "coveragelib.Signature") -> Verdict:
    """Minimize-on-admit: shrink the plan while it keeps ``mask``.

    Reuses the delta-debugging shrinker with "still hits every novel
    coverage bit" as the predicate (machine count pinned — corpus
    plans must all fit the campaign deployment).  Returns the verdict
    of the reduced plan, so the corpus entry's signature and failure
    flags describe what was actually admitted.
    """
    plan = verdict.scenario.plan
    if len(plan) <= 1 or cfg.corpus_shrink_budget <= 0:
        return verdict

    def judge_plan(candidate, description: str) -> Verdict:
        scenario = _guided_scenario(cfg, candidate, description)
        (judged,) = judge(cfg, runner, goldens, [_guided_trial(
            cfg, scenario, verdict.protocol, verdict.workload)])
        return judged

    def keeps_novelty(candidate, _n_machines):
        return judge_plan(candidate, "corpus minimization") \
            .signature().covers(mask)

    outcome = shrinklib.shrink(
        plan, cfg.n_machines, still_fails=keeps_novelty,
        min_machines=cfg.n_machines, budget=cfg.corpus_shrink_budget)
    if outcome.plan == plan:
        return verdict
    return judge_plan(outcome.plan,
                      f"minimized: {verdict.scenario.description}")


def seeded_first_failure(cfg: ExploreConfig, runner: TrialRunner,
                         goldens: Dict[Tuple[str, str], RunResult],
                         cap: int) -> Optional[int]:
    """Trials the *seeded* families need to hit an unexcused failure.

    Walks the seeded scenarios index-major (scenario index outermost,
    then sorted families × protocols × workloads), so every family
    runs its first scenario before any family runs its second, and
    returns the 1-based trial count at the first oracle failure, or
    None within ``cap`` trials.  ``run_campaign`` runs these trials in
    another order — family-major, as ``generators.generate_suite``
    lists them — but with the same seeds and scenario identity, so
    against a shared cache this baseline costs almost nothing.
    """
    ctx = cfg.generator_context()
    cells = golden_cells(cfg)
    trial = 0
    for index in range(max(1, cap)):
        for family in cfg.resolved_families():
            scenario = generators.generate(family, index, cfg.seed, ctx)
            for protocol, workload in cells:
                trial += 1
                (verdict,) = judge(cfg, runner, goldens, [_seeded_trial(
                    cfg, scenario, protocol, workload)])
                if verdict.failed:
                    return trial
                if trial >= cap:
                    return None
    return None


def run_guided(cfg: ExploreConfig,
               runner: Optional[TrialRunner] = None,
               out_dir: Optional[str] = None,
               corpus_dir: Optional[str] = None) -> CampaignResult:
    """The coverage-guided campaign: replay → seed → mutate.

    The greybox loop spends ``cfg.budget`` fault trials:

    1. **replay** the persisted corpus (failing entries first) — on a
       second run this re-establishes the accumulated coverage mostly
       from cache and surfaces known failures immediately;
    2. **seed** fresh scenarios from the generator families
       (round-robin) while the corpus is thin;
    3. **mutate** corpus plans (:mod:`repro.explore.mutate`), admitting
       every trial whose signature lights up bits the corpus lacks —
       minimized on admit via the shrinker.

    A seeded-family baseline (same budget cap, same cache) runs after
    the loop so the benchmark JSON can state both trials-to-first-
    failure counts side by side.
    """
    t0 = time.perf_counter()
    runner = runner or TrialRunner()
    before = runner.stats.snapshot()
    corpus = Corpus(corpus_dir or
                    default_corpus_dir(None, out_dir or "explore_out"))
    size_start, edges_start = len(corpus), corpus.accumulated.popcount

    families = cfg.resolved_families()
    ctx = cfg.generator_context()
    cells = golden_cells(cfg)
    goldens: Dict[Tuple[str, str], RunResult] = {}
    judge(cfg, runner, goldens, [], cells=cells)

    rows: List[Verdict] = []
    admit_trials: List[int] = []
    first_failure: Optional[int] = None
    replayed = seeded = mutants = 0
    tried: set = set()
    rng = random.Random(f"explore-guided:{cfg.seed}")

    def consider(trial: Trial) -> None:
        """Judge one trial; admit it if its coverage is novel."""
        nonlocal first_failure
        (verdict,) = judge(cfg, runner, goldens, [trial])
        rows.append(verdict)
        tried.add(verdict.scenario.family)
        if verdict.failed and first_failure is None:
            first_failure = len(rows)
        mask = verdict.signature().minus(corpus.accumulated)
        if not mask:
            return
        lean = _minimize_for_corpus(cfg, runner, goldens, verdict, mask)
        if corpus.admit(CorpusEntry(
                seq=0, plan=lean.scenario.plan, signature=lean.signature(),
                family=lean.scenario.family, protocol=lean.protocol,
                workload=lean.workload, trial_seed=lean.trial_seed,
                description=lean.scenario.description,
                failed=lean.failed)):
            admit_trials.append(len(rows))

    # 1. replay the persisted corpus (crashers first), budget-capped
    for entry in corpus.entries():
        if len(rows) >= cfg.budget:
            break
        if (entry.protocol, entry.workload) not in goldens:
            continue
        consider(Trial(_guided_scenario(cfg, entry.plan, entry.description),
                       entry.protocol, entry.workload, entry.trial_seed))
        replayed += 1

    # 2./3. the search loop: seed while thin, mutate once fed
    seeded_next = 0
    while len(rows) < cfg.budget:
        protocol, workload = cells[len(rows) % len(cells)]
        use_seed = not corpus.plans() or rng.random() < 0.25
        if use_seed:
            family = families[seeded_next % len(families)]
            index = seeded_next // len(families)
            seeded_next += 1
            scenario = generators.generate(family, index, cfg.seed, ctx)
            scenario = _guided_scenario(
                cfg, scenario.plan,
                f"seeded {family}[{index}]: {scenario.description}")
            seeded += 1
        else:
            donors = corpus.plans()
            parent = donors[rng.randrange(len(donors))]
            plan = mutate(parent, rng, ctx, donors=donors)
            for _ in range(4):      # skip mutants already scheduled
                scenario = _guided_scenario(cfg, plan, "mutant")
                if scenario.family not in tried:
                    break
                plan = mutate(plan, rng, ctx, donors=donors)
            scenario = _guided_scenario(cfg, plan, "mutant")
            mutants += 1
        consider(_guided_trial(cfg, scenario, protocol, workload))

    baseline = seeded_first_failure(cfg, runner, goldens, cap=cfg.budget)
    shrinks = _shrink_failures(cfg, rows, goldens, runner, out_dir)
    executed, hits = runner.stats.snapshot()
    return CampaignResult(
        config=cfg, rows=rows, goldens=goldens, shrinks=shrinks,
        executed=executed - before[0], cache_hits=hits - before[1],
        wall_seconds=time.perf_counter() - t0,
        guided=GuidedStats(
            corpus_dir=corpus.root,
            corpus_size_start=size_start, corpus_size_end=len(corpus),
            edges_start=edges_start,
            edges_end=corpus.accumulated.popcount,
            admit_trials=admit_trials, replayed=replayed, seeded=seeded,
            mutants=mutants, first_failure_trial=first_failure,
            baseline_first_failure_trial=baseline))


# ---------------------------------------------------------------------------
# replay: re-run one (possibly shrunk) .fail scenario
# ---------------------------------------------------------------------------

def replay_scenario(source: str, cfg: ExploreConfig, protocol: str,
                    workload: str, trial_seed: int,
                    runner: Optional[TrialRunner] = None
                    ) -> Tuple[RunResult, List[OracleReport]]:
    """Run one scenario + its golden and evaluate the oracles.

    A ``.fail`` file carries no plan, so nothing excuses its
    non-termination: the progress oracle judges it strictly."""
    scenario = GeneratedScenario(
        family="replay", index=0, plan=None,
        n_machines=cfg.n_machines, source=source, description="replay")
    (verdict,) = judge(cfg, runner or TrialRunner(), {}, [Trial(
        scenario, protocol, workload, trial_seed)])
    return verdict.result, verdict.oracles


# ---------------------------------------------------------------------------
# the command: ``python -m repro explore``
# ---------------------------------------------------------------------------

def _parse_override(text: str) -> Tuple[str, object]:
    key, _, raw = text.partition("=")
    if not _:
        raise argparse.ArgumentTypeError(
            f"override {text!r} is not of the form key=value")
    if key not in {f.name for f in fields(VclConfig) if f.init}:
        raise argparse.ArgumentTypeError(
            f"override key {key!r} is not a VclConfig field")
    if raw.lower() in ("true", "false"):
        return key, raw.lower() == "true"
    for convert in (int, float):
        try:
            return key, convert(raw)
        except ValueError:
            pass
    return key, raw


def run(runner: Optional[TrialRunner] = None, replay: Optional[str] = None,
        trial_seed: int = 0, guided: bool = False,
        corpus_dir: Optional[str] = None, self_check: bool = False,
        out: str = "explore_out", require_clean: bool = False,
        cache_dir: Optional[str] = None, no_cache: bool = False,
        **config) -> CampaignResult:
    """The ``explore`` command: a campaign, its verdicts under ``out``.

    ``config`` holds :class:`ExploreConfig` fields as the flags give
    them, a ``budget`` of None (``--quick``) being one scenario per grid
    cell.  The runner flags ``cache_dir`` / ``no_cache`` place a guided
    campaign's cache and corpus.  ``replay`` instead runs one ``.fail``
    file and ends the command: 1 if an oracle failed."""
    if self_check and guided:
        raise ValueError("--self-check needs a seeded campaign: the guided "
                         "loop mutates corpus state between runs")
    runner = runner or TrialRunner()
    if guided and cache_dir is None and not no_cache:
        # guided exploration without a cache forfeits both cheap corpus
        # replay and the shared-baseline comparison; default one in
        cache_dir = os.path.join(out, "cache")
        runner.store = ResultStore(cache_dir)
    config.update({name: tuple(config.get(name, ()))
                   for name in ("protocols", "workloads", "families")},
                  config_overrides=dict(config.get("config_overrides", ())))
    config["workloads"] = config["workloads"] or ("ring",)
    budget = config.pop("budget", ExploreConfig.budget)
    if replay is not None:
        cfg = ExploreConfig(budget=1, **config)
        protocol = cfg.resolved_protocols()[0]
        workload = cfg.resolved_workloads()[0]
        try:
            with open(replay, "r", encoding="utf-8") as fh:
                source = fh.read()
            result, reports = replay_scenario(
                source, cfg, protocol, workload, trial_seed, runner=runner)
        except (OSError, FailError) as err:
            raise SystemExit(f"explore: {replay}: {err}") from None
        print(f"replay {replay}: protocol={protocol} "
              f"workload={workload} seed={trial_seed}")
        print(f"outcome: {result.outcome} ({result.verdict.reason})")
        for oracle in reports:
            print(f"  {oracle}")
        raise SystemExit(1 if failed_names(reports) else 0)

    cfg = (quick_config(**config) if budget is None
           else ExploreConfig(budget=budget, **config))
    if guided:
        result = run_guided(cfg, runner=runner, out_dir=out,
                            corpus_dir=corpus_dir or default_corpus_dir(
                                cache_dir, out))
    else:
        result = run_campaign(cfg, runner=runner, out_dir=out)
    if self_check:
        second = run_campaign(cfg, out_dir=out, runner=TrialRunner(
            runner.workers, runner.store and runner.store.root,
            runner.trace_out, runner.obs_report))
        if (second.render_table() != result.render_table()
                or json.dumps(second.to_json(), sort_keys=True)
                != json.dumps(result.to_json(), sort_keys=True)):
            print("self-check FAILED: two runs of the same campaign "
                  "disagree — the determinism contract is broken",
                  file=sys.stderr)
            raise SystemExit(2)

    os.makedirs(out, exist_ok=True)
    doc = json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n"
    for name, text in (("verdicts.txt", result.render_table()),
                       ("verdicts.json", doc)):
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return replace(result, exit_status=int(require_clean
                                           and bool(result.failures)))


def report(result: CampaignResult, kwargs: Dict[str, object]) -> str:
    """The guided and self-check lines, verdict table, reproducers."""
    lines = []
    if result.guided is not None:
        g = result.guided
        lines.append(f"[guided] corpus {g.corpus_size_start} -> "
                     f"{g.corpus_size_end} entries at {g.corpus_dir}")
    if kwargs["self_check"]:
        lines.append("self-check ok: verdict table and JSON byte-identical "
                     "across two runs")
    lines.append(result.render_table().removesuffix("\n"))
    for shrink in result.shrinks:
        lines += [f"minimal reproducer: {shrink.fail_file}",
                  f"  {shrink.command}"]
    return "\n".join(lines)


SPEC = ExperimentSpec(
    name="explore", run=run, blocks=(report,),
    quick=dict(budget=None),
    bench_json="BENCH_explore.json",
    summarize=lambda result, kwargs: result.bench_json(),
    flags=(
        flag("--budget", type=int,
             help="total fault-trial budget (default: 90; --quick: one "
                  "scenario per grid cell)"),
        flag("--protocols", action="extend", type=comma_list(),
             metavar="NAME[,NAME]",
             help="protocols to race (default: all)"),
        flag("--workloads", action="extend", type=comma_list(),
             metavar="NAME[,NAME]",
             help="workloads to stress (default: ring)"),
        flag("--families", action="extend", type=comma_list(),
             metavar="NAME[,NAME]",
             help="generator families (default: all)"),
        flag("--seed", type=int),
        PROCS_FLAG, MACHINES_FLAG,
        flag("--timeout", type=float),
        flag("--bug-compat", action="store_true",
             help="hunt with the paper's dispatcher bug present"),
        flag("--override", action="append", type=_parse_override,
             dest="config_overrides", metavar="KEY=VALUE",
             help="extra VclConfig attribute (e.g. cm_replay=false plants "
                  "the broken-replay bug)"),
        flag("--max-shrinks", type=int),
        flag("--shrink-budget", type=int),
        flag("--guided", action="store_true",
             help="coverage-guided greybox campaign: replay the persisted "
                  "corpus, then mutate plans that hit novel coverage"),
        flag("--corpus-dir", metavar="DIR",
             help="corpus location for --guided (default: "
                  "<cache-dir>/corpus)"),
        flag("--self-check", action="store_true",
             help="run the campaign twice in-process and fail unless both "
                  "outputs are byte-identical (the determinism contract)"),
        flag("--out", metavar="DIR",
             help="verdict/shrink output directory"),
        flag("--require-clean", action="store_true",
             help="exit 1 if any oracle failed"),
        flag("--replay", metavar="FILE.fail",
             help="replay one scenario file instead of a campaign"),
        flag("--trial-seed", type=int, help="trial seed for --replay")))
