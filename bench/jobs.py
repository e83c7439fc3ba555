"""The four workloads: ``--seed`` -> inputs -> public entry point.

Each workload turns the seed into ``TrialSetup``s (the program sees
nothing else of the seed) and runs them through the entry point a user
would call, on a :class:`~repro.experiments.runner.TrialRunner` the
harness supplies.  The seed varies *which* faults are injected, never
how much work a pass is: the driver compares runs of different seeds,
so a workload whose cost swings with the seed could not be gated.
That is why the ring kill lands in one 5 s window of one checkpoint
interval and on the upper half of the ranks, and why ``explore_pool2`` leaves out the ``partition_storm``
family — a third of its plans stall until the 300 s simulated timeout,
25x the median trial, and how many do so is a coin toss per seed (CPU
per trial 0.055-0.207 s over seeds 1-10 with it, 0.029-0.041 without).

``repro`` is imported inside the functions: the parent process reads
the table below without paying for (or needing) the package, and the
child pays for the import inside its timed set-up.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

#: per-trial simulated statistics ``expected.json`` pins.  Deliberately
#: not the wire format, the document size or ``events_processed`` —
#: those are what later changes are meant to move.
PINNED = ("outcome", "exec_time", "sim_time", "restarts",
          "failures_detected", "waves_committed", "net_bytes",
          "net_messages", "app_signature")

#: a pass: every trial of the workload, through the entry point, once
Entry = Callable[[Any], List[Any]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: TrialRunner pool width of the untraced passes
    workers: int
    build: Callable[[int, bool], Entry]


def _ring_setup(n_procs: int, protocol: str, observe: bool,
                at: int, target: int):
    """One faulted token-ring trial at scale-sweep's calibration."""
    from repro.experiments.harness import TrialSetup
    from repro.explore import generators

    plan = (generators.TimedKill(at=at, target=target),)
    return TrialSetup(
        n_procs=n_procs, n_machines=n_procs + 4,
        scenario_source=generators.render_plan(plan),
        master_daemon=generators.MASTER,
        node_daemon=generators.NODE_DAEMON,
        protocol=protocol, timeout=600.0, footprint=1e9,
        workload="ring", niters=40, total_compute=440.0 * n_procs,
        config_overrides={"n_ckpt_servers": 4}, observe=observe)


def _ring(n_procs: int, protocols: Sequence[str], observe: bool):
    def build(seed: int, quick: bool) -> Entry:
        n = 32 if quick else n_procs
        # the first checkpoint wave commits shortly after t = 30 s and
        # the second starts at 60 s: every kill in [43, 48) rolls back
        # to wave 1.  The victim comes from the upper half of the ring:
        # under v2/v1 a low rank has a more recent private checkpoint
        # at that instant and replays 5 % fewer events — two modes the
        # seed would flip between
        rng = random.Random(f"bench-ring/{seed}")
        at, target = 43 + rng.randrange(5), n // 2 + rng.randrange(n // 2)
        jobs = [(_ring_setup(n, protocol, observe, at, target), seed)
                for protocol in protocols]
        return lambda runner: runner.run_jobs(jobs)
    return build


def _campaign(seed: int, quick: bool) -> Entry:
    from repro.experiments import compare_protocols

    scale = (dict(n_procs=4, n_machines=6, niters=10, total_compute=180.0,
                  footprint=1e8) if quick else
             dict(n_procs=16, n_machines=20, niters=40, total_compute=2400.0))
    periods = (None, 25) if quick else (None, 50)

    def entry(runner):
        table = compare_protocols.run_experiment(
            reps=1, periods=periods, base_seed=13000 + seed, runner=runner,
            **scale)
        return [result for row in table.rows for result in row.results]
    return entry


def _explore(seed: int, quick: bool) -> Entry:
    from repro.explore import generators
    from repro.explore.campaign import ExploreConfig, run_campaign

    families = tuple(sorted(set(generators.FAMILIES) - {"partition_storm"}))
    # 5 families x 3 protocols: 5 plans (quick: 1) per cell, plus the
    # three fault-free goldens; max_shrinks=0 keeps the trial count a
    # function of the budget alone when an oracle fires
    cfg = ExploreConfig(budget=15 if quick else 75, seed=seed,
                        families=families, max_shrinks=0)

    def entry(runner):
        campaign = run_campaign(cfg, runner=runner)
        return (list(campaign.goldens.values())
                + [verdict.result for verdict in campaign.rows])
    return entry


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("ring128_vcl", workers=1,
             build=_ring(128, ("vcl",), observe=False)),
    Workload("ring64_observed", workers=1,
             build=_ring(64, ("vcl", "v2", "v1"), observe=True)),
    Workload("campaign_bt16_cache", workers=1, build=_campaign),
    Workload("explore_pool2", workers=2, build=_explore),
)}


def warmup_trial() -> None:
    """The fixed trial every child runs before it measures anything:
    lazy imports, regex and FAIL-compile caches, obs code paths."""
    _ring_setup(16, "vcl", True, at=45, target=0).run_one(0)


# -- output check ---------------------------------------------------------

def pinned_stats(result) -> Dict[str, Any]:
    stats = {name: getattr(result, name) for name in PINNED}
    stats["outcome"] = result.outcome.value
    return stats


def wire_digest(result) -> str:
    """Hash of the trial's wire document without ``obs.exec`` (the one
    section that may legitimately differ between execution modes)."""
    from repro.experiments.resultstore import run_result_to_dict

    doc = run_result_to_dict(result)
    if doc["obs"] is not None:
        doc["obs"] = {k: v for k, v in doc["obs"].items() if k != "exec"}
    return hashlib.sha256(json.dumps(doc).encode("utf-8")).hexdigest()


def expected_key(workload: str, seed: int, quick: bool) -> str:
    return f"{workload}/{'quick' if quick else 'full'}/{seed}"


class OutputCheck:
    """Counts operations and the ones whose output is wrong.

    An operation is one trial of one pass.  It fails when a pinned
    simulated statistic differs from ``expected.json`` (seeds 1 and 2;
    other seeds have no pins) or from the same trial of the first pass
    checked, or when its wire document differs from that trial's first
    digest — cold, warm, pooled and serial must all agree.
    """

    def __init__(self, pins: Optional[List[Dict[str, Any]]]):
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: the first pass checked / digested: what later ones must equal
        self.stats: Optional[List[Dict[str, Any]]] = None
        self.digests: Optional[List[str]] = None

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, phase: str, results: Sequence[Any],
              digests: bool = False) -> None:
        stats = [pinned_stats(r) for r in results]
        hashes = [wire_digest(r) for r in results] if digests else None
        references = [("expected.json", self.pins),
                      ("the first pass", self.stats)]
        for label, reference in references:
            if reference is not None and len(reference) != len(stats):
                self.reject(phase, len(stats), f"{len(stats)} trials, "
                            f"{label} has {len(reference)}")
                return
        for i, got in enumerate(stats):
            self.attempted += 1
            for label, reference in references:
                if reference is None:
                    continue
                if got != reference[i]:
                    diff = {k: (v, reference[i].get(k))
                            for k, v in got.items() if v != reference[i].get(k)}
                    self._fail(f"{phase} trial {i}: (got, {label}) = {diff}")
                    break
            else:
                if (hashes and self.digests
                        and hashes[i] != self.digests[i]):
                    self._fail(f"{phase} trial {i}: wire document differs "
                               f"from the first digested pass")
        if self.stats is None:
            self.stats = stats
        if hashes and self.digests is None:
            self.digests = hashes

    def reject(self, phase: str, count: int, why: str) -> None:
        """``count`` operations that must not have happened."""
        self.attempted += count
        self.failed += count
        self.errors.append(f"{phase}: {why}")
