"""Parallel trial execution with an on-disk result cache.

Every trial in a campaign is an independent, seed-deterministic
simulation, so a figure's worth of repetitions is embarrassingly
parallel: :class:`TrialRunner` fans trials out over a
:class:`~concurrent.futures.ProcessPoolExecutor`, or runs them
in-process when the pool would be one worker wide (``workers=1``, the
default, or a batch of one trial).

**Determinism contract.**  A trial is fully determined by its
``(TrialSetup, seed)`` pair; seeds are derived *before* any scheduling
decision (see :func:`repro.experiments.harness.run_trials`), so the
worker count can never change which simulations run or what they
produce — only how long the wall clock takes.  Results are returned in
submission order regardless of completion order.

**Caching.**  With a ``cache_dir``, each finished trial is written to a
:class:`~repro.experiments.resultstore.ResultStore` under
:func:`trial_key` — a stable hash of the setup's fields and the seed.
Re-running a figure (or resuming an interrupted campaign) loads hits
from the store and executes only the missing trials; a fully-cached
re-run executes zero.  With no ``cache_dir`` (``--no-cache`` drops
one) the runner neither reads nor writes a store.

Every result comes back through the JSON result document, whether it
ran in-process, in a pool worker or was read from the cache: one path,
so serial == pooled == cached holds by construction.  Each carries a
reconstructed :class:`~repro.analysis.traces.Trace` with the trial's
counters and the records it kept.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.experiments.resultstore import (ResultStore, run_result_from_dict,
                                           run_result_to_dict)
from repro.mpichv.runtime import RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.experiments.harness import TrialSetup

def trial_key(setup: "TrialSetup", seed: int) -> str:
    """Stable cache key for one ``(setup, seed)`` trial.

    The key hashes the canonical JSON of every :class:`TrialSetup`
    field plus the seed, so any change to the configuration — scale,
    scenario source, protocol, workload calibration, ... — lands in a
    different cache slot.  It carries no version: a layout or
    semantics change bumps ``resultstore.FORMAT_VERSION``, and the old
    entry under the same key reads as a stale miss and is overwritten.
    """
    doc = {"seed": seed, "setup": dataclasses.asdict(setup)}
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                           default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of ``values`` (p in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (p / 100.0) * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class RunnerStats:
    """Where a campaign's trials came from, and what they cost.

    The wall-clock series here are the runner's *self-profiling* — they
    describe this machine and this run, never the simulation, so they
    are printed in campaign summaries and written to ``BENCH_*.json``
    artifacts and never enter the deterministic result document.
    """

    executed: int = 0
    cache_hits: int = 0
    #: cache entries found unreadable or written by another result
    #: format: each read as a miss, re-executed and was overwritten
    stale_entries: int = 0
    #: wall seconds per executed trial (submission order)
    exec_walls: List[float] = field(default_factory=list)
    #: wall seconds per cache hit (store read + deserialize)
    hit_walls: List[float] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.executed + self.cache_hits

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    def snapshot(self) -> Tuple[int, int]:
        return (self.executed, self.cache_hits)

    def note_executed(self, wall: float) -> None:
        self.executed += 1
        self.exec_walls.append(wall)

    def note_hit(self, wall: float) -> None:
        self.cache_hits += 1
        self.hit_walls.append(wall)

    def wall_percentiles(self) -> Dict[str, float]:
        """p50/p90/p99 wall seconds of the executed trials."""
        return {name: round(percentile(self.exec_walls, p), 6)
                for name, p in (("p50", 50), ("p90", 90), ("p99", 99))}

    @property
    def mean_hit_latency_ms(self) -> float:
        if not self.hit_walls:
            return 0.0
        return 1000.0 * sum(self.hit_walls) / len(self.hit_walls)

    def describe(self) -> str:
        """One summary line for campaign/sweep footers."""
        parts = [f"{self.executed} executed, {self.cache_hits} cached "
                 f"({100.0 * self.hit_rate:.0f}% hits)"]
        if self.exec_walls:
            pct = self.wall_percentiles()
            parts.append(f"trial wall p50/p90/p99 = {pct['p50']:.2f}/"
                         f"{pct['p90']:.2f}/{pct['p99']:.2f}s")
        if self.hit_walls:
            parts.append(f"cache-hit latency {self.mean_hit_latency_ms:.1f}ms")
        if self.stale_entries:
            parts.append(f"{self.stale_entries} stale cache entries "
                         f"re-executed")
        return "; ".join(parts)

    def to_doc(self) -> Dict[str, object]:
        """JSON row for ``BENCH_*.json`` artifacts."""
        return {
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "hit_rate": round(self.hit_rate, 4),
            "stale_entries": self.stale_entries,
            "wall_percentiles": self.wall_percentiles(),
            "mean_hit_latency_ms": round(self.mean_hit_latency_ms, 3),
        }


def _execute_trial_wire(setup: "TrialSetup", seed: int) -> Tuple[dict, float]:
    """Run one trial, in-process or in a pool worker: its result
    document plus the wall seconds it took (self-profiling only — the
    document itself never carries wall clock)."""
    start = time.perf_counter()
    doc = run_result_to_dict(setup.run_one(seed))
    return doc, time.perf_counter() - start


class TrialRunner:
    """Executes batches of ``(TrialSetup, seed)`` trials.

    Every executed trial returns through its result document, the
    form the cache stores, so a result never depends on how it ran.

    Parameters
    ----------
    workers:
        Process-pool width.  A pool of one (``1``, the default, or a
        batch with one pending trial) runs in-process instead.
    cache_dir:
        Root of the on-disk result store; ``None`` disables caching —
        nothing is read from or written to a store.
    """

    def __init__(self, workers: int = 1,
                 cache_dir: Optional[str] = None,
                 trace_out: Optional[str] = None,
                 obs_report: Optional[str] = None):
        self.workers = max(1, int(workers))
        self.store: Optional[ResultStore] = (
            ResultStore(cache_dir) if cache_dir else None)
        self.stats = RunnerStats()
        #: Chrome-trace export path (``--trace-out``); the first
        #: observed result — preferring a faulted one — is written once
        self.trace_out = trace_out
        self._trace_written = False
        #: campaign observability rollup directory (``--obs-report``);
        #: rewritten after every batch over all observed results so far
        self.obs_report = obs_report
        self._obs_docs: List[dict] = []

    def run_jobs(self, jobs: Sequence[Tuple["TrialSetup", int]]
                 ) -> List[RunResult]:
        """Run (or load) every job; results align with ``jobs`` order."""
        results: List[Optional[RunResult]] = [None] * len(jobs)
        keys: List[Optional[str]] = [None] * len(jobs)
        pending: List[int] = []
        for i, (setup, seed) in enumerate(jobs):
            if self.store is not None:
                keys[i] = trial_key(setup, seed)
                start = time.perf_counter()
                cached = self.store.get(keys[i])
                if cached is not None:
                    results[i] = cached
                    self.stats.note_hit(time.perf_counter() - start)
                    continue
            pending.append(i)
        if self.store is not None:
            self.stats.stale_entries = self.store.stale

        def finish(i: int, doc: dict, wall: float) -> None:
            self.stats.note_executed(wall)
            if self.store is not None:
                self.store.put_dict(keys[i], doc)
            results[i] = run_result_from_dict(doc)

        width = min(self.workers, len(pending))
        if width == 1:
            # a pool of one is start-up cost and nothing else: run what
            # a worker would run, here
            for i in pending:
                finish(i, *_execute_trial_wire(*jobs[i]))
        elif width > 1:
            with ProcessPoolExecutor(max_workers=width) as pool:
                futures = {
                    pool.submit(_execute_trial_wire, *jobs[i]): i
                    for i in pending}
                for future in as_completed(futures):
                    finish(futures[future], *future.result())
        self._maybe_export_trace(results)
        self._maybe_export_obs_report(results)
        return results  # type: ignore[return-value]  # every slot filled

    def _maybe_export_trace(self, results: Sequence[Optional[RunResult]]
                            ) -> None:
        """Write the ``--trace-out`` Chrome trace (once per runner).

        Picks the first observed result with a recovery (a faulted
        trial is what the trace is *for*), falling back to the first
        observed one — both deterministic in submission order, so the
        exported bytes are identical no matter how the batch executed.
        """
        if self.trace_out is None or self._trace_written:
            return
        observed = [r for r in results if r is not None and r.obs]
        if not observed:
            return
        pick = next((r for r in observed if r.restarts), observed[0])
        from repro.obs import write_chrome_trace
        write_chrome_trace(self.trace_out, pick.obs)
        self._trace_written = True
        print(f"wrote Chrome trace to {self.trace_out} "
              f"(open in chrome://tracing or ui.perfetto.dev)")

    def _maybe_export_obs_report(self, results: Sequence[Optional[RunResult]]
                                 ) -> None:
        """Rewrite the ``--obs-report`` campaign rollup (every batch).

        The rollup accumulates every observed result the runner has
        produced so far, in submission order — the report after the
        final batch covers the whole campaign, and the bytes are
        identical no matter how the batches executed.
        """
        if self.obs_report is None:
            return
        self._obs_docs.extend(r.obs for r in results
                              if r is not None and r.obs)
        if not self._obs_docs:
            return
        from repro.obs.report import write_obs_report
        paths = write_obs_report(self.obs_report, self._obs_docs)
        print(f"wrote campaign obs report to {paths['html']} "
              f"({len(self._obs_docs)} observed trials)")


# -- CLI plumbing shared by every experiment driver --------------------------

def add_runner_arguments(parser) -> None:
    """Attach the shared ``--workers`` / ``--cache-dir`` / ``--no-cache``
    flags to an :mod:`argparse` parser."""
    group = parser.add_argument_group("trial execution")
    group.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="run trials over N worker processes (default: 1, serial)")
    group.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache per-trial results under DIR; re-runs and resumed "
             "campaigns skip already-computed trials")
    group.add_argument(
        "--no-cache", action="store_true",
        help="ignore the cache entirely (neither read nor write)")
    group.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="export a Chrome-trace/Perfetto JSON of the first "
             "observed (preferring faulted) trial to FILE — open in "
             "chrome://tracing or ui.perfetto.dev (see "
             "docs/observability.md)")
    group.add_argument(
        "--obs-report", default=None, metavar="DIR",
        help="write a campaign-level observability rollup under DIR: "
             "an OpenMetrics text exposition (metrics.txt) and a "
             "static HTML report (index.html) aggregated over every "
             "observed trial (see docs/observability.md)")


def runner_from_args(args) -> TrialRunner:
    """Build the :class:`TrialRunner` described by parsed CLI args."""
    no_cache = getattr(args, "no_cache", False)
    return TrialRunner(workers=getattr(args, "workers", 1),
                       cache_dir=None if no_cache
                       else getattr(args, "cache_dir", None),
                       trace_out=getattr(args, "trace_out", None),
                       obs_report=getattr(args, "obs_report", None))
