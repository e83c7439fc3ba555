"""The measured interpreter: one fresh process per sample set.

``run.py`` starts this file with a JSON spec as its only argument, one
child at a time, and reads the JSON result from the file the spec
names (stdout belongs to whatever the program prints).  Two modes:

``timed``
    Untraced.  Set-up (import ``repro``, build the workload's entry
    point from the seed, one fixed warm-up trial, a temp cache dir),
    then cold passes (fresh cache dir each), then a warm phase on the
    last pass's dir.  Every region runs under the host probe and is
    reported in CPU seconds of this process *and* its reaped children
    at reference host speed (see hostprobe.py).
``traced``
    Serial, in-process.  A *span pass* drives every job of the
    workload's entry point by hand through the public functions with a
    span around each call; a *profile pass* puts ``cProfile`` around
    one cold and one warm pass and folds it by layer (layers.py).
    Nothing here feeds an end-to-end metric.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from functools import partial
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from hostprobe import HostProbe  # noqa: E402  (sibling file, stdlib only)


def cpu_clock() -> float:
    """User + system CPU seconds of this process and reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def dir_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name))
               for path, _dirs, names in os.walk(root) for name in names)


def set_up(spec: Dict[str, Any]):
    """What every child does before it measures: the ``setup_s`` region."""
    import jobs
    from repro.experiments.runner import TrialRunner

    workload = jobs.WORKLOADS[spec["workload"]]
    entry = workload.build(spec["seed"], spec["quick"])
    jobs.warmup_trial()
    tmp = tempfile.mkdtemp(prefix="cache-", dir=spec["tmp"])
    pins = None
    if spec["expected"]:
        with open(spec["expected"], encoding="utf-8") as fh:
            pins = json.load(fh).get(jobs.expected_key(
                spec["workload"], spec["seed"], spec["quick"]))
    return workload, entry, tmp, jobs.OutputCheck(pins), TrialRunner


# -- timed ---------------------------------------------------------------

def run_timed(spec: Dict[str, Any], probe: HostProbe,
              birth_cpu: float) -> Dict[str, Any]:
    (workload, entry, tmp, check, TrialRunner), setup = probe.timed(
        partial(set_up, spec), cpu_clock)
    # interpreter start-up ran before the probe existed: charge it at
    # the speed the rest of set-up saw
    speed = setup.cpu_s / setup.cpu_raw_s
    out: Dict[str, Any] = {
        "setup_s": (birth_cpu + setup.cpu_raw_s) * speed,
        "setup_raw_s": birth_cpu + setup.cpu_raw_s,
        "passes": [],
    }
    if not spec["passes"]:      # a set-up-only child: one more sample
        return finish(out, check)

    cache = None
    for i in range(spec["passes"]):
        if cache is not None:
            shutil.rmtree(cache)
        cache = tempfile.mkdtemp(prefix="pass-", dir=tmp)
        runner = TrialRunner(workers=workload.workers, cache_dir=cache)
        gc.collect()
        results, sample = probe.timed(partial(entry, runner), cpu_clock)
        phase = f"cold pass {i}"
        check.check(phase, results, digests=(i == spec["passes"] - 1))
        trials = len(results)
        if runner.stats.executed != trials:
            check.reject(phase, trials, f"executed {runner.stats.executed} "
                                        f"of {trials} trials")
        out["passes"].append({
            "trials": trials,
            "cpu_s": sample.cpu_s, "cpu_raw_s": sample.cpu_raw_s,
            "wall_s": sample.wall_s, "probe_chunks": sample.chunks,
            "doc_bytes": dir_bytes(cache),
            "events": sum(r.events_processed for r in results),
            "exec_wall_sum_s": sum(runner.stats.exec_walls),
            "exec_wall_percentiles": runner.stats.wall_percentiles(),
        })
        del results

    runner = TrialRunner(workers=workload.workers, cache_dir=cache)
    entry(runner)               # page cache and allocator arenas filled
    gc.collect()

    def warm():
        hits, start = 0, cpu_clock()
        while True:
            # one result set alive at a time, as in a user's re-run:
            # a second one doubles what every gen-2 collection scans
            results = None
            results = entry(runner)
            hits += len(results)
            if cpu_clock() - start >= spec["warm_s"]:
                return hits, results

    (hits, results), sample = probe.timed(warm, cpu_clock)
    check.check("warm", results, digests=True)
    check.attempted += runner.stats.cache_hits - len(results)
    if runner.stats.executed:
        check.reject("warm", runner.stats.executed,
                     "a fully cached re-run executed trials")
    out["warm"] = {
        "hits": hits, "cpu_s": sample.cpu_s, "cpu_raw_s": sample.cpu_raw_s,
        "wall_s": sample.wall_s, "probe_chunks": sample.chunks,
        "hit_latency_ms": runner.stats.mean_hit_latency_ms,
    }
    out["peak_rss_mb"] = peak_rss_mb()
    return finish(out, check)


def finish(out: Dict[str, Any], check) -> Dict[str, Any]:
    out.update(attempted=check.attempted, failed=check.failed,
               errors=check.errors, stats=check.stats or [],
               digests=check.digests or [])
    return out


# -- traced --------------------------------------------------------------

class Spans:
    """In-memory span log: name, start, end, parent, trial id."""

    def __init__(self):
        self.rows: List[Dict[str, Any]] = []
        self._open: List[Dict[str, Any]] = []

    @contextmanager
    def span(self, name: str, trial: Optional[str] = None):
        parent = self._open[-1] if self._open else None
        row = {"id": len(self.rows), "name": name,
               "parent": parent["id"] if parent else None,
               "trial": trial or (parent["trial"] if parent else None),
               "wall0": time.perf_counter(), "cpu0": time.process_time()}
        self.rows.append(row)
        self._open.append(row)
        try:
            yield row
        finally:
            row["wall1"] = time.perf_counter()
            row["cpu1"] = time.process_time()
            self._open.pop()

    def cpu_of(self, name: str) -> float:
        return sum(r["cpu1"] - r["cpu0"] for r in self.rows
                   if r["name"] == name)

    def write_chrome_trace(self, path: str, workload: str) -> None:
        origin = self.rows[0]["wall0"] if self.rows else 0.0
        events: List[Dict[str, Any]] = [
            {"ph": "M", "pid": 1, "tid": 1, "name": "process_name",
             "args": {"name": f"bench traced child: {workload}"}},
            {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
             "args": {"name": "main"}}]
        for r in self.rows:
            events.append({
                "ph": "X", "pid": 1, "tid": 1, "cat": "bench",
                "name": r["name"],
                "ts": int(round((r["wall0"] - origin) * 1e6)),
                "dur": int(round((r["wall1"] - r["wall0"]) * 1e6)),
                "args": {"id": r["id"], "parent": r["parent"],
                         "trial": r["trial"],
                         "cpu_s": r["cpu1"] - r["cpu0"]}})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"clock": "host wall", "workload":
                                     workload}}, fh)


def json_bytes(value: Any) -> int:
    return len(json.dumps(value))


def span_runner_class(TrialRunner):
    from repro.experiments.resultstore import (run_result_to_dict,
                                               trace_to_dict)
    from repro.experiments.runner import trial_key

    class SpanRunner(TrialRunner):
        """``TrialRunner.run_jobs``'s serial path, one call at a time,
        with a span around each — the program's own code, unchanged,
        driven from outside."""

        def __init__(self, spans: Spans, cache_dir: str):
            super().__init__(workers=1, cache_dir=cache_dir)
            self.spans = spans
            self.pass_name = "cold"
            self.jobs: List[Any] = []
            #: exact per-trial counts, read off the live runtime
            self.counts: List[Dict[str, Any]] = []

        def run_jobs(self, jobs):
            span = self.spans.span
            results = []
            for setup, seed in jobs:
                with span("trial", f"{self.pass_name}/{len(results)}"):
                    with span("runner.key"):
                        key = trial_key(setup, seed)
                    with span("resultstore.get") as read:
                        result = self.store.get(key)
                    if result is not None:
                        self.stats.note_hit(0.0)
                        results.append(result)
                        continue
                    # a miss is not a read: keep get_s to real reads
                    read["name"] = "resultstore.miss"
                    self.jobs.append((setup, seed))
                    with span("harness.build"):
                        runtime, deployment = setup.build(seed)
                    try:
                        with span("runtime.run") as row:
                            result = runtime.run()
                        self._count(setup, runtime, result, row)
                    finally:
                        with span("runtime.dispose"):
                            runtime.dispose()
                            del runtime, deployment
                    with span("resultstore.to_dict"):
                        doc = run_result_to_dict(result)
                    with span("resultstore.put"):
                        self.store.put_dict(key, doc)
                    self.stats.note_executed(0.0)
                    results.append(result)
            return results

        def _count(self, setup, runtime, result, row) -> None:
            engine, obs = runtime.engine, result.obs or {}
            causal = obs.get("causal", {})
            self.counts.append({
                "protocol": setup.protocol,
                "run_cpu": row["cpu1"] - row["cpu0"],
                "engine.events_per_trial": engine.events_processed,
                "engine.front_lane_hits": engine.front_lane_hits,
                "engine.slots_drained": engine.slots_drained,
                "network.messages_per_trial": result.net_messages,
                "network.bytes_per_trial": result.net_bytes,
                "mpichv.restarts_per_trial": result.restarts,
                "obs.spans_per_trial": len(obs.get("spans", ())),
                "obs.causal_nodes_kept": len(causal.get("nodes", ())),
                "obs.causal_nodes_dropped": causal.get("dropped_nodes", 0),
                "obs.causal_bytes": json_bytes(causal) if causal else 0,
                "obs.spans_bytes": json_bytes(obs["spans"]) if obs else 0,
                "obs.metrics_bytes": json_bytes(obs["metrics"]) if obs else 0,
                "resultstore.trace_bytes":
                    json_bytes(trace_to_dict(result.trace)),
            })

    return SpanRunner


def run_traced(spec: Dict[str, Any], probe: HostProbe) -> Dict[str, Any]:
    import layers
    from dataclasses import replace

    workload, entry, tmp, check, TrialRunner = set_up(spec)
    m: Dict[str, float] = {}

    # -- span pass: one cold, one warm, by hand --------------------------
    spans = Spans()
    runner = span_runner_class(TrialRunner)(
        spans, tempfile.mkdtemp(prefix="span-", dir=tmp))
    gc.collect()

    def span_pass():
        with spans.span("pass.cold"):
            cold = entry(runner)
        runner.pass_name = "warm"
        with spans.span("pass.warm"):
            return cold, entry(runner)

    (cold, warm), sample = probe.timed(span_pass, cpu_clock)
    check.check("span pass, cold", cold, digests=True)
    check.check("span pass, warm", warm, digests=True)
    trials = len(cold)
    if (runner.stats.executed, runner.stats.cache_hits) != (trials, trials):
        check.reject("span pass", trials, "cold pass hit or warm pass missed")
    # spans are timed on the process clock, probe chunks included; the
    # chunks tick evenly, so one factor takes them out and brings every
    # span to reference speed
    scale = sample.cpu_s / (spans.cpu_of("pass.cold")
                            + spans.cpu_of("pass.warm"))
    for name in ("harness.build", "runtime.run", "runtime.dispose",
                 "resultstore.to_dict", "resultstore.put", "resultstore.get",
                 "runner.key"):
        # one key per trial per pass, everything else once per trial
        per = 2 * trials if name == "runner.key" else trials
        m[f"{name}_s"] = spans.cpu_of(name) * scale / per
    counts = runner.counts
    for name in counts[0]:
        if name not in ("protocol", "run_cpu"):
            m[name] = sum(c[name] for c in counts) / trials
    run_cpu = spans.cpu_of("runtime.run") * scale
    m["engine.events_per_cpu_s"] = (
        m["engine.events_per_trial"] * trials / run_cpu)
    for protocol in ("vcl", "v2", "v1"):
        m[f"mpichv.{protocol}.cpu_share"] = sum(
            c["run_cpu"] for c in counts
            if c["protocol"] == protocol) / spans.cpu_of("runtime.run")
    trace_file = os.path.join(spec["out"], f"trace-{spec['workload']}.json")
    spans.write_chrome_trace(trace_file, spec["workload"])
    del cold, warm

    # -- recorder on vs off, on the workload's first faulted job ---------
    setup, seed = next((job for job in runner.jobs if job[0].scenario_source),
                       runner.jobs[0])
    cost = {}
    for observe in (False, True):
        variant = replace(setup, observe=observe)
        gc.collect()
        _result, one = probe.timed(partial(variant.run_one, seed), cpu_clock)
        cost[observe] = one.cpu_s
    m["obs.overhead_ratio"] = cost[True] / cost[False]

    # -- profile pass: the entry point itself, serial, cold then warm ----
    # no probe here: its handler's calls would land in the counts
    cache = tempfile.mkdtemp(prefix="prof-", dir=tmp)
    profiles = []
    cold_cpu = 0.0
    for phase in ("cold", "warm"):
        prof_runner = TrialRunner(workers=1, cache_dir=cache)
        profile = cProfile.Profile()
        gc.collect()
        start = cpu_clock()
        results = profile.runcall(entry, prof_runner)
        if phase == "cold":
            cold_cpu = cpu_clock() - start
        check.check(f"profile pass, {phase}", results)
        profiles.append(profile.getstats())
        del results
    entries = profiles[0] + profiles[1]
    folded = layers.fold(entries)
    total = sum(cell[0] for cell in folded.values())
    for layer, (self_s, calls) in folded.items():
        m[f"{layer}.self_share"] = self_s / total
        m[f"{layer}.calls"] = calls
    for metric, relpath, names in (
            ("fail.deploy_share", "fail/scenario.py", ("deploy_scenario",)),
            ("obs.finalize_share", "obs/spans.py", ("finalize", "to_doc")),
            ("analysis.classify_share", "analysis/classify.py",
             ("classify_run",)),
            ("explore.oracles_share", "explore/oracles.py", ("run_oracles",)),
            ("explore.generate_share", "explore/generators.py",
             ("generate_suite",))):
        m[metric] = layers.cumulative(entries, relpath, *names) / total
    m["trace.py_calls_per_trial"] = sum(
        e.callcount for e in profiles[0]) / trials

    out = {"metrics": m, "trials": trials, "profiled_cold_cpu_raw_s": cold_cpu,
           "trace_file": trace_file, "peak_rss_mb": peak_rss_mb()}
    return finish(out, check)


def main() -> None:
    birth_cpu = cpu_clock()
    probe = HostProbe()
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "timed":
        out = run_timed(spec, probe, birth_cpu)
    else:
        out = run_traced(spec, probe)
    # spec["tmp"], cache dirs and all, is the parent's to remove — it
    # does so however this process ends
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
