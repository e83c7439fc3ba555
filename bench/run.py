#!/usr/bin/env python3
"""The benchmark: one command, every metric by name, outputs checked.

::

    python3 bench/run.py                       # all workloads, both passes
    python3 bench/run.py --workload ring128_vcl --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics in fresh, untraced child
interpreters (one at a time, ``PYTHONHASHSEED=0``); ``--trace 1`` runs
one untraced reference child and one traced child and reports the
per-layer metrics.  Without ``--trace`` both run, untraced first.  Each
run prints its metrics by name with their units, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when any operation failed its output check.

Metric names, units and bounds are read from ``BENCHMARK.json``; what
each one means is in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")
#: fresh interpreters per untraced run, each: set-up, cold passes, warm
CHILDREN = 3
SETUP_ONLY_CHILDREN = 2
#: per child at ``--seconds NOMINAL_SECONDS``: cold passes, and CPU
#: seconds of cache hits in the warm phase
NOMINAL_SECONDS = 20.0
PASSES = 2
WARM_S = 2.0
#: seeds whose simulated statistics ``expected.json`` pins
PINNED_SEEDS = (1, 2)

sys.path.insert(0, HERE)
import jobs  # noqa: E402  (imports nothing of the repo until asked)


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_child(mode: str, workload: str, seed: int, quick: bool,
              expected: Optional[str], passes: int = 1,
              warm_s: float = WARM_S / 4) -> Dict[str, Any]:
    """One fresh interpreter, waited for; its temp dir never outlives it."""
    if quick:
        passes, warm_s = min(passes, 1), 0.05
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    result = os.path.join(tmp, "result.json")
    spec = {"mode": mode, "workload": workload, "seed": seed, "quick": quick,
            "passes": passes, "warm_s": warm_s, "expected": expected,
            "tmp": tmp, "out": OUT, "result": result}
    try:
        # the child's stdout is the program's (a runner may print);
        # ours must end with the result line
        subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            env={**os.environ, "PYTHONHASHSEED": "0"}, stdout=sys.stderr,
            check=True, timeout=170)
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def cpu_ticks() -> List[int]:
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Hypervisor steal between two :func:`cpu_ticks` readings."""
    # /proc/stat: user nice system idle iowait irq softirq steal
    return (after[7] - before[7]) / max(1, sum(after[:8]) - sum(before[:8]))


def tally(children: List[Dict[str, Any]]) -> Dict[str, Any]:
    errors = [e for c in children for e in c["errors"]]
    digests = [c["digests"] for c in children]
    failed = sum(c["failed"] for c in children)
    if any(d != digests[0] for d in digests):
        # cold == warm held inside each child, but not between them:
        # pooled != serial, or one interpreter != the next
        failed += len(digests[0])
        errors.append("wire documents differ between child interpreters")
    return {"attempted": sum(c["attempted"] for c in children),
            "failed": failed, "errors": errors}


def run_untraced(workload: str, seed: int, seconds: float, quick: bool,
                 expected: Optional[str]) -> Dict[str, Any]:
    scale = seconds / NOMINAL_SECONDS
    children = [
        run_child("timed", workload, seed, quick, expected,
                  passes=max(1, round(PASSES * scale)), warm_s=WARM_S * scale)
        for _ in range(1 if quick else CHILDREN)]
    # set-up is short and touches the disk: two more samples of it
    setups = children + [
        run_child("timed", workload, seed, quick, expected, passes=0)
        for _ in range(0 if quick else SETUP_ONLY_CHILDREN)]
    passes = [p for c in children for p in c["passes"]]
    median = statistics.median
    metrics = {
        "setup_s": median(c["setup_s"] for c in setups),
        "cpu_s_per_trial": median(p["cpu_s"] / p["trials"] for p in passes),
        "warm_cpu_s_per_hit": median(c["warm"]["cpu_s"] / c["warm"]["hits"]
                                     for c in children),
        "doc_bytes_per_trial": median(p["doc_bytes"] / p["trials"]
                                      for p in passes),
        "sim_events_per_trial": median(p["events"] / p["trials"]
                                       for p in passes),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
    }
    return {"metrics": metrics, "children": setups, **tally(children)}


def run_traced(workload: str, seed: int, quick: bool,
               expected: Optional[str]) -> Dict[str, Any]:
    ticks0 = cpu_ticks()
    reference = run_child("timed", workload, seed, quick, expected)
    traced = run_child("traced", workload, seed, quick, expected)
    ticks1 = cpu_ticks()
    metrics = dict(traced["metrics"])
    cold, warm = reference["passes"][0], reference["warm"]
    metrics.update({
        "runner.wall_s_per_trial": cold["wall_s"] / cold["trials"],
        "runner.exec_wall_p50_s": cold["exec_wall_percentiles"]["p50"],
        "runner.exec_wall_p90_s": cold["exec_wall_percentiles"]["p90"],
        "runner.hit_latency_ms": warm["hit_latency_ms"],
        "runner.pool_efficiency": cold["exec_wall_sum_s"] / (
            jobs.WORKLOADS[workload].workers * cold["wall_s"]),
        "trace.overhead_ratio":
            traced["profiled_cold_cpu_raw_s"] / cold["cpu_raw_s"],
        "host.steal_share": steal_share(ticks0, ticks1),
        "host.load1": os.getloadavg()[0],
    })
    children = [reference, traced]
    return {"metrics": metrics, "children": children, **tally(children)}


def report(workload: str, seed: int, trace: int, declared: List[Dict],
           run: Dict[str, Any]) -> Dict[str, Any]:
    """Print one run; keep its raw samples; return the result line."""
    missing = [m["name"] for m in declared if m["name"] not in run["metrics"]]
    if missing:
        raise SystemExit(f"{workload}: no value for {missing}")
    metrics = {m["name"]: {"value": run["metrics"][m["name"]],
                           "unit": m["unit"]} for m in declared}
    for name, cell in metrics.items():
        print(f"{workload:<20} {name:<28} {cell['value']:>16.6f} "
              f"{cell['unit']}")
    print(f"{workload:<20} {'ops_attempted':<28} {run['attempted']:>16d}")
    print(f"{workload:<20} {'ops_failed':<28} {run['failed']:>16d}")
    for error in run["errors"]:
        print(f"{workload}: FAILED {error}", file=sys.stderr)
    line = {"correct": run["failed"] == 0, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}
    with open(os.path.join(OUT, f"samples-{workload}-seed{seed}-"
                                f"trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "trace": trace,
                   "result": line, "children": run["children"]}, fh)
    print(json.dumps(line), flush=True)
    return line


def record_expected(path: str) -> None:
    """Regenerate the pins from this checkout (seeds 1 and 2)."""
    pins = {}
    for workload in jobs.WORKLOADS:
        for seed in PINNED_SEEDS:
            for quick in (False, True):
                child = run_child("timed", workload, seed, quick, None)
                if child["failed"]:
                    raise SystemExit(f"{workload}: {child['errors']}")
                key = jobs.expected_key(workload, seed, quick)
                pins[key] = child["stats"]
                print(f"recorded {key}: {len(child['stats'])} trials")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")


def host_stamp() -> Dict[str, Any]:
    model = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for row in fh:
            if row.startswith("model name"):
                model = row.split(":", 1)[1].strip()
                break
    return {"host_cpus": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "load1": os.getloadavg()[0]}


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(jobs.WORKLOADS),
                        help="default: all four, in turn")
    parser.add_argument("--seed", type=int, default=1,
                        help="generates the inputs (default 1)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measurement budget of one untraced run; "
                             "scales passes per child and the warm phase")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, untraced; 1: per-layer "
                             "metrics, traced (default: both)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke test: one child, one pass, 32-rank "
                             "rings, 18 explore trials; never compared")
    parser.add_argument("--out", metavar="FILE",
                        help="also write every result line, keyed by "
                             "workload and pass, with the host stamp")
    parser.add_argument("--expected", metavar="FILE", default=EXPECTED,
                        help="pinned simulated statistics "
                             "(default: bench/expected.json)")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite --expected from this checkout and exit")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: no src/repro beside bench/ — nothing to measure",
              file=sys.stderr)
        return 2
    if args.record_expected:
        record_expected(args.expected)
        return 0
    expected = args.expected if os.path.exists(args.expected) else None

    lines: Dict[str, Any] = {}
    for workload in ([args.workload] if args.workload else jobs.WORKLOADS):
        for trace in ((args.trace,) if args.trace is not None else (0, 1)):
            if trace == 0:
                run = run_untraced(workload, args.seed, args.seconds,
                                   args.quick, expected)
                declared = spec["end_to_end"]
            else:
                run = run_traced(workload, args.seed, args.quick, expected)
                declared = spec["per_layer"]
            lines[f"{workload}/trace{trace}"] = report(
                workload, args.seed, trace, declared, run)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "quick": args.quick, "host": host_stamp(),
                       "results": lines}, fh, indent=1)
    return 1 if any(not line["correct"] for line in lines.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
