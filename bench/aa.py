#!/usr/bin/env python3
"""A/A: is the benchmark steadier than its own bounds?

Runs ``--sets`` complete sets of the same checkout the way the driver
does — per workload, ``--seeds`` untraced runs of ``bench/run.py``,
each with another seed — and prints, per workload x end-to-end metric:

* the *spread* of each set: inter-quartile range of its values
  (``statistics.quantiles(values, n=4)``) as a share of their median;
* the *drift* of each later set: how much worse its median is than the
  first set's, as a share of the first;

against the bound ``BENCHMARK.json`` declares.  Exits non-zero when a
spread or a drift breaches its bound, or when a metric that should
repeat exactly (same seed, same checkout) did not.  The table, the
seed-1 baseline values (end to end from the first set, per layer from
one traced run at the end) and the host stamp go to
``bench/baseline.json`` (``BENCHMARK.json`` itself admits no keys
beyond the contract's).

A bound is set to at least three times the worst spread seen here, and
never above 0.25; a metric that needs more gets more passes, not a
wider bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

#: same seed, same checkout -> same value, to the last digit
EXACT = ("doc_bytes_per_trial", "sim_events_per_trial")


def result_values(workload: str, seed: int, trace: int) -> Dict[str, Any]:
    """One run of the benchmark, as the driver starts it."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    line = json.loads(done.stdout.strip().splitlines()[-1])
    if not line["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {line['failed']} of "
                         f"{line['attempted']} operations failed")
    return {name: cell["value"] for name, cell in line["metrics"].items()}


def one_run(workload: str, seed: int, s: int) -> Dict[str, Any]:
    values = result_values(workload, seed, 0)
    # keep the raw samples of every run: the next run of this seed
    # would overwrite them, and a disputed spread is audited from them
    samples = os.path.join(run.OUT, f"samples-{workload}-seed{seed}-trace0")
    os.replace(f"{samples}.json", f"{samples}-set{s}.json")
    return values


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", run.ROOT, "rev-parse", "HEAD"], text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    spec = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10,
                        help="runs per workload per set, seeds 1..N")
    parser.add_argument("--workload", choices=list(run.jobs.WORKLOADS),
                        action="append", help="default: all four")
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    if args.sets < 2 or args.seeds < 4:
        parser.error("a spread needs >= 4 seeds and a drift >= 2 sets")
    workloads = args.workload or list(run.jobs.WORKLOADS)
    ticks0 = run.cpu_ticks()

    #: values[workload][set][metric] = one value per seed
    values: Dict[str, List[Dict[str, List[float]]]] = {
        w: [] for w in workloads}
    for s in range(args.sets):
        for workload in workloads:
            runs = []
            for seed in range(1, args.seeds + 1):
                runs.append(one_run(workload, seed, s))
                print(f"set {s} {workload} seed {seed}: " + " ".join(
                    f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
            values[workload].append(
                {m["name"]: [r[m["name"]] for r in runs]
                 for m in spec["end_to_end"]})

    breaches = 0
    table: Dict[str, Any] = {}
    print(f"\n{'workload':<20} {'metric':<22} {'bound':>6}  "
          f"spread per set / drift of later sets")
    for workload in workloads:
        table[workload] = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [vs[name] for vs in values[workload]]
            medians = [statistics.median(v) for v in sets]
            spreads = []
            for v, med in zip(sets, medians):
                q1, _q2, q3 = statistics.quantiles(v, n=4)
                spreads.append((q3 - q1) / med)
            sign = 1.0 if m["better"] == "lower" else -1.0
            drifts = [sign * (med - medians[0]) / medians[0]
                      for med in medians[1:]]
            ok = (max(spreads) <= bound and max(drifts) <= bound
                  and (name not in EXACT or all(v == sets[0] for v in sets)))
            breaches += not ok
            table[workload][name] = {
                "unit": m["unit"], "bound": bound, "medians": medians,
                "spreads": spreads, "drifts": drifts, "ok": ok,
                "seed1": sets[0][0]}
            print(f"{workload:<20} {name:<22} {bound:>6.3f}  "
                  + " ".join(f"{x:.4f}" for x in spreads) + "  /  "
                  + " ".join(f"{x:+.4f}" for x in drifts)
                  + ("" if ok else "   BREACH"))

    ticks1 = run.cpu_ticks()
    host = run.host_stamp()
    host.update(git_sha=git_sha(),
                steal_share=run.steal_share(ticks0, ticks1))
    layers = {w: result_values(w, 1, 1) for w in workloads}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"host": host, "sets": args.sets, "seeds": args.seeds,
                   "run_seconds": spec["run_seconds"], "aa": table,
                   "per_layer_seed1": layers}, fh, indent=1)
        fh.write("\n")
    print(f"\n{breaches} breach(es); wrote {args.out}")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
