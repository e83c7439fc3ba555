#!/usr/bin/env python
"""Perf-regression gate over the micro-benchmark suite.

Compares a fresh pytest-benchmark JSON (``--current``, produced by
``pytest benchmarks/test_micro.py --benchmark-json=...``) against the
committed baseline (``--baseline``) and fails when any *gated*
benchmark — the dispatcher and delivery hot paths that every
simulation trial lives on — got more than ``threshold`` times slower.

The committed baseline stores mean seconds per benchmark.  Absolute
times differ across machines, so the threshold is deliberately loose
(1.5x): the gate exists to catch the order-of-magnitude slips (an
accidentally quadratic scan, a per-event allocation in the fast path),
not 5 % noise.  Refresh the baseline on an intentional perf change:

    python -m pytest benchmarks/test_micro.py -q \
        --benchmark-json=bench-micro.json
    python scripts/check_bench_regression.py \
        --current bench-micro.json \
        --baseline benchmarks/baseline_micro.json --update
"""

from __future__ import annotations

import argparse
import json
import sys

#: benchmarks the gate enforces (name prefixes; parametrized variants
#: like test_network_delivery_throughput[star] gate individually)
GATED_PREFIXES = (
    "test_engine_callback_dispatch_throughput",
    "test_engine_scale_512_delivery_throughput",
    "test_network_delivery_throughput",
    "test_network_delivery_tracing_on",
    "test_obs_span_off_switch_overhead",
)
# test_obs_span_record_throughput is tracked in the baseline but NOT
# gated: allocating 20k Span objects makes it GC-bimodal (2-3x spread
# between rounds on the same machine), which a 1.5x gate would flake
# on.  The off-switch path above is the one every unobserved trial
# pays, so that is what the gate enforces.  The same reasoning keeps
# test_causal_stamp_off_switch_overhead (20k AppMessage allocations)
# tracked but ungated; test_network_delivery_tracing_on IS gated —
# it is the measured price of causal tracing on the delivery path.

DEFAULT_THRESHOLD = 1.5

BASELINE_FORMAT = 1


def load_means(path: str) -> dict:
    """``{benchmark name: mean seconds}`` from pytest-benchmark JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {b["name"]: float(b["stats"]["mean"])
            for b in doc.get("benchmarks", [])}


def is_gated(name: str) -> bool:
    return any(name.startswith(prefix) for prefix in GATED_PREFIXES)


def write_baseline(path: str, means: dict, threshold: float) -> None:
    doc = {
        "format": BASELINE_FORMAT,
        "threshold": threshold,
        "comment": "mean seconds per micro-benchmark; refresh via "
                   "scripts/check_bench_regression.py --update",
        "benchmarks": {name: means[name] for name in sorted(means)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="fail CI when gated micro-benchmarks regress")
    parser.add_argument("--current", required=True,
                        help="pytest-benchmark JSON of this run")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON")
    parser.add_argument("--threshold", type=float, default=None,
                        help="slowdown factor that fails the gate "
                             f"(default: baseline's, else "
                             f"{DEFAULT_THRESHOLD})")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from --current "
                             "instead of gating")
    args = parser.parse_args()

    current = load_means(args.current)
    if args.update:
        write_baseline(args.baseline, current,
                       args.threshold or DEFAULT_THRESHOLD)
        print(f"baseline updated: {args.baseline} "
              f"({len(current)} benchmarks)")
        return 0

    with open(args.baseline, "r", encoding="utf-8") as fh:
        base_doc = json.load(fh)
    baseline = {name: float(mean)
                for name, mean in base_doc.get("benchmarks", {}).items()}
    threshold = args.threshold or float(
        base_doc.get("threshold", DEFAULT_THRESHOLD))

    failures = []
    for name in sorted(baseline):
        if not is_gated(name):
            continue
        if name not in current:
            failures.append(f"{name}: missing from current run "
                            f"(benchmark removed or renamed?)")
            continue
        ratio = current[name] / baseline[name] if baseline[name] else 0.0
        verdict = "FAIL" if ratio > threshold else "ok"
        print(f"[{verdict}] {name}: {current[name] * 1e3:.3f} ms vs "
              f"baseline {baseline[name] * 1e3:.3f} ms "
              f"({ratio:.2f}x, limit {threshold:.2f}x)")
        if ratio > threshold:
            failures.append(f"{name}: {ratio:.2f}x slower than baseline "
                            f"(limit {threshold:.2f}x)")
    for name in sorted(set(current) - set(baseline)):
        if is_gated(name):
            print(f"[note] {name}: not in baseline yet — run --update")

    if failures:
        print("\nperf-regression gate FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("perf-regression gate ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
