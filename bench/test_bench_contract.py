"""The benchmark's own contract, checked with the tier-1 suite.

``BENCHMARK.json`` is what a driver reads, ``bench/`` is what it runs:
they must name the same workloads and metrics, every source file must
belong to a layer, the output check must be able to fail, and the
command must refuse to run where there is nothing to measure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
QUICK = [sys.executable, str(BENCH / "run.py"), "--quick",
         "--workload", "explore_pool2"]


def result_lines(stdout: str):
    return [json.loads(row) for row in stdout.splitlines()
            if row.startswith("{")]


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_spec_names_the_workloads_the_code_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(jobs.WORKLOADS)


def test_every_layer_has_its_two_metrics():
    declared = {m["name"] for m in SPEC["per_layer"]}
    for layer in layers.LAYERS:
        assert {f"{layer}.self_share", f"{layer}.calls"} <= declared


def test_every_source_file_maps_to_exactly_one_layer():
    package = ROOT / "src" / "repro"
    files = sorted(p.relative_to(package).as_posix()
                   for p in package.rglob("*.py"))
    assert files
    unmapped = [f for f in files if layers.layer_of_source(f) is None]
    assert not unmapped, f"add these to bench/layers.py: {unmapped}"
    assert all(layers.layer_of_source(f) in layers.LAYERS for f in files)
    # no stale exceptions, no directory rule for a directory that is gone
    assert set(layers.FILES) <= set(files)
    assert set(layers.DIRS) == {f.split("/")[0] for f in files if "/" in f}


@pytest.fixture(scope="module")
def quick_run():
    done = subprocess.run(QUICK, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return result_lines(done.stdout)


def test_quick_run_emits_every_declared_metric(quick_run):
    untraced, traced = quick_run
    for line, key in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 < line["attempted"]
        assert list(line["metrics"]) == [m["name"] for m in SPEC[key]]
        for m in SPEC[key]:
            cell = line["metrics"][m["name"]]
            assert cell["unit"] == m["unit"]
            assert isinstance(cell["value"], (int, float))
    assert all(cell["value"] > 0 for cell in untraced["metrics"].values())
    shares = [cell["value"] for name, cell in traced["metrics"].items()
              if name.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-3)


def test_trace_file_loads_and_spans_nest(quick_run):
    doc = json.loads((BENCH / "out" / "trace-explore_pool2.json")
                     .read_text(encoding="utf-8"))
    spans = {e["args"]["id"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"pass.cold", "pass.warm", "trial", "runner.key", "harness.build",
            "runtime.run", "runtime.dispose", "resultstore.to_dict",
            "resultstore.put", "resultstore.get"} <= {
                e["name"] for e in spans.values()}
    for event in spans.values():
        parent = spans.get(event["args"]["parent"])
        if parent is None:
            assert event["name"].startswith("pass.")
            continue
        # integer microseconds: each end may round by one
        assert parent["ts"] - 1 <= event["ts"]
        assert event["ts"] + event["dur"] <= parent["ts"] + parent["dur"] + 1
        if parent["args"]["trial"] is not None:
            assert event["args"]["trial"] == parent["args"]["trial"]


def test_tampered_pin_fails_the_run(tmp_path):
    pins = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    pins["explore_pool2/quick/1"][3]["net_messages"] += 1
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(pins), encoding="utf-8")
    done = subprocess.run(QUICK + ["--trace", "0", "--expected", str(tampered)],
                          capture_output=True, text=True, timeout=120)
    (line,) = result_lines(done.stdout)
    assert done.returncode != 0
    assert not line["correct"] and line["failed"] >= 1
    assert "net_messages" in done.stderr


def test_refuses_a_checkout_with_nothing_to_measure(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ring128_vcl",
         "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
