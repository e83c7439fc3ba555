"""Chrome-trace / Perfetto JSON export of an ``obs`` document.

Produces the ``traceEvents`` JSON-object format that both
``chrome://tracing`` and https://ui.perfetto.dev load directly: one
complete event (``ph: "X"``) per span, timestamps in integer
microseconds of *simulated* time, one lane (thread) per host plus the
synthetic ``net`` lane.

Determinism: the export is a pure function of the ``obs`` document —
lanes sort naturally (``m2`` before ``m10``), events keep the
document's dispatch order, and the JSON serializes with sorted keys
and fixed separators — so the bytes are identical across serial,
pooled and cached runs of the same trial.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List

from repro.obs.spans import FIELDS, KIND, LANE, T0, T1

_NAT = re.compile(r"(\d+)")


def _lane_key(lane: str):
    """Natural sort: ``m2`` < ``m10``, service lanes after machines."""
    return tuple(int(part) if part.isdigit() else part
                 for part in _NAT.split(lane))


def _us(t: float) -> int:
    return int(round(t * 1e6))


def chrome_trace_doc(obs_doc: Dict[str, Any],
                     title: str = "repro trial") -> Dict[str, Any]:
    """Build the Chrome-trace document (Python objects, not JSON)."""
    spans = obs_doc.get("spans", []) if obs_doc else []
    lanes = sorted({row[LANE] for row in spans}, key=_lane_key)
    pid = 1         # one Perfetto process; one thread (tid) per lane
    lane_tid = {lane: tid for tid, lane in enumerate(lanes, start=1)}

    events: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": pid,
         "tid": 0, "args": {"name": title}}]
    for lane in lanes:
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": lane_tid[lane], "args": {"name": lane}})
        events.append({"ph": "M", "name": "thread_sort_index", "pid": pid,
                       "tid": lane_tid[lane],
                       "args": {"sort_index": lane_tid[lane]}})
    for row in spans:
        t0, t1 = row[T0], row[T1]
        lane = row[LANE]
        events.append({
            "ph": "X",
            "name": row[KIND],
            "cat": row[KIND],
            "pid": pid,
            "tid": lane_tid[lane],
            "ts": _us(t0),
            "dur": _us((t1 if t1 is not None else t0) - t0),
            "args": row[FIELDS] or {},
        })
    # flow events: one s/f pair per critical-path segment, drawn on the
    # epoch's relaunch lane so Perfetto threads the recovery anatomy
    # through the span view (function-level import: repro.analysis
    # imports the obs document layer, not the other way round)
    from repro.analysis.critpath import critical_paths
    flow_id = 0
    for crow in critical_paths(obs_doc):
        lane = crow["lane"]
        if lane not in lane_tid:
            continue
        tid = lane_tid[lane]
        for seg in crow["segments"]:
            flow_id += 1
            name = f"crit:{seg['phase']}"
            events.append({"ph": "s", "id": flow_id, "name": name,
                           "cat": "critpath", "pid": pid, "tid": tid,
                           "ts": _us(seg["t0"]),
                           "args": {"epoch": crow["epoch"]}})
            events.append({"ph": "f", "bp": "e", "id": flow_id,
                           "name": name, "cat": "critpath", "pid": pid,
                           "tid": tid, "ts": _us(seg["t1"]),
                           "args": {"epoch": crow["epoch"]}})
    metrics = (obs_doc or {}).get("metrics") or {}
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "simulated",
            "dropped_spans": (obs_doc or {}).get("dropped_spans", 0),
            "truncated_spans": (obs_doc or {}).get("truncated_spans", 0),
            "counters": metrics.get("counters", {}),
        },
    }


def chrome_trace_json(obs_doc: Dict[str, Any],
                      title: str = "repro trial") -> str:
    """Serialize with sorted keys + fixed separators (byte-stable)."""
    doc = chrome_trace_doc(obs_doc, title=title)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_chrome_trace(path: str, obs_doc: Dict[str, Any],
                       title: str = "repro trial") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(chrome_trace_json(obs_doc, title=title))
