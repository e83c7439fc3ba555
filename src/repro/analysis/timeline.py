"""ASCII timeline rendering of execution traces.

The paper's methodology is trace analysis ("The difference between the
two kinds of experiments is done by analysing the execution trace");
this module gives that analysis eyes: a swimlane view of checkpoints,
faults, restarts and application progress over simulated time, which
makes stalls and freezes visually obvious.

::

    time     0.0 ──────────────────────────────────────── 1500.0
    progress ▏██████████▏▏▏▏▏▏▏▏...
    ckpt     ·   C  C  C
    fault    ·     x     x
    restart  ·     R     R
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.traces import Trace

#: the swimlanes: label -> (trace kinds, mark character)
LANES: Sequence[Tuple[str, Tuple[str, ...], str]] = (
    ("progress", ("progress",), "█"),
    ("ckpt", ("ckpt_wave_complete", "v2_ckpt"), "C"),
    ("ckpt?", ("ckpt_wave_abort",), "a"),
    ("fault", ("fault_injected",), "x"),
    ("detect", ("failure_detected",), "!"),
    ("restart", ("restart_wave",), "R"),
    ("recover", ("recovery_complete", "v2_replay_done"), "r"),
    ("bug", ("bug_misattribution",), "B"),
    ("done", ("app_done",), "D"),
)

#: joins the lanes only when the trace has such records (a
#: simulated thread raised), so crash-free timelines keep their shape
CRASH_LANE: Tuple[str, Tuple[str, ...], str] = ("crash", ("thread_crashed",), "X")


def _bucket(t: float, t0: float, t1: float, width: int) -> int:
    if t1 <= t0:
        return 0
    idx = int((t - t0) / (t1 - t0) * width)
    return min(max(idx, 0), width - 1)


def render_timeline(trace: Trace, width: int = 72,
                    t0: Optional[float] = None,
                    t1: Optional[float] = None) -> str:
    """Render the trace as fixed-width swimlanes.

    Wants the live trace of a trial that kept its records: a trace
    that counted events but kept none (one read back from a result
    document, or ``Trace(keep=False)``) raises ``ValueError`` rather
    than drawing empty swimlanes.  Empty buckets show ``·`` so
    gaps — the freeze signature — stand out.
    """
    if width < 10:
        raise ValueError("width must be >= 10")
    records = trace.records
    lanes = LANES
    if trace.count("thread_crashed"):
        lanes = (*lanes, CRASH_LANE)
    if not records and trace.counts:
        raise ValueError("the trace has no records (one read back from a "
                         "result document has none): render a live trace")
    if t0 is None:
        t0 = records[0].t if records else 0.0
    if t1 is None:
        t1 = records[-1].t if records else 1.0
    if t1 <= t0:
        # an empty or single-instant trace still gets a visible axis —
        # never a zero-width (or negative) time range
        t1 = t0 + 1.0

    rows: Dict[str, List[str]] = {label: ["·"] * width
                                  for label, _kinds, _mark in lanes}
    kind_to_lane: Dict[str, Tuple[str, str]] = {
        kind: (label, mark) for label, kinds, mark in lanes for kind in kinds}
    counted = 0
    for rec in records:
        lane = kind_to_lane.get(rec.kind)
        if lane is None or not (t0 <= rec.t <= t1):
            continue
        label, mark = lane
        rows[label][_bucket(rec.t, t0, t1, width)] = mark
        counted += 1

    label_w = max(len(label) for label in rows)
    header = (f"{'time':<{label_w}} {t0:.1f} " + "─" * max(1, width - 16)
              + f" {t1:.1f}")
    lines = [header]
    for label, row in rows.items():
        lines.append(f"{label:<{label_w}} " + "".join(row))
    lines.append(f"({counted} events shown, {len(records)} in trace)")
    return "\n".join(lines)

