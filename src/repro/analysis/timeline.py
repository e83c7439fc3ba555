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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.traces import Trace

#: default swimlanes: label -> (trace kinds, mark character)
DEFAULT_LANES: Sequence[Tuple[str, Tuple[str, ...], str]] = (
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

#: joins the default lanes only when the trace has such records (a
#: simulated thread raised), so crash-free timelines keep their shape
CRASH_LANE: Tuple[str, Tuple[str, ...], str] = ("crash", ("thread_crashed",), "X")


@dataclass
class TimelineLane:
    label: str
    kinds: Tuple[str, ...]
    mark: str


def _bucket(t: float, t0: float, t1: float, width: int) -> int:
    if t1 <= t0:
        return 0
    idx = int((t - t0) / (t1 - t0) * width)
    return min(max(idx, 0), width - 1)


def render_timeline(trace: Trace, width: int = 72,
                    t0: Optional[float] = None,
                    t1: Optional[float] = None,
                    lanes: Optional[Sequence[Tuple[str, Tuple[str, ...], str]]] = None,
                    ) -> str:
    """Render the trace as fixed-width swimlanes.

    Wants a trace that kept its records (``Trace(keep=True)``): a
    trace that counted events but kept none raises ``ValueError``
    rather than drawing empty swimlanes.  Empty buckets show ``·`` so
    gaps — the freeze signature — stand out.
    """
    if width < 10:
        raise ValueError("width must be >= 10")
    records = trace.records
    if not lanes:
        lanes = DEFAULT_LANES
        if trace.count("thread_crashed"):
            lanes = (*lanes, CRASH_LANE)
    lanes = [TimelineLane(lbl, kinds, mark) for (lbl, kinds, mark) in lanes]
    if not records and trace.counts:
        raise ValueError("the trace kept no records: run the trial with "
                         "keep_trace=True to render its timeline")
    if t0 is None:
        t0 = records[0].t if records else 0.0
    if t1 is None:
        t1 = records[-1].t if records else 1.0
    if t1 <= t0:
        # an empty or single-instant trace still gets a visible axis —
        # never a zero-width (or negative) time range
        t1 = t0 + 1.0

    rows: Dict[str, List[str]] = {lane.label: ["·"] * width for lane in lanes}
    kind_to_lane: Dict[str, TimelineLane] = {}
    for lane in lanes:
        for kind in lane.kinds:
            kind_to_lane[kind] = lane
    counted = 0
    for rec in records:
        lane = kind_to_lane.get(rec.kind)
        if lane is None or not (t0 <= rec.t <= t1):
            continue
        rows[lane.label][_bucket(rec.t, t0, t1, width)] = lane.mark
        counted += 1

    label_w = max(len(lane.label) for lane in lanes) if lanes else 8
    header = (f"{'time':<{label_w}} {t0:.1f} " + "─" * max(1, width - 16)
              + f" {t1:.1f}")
    lines = [header]
    for lane in lanes:
        lines.append(f"{lane.label:<{label_w}} " + "".join(rows[lane.label]))
    lines.append(f"({counted} events shown, {len(records)} in trace)")
    return "\n".join(lines)

