"""Outcome classification by trace analysis.

The paper (§5) distinguishes three outcomes per experiment:

* **terminated** — the benchmark finished before the 1500 s timeout;
* **non-terminating** — timeout, but the trace shows the application
  kept cycling through rollback/recovery (fault frequency too high for
  progress) — the *green* bars;
* **buggy** — timeout with the application *frozen*: some point after
  which no protocol activity occurs at all (a recovery wave that never
  completes) — the *red* bars.

We implement the same trace analysis: a run that timed out is *buggy*
iff protocol activity ceased well before the timeout, and
*non-terminating* if activity continued to the end.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.analysis.traces import Trace

#: trace kinds that count as "the system is doing something"
ACTIVITY_KINDS = (
    "progress",
    "ckpt_wave_start",
    "ckpt_wave_complete",
    "failure_detected",
    "restart_wave",
    "recovery_complete",
    "fault_injected",
    "proc_launch",
    "ckpt_stored",
)


class Outcome(enum.Enum):
    """Classification of a single experiment run."""

    TERMINATED = "terminated"
    NON_TERMINATING = "non-terminating"
    BUGGY = "buggy"

    def __str__(self) -> str:  # pragma: no cover - cosmetics
        return self.value


@dataclass
class RunVerdict:
    """Outcome plus the evidence used to reach it."""

    outcome: Outcome
    exec_time: Optional[float]
    last_activity: float
    reason: str
    #: mean failure-detection latency over the run's ``detect`` spans
    #: (simulated seconds), from the span rollups of the trial's
    #: ``obs`` document; None when observation was off or fault-free
    detect_latency: Optional[float] = None
    #: total time spent replaying logged/recomputed history across all
    #: recoveries (``replay`` span rollup); None when unobserved
    replay_seconds: Optional[float] = None
    #: per-phase critical-path seconds summed over recovery epochs
    #: (:func:`repro.analysis.critpath.critpath_rollup`); empty dict for
    #: an observed fault-free run, None when observation was off
    critpath_segments: Optional[Dict[str, float]] = None

    @property
    def terminated(self) -> bool:
        return self.outcome is Outcome.TERMINATED

    @property
    def buggy(self) -> bool:
        return self.outcome is Outcome.BUGGY

    @property
    def non_terminating(self) -> bool:
        return self.outcome is Outcome.NON_TERMINATING


def last_activity_time(trace: Trace) -> float:
    """Latest timestamp of any protocol-activity trace kind."""
    best = 0.0
    for kind in ACTIVITY_KINDS:
        t = trace.last_t(kind)
        if t is not None and t > best:
            best = t
    return best


def _span_durations(obs: Optional[Dict[str, Any]], kind: str) -> list:
    """Durations of one span kind from an ``obs`` document.

    Works on the plain wire rows (``[t0, t1, kind, lane, fields]``,
    see :mod:`repro.obs.spans`) so classification needs no obs import
    and handles legacy/unobserved results (``None``) uniformly.
    Truncated spans (closed artificially at end of run) are excluded —
    their duration measures the kill time, not the phase.
    """
    if not obs:
        return []
    out = []
    for row in obs.get("spans", ()):
        if row[2] != kind:
            continue
        fields = row[4] or {}
        if fields.get("_truncated"):
            continue
        t1 = row[1] if row[1] is not None else row[0]
        out.append(t1 - row[0])
    return out


def classify_run(trace: Trace, timeout: float,
                 freeze_threshold: float = 150.0,
                 obs: Optional[Dict[str, Any]] = None) -> RunVerdict:
    """Classify one run from its trace.

    Parameters
    ----------
    trace:
        The run's trace (counters suffice; full records not required).
    timeout:
        The experiment kill time (1500 s in the paper).
    freeze_threshold:
        How long a gap with zero protocol activity before the timeout
        counts as a freeze.  Must exceed the largest fault inter-arrival
        time used by the scenario (the paper's max is 65 s).
    obs:
        The trial's observability document, when recorded.  The verdict
        *outcome* never depends on it (trace-only classification is the
        paper's method and must hold for unobserved/legacy results);
        it only enriches the verdict with span-derived phase figures —
        detection latency and total replay time.
    """
    detects = _span_durations(obs, "detect")
    detect_latency = (round(sum(detects) / len(detects), 9)
                      if detects else None)
    replays = _span_durations(obs, "replay")
    # an observed run with no replay spans genuinely replayed nothing
    # (e.g. vcl, which logs no messages) — that is 0.0, not unknown
    replay_seconds = round(sum(replays), 9) if obs is not None else None
    if obs is not None:
        # function-level import keeps legacy/unobserved classification
        # free of the analysis layer's obs dependencies
        from repro.analysis.critpath import critpath_rollup
        critpath_segments: Optional[Dict[str, float]] = critpath_rollup(obs)
    else:
        critpath_segments = None

    # a simulated thread that raised (``thread_crashed``, logged by the
    # runtime) is the likeliest cause of whatever follows: say so
    crashes = trace.count("thread_crashed")
    crashed = f"; {crashes} simulated thread(s) crashed" if crashes else ""

    done_t = trace.last_t("app_done")
    if done_t is not None:
        return RunVerdict(
            outcome=Outcome.TERMINATED,
            exec_time=done_t,
            last_activity=done_t,
            reason="application finalized" + crashed,
            detect_latency=detect_latency,
            replay_seconds=replay_seconds,
            critpath_segments=critpath_segments,
        )
    t_act = last_activity_time(trace)
    idle = timeout - t_act
    if idle > freeze_threshold:
        return RunVerdict(
            outcome=Outcome.BUGGY,
            exec_time=None,
            last_activity=t_act,
            reason=(f"frozen: no protocol activity for {idle:.0f}s before "
                    f"timeout (last activity at t={t_act:.1f})" + crashed),
            detect_latency=detect_latency,
            replay_seconds=replay_seconds,
            critpath_segments=critpath_segments,
        )
    return RunVerdict(
        outcome=Outcome.NON_TERMINATING,
        exec_time=None,
        last_activity=t_act,
        reason=(f"no progress but protocol kept cycling (last activity "
                f"at t={t_act:.1f}, {idle:.0f}s before timeout)" + crashed),
        detect_latency=detect_latency,
        replay_seconds=replay_seconds,
        critpath_segments=critpath_segments,
    )
