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
from typing import Optional

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


def classify_run(trace: Trace, timeout: float,
                 freeze_threshold: float = 150.0) -> RunVerdict:
    """Classify one run from its trace alone, the paper's method.

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

    Phase figures (detection latency, replay time, the critical path)
    are read from the trial's ``obs`` document, not from the verdict:
    :func:`repro.analysis.critpath.critical_paths` and
    :func:`repro.analysis.critpath.add_phase_seconds`.
    """
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
        )
    return RunVerdict(
        outcome=Outcome.NON_TERMINATING,
        exec_time=None,
        last_activity=t_act,
        reason=(f"no progress but protocol kept cycling (last activity "
                f"at t={t_act:.1f}, {idle:.0f}s before timeout)" + crashed),
    )
