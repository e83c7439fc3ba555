"""Recovery critical paths: phase segments + causal attribution.

Each recovery epoch of a trial decomposes into four phases whose
boundaries are span hand-off instants (:func:`repro.obs.phases
.epoch_phase_table`), so the segments tile the recovery interval
exactly.  This module turns every epoch into a *critical path* record:

* the four ``detect``/``relaunch``/``restore``/``replay`` segments with
  absolute ``t0``/``t1`` and duration — ``recovery`` is defined as the
  sum of the segment durations, so the tiling identity holds in exact
  floating point, not approximately;
* the causal half the recorder folded per epoch while it still held
  the transmission table (:meth:`repro.obs.causal.CausalGraph
  .fold_epochs`): the *attribution* of the network transmissions
  falling inside the recovery window, grouped into recovery-relevant
  categories (checkpoint restore transfer, log fetch, replay
  redelivery, scheduler commit, relaunch control traffic), the backward
  *causal chain* from the recovery-complete instant to the triggering
  failure, and ``causal_truncated`` — whether the record's cap cut into
  the window, so either may be incomplete.

Everything here is a pure function of the ``obs`` document — the same
document yields the same rows, byte for byte, on every execution path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.causal import causal_section
from repro.obs.phases import PHASES, epoch_phase_table


def critical_paths(obs_doc: Optional[Dict[str, Any]]
                   ) -> List[Dict[str, Any]]:
    """One critical-path record per recovery epoch, in time order.

    Empty when observation was off or the trial had no recoveries
    (fault-free runs produce no relaunch spans).
    """
    folds = causal_section(obs_doc).get("epochs", ())
    out: List[Dict[str, Any]] = []
    for i, prow in enumerate(epoch_phase_table(obs_doc)):
        t0 = prow["t_fault"]
        segments: List[Dict[str, Any]] = []
        t = t0
        recovery = 0.0          # the tiling identity, exact by construction
        for phase in PHASES:
            dur = prow[phase]
            segments.append({"phase": phase, "t0": t, "t1": t + dur,
                             "dur": dur})
            t = t + dur
            recovery += dur
        fold = folds[i] if folds else {}    # spans without a causal record
        out.append({
            "epoch": prow["epoch"],
            "rank": prow["rank"],
            "lane": prow["lane"],
            "suspected": prow["suspected"],
            "truncated": prow["truncated"],
            "causal_truncated": fold.get("causal_truncated", False),
            "t_fault": t0,
            "t_end": t,
            "recovery": recovery,
            "segments": segments,
            "attribution": fold.get("attribution", {}),
            "chain": fold.get("chain", []),
        })
    return out


def add_phase_seconds(totals: Dict[str, float],
                      obs_doc: Optional[Dict[str, Any]]) -> int:
    """Add each non-truncated epoch's phase durations, and their sum as
    ``recovery``, into ``totals``; returns the number of epochs seen.
    The phase table alone gives them: the durations of
    :func:`critical_paths`' segments, summed in the same order."""
    phase_rows = epoch_phase_table(obs_doc)
    for prow in phase_rows:
        if prow["truncated"]:
            continue
        recovery = 0.0
        for phase in PHASES:
            totals[phase] = totals.get(phase, 0.0) + prow[phase]
            recovery += prow[phase]
        totals["recovery"] = totals.get("recovery", 0.0) + recovery
    return len(phase_rows)


def render_critical_paths(obs_doc: Optional[Dict[str, Any]]) -> str:
    """ASCII critical-path report (``repro timeline --phases``)."""
    rows = critical_paths(obs_doc)
    if not rows:
        return "no recovery critical paths (fault-free run or observation off)"
    lines: List[str] = []
    for row in rows:
        head = (f"epoch {row['epoch']}"
                + (f" rank {row['rank']}" if row["rank"] is not None
                   else " (full restart)")
                + f"  fault t={row['t_fault']:.3f}"
                + f"  recovery {row['recovery']:.3f}s")
        marks = [m for m, on in (
            ("suspected", row["suspected"]),
            ("truncated", row["truncated"]),
            ("causal record truncated", row["causal_truncated"])) if on]
        if marks:
            head += "  (" + ", ".join(marks) + ")"
        lines.append(head)
        for seg in row["segments"]:
            lines.append(f"  {seg['phase']:<9} {seg['t0']:>10.3f} ->"
                         f" {seg['t1']:>10.3f}  {seg['dur']:>8.3f}s")
        if row["attribution"]:
            parts = [f"{cat} {v['count']}x/{v['seconds']:.3f}s"
                     for cat, v in sorted(row["attribution"].items())]
            lines.append("  wire: " + ", ".join(parts))
        if row["chain"]:
            lines.append(f"  causal chain ({len(row['chain'])} nodes): "
                         + " -> ".join(row["chain"][:6])
                         + (" ..." if len(row["chain"]) > 6 else ""))
    return "\n".join(lines)
