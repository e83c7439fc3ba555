"""Recovery critical paths: phase segments + causal attribution.

Each recovery epoch of a trial decomposes into four phases whose
boundaries are span hand-off instants (:func:`repro.obs.phases
.epoch_phase_table`), so the segments tile the recovery interval
exactly.  This module turns every epoch into a *critical path* record:

* the four ``detect``/``relaunch``/``restore``/``replay`` segments with
  absolute ``t0``/``t1`` and duration — ``recovery`` is defined as the
  sum of the segment durations, so the tiling identity holds in exact
  floating point, not approximately;
* a per-epoch *attribution* of the causal graph's network transmissions
  falling inside the recovery window, grouped into recovery-relevant
  categories (checkpoint restore transfer, log fetch, replay
  redelivery, scheduler commit, relaunch control traffic);
* the backward *causal chain* from the recovery-complete instant to the
  triggering failure: starting at the last message received inside the
  window, alternating ``net`` edges (receive ← send) and ``causal``
  edges (send ← the receive that caused it) until the chain leaves the
  window.

Everything here is a pure function of the ``obs`` document — the same
document yields the same rows, byte for byte, on every execution path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.causal import causal_columns, node_id
from repro.obs.phases import epoch_phase_table

#: phases of one recovery, in order (their durations tile the interval)
PHASES = ("detect", "relaunch", "restore", "replay")

#: wire message kind -> attribution category (anything else: "other")
ATTRIBUTION = {
    # pulling the checkpoint image back from its server
    "FetchReq": "restore_transfer",
    "FetchResp": "restore_transfer",
    # fetching the logged delivery history (V2 event logger, V1 CM)
    "EvFetch": "log_fetch",
    "EvFetchResp": "log_fetch",
    "CMAttach": "log_fetch",
    # redelivering logged messages to the recovering rank
    "CMDeliver": "replay",
    "V2Data": "replay",
    "DataMsg": "replay",
    # scheduler wave machinery
    "Marker": "sched_commit",
    "SchedAck": "sched_commit",
    "WaveCommit": "sched_commit",
    # dispatcher-driven restart control traffic
    "Register": "relaunch_control",
    "RegisterAck": "relaunch_control",
    "CommandMap": "relaunch_control",
    "Terminate": "relaunch_control",
    # mesh / service (re)connection chatter
    "Hello": "mesh",
    "V2Hello": "mesh",
    "SchedHello": "mesh",
}

#: backward-walk bound: a chain longer than this is cut (never loops —
#: edges always point backward in time — but stays bounded regardless)
MAX_CHAIN = 64

_EPS = 1e-9


def critical_paths(obs_doc: Optional[Dict[str, Any]]
                   ) -> List[Dict[str, Any]]:
    """One critical-path record per recovery epoch, in time order.

    Empty when observation was off or the trial had no recoveries
    (fault-free runs produce no relaunch spans).
    """
    phase_rows = epoch_phase_table(obs_doc)
    if not phase_rows:
        return []
    t_send, t_recv, kind, parent = causal_columns(obs_doc)
    # rows by receive instant (the sort is stable: ties in row order)
    recv_by_time = sorted(range(len(t_recv)), key=t_recv.__getitem__)

    out: List[Dict[str, Any]] = []
    for prow in phase_rows:
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
        t_end = t

        attribution: Dict[str, Dict[str, float]] = {}
        for row, sent in enumerate(t_send):
            if sent < t0 - _EPS or sent > t_end + _EPS:
                continue
            cat = ATTRIBUTION.get(kind[row], "other")
            entry = attribution.setdefault(cat,
                                           {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] += t_recv[row] - sent
        for entry in attribution.values():
            entry["seconds"] = round(entry["seconds"], 9)

        # backward chain from the last receive inside the window: a
        # receive steps to its own send, a send to the receive that
        # caused it
        chain: List[str] = []
        row = -1
        for i in reversed(recv_by_time):
            if t_recv[i] <= t_end + _EPS:
                if t_recv[i] >= t0 - _EPS:
                    row = i
                break
        at_recv = True
        while row >= 0 and len(chain) < MAX_CHAIN:
            if (t_recv[row] if at_recv else t_send[row]) < t0 - _EPS:
                break
            chain.append(node_id(obs_doc, row, at_recv))
            if not at_recv:
                row = parent[row]
            at_recv = not at_recv
        chain.reverse()         # chronological: cause first

        out.append({
            "epoch": prow["epoch"],
            "rank": prow["rank"],
            "lane": prow["lane"],
            "suspected": prow["suspected"],
            "truncated": prow["truncated"],
            "t_fault": t0,
            "t_end": t_end,
            "recovery": recovery,
            "segments": segments,
            "attribution": attribution,
            "chain": chain,
        })
    return out


def critpath_rollup(obs_doc: Optional[Dict[str, Any]]
                    ) -> Dict[str, float]:
    """Total per-phase critical-path seconds across a trial's epochs.

    ``{phase: seconds, "recovery": seconds}`` over non-truncated
    epochs; empty for fault-free or unobserved trials.
    """
    rollup: Dict[str, float] = {}
    add_phase_seconds(rollup, obs_doc)
    return {k: round(v, 9) for k, v in rollup.items()}


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
        marks = [m for m, on in (("suspected", row["suspected"]),
                                 ("truncated", row["truncated"])) if on]
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
