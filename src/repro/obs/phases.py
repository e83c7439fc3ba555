"""Per-epoch recovery phase tables derived from span boundaries.

Each ``relaunch`` span anchors one recovery row.  The row's phase
boundaries are the *instants* where one span hands off to the next —
the ``detect`` span ending where ``relaunch`` begins, ``restore``
starting once the daemon re-registered, ``replay`` draining the logged
messages — so the four phase durations tile the interval exactly:

    detect + relaunch + restore + replay == t_replay_end − t_fault

by construction, not by summing independently-measured (and therefore
gap-prone) durations.  ``catchup`` extends the row to the first
application progress after recovery and is reported separately — it
overlaps normal execution and is not part of the recovery time proper.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.spans import FIELDS, KIND, LANE, T0, T1

#: phases of one recovery, in order (their durations tile the interval)
PHASES = ("detect", "relaunch", "restore", "replay")

#: tolerance when matching a detect span's end to a relaunch start —
#: one event granularity in the simulated clock
_EPS = 1e-9


def _rows_of(obs_doc: Optional[Dict[str, Any]], kind: str) -> List[list]:
    if not obs_doc:
        return []
    return [row for row in obs_doc.get("spans", ()) if row[KIND] == kind]


def _end(row: list) -> float:
    return row[T1] if row[T1] is not None else row[T0]


def epoch_phase_table(obs_doc: Optional[Dict[str, Any]]
                      ) -> List[Dict[str, Any]]:
    """Build the recovery rows of one trial's ``obs`` document.

    Returns a list of dicts (one per relaunch, in time order) with the
    phase boundaries and durations; empty when observation was off or
    the run had no recoveries.
    """
    relaunches = sorted(_rows_of(obs_doc, "relaunch"), key=lambda r: r[T0])
    if not relaunches:
        return []
    detects = _rows_of(obs_doc, "detect")
    restores = _rows_of(obs_doc, "restore")
    replays = _rows_of(obs_doc, "replay")
    catchups = _rows_of(obs_doc, "catchup")

    rows: List[Dict[str, Any]] = []
    for rel in relaunches:
        fields = rel[FIELDS] or {}
        b1 = rel[T0]                       # failure confirmed, relaunch begins
        b2 = _end(rel)                     # daemon re-registered
        # the detect span that ended exactly where this relaunch began;
        # superseded relaunches share a detect, so don't consume it
        det = None
        for d in detects:
            if d[T1] is not None and abs(d[T1] - b1) <= _EPS:
                det = d
                break
        b0 = det[T0] if det is not None else b1
        rows.append({
            "epoch": fields.get("epoch"),
            "rank": fields.get("rank"),
            "lane": rel[LANE],
            "suspected": bool((det[FIELDS] or {}).get("suspected")
                              ) if det is not None else False,
            "truncated": bool(fields.get("_truncated")),
            "_b": [b0, b1, b2, b2, b2],    # boundaries, extended below
            "catchup": None,
        })

    def _assign(spanrows: List[list], boundary_index: int) -> None:
        # a phase span belongs to the latest recovery already underway
        for srow in sorted(spanrows, key=lambda r: r[T0]):
            owner = None
            for row in rows:
                if row["_b"][1] <= srow[T0] + _EPS:
                    owner = row
            if owner is None:
                continue
            end = _end(srow)
            b = owner["_b"]
            if end > b[boundary_index]:
                for i in range(boundary_index, len(b)):
                    b[i] = max(b[i], end)

    _assign(restores, 3)   # b3: restore complete (replay may begin)
    _assign(replays, 4)    # b4: replay drained
    for crow in sorted(catchups, key=lambda r: r[T0]):
        owner = None
        for row in rows:
            if row["_b"][1] <= crow[T0] + _EPS:
                owner = row
        if owner is not None:
            prev = owner["catchup"] or 0.0
            owner["catchup"] = max(prev, _end(crow) - crow[T0])

    for row in rows:
        b0, b1, b2, b3, b4 = row.pop("_b")
        row.update({
            "t_fault": b0,
            "detect": b1 - b0,
            "relaunch": b2 - b1,
            "restore": b3 - b2,
            "replay": b4 - b3,
            "recovery": b4 - b0,
        })
    return rows


def recovery_window(prow: Dict[str, Any]) -> Tuple[float, float]:
    """``(t_fault, t_end)`` of a phase-table row: the end is the
    critical path's last segment boundary, summed the same way."""
    t = prow["t_fault"]
    for phase in PHASES:
        t = t + prow[phase]
    return prow["t_fault"], t


_COLS = ("epoch", "rank", "lane", "t_fault", "detect", "relaunch",
         "restore", "replay", "catchup", "recovery")


def _fmt(row: Dict[str, Any], col: str) -> str:
    v = row.get(col)
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)


def render_phase_table(obs_doc: Optional[Dict[str, Any]]) -> str:
    """ASCII phase table of one trial (``repro timeline --phases``)."""
    rows = epoch_phase_table(obs_doc)
    if not rows:
        return "no recovery spans recorded (fault-free run or observation off)"
    cells = [[_fmt(row, col) for col in _COLS] for row in rows]
    widths = [max(len(col), *(len(c[i]) for c in cells))
              for i, col in enumerate(_COLS)]
    lines = ["  ".join(col.rjust(w) for col, w in zip(_COLS, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for crow, row in zip(cells, rows):
        line = "  ".join(c.rjust(w) for c, w in zip(crow, widths))
        marks = []
        if row["suspected"]:
            marks.append("suspected")
        if row["truncated"]:
            marks.append("truncated")
        if marks:
            line += "  (" + ", ".join(marks) + ")"
        lines.append(line)
    return "\n".join(lines)
