"""Deterministic diffing of two trials' observability documents.

``python -m repro trace-diff A.json B.json`` aligns two trials —
typically the same scenario under two protocols, or a kill against a
partition — and prints what moved:

* the **span rollups** side by side (count and summed seconds per span
  kind, with the delta);
* the **recovery critical paths** aligned epoch by epoch (rows are
  already in fault-time order, so the n-th recovery of one trial lines
  up against the n-th of the other), with per-phase deltas;
* the **causal wire rollup** (transmission count and in-flight seconds
  per wire message kind).

Input files are result documents (the wire format of
:mod:`repro.experiments.resultstore`, e.g. ``repro timeline
--obs-out`` or a cache entry) of the current format; trials with no
recoveries — or with observation off — diff cleanly to empty sections
rather than erroring.  Output is a pure function of the two
documents: same inputs, same bytes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.critpath import PHASES, critical_paths
from repro.experiments.resultstore import FORMAT_VERSION, read_entry
from repro.obs.causal import causal_kind_rollup
from repro.obs.spans import span_rollups


def load_obs_doc(path: str) -> Tuple[Optional[Dict[str, Any]], str]:
    """Read the ``obs`` document of a result document file (a result
    store entry or ``timeline --obs-out``, read by
    :func:`~repro.experiments.resultstore.read_entry`).

    Returns ``(obs_doc_or_None, description)``, the description ending
    in ``unobserved`` when the trial recorded no ``obs``; raises one
    ``ValueError`` naming ``path`` for a file that cannot be read, is
    not JSON, is not a result document of :data:`FORMAT_VERSION`, or
    whose ``obs`` section is damaged.
    """
    try:
        result = read_entry(path)
    except OSError as err:
        raise ValueError(f"{path}: {err.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ValueError(f"{path}: not JSON ({err})") from None
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    except (KeyError, TypeError, AttributeError):
        raise ValueError(f"{path}: not a result document") from None
    obs = result.obs
    description = (f"result format {FORMAT_VERSION}, "
                   f"outcome {result.outcome.value}")
    if obs is None:     # a trial run without a reader records nothing
        description += ", unobserved"
    return obs, description


def _fmt(v: Any) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)


def _render(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return lines


def trace_diff_text(obs_a: Optional[Dict[str, Any]],
                    obs_b: Optional[Dict[str, Any]],
                    label_a: str = "A", label_b: str = "B") -> str:
    """The full delta report between two obs documents."""
    lines: List[str] = []

    # -- span rollups -------------------------------------------------------
    roll_a, roll_b = span_rollups(obs_a), span_rollups(obs_b)
    kinds = sorted(set(roll_a) | set(roll_b))
    lines.append(f"== span rollups ({label_a} vs {label_b}) ==")
    if kinds:
        rows = []
        for kind in kinds:
            a, b = roll_a.get(kind), roll_b.get(kind)
            ta = a["total"] if a else None
            tb = b["total"] if b else None
            delta = (tb or 0.0) - (ta or 0.0)
            rows.append([kind,
                         _fmt(a["count"] if a else None),
                         _fmt(b["count"] if b else None),
                         _fmt(ta), _fmt(tb), f"{delta:+.3f}"])
        lines.extend(_render(
            ["kind", f"{label_a} n", f"{label_b} n",
             f"{label_a} s", f"{label_b} s", "delta s"], rows))
    else:
        lines.append("(no spans on either side)")

    # -- critical paths, epoch by epoch -------------------------------------
    cp_a, cp_b = critical_paths(obs_a), critical_paths(obs_b)
    lines.append("")
    lines.append(f"== recovery critical paths "
                 f"({len(cp_a)} vs {len(cp_b)} epochs) ==")
    if cp_a or cp_b:
        rows = []
        for i in range(max(len(cp_a), len(cp_b))):
            ra = cp_a[i] if i < len(cp_a) else None
            rb = cp_b[i] if i < len(cp_b) else None
            for phase in PHASES + ("recovery",):
                va = (ra["recovery"] if phase == "recovery"
                      else ra["segments"][PHASES.index(phase)]["dur"]) \
                    if ra is not None else None
                vb = (rb["recovery"] if phase == "recovery"
                      else rb["segments"][PHASES.index(phase)]["dur"]) \
                    if rb is not None else None
                delta = ("-" if va is None or vb is None
                         else f"{vb - va:+.3f}")
                rows.append([str(i + 1), phase, _fmt(va), _fmt(vb), delta])
        lines.extend(_render(
            ["#", "phase", f"{label_a} s", f"{label_b} s", "delta"], rows))
        for label, paths in ((label_a, cp_a), (label_b, cp_b)):
            cut = [f"#{i}" for i, row in enumerate(paths, start=1)
                   if row["causal_truncated"]]
            if cut:
                lines.append(f"{label}: causal record truncated in "
                             f"{', '.join(cut)} (wire rollup incomplete)")
    else:
        lines.append("(no recoveries on either side)")

    # -- causal wire rollup -------------------------------------------------
    wire_a, wire_b = causal_kind_rollup(obs_a), causal_kind_rollup(obs_b)
    kinds = sorted(set(wire_a) | set(wire_b))
    lines.append("")
    lines.append("== causal wire rollup ==")
    if kinds:
        rows = []
        for kind in kinds:
            a, b = wire_a.get(kind), wire_b.get(kind)
            na = a["count"] if a else 0
            nb = b["count"] if b else 0
            rows.append([kind, _fmt(a["count"] if a else None),
                         _fmt(b["count"] if b else None),
                         _fmt(a["seconds"] if a else None),
                         _fmt(b["seconds"] if b else None),
                         f"{nb - na:+d}"])
        lines.extend(_render(
            ["kind", f"{label_a} n", f"{label_b} n",
             f"{label_a} s", f"{label_b} s", "delta n"], rows))
    else:
        lines.append("(no causal graph on either side)")

    return "\n".join(lines)
