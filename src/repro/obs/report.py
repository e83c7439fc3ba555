"""Campaign-level observability rollup: OpenMetrics + static HTML.

A campaign produces one ``obs`` document per observed trial; this
module aggregates any number of them into a single summary and renders
it two ways:

* an **OpenMetrics text exposition** (``metrics.txt``) — the plain-text
  format Prometheus-family scrapers ingest, one family per aggregate
  with a terminating ``# EOF`` line;
* a **static HTML report** (``index.html``) — a self-contained page
  with the same numbers in tables, for humans and CI artifacts.

Both renderings are pure functions of the aggregated dict with every
iteration order sorted, so re-running a campaign (or re-aggregating
its result store) reproduces the files byte for byte.
"""

from __future__ import annotations

import html
import json
import os
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.causal import causal_kind_rollup, causal_totals
from repro.obs.spans import span_rollups


def _round9(v: float) -> float:
    return round(v, 9)


def aggregate_obs(obs_docs: Iterable[Optional[Dict[str, Any]]]
                  ) -> Dict[str, Any]:
    """Aggregate many trials' ``obs`` documents into one summary."""
    # function-level: repro.analysis builds on the obs layer, and this
    # is the one place the dependency briefly points the other way
    from repro.analysis.critpath import add_phase_seconds, critical_paths

    spans: Dict[str, Dict[str, float]] = {}
    wire: Dict[str, Dict[str, float]] = {}
    critpath: Dict[str, float] = {}
    causal = causal_totals(None)         # the zero of the sums below
    counters: Dict[str, float] = {}
    trials = 0
    epochs = 0
    causal_truncated_epochs = 0
    dropped_spans = 0

    for doc in obs_docs:
        if not doc:
            continue
        trials += 1
        dropped_spans += doc.get("dropped_spans", 0)
        for kind, roll in span_rollups(doc).items():
            agg = spans.setdefault(kind, {"count": 0, "total": 0.0,
                                          "max": 0.0, "truncated": 0})
            agg["count"] += roll["count"]
            agg["total"] += roll["total"]
            agg["max"] = max(agg["max"], roll["max"])
            agg["truncated"] += roll["truncated"]
        for kind, roll in causal_kind_rollup(doc).items():
            agg = wire.setdefault(kind, {"count": 0, "seconds": 0.0})
            agg["count"] += roll["count"]
            agg["seconds"] += roll["seconds"]
        for name, value in causal_totals(doc).items():
            causal[name] += value
        epochs += add_phase_seconds(critpath, doc)
        causal_truncated_epochs += sum(row["causal_truncated"]
                                       for row in critical_paths(doc))
        metrics = doc.get("metrics") or {}
        for name, value in (metrics.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value

    for agg in spans.values():
        agg["total"] = _round9(agg["total"])
        agg["max"] = _round9(agg["max"])
    for agg in wire.values():
        agg["seconds"] = _round9(agg["seconds"])
    return {
        "trials": trials,
        "epochs": epochs,
        "causal_truncated_epochs": causal_truncated_epochs,
        "dropped_spans": dropped_spans,
        "spans": spans,
        "wire": wire,
        "causal": causal,
        "critpath": {k: _round9(v) for k, v in critpath.items()},
        "counters": counters,
    }


def _num(v: Any) -> str:
    """Deterministic OpenMetrics number rendering."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int) or (isinstance(v, float) and v == int(v)):
        return str(int(v))
    return repr(_round9(float(v)))


def openmetrics_text(agg: Dict[str, Any]) -> str:
    """OpenMetrics text exposition of one campaign aggregate."""
    lines: List[str] = []

    def family(name: str, mtype: str, help_text: str) -> None:
        lines.append(f"# TYPE {name} {mtype}")
        lines.append(f"# HELP {name} {help_text}")

    family("repro_trials", "counter", "observed trials aggregated")
    lines.append(f"repro_trials_total {_num(agg['trials'])}")
    family("repro_recovery_epochs", "counter",
           "recovery epochs across all observed trials")
    lines.append(f"repro_recovery_epochs_total {_num(agg['epochs'])}")
    if agg["causal_truncated_epochs"]:
        family("repro_causal_truncated_epochs", "counter",
               "recovery epochs whose window the causal cap cut into")
        lines.append("repro_causal_truncated_epochs_total "
                     f"{_num(agg['causal_truncated_epochs'])}")
    family("repro_dropped_spans", "counter",
           "spans dropped by the per-trial cap")
    lines.append(f"repro_dropped_spans_total {_num(agg['dropped_spans'])}")

    family("repro_span_count", "counter", "recorded spans by kind")
    for kind in sorted(agg["spans"]):
        lines.append(f'repro_span_count_total{{kind="{kind}"}} '
                     f'{_num(agg["spans"][kind]["count"])}')
    family("repro_span_seconds", "counter",
           "summed span duration by kind (simulated seconds)")
    for kind in sorted(agg["spans"]):
        lines.append(f'repro_span_seconds_total{{kind="{kind}"}} '
                     f'{_num(agg["spans"][kind]["total"])}')

    family("repro_critpath_seconds", "counter",
           "recovery critical-path seconds by phase")
    for phase in sorted(agg["critpath"]):
        lines.append(f'repro_critpath_seconds_total{{phase="{phase}"}} '
                     f'{_num(agg["critpath"][phase])}')

    family("repro_wire_count", "counter",
           "causally-traced transmissions by wire message kind")
    for kind in sorted(agg["wire"]):
        lines.append(f'repro_wire_count_total{{kind="{kind}"}} '
                     f'{_num(agg["wire"][kind]["count"])}')
    family("repro_wire_seconds", "counter",
           "summed in-flight seconds by wire message kind")
    for kind in sorted(agg["wire"]):
        lines.append(f'repro_wire_seconds_total{{kind="{kind}"}} '
                     f'{_num(agg["wire"][kind]["seconds"])}')

    family("repro_causal_nodes", "counter", "recorded causal graph nodes")
    lines.append(f"repro_causal_nodes_total {_num(agg['causal']['nodes'])}")
    family("repro_causal_edges", "counter", "recorded causal graph edges")
    lines.append(f"repro_causal_edges_total {_num(agg['causal']['edges'])}")
    family("repro_causal_dropped_nodes", "counter",
           "causal nodes dropped by the per-trial cap")
    lines.append("repro_causal_dropped_nodes_total "
                 f"{_num(agg['causal']['dropped_nodes'])}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def _table(headers: List[str], rows: List[List[str]]) -> str:
    out = ["<table>", "<tr>" + "".join(f"<th>{html.escape(h)}</th>"
                                       for h in headers) + "</tr>"]
    for row in rows:
        out.append("<tr>" + "".join(f"<td>{html.escape(c)}</td>"
                                    for c in row) + "</tr>")
    out.append("</table>")
    return "\n".join(out)


def html_report(agg: Dict[str, Any], title: str = "repro campaign") -> str:
    """Self-contained static HTML page of one campaign aggregate."""
    parts = [
        "<!DOCTYPE html>",
        '<html><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        "<style>body{font-family:monospace;margin:2em}"
        "table{border-collapse:collapse;margin:1em 0}"
        "th,td{border:1px solid #999;padding:0.2em 0.6em;"
        "text-align:right}th{background:#eee}</style>",
        "</head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f"<p>{agg['trials']} observed trials, "
        f"{agg['epochs']} recovery epochs, "
        f"{agg['dropped_spans']} dropped spans.</p>",
        *([f"<p>Causal record truncated in "
           f"{agg['causal_truncated_epochs']} recovery epochs: their "
           f"wire attribution and chains may be incomplete.</p>"]
          if agg["causal_truncated_epochs"] else []),
        "<h2>Recovery critical path</h2>",
        _table(["phase", "seconds"],
               [[p, _num(agg["critpath"][p])]
                for p in sorted(agg["critpath"])]),
        "<h2>Spans</h2>",
        _table(["kind", "count", "seconds", "max", "truncated"],
               [[k, _num(r["count"]), _num(r["total"]), _num(r["max"]),
                 _num(r["truncated"])]
                for k, r in sorted(agg["spans"].items())]),
        "<h2>Wire traffic (causal net edges)</h2>",
        _table(["kind", "count", "in-flight seconds"],
               [[k, _num(r["count"]), _num(r["seconds"])]
                for k, r in sorted(agg["wire"].items())]),
        "<h2>Causal graph</h2>",
        _table(["metric", "value"],
               [[k, _num(v)] for k, v in sorted(agg["causal"].items())]),
        "<h2>Counters</h2>",
        _table(["counter", "total"],
               [[k, _num(v)] for k, v in sorted(agg["counters"].items())]),
        "</body></html>",
    ]
    return "\n".join(parts) + "\n"


def write_obs_report(outdir: str,
                     obs_docs: Iterable[Optional[Dict[str, Any]]],
                     title: str = "repro campaign") -> Dict[str, str]:
    """Aggregate and write ``metrics.txt`` + ``index.html`` under
    ``outdir``; returns the written paths."""
    agg = aggregate_obs(obs_docs)
    os.makedirs(outdir, exist_ok=True)
    paths = {"metrics": os.path.join(outdir, "metrics.txt"),
             "html": os.path.join(outdir, "index.html"),
             "aggregate": os.path.join(outdir, "aggregate.json")}
    with open(paths["metrics"], "w", encoding="utf-8") as fh:
        fh.write(openmetrics_text(agg))
    with open(paths["html"], "w", encoding="utf-8") as fh:
        fh.write(html_report(agg, title=title))
    with open(paths["aggregate"], "w", encoding="utf-8") as fh:
        fh.write(json.dumps(agg, sort_keys=True, indent=2) + "\n")
    return paths
