"""``python -m repro obs-report`` — campaign observability rollup.

Aggregates the ``obs`` documents of every result in a
:class:`~repro.experiments.resultstore.ResultStore` directory (the
``--cache-dir`` of a campaign) into an OpenMetrics text exposition and
a static HTML report.  See :mod:`repro.obs.report`.

Example::

    python -m repro compare-protocols --quick --reps 1 --cache-dir store
    python -m repro obs-report --store store --out report
"""

from __future__ import annotations

import json
import os

from repro.experiments.resultstore import (UNREADABLE, entry_paths,
                                           run_result_from_dict)
from repro.experiments.spec import ExperimentSpec, flag
from repro.obs.report import write_obs_report


def collect_obs_docs(store_root: str):
    """The ``obs`` document of every entry of a result-store directory
    that recorded one, in sorted entry order and read as the store
    reads it, plus the count of entries skipped (unreadable, of another
    format, incomplete or unobserved)."""
    docs = []
    skipped = 0
    for path in entry_paths(store_root):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obs = run_result_from_dict(json.load(fh)).obs
        except UNREADABLE:
            obs = None
        if obs:
            docs.append(obs)
        else:
            skipped += 1
    return docs, skipped


def run(store: str, out: str, title: str = "repro campaign") -> str:
    """Write the rollup of result store ``store`` under ``out``; what
    was aggregated and where it went."""
    if not os.path.isdir(store):
        raise SystemExit(f"no such result store: {store}")
    docs, skipped = collect_obs_docs(store)
    paths = write_obs_report(out, docs, title=title)
    return "\n".join([f"aggregated {len(docs)} observed trials "
                      f"({skipped} entries skipped)"]
                     + [f"  {kind}: {paths[kind]}" for kind in sorted(paths)])


SPEC = ExperimentSpec(
    name="obs-report", run=run,
    flags=(flag("--store", required=True, metavar="DIR",
                help="result-store root (a campaign's --cache-dir)"),
           flag("--out", required=True, metavar="DIR",
                help="output directory for metrics.txt + index.html"),
           flag("--title", help="report title (default: 'repro campaign')")),
    blocks=(lambda text, kwargs: text,))
