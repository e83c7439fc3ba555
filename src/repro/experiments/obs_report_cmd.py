"""``python -m repro obs-report`` — campaign observability rollup.

Aggregates the ``obs`` documents of every result in a
:class:`~repro.experiments.resultstore.ResultStore` directory (the
``--cache-dir`` of a campaign) into an OpenMetrics text exposition and
a static HTML report.  See :mod:`repro.obs.report`.

A campaign observes its trials only when it has a reader for their
``obs`` documents, so write the store with ``--obs-report``: an
entry written without one holds no ``obs`` document, and the report
counts it as an unobserved entry skipped.

Example::

    python -m repro compare-protocols --quick --reps 1 --cache-dir store \
        --obs-report campaign-report
    python -m repro obs-report --store store --out report
"""

from __future__ import annotations

import os

from repro.experiments.resultstore import UNREADABLE, entry_paths, read_entry
from repro.experiments.spec import ExperimentSpec, flag
from repro.obs.report import write_obs_report


def collect_obs_docs(store_root: str):
    """The ``obs`` document of every entry of a result-store directory
    that recorded one, in sorted entry order and read as the store
    reads it, plus the counts of entries skipped: unobserved (written
    by a run with no reader of its ``obs``), and unreadable (of
    another format, incomplete or with a damaged ``obs`` section)."""
    docs = []
    unobserved = unreadable = 0
    for path in entry_paths(store_root):
        try:
            obs = read_entry(path).obs
        except UNREADABLE:
            unreadable += 1
            continue
        if obs:
            docs.append(obs)
        else:
            unobserved += 1
    return docs, unobserved, unreadable


def run(store: str, out: str, title: str = "repro campaign") -> str:
    """Write the rollup of result store ``store`` under ``out``; what
    was aggregated and where it went."""
    if not os.path.isdir(store):
        raise SystemExit(f"no such result store: {store}")
    docs, unobserved, unreadable = collect_obs_docs(store)
    paths = write_obs_report(out, docs, title=title)
    return "\n".join([f"aggregated {len(docs)} observed trials "
                      f"(skipped: {unobserved} unobserved, "
                      f"{unreadable} unreadable entries)"]
                     + [f"  {kind}: {paths[kind]}" for kind in sorted(paths)])


SPEC = ExperimentSpec(
    name="obs-report", run=run,
    flags=(flag("--store", required=True, metavar="DIR",
                help="result-store root (a campaign's --cache-dir)"),
           flag("--out", required=True, metavar="DIR",
                help="output directory for metrics.txt + index.html"),
           flag("--title", help="report title (default: 'repro campaign')")),
    blocks=(lambda text, kwargs: text,))
