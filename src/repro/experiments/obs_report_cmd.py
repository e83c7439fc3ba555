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

import argparse
import json
import os

from repro.experiments.resultstore import (UNREADABLE, entry_paths,
                                           run_result_from_dict)
from repro.obs.report import write_obs_report


def collect_obs_docs(store_root: str):
    """Every ``obs`` document in a result-store directory.

    Reads the store's entries in sorted order (deterministic
    aggregation input order) and yields the obs document of every
    result that recorded one, read as the result store reads it.
    Returns the list plus a count of skipped entries (unreadable,
    version-skewed, incomplete, or unobserved).
    """
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


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="repro obs-report",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--store", required=True, metavar="DIR",
                        help="result-store root (a campaign's --cache-dir)")
    parser.add_argument("--out", required=True, metavar="DIR",
                        help="output directory for metrics.txt + index.html")
    parser.add_argument("--title", default="repro campaign",
                        help="report title (default: 'repro campaign')")
    args = parser.parse_args(argv)

    if not os.path.isdir(args.store):
        raise SystemExit(f"no such result store: {args.store}")
    docs, skipped = collect_obs_docs(args.store)
    paths = write_obs_report(args.out, docs, title=args.title)
    print(f"aggregated {len(docs)} observed trials "
          f"({skipped} entries skipped)")
    for kind in sorted(paths):
        print(f"  {kind}: {paths[kind]}")


if __name__ == "__main__":  # pragma: no cover
    main()
