"""``python -m repro trace-diff`` — align two trials' observability.

Takes two result documents (``repro timeline --obs-out``, or cache
entries) and prints the deterministic delta table: span rollups,
epoch-aligned recovery critical paths, and the causal wire rollup.  See :mod:`repro.analysis.tracediff`.

Example::

    python -m repro timeline --kill 45 --obs-out a.json
    python -m repro timeline --partition 45:0 --heal-after 20 --obs-out b.json
    python -m repro trace-diff a.json b.json
"""

from __future__ import annotations

import argparse
import os

from repro.analysis.tracediff import load_obs_doc, trace_diff_text


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="repro trace-diff",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="first trial (result document JSON)")
    parser.add_argument("b", help="second trial (result document JSON)")
    parser.add_argument("--label-a", default=None,
                        help="display label for the first trial "
                             "(default: its file name)")
    parser.add_argument("--label-b", default=None,
                        help="display label for the second trial "
                             "(default: its file name)")
    args = parser.parse_args(argv)

    try:
        obs_a, desc_a = load_obs_doc(args.a)
        obs_b, desc_b = load_obs_doc(args.b)
    except ValueError as err:
        raise SystemExit(f"trace-diff: {err}") from None
    label_a = args.label_a or os.path.basename(args.a)
    label_b = args.label_b or os.path.basename(args.b)
    print(f"{label_a}: {desc_a}")
    print(f"{label_b}: {desc_b}")
    print()
    print(trace_diff_text(obs_a, obs_b, label_a=label_a, label_b=label_b))


if __name__ == "__main__":  # pragma: no cover
    main()
