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

import os
from typing import Optional

from repro.analysis.tracediff import load_obs_doc, trace_diff_text
from repro.experiments.spec import ExperimentSpec, flag


def run(a: str, b: str, label_a: Optional[str] = None,
        label_b: Optional[str] = None) -> str:
    """The delta table of result documents ``a`` and ``b``, under their
    labels (default: their file names)."""
    try:
        obs_a, desc_a = load_obs_doc(a)
        obs_b, desc_b = load_obs_doc(b)
    except ValueError as err:
        raise SystemExit(f"trace-diff: {err}") from None
    label_a = label_a or os.path.basename(a)
    label_b = label_b or os.path.basename(b)
    return "\n".join([
        f"{label_a}: {desc_a}", f"{label_b}: {desc_b}", "",
        trace_diff_text(obs_a, obs_b, label_a=label_a, label_b=label_b)])


SPEC = ExperimentSpec(
    name="trace-diff", run=run,
    flags=(flag("a", help="first trial (result document JSON)"),
           flag("b", help="second trial (result document JSON)"),
           flag("--label-a", help="display label for the first trial "
                                  "(default: its file name)"),
           flag("--label-b", help="display label for the second trial "
                                  "(default: its file name)")),
    blocks=(lambda text, kwargs: text,))
