"""Shared fixtures and tiny builders for the test suite.

``figure_shape(spec, ablated=False)`` runs a spec's ``run_experiment``
at its quick scale — at the paper's scale, over a pool of
``os.cpu_count()`` workers, under ``REPRO_FULL=1`` — with the spec's
ablation laid over it if ``ablated``, and checks the result with the
spec's ``expect``.  Each run is made once per session,
so the tests that check one figure under different names share it.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.traces import Trace
from repro.cluster.cluster import Cluster
from repro.experiments.runner import TrialRunner
from repro.simkernel.engine import Engine

FULL = os.environ.get("REPRO_FULL", "") not in ("", "0")


@pytest.fixture
def engine():
    """A fresh seeded engine with a trace sink attached."""
    return Engine(seed=1234, trace=Trace())


@pytest.fixture
def cluster(engine):
    """A small 4-node cluster on the shared engine."""
    return Cluster(engine, 4)


def run_quiet(engine, until=None):
    """Run and assert that no simulated process crashed."""
    engine.run(until=until)
    failures = getattr(engine, "process_failures", [])
    assert not failures, [(p.name, p.error) for p in failures]
    return engine.now


@pytest.fixture(scope="session")
def figure_shape():
    results = {}

    def check(spec, ablated=False):
        # run_experiment's defaults are the paper's scale
        kwargs = {**({} if FULL else spec.quick),
                  **(spec.ablation if ablated else {})}
        key = (spec.name, ablated)
        if key not in results:
            # the paper's scale on every core: results do not depend
            # on the worker count
            runner = ({"runner": TrialRunner(workers=os.cpu_count())}
                      if FULL else {})
            results[key] = spec.run(**kwargs, **runner)
        spec.expect(results[key], spec.resolve(kwargs))

    return check
