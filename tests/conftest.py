"""Shared fixtures and tiny builders for the test suite.

``figure_shape(spec, ablated=False)`` runs a spec's ``run_experiment``
at its quick scale — at the paper's scale, over a pool of
``os.cpu_count()`` workers, under ``REPRO_FULL=1`` — with the spec's
ablation laid over it if ``ablated``, checks the result with the
spec's ``expect`` and returns the run's trials, ``((setup, seed),
result)`` as a :class:`KeepingRunner` kept them.  Each run is made once
per session, so the tests that check one figure under different names
(and the observer-effect test) share it.

``trial_keys`` records the cache key of every job any
:class:`TrialRunner` is given during the test.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.analysis.traces import Trace
from repro.cluster.cluster import Cluster
from repro.experiments.runner import TrialRunner, trial_key
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


class KeepingRunner(TrialRunner):
    """A runner that keeps every job it ran with its result."""

    def __init__(self, workers: int = 1):
        super().__init__(workers=workers)
        self.ran = []

    def run_jobs(self, jobs):
        results = super().run_jobs(jobs)
        self.ran.extend(zip(jobs, results))
        return results


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
            runner = KeepingRunner(workers=os.cpu_count() if FULL else 1)
            results[key] = spec.run(**kwargs, runner=runner), runner.ran
        result, ran = results[key]
        spec.expect(result, spec.resolve(kwargs))
        return ran

    return check


class TrialKeys(list):
    """The ``trial_key`` of every submitted job, in submission order."""

    def pin(self):
        """``(distinct keys, digest of the sorted distinct keys)``."""
        distinct = sorted(set(self))
        text = "\n".join(distinct).encode("utf-8")
        return len(distinct), hashlib.sha256(text).hexdigest()[:16]


@pytest.fixture
def trial_keys(monkeypatch):
    keys = TrialKeys()
    run_jobs = TrialRunner.run_jobs

    def recording(self, jobs):
        keys.extend(trial_key(setup, seed) for setup, seed in jobs)
        return run_jobs(self, jobs)

    monkeypatch.setattr(TrialRunner, "run_jobs", recording)
    return keys
