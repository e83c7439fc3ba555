"""A finished trial leaves no deployment behind once the collector runs.

``TrialSetup.run_one`` pauses the cyclic collector from build to drop
(with it on, a faulted 512-rank trial takes ~1.35x the CPU in passes
that free nothing) and drops the deployment inside the pause.  What is
left is O(N) cycles, and the first collection after the pause frees
them — provided nothing outside names them.  The returned result is
plain data: its trace is a log with no live wiring, so a kept result
names nothing of the deployment, however it was obtained.  So the
results are kept here, and one ``gc.collect()`` with the collector on
must leave no trial's engine or cluster alive.
"""

import gc
import pickle
import weakref

import pytest

from repro.experiments.harness import TrialSetup
from repro.explore.generators import MASTER, NODE_DAEMON, TimedKill, render_plan
from repro.mpichv.runtime import VclRuntime

#: results kept alive across the collection
KEPT = 3


def faulted_ring(n_procs, protocol):
    return TrialSetup(
        n_procs=n_procs, n_machines=n_procs + 4,
        scenario_source=render_plan((TimedKill(at=45, target=n_procs - 3),)),
        master_daemon=MASTER, node_daemon=NODE_DAEMON,
        protocol=protocol, timeout=600.0, footprint=1e9,
        workload="ring", niters=40, total_compute=440.0 * n_procs,
        config_overrides={"n_ckpt_servers": 4})


def deployment_refs(monkeypatch):
    """Weakrefs to the engine and cluster of every deployment
    ``TrialSetup.build`` makes from now on."""
    refs = []
    build = TrialSetup.build

    def probed(self, seed):
        runtime, deployment = build(self, seed)
        refs.append(weakref.ref(runtime.engine))
        refs.append(weakref.ref(runtime.cluster))
        return runtime, deployment

    monkeypatch.setattr(TrialSetup, "build", probed)
    return refs


@pytest.mark.parametrize("n_procs", [16, 32])
@pytest.mark.parametrize("protocol", ["vcl", "v2", "v1"])
def test_a_trial_leaves_no_deployment_behind(monkeypatch, protocol, n_procs):
    setup = faulted_ring(n_procs, protocol)
    refs = deployment_refs(monkeypatch)
    results = [setup.run_one(seed) for seed in range(KEPT)]
    assert gc.isenabled()
    gc.collect()
    assert all(r.restarts >= 1 and r.exec_time is not None for r in results)
    assert len(refs) == 2 * KEPT
    assert [ref() for ref in refs if ref() is not None] == []


def test_a_kept_live_result_is_plain_data():
    """A result kept from ``runtime.run()`` itself, the runtime dropped
    with no teardown call: the collector frees the deployment, and the
    result's trace pickles."""
    runtime, deployment = faulted_ring(8, "vcl").build(0)
    engine = weakref.ref(runtime.engine)
    result = runtime.run()
    del runtime, deployment
    gc.collect()
    assert engine() is None
    assert result.restarts >= 1 and result.exec_time is not None
    trace = pickle.loads(pickle.dumps(result.trace))
    assert trace.counts == result.trace.counts


def test_the_collector_is_paused_until_the_deployment_is_dropped(
        monkeypatch):
    seen = []
    refs = deployment_refs(monkeypatch)

    def probed(cls, name):
        original = getattr(cls, name)

        def method(self, *args):
            seen.append((name, gc.isenabled()))
            return original(self, *args)

        monkeypatch.setattr(cls, name, method)

    probed(TrialSetup, "build")
    probed(VclRuntime, "run")
    real_enable = gc.enable

    def enable():
        # the pause ends here: by now nothing but its own cycles may
        # name the deployment, so one pass frees it
        gc.collect()
        seen.append(("enable", [ref for ref in refs if ref() is not None]))
        real_enable()

    monkeypatch.setattr(gc, "enable", enable)
    assert gc.isenabled()
    faulted_ring(4, "vcl").run_one(0)
    assert len(refs) == 2
    assert seen == [("build", False), ("run", False), ("enable", [])]
    assert gc.isenabled()
