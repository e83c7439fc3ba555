"""A finished trial leaves no deployment behind once the collector runs.

``TrialSetup.run_one`` pauses the cyclic collector from build to drop
(with it on, a faulted 512-rank trial takes ~1.35x the CPU in passes
that free nothing) and drops the deployment inside the pause.  What is
left is O(N) cycles, and the first collection after the pause frees
them — provided nothing outside names them.  The returned result
shares the runtime's trace, and the FAIL trigger plumbing and caller
observers still listening on it name the deployment;
``VclRuntime.dispose`` clears them.  So the results are kept here, and
one ``gc.collect()`` with the collector on must leave no trial's
engine or cluster alive.
"""

import gc
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


def test_the_collector_is_paused_from_build_to_dispose(monkeypatch):
    seen = []

    def probed(cls, name):
        original = getattr(cls, name)

        def method(self, *args):
            seen.append((name, gc.isenabled()))
            return original(self, *args)

        monkeypatch.setattr(cls, name, method)

    probed(TrialSetup, "build")
    probed(VclRuntime, "run")
    probed(VclRuntime, "dispose")
    assert gc.isenabled()
    faulted_ring(4, "vcl").run_one(0)
    assert seen == [("build", False), ("run", False), ("dispose", False)]
    assert gc.isenabled()
