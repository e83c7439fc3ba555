"""A finished trial leaves no deployment behind for the cyclic collector.

``TrialSetup.run_one`` pauses the collector from build to dispose, and
``dispose`` severs every cycle of the deployment, so plain reference
counting has freed it — sockets, stores, readers, processes, daemons,
FAIL machines, spans — by the time the collector is back.  Measured
with the collector held off by the test (no automatic pass gets there
first) and ``gc.DEBUG_SAVEALL`` (so what is left can be named).

Before the cycles were cut (PR 16), vcl / v2 / v1 left 4 860 / 3 520 /
1 909 objects at 16 ranks and 14 044 / 9 539 / 3 480 at 32 — O(N²):
592 and 2 208 of them sockets under vcl.
"""

import gc
from collections import Counter

import pytest

from repro.experiments.harness import TrialSetup
from repro.explore.generators import MASTER, NODE_DAEMON, TimedKill, render_plan
from repro.mpichv.runtime import VclRuntime

#: what is left: the dispatcher's mutually recursive closures
#: (``spawn_slot`` <-> ``on_spawn_exit``) and the fixed handful of
#: objects they name (config, timing, workload, the emptied cluster
#: and engine) — 45 objects today whatever the protocol, the rank
#: count or the recorder
LEFTOVER_BOUND = 64

#: nothing of what a deployment is made of may be among them
DEPLOYMENT_TYPES = ("Socket", "ListenSocket", "Store", "Reader", "Mesh",
                    "Batch", "Process", "UnixProcess", "Node",
                    "VclDaemon", "V2Daemon", "V1Daemon", "MpiEndpoint",
                    "FailDaemon", "Machine", "Debugger", "Span",
                    "CheckpointImage", "VclRuntime", "ScenarioDeployment")


def faulted_ring(n_procs, protocol):
    return TrialSetup(
        n_procs=n_procs, n_machines=n_procs + 4,
        scenario_source=render_plan((TimedKill(at=45, target=n_procs - 3),)),
        master_daemon=MASTER, node_daemon=NODE_DAEMON,
        protocol=protocol, timeout=600.0, footprint=1e9,
        workload="ring", niters=40, total_compute=440.0 * n_procs,
        config_overrides={"n_ckpt_servers": 4})


def leftover_after_trial(setup, seed):
    """``(result, unreachable, type name -> count)`` for one
    ``run_one``, with the collector off around it."""
    gc.collect()
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        result = setup.run_one(seed)
        gc.set_debug(gc.DEBUG_SAVEALL)
        unreachable = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    return result, unreachable, kinds


@pytest.mark.parametrize("n_procs", [16, 32])
@pytest.mark.parametrize("protocol", ["vcl", "v2", "v1"])
def test_a_trial_leaves_no_deployment_behind(protocol, n_procs):
    setup = faulted_ring(n_procs, protocol)
    setup.run_one(0)        # lazy imports and caches are not the trial's
    result, unreachable, kinds = leftover_after_trial(setup, 1)
    assert result.restarts >= 1 and result.exec_time is not None
    assert unreachable <= LEFTOVER_BOUND, kinds.most_common(8)
    assert not [kind for kind in DEPLOYMENT_TYPES if kinds[kind]]


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
