"""Regression tests for deterministic FAIL_RANDOM seeding.

Every deployment owns one ``random.Random`` seeded from the trial
seed; FAIL_RANDOM (and destination-index evaluation) draws from it,
while the daemons' intrusion-cost timing stays on the engine stream.
Consequences pinned here:

* two same-seed deployments replay byte-identical fault schedules;
* scenario randomness does not consume (or depend on) the engine
  stream, so protocol/workload activity can never perturb *which*
  machines a scenario kills.
"""

from repro.experiments.harness import TrialSetup
from repro.fail import builtin_scenarios as bs
from repro.fail.scenario import Binding, deploy_scenario
from repro.mpichv.config import VclConfig
from repro.mpichv.runtime import VclRuntime
from repro.workloads.ring import RingWorkload


def fig5_setup(protocol="vcl"):
    # ~120 s of ring if unperturbed, faults every 20 s, killed at 70 s:
    # several injections guaranteed before the timeout
    return TrialSetup(
        n_procs=4, n_machines=6,
        scenario_source=bs.FIG5A_MASTER + bs.FIG4_NODE_DAEMON,
        scenario_params={"X": 20},
        protocol=protocol, workload="ring",
        workload_params={"rounds": 60, "work_per_hop": 0.5},
        bug_compat=False, timeout=70.0)


def fault_schedule(result):
    return [(round(rec.t, 6), rec.fields["instance"], rec.fields["node"])
            for rec in result.trace.records
            if rec.kind == "fault_injected"]


def test_same_seed_deployments_replay_identical_fault_schedules():
    first = fig5_setup().run_one(424242)
    second = fig5_setup().run_one(424242)
    schedule = fault_schedule(first)
    assert schedule, "scenario injected nothing — test is vacuous"
    assert schedule == fault_schedule(second)


def test_different_seeds_draw_different_schedules():
    a = fault_schedule(fig5_setup().run_one(1))
    b = fault_schedule(fig5_setup().run_one(2))
    assert a and b
    assert a != b                      # astronomically unlikely to collide


def test_fail_random_does_not_consume_the_engine_stream():
    """Deploying a scenario whose start node draws FAIL_RANDOM leaves
    the engine RNG untouched — scenario randomness is segregated."""
    config = VclConfig(n_procs=4, n_machines=6, footprint=4e7)
    wl = RingWorkload(n_procs=4, rounds=5)
    runtime = VclRuntime(config, wl.make_factory(), seed=99)
    before = runtime.engine.random.getstate()
    deployment = deploy_scenario(
        runtime, bs.FIG5A_MASTER, params={"X": 30, "N": 5},
        bindings={"P1": Binding(daemon="ADV1", nodes=None)})
    # building P1 entered node 1: 'always int ran = FAIL_RANDOM(0, N)'
    assert runtime.engine.random.getstate() == before
    assert deployment.daemon("P1").machine.always_vars["ran"] in range(6)


def test_deployment_rng_isolated_between_runtimes_not_shared():
    """Two deployments on engines with different seeds draw different
    streams (the deployment RNG derives from the engine seed)."""
    draws = {}
    for seed in (5, 6):
        config = VclConfig(n_procs=4, n_machines=6, footprint=4e7)
        wl = RingWorkload(n_procs=4, rounds=5)
        runtime = VclRuntime(config, wl.make_factory(), seed=seed)
        dep = deploy_scenario(
            runtime, bs.FIG5A_MASTER, params={"X": 30, "N": 5},
            bindings={"P1": Binding(daemon="ADV1", nodes=None)})
        draws[seed] = [dep.rng.random() for _ in range(8)]
    assert draws[5] != draws[6]
