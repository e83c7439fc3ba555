"""Integration tests of the full MPICH-Vcl stack.

These exercise the complete deployment (dispatcher + scheduler +
checkpoint servers + daemons + application) through the public
runtime, with and without injected failures, in both dispatcher modes.
"""

import copy
import dataclasses

import pytest

from repro.analysis.classify import Outcome
from repro.explore.generators import TimedKill, render_plan
from repro.mpichv.checkpoint import LocalCkptStore
from repro.mpichv.config import VclConfig
from repro.mpichv.runtime import VclRuntime
from repro.workloads.masterworker import MasterWorkerWorkload
from repro.workloads.nas_bt import BTWorkload
from repro.workloads.ring import RingWorkload
from test_trial_garbage import faulted_ring


def bt_runtime(n=4, seed=0, niters=20, total_compute=400.0,
               footprint=1.2e8, **cfg):
    config = VclConfig(n_procs=n, n_machines=n + 2, footprint=footprint, **cfg)
    wl = BTWorkload(n_procs=n, niters=niters, total_compute=total_compute,
                    footprint=footprint)
    return VclRuntime(config, wl.make_factory(), seed=seed)


def kill_at(rt, when, which=0):
    """Kill the ``which``-th running vdaemon at simulated time ``when``."""
    def do():
        procs = rt.cluster.all_procs("vdaemon")
        if procs:
            victim = procs[which % len(procs)]
            rt.engine.log("fault_injected", pid=victim.pid)
            victim.kill()
    rt.engine.call_at(when, do)


def assert_clean(rt):
    assert not getattr(rt.engine, "process_failures", []), \
        [(p.name, p.error) for p in rt.engine.process_failures]


# ---------------------------------------------------------------------------
# fault-free runs
# ---------------------------------------------------------------------------

def test_bt_fault_free_terminates_and_verifies():
    rt = bt_runtime()
    res = rt.run()
    assert res.outcome is Outcome.TERMINATED
    assert res.trace.count("verify_ok") == 1
    assert res.restarts == 0
    assert res.waves_committed >= 2
    assert_clean(rt)


def test_bt_checkpoint_waves_follow_period():
    rt = bt_runtime()
    res = rt.run()
    starts = [r.t for r in res.trace.of_kind("ckpt_wave_start")]
    # ticks on the absolute 30 s grid
    assert starts and all(abs(t % 30.0) < 1e-6 for t in starts)


def test_vdummy_baseline_runs_without_ft_machinery():
    config = VclConfig(n_procs=4, n_machines=6, fault_tolerant=False)
    wl = BTWorkload(n_procs=4, niters=20, total_compute=400.0, footprint=1.2e8)
    rt = VclRuntime(config, wl.make_factory(), seed=1)
    res = rt.run()
    assert res.outcome is Outcome.TERMINATED
    assert res.waves_committed == 0
    assert res.trace.count("ckpt_wave_start") == 0
    assert_clean(rt)


def test_vcl_overhead_over_vdummy_is_bounded():
    """The non-blocking protocol must not blow up fault-free runtime."""
    def run(ft):
        config = VclConfig(n_procs=4, n_machines=6, fault_tolerant=ft,
                           footprint=1.2e8)
        wl = BTWorkload(n_procs=4, niters=20, total_compute=400.0,
                        footprint=1.2e8)
        rt = VclRuntime(config, wl.make_factory(), seed=1)
        return rt.run().exec_time

    t_vcl = run(True)
    t_dummy = run(False)
    assert t_vcl < t_dummy * 1.25


def test_protocol_overhead_ablation():
    """§3: "There are two possible implementations of the Chandy-Lamport
    algorithm: blocking or non-blocking" — MPICH-Vcl picked
    non-blocking.  Fault-free at BT-16, against the Vdummy floor."""
    def run(**cfg):
        config = VclConfig(n_procs=16, n_machines=20, footprint=1.6e9, **cfg)
        wl = BTWorkload(n_procs=16, niters=40, total_compute=2400.0,
                        footprint=1.6e9)
        return VclRuntime(config, wl.make_factory(), seed=1).run()

    results = {"vdummy": run(fault_tolerant=False), "vcl": run(),
               "vcl-blocking": run(blocking=True)}
    for name, res in results.items():
        assert res.outcome is Outcome.TERMINATED, name
        assert res.trace.count("verify_ok") == 1, name
    t_dummy, t_vcl, t_blocking = (res.exec_time for res in results.values())
    # the ordering that motivated MPICH-Vcl's choice, and a small
    # non-blocking overhead
    assert t_dummy < t_vcl < t_blocking
    assert t_vcl < t_dummy * 1.15


def test_ring_and_masterworker_fault_free():
    for wl in (RingWorkload(n_procs=4, rounds=10, work_per_hop=0.2),
               MasterWorkerWorkload(n_procs=4, n_tasks=12,
                                    work_per_task=0.5)):
        config = VclConfig(n_procs=4, n_machines=6, footprint=4e7)
        rt = VclRuntime(config, wl.make_factory(), seed=3)
        res = rt.run(timeout=600.0)
        assert res.outcome is Outcome.TERMINATED, type(wl).__name__
        assert_clean(rt)


# ---------------------------------------------------------------------------
# failures + rollback
# ---------------------------------------------------------------------------

def test_single_failure_recovers_and_verifies():
    rt = bt_runtime(seed=7)
    kill_at(rt, 45.0, which=1)
    res = rt.run()
    assert res.outcome is Outcome.TERMINATED
    assert res.restarts == 1
    assert res.trace.count("verify_ok") == 1
    assert res.trace.count("restore") == 4     # every rank restored once
    assert_clean(rt)


def test_failure_before_first_checkpoint_restarts_from_scratch():
    rt = bt_runtime(seed=8)
    kill_at(rt, 10.0)       # before the first 30 s wave
    res = rt.run()
    assert res.outcome is Outcome.TERMINATED
    restore = res.trace.last("restart_wave")
    assert restore.restore is None             # no committed wave yet
    assert_clean(rt)


def test_multiple_sequential_failures():
    rt = bt_runtime(seed=9, niters=30, total_compute=600.0)
    for i, t in enumerate((40.0, 80.0, 120.0)):
        kill_at(rt, t, which=i)
    res = rt.run()
    assert res.outcome is Outcome.TERMINATED
    assert res.restarts == 3
    assert res.trace.count("verify_ok") == 1
    assert_clean(rt)


def test_rollback_restores_committed_wave_not_newer():
    rt = bt_runtime(seed=10)
    kill_at(rt, 45.0)
    res = rt.run()
    rec = res.trace.last("restart_wave")
    assert rec.restore == 1                    # wave 1 committed at ~30 s


def test_a_rollback_with_no_local_image_fetches_it_from_the_shard(
        monkeypatch):
    """With every node-local file missing, each rank of a one-kill Vcl
    ring fetches the committed image from its shard and the trial
    computes what the fault-free run does."""
    setup = faulted_ring(8, "vcl")
    clean = dataclasses.replace(setup, scenario_source=None,
                                master_daemon=None, node_daemon=None)
    golden = clean.run_one(0).app_signature
    monkeypatch.setattr(LocalCkptStore, "load", lambda self, rank, wave: None)
    res = setup.run_one(0)
    assert res.restarts == 1
    committed = res.trace.last("restart_wave").restore
    assert committed is not None
    restores = [rec for rec in res.trace.records if rec.kind == "restore"]
    assert sorted(rec.rank for rec in restores) == list(range(8))
    assert {rec.wave for rec in restores} == {committed}
    assert golden is not None and res.app_signature == golden


def test_execution_time_increases_with_failure():
    base = bt_runtime(seed=11).run().exec_time
    rt = bt_runtime(seed=11)
    kill_at(rt, 45.0)
    with_fault = rt.run().exec_time
    assert with_fault > base


# ---------------------------------------------------------------------------
# the dispatcher bug (paper §5.3)
# ---------------------------------------------------------------------------

def run_bug_scenario(bug_compat, seed=7, n=4):
    """Kill a daemon, then kill its recovered replacement right at the
    localMPI_setCommand boundary — the Fig. 11 injection, hand-rolled."""
    rt = bt_runtime(n=n, seed=seed, bug_compat=bug_compat, timeout=700.0)
    armed = {"on": False}

    def first_kill():
        procs = rt.cluster.all_procs("vdaemon")
        rt.engine.log("fault_injected", pid=procs[0].pid)
        procs[0].kill()
        armed["on"] = True

    rt.engine.call_at(45.0, first_kill)

    def on_spawn(proc):
        if armed["on"] and proc.name.startswith("vdaemon"):
            armed["on"] = False
            proc.set_breakpoint(
                "localMPI_setCommand",
                lambda p, fn, resume: p.kill())

    for node in rt.cluster.nodes:
        node.on_spawn(on_spawn)
    return rt, rt.run()


def test_buggy_dispatcher_freezes():
    rt, res = run_bug_scenario(bug_compat=True)
    assert res.outcome is Outcome.BUGGY
    assert res.bug_events == 1
    assert res.trace.count("bug_misattribution") == 1
    # frozen: nothing happens for the rest of the run
    assert res.verdict.last_activity < 120.0
    assert_clean(rt)


def test_fixed_dispatcher_recovers():
    rt, res = run_bug_scenario(bug_compat=False)
    assert res.outcome is Outcome.TERMINATED
    assert res.bug_events == 0
    assert res.restarts == 2                   # one per failure
    assert res.trace.count("verify_ok") == 1
    assert_clean(rt)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bug_freeze_is_deterministic_per_seed(seed):
    _, first = run_bug_scenario(bug_compat=True, seed=seed)
    _, second = run_bug_scenario(bug_compat=True, seed=seed)
    assert first.outcome == second.outcome
    assert first.sim_time == second.sim_time
    assert first.events_processed == second.events_processed


# ---------------------------------------------------------------------------
# what an image copies
# ---------------------------------------------------------------------------

def _deepcopies(monkeypatch):
    """The objects ``copy.deepcopy`` is called on from now on."""
    calls = []
    deepcopy = copy.deepcopy
    monkeypatch.setattr(copy, "deepcopy", lambda x, *memo: calls.append(x)
                        or deepcopy(x, *memo))
    return calls


@pytest.mark.parametrize("protocol", ["vcl", "v2", "v1"])
def test_images_and_restores_copy_no_state_deeply(protocol, monkeypatch):
    """Every image and every restore copies the state with
    ``checkpoint.snapshot``: the state is dicts, lists and atoms, so
    nothing falls back to ``copy.deepcopy``.  A kill at t=90 comes
    after the killed rank's first image, so the restart restores."""
    setup = dataclasses.replace(
        faulted_ring(16, protocol),
        scenario_source=render_plan((TimedKill(at=90, target=13),)))
    calls = _deepcopies(monkeypatch)
    result = setup.run_one(3)
    assert result.outcome is Outcome.TERMINATED and result.restarts == 1
    assert result.waves_committed + result.trace.count(
        f"{protocol}_ckpt") > 0
    assert result.trace.count("restore") >= 1
    assert calls == []


def test_a_bt_trial_copies_no_state_deeply(monkeypatch):
    calls = _deepcopies(monkeypatch)
    rt = bt_runtime()
    kill_at(rt, 60.0)
    res = rt.run()
    assert res.outcome is Outcome.TERMINATED and res.restarts == 1
    assert res.waves_committed > 0 and res.trace.count("restore") == 4
    assert calls == []
