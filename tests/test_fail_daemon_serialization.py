"""Tests for the FAIL daemon's serialized event handling and runtime
API corners (deploy idempotence, run-after-timeout state)."""

from repro.analysis.classify import Outcome
from repro.fail.daemon import ORDER_HANDLING
from repro.fail.scenario import Binding, deploy_scenario
from repro.mpichv.config import VclConfig
from repro.mpichv.runtime import VclRuntime
from repro.workloads.nas_bt import BTWorkload


def bt_runtime(n=4, seed=0, **cfg):
    cfg.setdefault("footprint", 1.2e8)
    config = VclConfig(n_procs=n, n_machines=n + 2, **cfg)
    wl = BTWorkload(n_procs=n, niters=20, total_compute=400.0,
                    footprint=cfg["footprint"])
    return VclRuntime(config, wl.make_factory(), seed=seed)


# ---------------------------------------------------------------------------
# FAIL daemon: serialized handling with per-event delay
# ---------------------------------------------------------------------------

def test_events_processed_serially_in_arrival_order():
    """Bursty messages must execute one at a time, FIFO — the FCI
    daemon is single-threaded over GDB."""
    rt = bt_runtime()
    scenario = """
        Daemon Counter {
          int n = 0;
          node 1:
            ?tick -> n = n + 1, goto 1;
        }
    """
    dep = deploy_scenario(rt, scenario, params={},
                          bindings={"C": Binding(daemon="Counter", nodes=None)})
    daemon = dep.daemon("C")
    for _ in range(10):
        daemon.deliver_msg("tick", "X")
    rt.engine.run(until=5.0)
    assert daemon.machine.vars["n"] == 10
    assert daemon.events_handled == 10


def test_handling_delay_spreads_processing_over_time():
    rt = bt_runtime()
    scenario = """
        Daemon Stamp {
          int n = 0;
          node 1:
            ?tick -> n = n + 1, goto 1;
        }
    """
    dep = deploy_scenario(rt, scenario, params={},
                          bindings={"S": Binding(daemon="Stamp", nodes=None)})
    daemon = dep.daemon("S")
    for _ in range(5):
        daemon.deliver_msg("tick", "X")
    # all five processed no earlier than 5 * min handling delay
    rt.engine.run(until=ORDER_HANDLING[0] * 5 - 1e-9)
    assert daemon.machine.vars["n"] < 5
    rt.engine.run(until=ORDER_HANDLING[1] * 5 + 0.01)
    assert daemon.machine.vars["n"] == 5


def test_messages_to_unknown_instance_are_counted_lost():
    rt = bt_runtime()
    scenario = """
        Daemon Talker {
          node 1:
            time g_timer = 1;
            timer -> !hello(Nobody), goto 2;
          node 2:
        }
    """
    dep = deploy_scenario(rt, scenario, params={},
                          bindings={"T": Binding(daemon="Talker", nodes=None)})
    rt.engine.run(until=5.0)
    assert dep.bus.messages_lost == 1
    assert rt.trace.count("fail_msg_lost") == 1


def test_halt_without_controlled_process_logs_noop():
    rt = bt_runtime()
    scenario = """
        Daemon Eager {
          node 1:
            time g_timer = 1;
            timer -> halt, goto 2;
          node 2:
        }
    """
    deploy_scenario(rt, scenario, params={},
                    bindings={"E": Binding(daemon="Eager", nodes=None)})
    rt.engine.run(until=5.0)
    assert rt.trace.count("halt_noop") == 1
    assert rt.trace.count("fault_injected") == 0


# ---------------------------------------------------------------------------
# runtime API corners
# ---------------------------------------------------------------------------

def test_deploy_is_idempotent():
    rt = bt_runtime()
    rt.deploy()
    disp = rt.dispatcher_proc
    rt.deploy()
    assert rt.dispatcher_proc is disp


def test_run_deploys_automatically():
    rt = bt_runtime()
    res = rt.run()
    assert res.outcome is Outcome.TERMINATED


def test_run_returns_at_timeout_with_verdict():
    # make the work far exceed a tiny timeout
    config = VclConfig(n_procs=4, n_machines=6, footprint=1.2e8, timeout=50.0)
    wl = BTWorkload(n_procs=4, niters=50, total_compute=2000.0,
                    footprint=1.2e8)
    rt = VclRuntime(config, wl.make_factory(), seed=0)
    res = rt.run()
    assert res.sim_time == 50.0
    assert res.outcome is not Outcome.TERMINATED


def test_result_counters_consistent_with_trace():
    rt = bt_runtime(seed=5)
    rt.engine.call_at(45.0, lambda: rt.cluster.all_procs("vdaemon")[0].kill())
    res = rt.run()
    assert res.restarts == res.trace.count("restart_wave")
    assert res.failures_detected == res.trace.count("failure_detected")
    assert res.waves_committed == res.trace.count("ckpt_wave_complete")
