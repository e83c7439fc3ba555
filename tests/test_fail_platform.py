"""Integration tests for the FAIL-MPI platform pieces (daemon, bus,
debugger, deployment) against a live runtime."""

import pytest

from repro.cluster.unixproc import ProcState
from repro.fail import builtin_scenarios as scenarios
from repro.fail.bus import FailBus
from repro.fail.debugger import Debugger
from repro.fail.lang.errors import FailSemanticError
from repro.fail.scenario import Binding, deploy_scenario
from repro.mpichv.config import VclConfig
from repro.mpichv.runtime import VclRuntime
from repro.workloads.ring import RingWorkload


def small_runtime(n=4, seed=0, **cfg):
    config = VclConfig(n_procs=n, n_machines=n + 2, footprint=4e7, **cfg)
    wl = RingWorkload(n_procs=n, rounds=40, work_per_hop=1.0)
    return VclRuntime(config, wl.make_factory(), seed=seed)


# ---------------------------------------------------------------------------
# Debugger
# ---------------------------------------------------------------------------

def test_debugger_halt_requires_attachment(engine, cluster):
    dbg = Debugger()
    assert not dbg.halt()

    def idle(proc):
        yield engine.event()

    p = cluster.node(0).spawn("app", idle)
    dbg.attach(p)
    assert dbg.attached
    assert dbg.halt()
    assert p.state is ProcState.KILLED
    assert not dbg.attached


def test_debugger_breakpoint_applies_to_future_attach(engine, cluster):
    hits = []

    def app(proc):
        yield from proc.trace_point("fn")
        yield engine.timeout(0.1)

    dbg = Debugger()
    dbg.set_breakpoint("fn", lambda proc, fn, resume: (hits.append(fn),
                                                       resume.succeed()))
    p = cluster.node(0).spawn("app", app)
    dbg.attach(p)
    engine.run(until=1.0)
    assert hits == ["fn"]


# ---------------------------------------------------------------------------
# Bus
# ---------------------------------------------------------------------------

def test_bus_delivery_and_loss_accounting(engine):
    bus = FailBus(engine, latency=0.001)
    got = []

    class Sink:
        def deliver_msg(self, msg, src):
            got.append((engine.now, msg, src))

    bus.register("A", Sink())
    bus.send("B", "A", "hello")
    bus.send("B", "missing", "lost")
    engine.run()
    assert got == [(pytest.approx(0.001), "hello", "B")]
    assert bus.messages_sent == 2
    assert bus.messages_lost == 1


def test_bus_duplicate_registration_rejected(engine):
    bus = FailBus(engine)

    class Sink:
        def deliver_msg(self, msg, src):
            pass

    bus.register("A", Sink())
    with pytest.raises(ValueError):
        bus.register("A", Sink())


# ---------------------------------------------------------------------------
# Deployment
# ---------------------------------------------------------------------------

def test_deploy_creates_instances_and_groups():
    rt = small_runtime()
    dep = deploy_scenario(
        rt, scenarios.FIG5A_MASTER + scenarios.FIG4_NODE_DAEMON,
        params={"X": 50, "N": rt.config.n_machines - 1},
        bindings={
            "P1": Binding(daemon="ADV1", nodes=None),
            "G1": Binding(daemon="ADV2", nodes=list(rt.machines)),
        })
    assert dep.daemon("P1").machine.daemon.name == "ADV1"
    assert len(dep.group("G1")) == rt.config.n_machines
    assert dep.daemon("G1[0]").node is rt.cluster.node("m0")


def test_deploy_block_bindings():
    rt = small_runtime()
    source = scenarios.FIG5A_MASTER + scenarios.FIG4_NODE_DAEMON + """
        Deploy {
          P1 = ADV1;
          G1[6] = ADV2;
        }
    """
    dep = deploy_scenario(rt, source, params={"X": 50, "N": 5})
    assert len(dep.group("G1")) == 6


def test_deploy_without_bindings_or_block_fails():
    rt = small_runtime()
    with pytest.raises(FailSemanticError):
        deploy_scenario(rt, scenarios.FIG4_NODE_DAEMON, params={})


def test_deploy_group_too_big_for_cluster():
    rt = small_runtime()
    source = scenarios.FIG4_NODE_DAEMON + "Deploy { G1[99] = ADV2; }"
    with pytest.raises(FailSemanticError):
        deploy_scenario(rt, source)


def test_fault_injection_end_to_end_ring():
    """Ring under fig5a scenario: injected faults, rollback, and a
    verified result."""
    rt = small_runtime(seed=11)
    # one fault at t=35: after the first checkpoint wave committed, so
    # the run rolls back and still finishes well before the next fault
    deploy_scenario(
        rt, scenarios.FIG5A_MASTER + scenarios.FIG4_NODE_DAEMON,
        params={"X": 35, "N": rt.config.n_machines - 1},
        bindings={
            "P1": Binding(daemon="ADV1", nodes=None),
            "G1": Binding(daemon="ADV2", nodes=list(rt.machines)),
        })
    res = rt.run(timeout=600.0)
    assert res.outcome.value == "terminated"
    assert res.failures_detected >= 1
    assert not getattr(rt.engine, "process_failures", [])


def test_onload_auto_continue_without_scenario_opinion():
    """A scenario with no onload transition must not deadlock the app."""
    rt = small_runtime(seed=2)
    source = """
        Daemon Quiet {
          node 1:
            ?never -> goto 1;
        }
    """
    deploy_scenario(rt, source, params={},
                    bindings={"G1": Binding(daemon="Quiet",
                                            nodes=list(rt.machines))})
    res = rt.run(timeout=300.0)
    assert res.outcome.value == "terminated"


def test_injection_counters():
    rt = small_runtime(seed=5)
    dep = deploy_scenario(
        rt, scenarios.FIG5A_MASTER + scenarios.FIG4_NODE_DAEMON,
        params={"X": 35, "N": rt.config.n_machines - 1},
        bindings={
            "P1": Binding(daemon="ADV1", nodes=None),
            "G1": Binding(daemon="ADV2", nodes=list(rt.machines)),
        })
    res = rt.run(timeout=400.0)
    # every detected failure was one of ours (kills during a restart
    # are absorbed as termination acks, so >= not ==)
    assert dep.total_faults_injected() >= res.failures_detected >= 1
