"""The ``partition``/``heal`` FAIL primitives, end to end through the
language pipeline (lexer → parser → pretty → semantics → build →
interpreter) and the live platform (FailDaemon acting on the runtime's
network fabric)."""

import pytest

from repro.experiments.harness import TrialSetup
from repro.fail import build as fb
from repro.fail.compile import compile_scenario
from repro.fail.lang import ast
from repro.fail.lang.errors import FailSemanticError
from repro.fail.lang.parser import parse_fail
from repro.fail.lang.pretty import pretty_print
from repro.fail.machine import Machine

from test_fail_machine import FakeCtx

PARTITION_SRC = """Daemon ADV {
  node 1:
    always int ran = FAIL_RANDOM(0, N);
    time t = X;
    timer -> partition(G1[ran]), partition(svc2), goto 2;
  node 2:
    time t2 = 5;
    timer -> heal, goto 3;
  node 3:
}
"""


# ---------------------------------------------------------------------------
# language pipeline
# ---------------------------------------------------------------------------

def test_partition_heal_parse_and_pretty_round_trip():
    prog = parse_fail(PARTITION_SRC)
    actions = prog.daemons[0].nodes[0].transitions[0].actions
    assert isinstance(actions[0], ast.PartitionAction)
    assert isinstance(actions[0].dest, ast.DestIndex)
    assert isinstance(actions[1], ast.PartitionAction)
    assert actions[1].dest == ast.DestName("svc2")
    heal_actions = prog.daemons[0].nodes[1].transitions[0].actions
    assert isinstance(heal_actions[0], ast.HealAction)
    assert parse_fail(pretty_print(prog)) == prog


def test_partition_compiles_through_the_full_pipeline():
    compiled = compile_scenario(PARTITION_SRC, {"X": 3, "N": 5})
    assert compiled.daemon_names == ("ADV",)


def test_partition_dest_index_is_semantically_checked():
    bad = "Daemon D { node 1: onload -> partition(G1[nope]); }"
    with pytest.raises(FailSemanticError, match="undefined name"):
        compile_scenario(bad)


def test_build_api_constructs_partition_and_heal():
    prog = fb.program(fb.daemon(
        "D",
        fb.node(1,
                fb.when(fb.ONLOAD, fb.partition(fb.group("G1", 2)),
                        fb.HEAL, fb.goto(1)))))
    source = fb.render(prog)
    assert "partition(G1[2])" in source and "heal" in source
    assert parse_fail(source) == prog


def test_interpreter_runs_partition_actions():
    """The interpreter runs PARTITION_SRC as written: node 1's timer
    (X) cuts ``G1[ran]`` and then ``svc2``; node 2's timer (5) heals."""
    prog = parse_fail(PARTITION_SRC)
    ctx = FakeCtx(seed=4)
    machine = Machine(prog.daemons[0], {"X": 3, "N": 5}, ctx, "T")
    ran = machine.always_vars["ran"]
    assert 0 <= ran <= 5
    assert machine.handle(("timer", machine.entry_gen))
    assert ctx.partitions == [f"G1[{ran}]", "svc2"]
    assert machine.node_id == 2
    assert machine.handle(("timer", machine.entry_gen))
    assert ctx.healed == 1
    assert machine.node_id == 3
    assert ctx.timers == [(3.0, 1), (5.0, 2)]


# ---------------------------------------------------------------------------
# live platform: FailDaemon -> Network
# ---------------------------------------------------------------------------

NOP_NODE_DAEMON = """Daemon ADV2 {
  node 1:
    onload -> continue, goto 1;
}
"""


def _deployed_runtime(source, params=None):
    setup = TrialSetup(
        n_procs=2, n_machines=3, workload="ring", niters=4,
        total_compute=40.0, footprint=1e7, timeout=60.0,
        scenario_source=source + NOP_NODE_DAEMON, scenario_params=params or {},
        master_daemon="ADV1", node_daemon="ADV2")
    return setup.build(seed=1)


MASTER_ONLY = """Daemon ADV1 {
  node 1:
    time t = 2;
    timer -> partition(G1[0]), goto 2;
  node 2:
    time t2 = 3;
    timer -> heal, goto 3;
  node 3:
}
"""


def test_fail_daemon_partitions_and_heals_the_fabric():
    runtime, deployment = _deployed_runtime(MASTER_ONLY)
    engine = runtime.engine
    runtime.deploy()
    network = runtime.cluster.network
    engine.run(until=2.5)
    assert not network.reachable("m0", "svc0")
    assert network.reachable("m1", "svc0")
    assert deployment.total_partitions_injected() == 1
    assert runtime.trace.counts.get("partition_injected", 0) == 1
    engine.run(until=6.0)
    assert network.reachable("m0", "svc0")
    assert runtime.trace.counts.get("heal_injected", 0) == 1


SVC_TARGET = """Daemon ADV1 {
  node 1:
    time t = 2;
    timer -> partition(svc1), partition(nosuch), goto 2;
  node 2:
}
"""


def test_partition_falls_back_to_cluster_node_names():
    runtime, deployment = _deployed_runtime(SVC_TARGET)
    runtime.deploy()
    runtime.engine.run(until=3.0)
    network = runtime.cluster.network
    assert not network.reachable("svc1", "m0")
    # unknown destinations are a logged no-op, not a crash
    assert runtime.trace.counts.get("partition_noop", 0) == 1
    assert deployment.total_partitions_injected() == 1
