"""Connection-closure semantics under partition: isolating a host
severs blocked receivers across the cut after one latency, the
dispatcher's socket-closure failure detector fires on the false
suspicion, heals never resurrect dead connections — and a partition
trial is bit-for-bit deterministic across serial/parallel/cache
execution for every protocol.
"""

import pytest

from repro.cluster.network import ConnectionRefused
from repro.experiments.harness import TrialSetup
from repro.experiments.resultstore import run_result_to_dict
from repro.experiments.runner import TrialRunner
from repro.explore import generators
from repro.explore.generators import Heal, TimedPartition, render_plan
from repro.mpichv import protocols
from repro.simkernel.store import StoreClosed

LATENCY = 1e-4


def _pair(engine, cluster):
    out = {}

    def server(proc):
        ls = proc.node.listen(5000, owner=proc)
        out["server"] = yield ls.accept()
        yield engine.event()

    def client(proc):
        out["client"] = yield proc.node.connect(
            cluster.node(0).addr(5000), owner=proc)
        yield engine.event()

    cluster.node(0).spawn("server", server)
    cluster.node(1).spawn("client", client)
    engine.run(until=1.0)
    return out["server"], out["client"]


# ---------------------------------------------------------------------------
# socket-level cut semantics
# ---------------------------------------------------------------------------

def test_blocked_recv_across_cut_fails_after_one_latency(engine, cluster):
    srv, cli = _pair(engine, cluster)
    closed_at = []

    def reader():
        try:
            yield srv.recv()
        except StoreClosed:
            closed_at.append(engine.now)

    engine.process(reader())
    start = engine.now
    engine.call_later(0.5, lambda: cluster.network.isolate("node1"))
    engine.run(until=start + 2.0)
    assert closed_at and closed_at[0] == pytest.approx(start + 0.5 + LATENCY)
    # both directions die: the client end is severed too
    assert cli._rx.closed and not cli.peer_alive


def test_packets_into_a_cut_vanish(engine, cluster):
    srv, cli = _pair(engine, cluster)
    cluster.network.isolate("node1")
    before = cluster.network.messages_sent
    cli.send("lost", size=10)       # no error: the packet just vanishes
    engine.run(until=engine.now + 1.0)
    assert cluster.network.messages_sent == before


def test_heal_before_severance_wins_the_race(engine, cluster):
    """A cut healed within one latency leaves the connection untouched
    — the failure detector never observes anything."""
    srv, cli = _pair(engine, cluster)
    got = []

    def reader():
        while True:
            try:
                got.append((yield srv.recv()))
            except StoreClosed:
                got.append("CLOSED")
                return

    engine.process(reader())
    network = cluster.network

    def cut_and_heal():
        network.isolate("node1")
        network.heal()              # same instant: before the notification

    engine.call_later(0.5, cut_and_heal)
    engine.call_later(0.6, lambda: cli.send("alive", size=10))
    engine.run(until=engine.now + 2.0)
    assert got == ["alive"]


def test_heal_does_not_resurrect_severed_connections(engine, cluster):
    srv, cli = _pair(engine, cluster)
    network = cluster.network
    engine.call_later(0.5, lambda: network.isolate("node1"))
    engine.call_later(1.0, network.heal)    # long after the severance
    engine.run(until=engine.now + 2.0)
    assert network.reachable("node0", "node1")
    assert srv._rx.closed and cli._rx.closed   # severed for good
    # sends to the dead endpoint vanish rather than reviving it
    before = network.messages_sent
    cli.send("ghost", size=10)
    engine.run(until=engine.now + 1.0)
    assert network.messages_sent == before


def test_connect_across_cut_is_refused_then_heals(engine, cluster):
    outcomes = []
    cluster.node(0).listen(5000)
    cluster.network.isolate("node1")

    def client(proc):
        try:
            yield proc.node.connect(cluster.node(0).addr(5000), owner=proc)
            outcomes.append("connected")
        except ConnectionRefused:
            outcomes.append("refused")

    cluster.node(1).spawn("client1", client)
    engine.run(until=engine.now + 1.0)
    cluster.network.heal()
    cluster.node(1).spawn("client2", client)
    engine.run(until=engine.now + 1.0)
    assert outcomes == ["refused", "connected"]


def test_isolation_accumulates_into_one_minority_side(engine, cluster):
    network = cluster.network
    network.isolate("node0")
    network.isolate("node2")
    assert not network.reachable("node0", "node1")
    assert not network.reachable("node2", "node3")
    assert network.reachable("node0", "node2")    # minority side coheres
    assert network.reachable("node1", "node3")


# ---------------------------------------------------------------------------
# runtime integration: the false-suspicion adversary
# ---------------------------------------------------------------------------

CAL = dict(workload="ring", niters=40, total_compute=1280.0, footprint=1e8)


def _partition_setup(protocol, plan):
    return TrialSetup(
        n_procs=4, n_machines=6, protocol=protocol, timeout=150.0,
        scenario_source=render_plan(plan),
        master_daemon=generators.MASTER,
        node_daemon=generators.NODE_DAEMON, **CAL)


def test_partition_triggers_the_failure_detector():
    """Cutting a live rank's machine makes the dispatcher detect a
    failure of a process that never died (false suspicion)."""
    plan = (TimedPartition(at=15, targets=(0,)), Heal(after=10))
    setup = _partition_setup("vcl", plan)
    runtime, deployment = setup.build(seed=5)
    result = runtime.run()
    assert deployment.total_partitions_injected() >= 1
    assert result.failures_detected > 0          # nobody was killed
    assert result.restarts >= 1
    assert result.outcome.value == "non-terminating"


def test_healed_before_detection_is_invisible_to_the_protocol():
    plan = (TimedPartition(at=15, targets=(0,)), Heal(after=0))
    golden = TrialSetup(n_procs=4, n_machines=6, protocol="vcl",
                        timeout=150.0, **CAL).run_one(5)
    result = _partition_setup("vcl", plan).run_one(5)
    assert result.failures_detected == 0
    assert result.outcome.value == "terminated"
    assert result.app_signature == golden.app_signature


def test_service_node_partition_heals_and_run_completes():
    """Cutting a checkpoint server degrades checkpointing but must not
    break a fault-free run (and the heal restores connectivity)."""
    plan = (TimedPartition(at=15, targets=(), services=("svc2",)),
            Heal(after=20))
    golden = TrialSetup(n_procs=4, n_machines=6, protocol="vcl",
                        timeout=150.0, **CAL).run_one(5)
    result = _partition_setup("vcl", plan).run_one(5)
    assert result.outcome.value == "terminated"
    assert result.app_signature == golden.app_signature


@pytest.mark.slow
def test_partition_scenario_parallel_serial_cache_bit_for_bit(tmp_path):
    """One partition trial per protocol: workers=2, workers=1 and a
    warm cache must agree on the full wire document."""
    plan = (TimedPartition(at=15, targets=(0,)), Heal(after=10))
    jobs = [(_partition_setup(protocol, plan), 31 + i)
            for i, protocol in enumerate(sorted(protocols.available()))]
    serial = TrialRunner(workers=1).run_jobs(jobs)
    parallel = TrialRunner(workers=2).run_jobs(jobs)
    cold = TrialRunner(workers=2, cache_dir=str(tmp_path))
    cold_results = cold.run_jobs(jobs)
    warm = TrialRunner(workers=1, cache_dir=str(tmp_path))
    warm_results = warm.run_jobs(jobs)
    assert warm.stats.executed == 0 and warm.stats.cache_hits == len(jobs)
    docs = [[run_result_to_dict(r) for r in batch]
            for batch in (serial, parallel, cold_results, warm_results)]
    assert docs[0] == docs[1] == docs[2] == docs[3]
    # the trials actually exercised the partition machinery
    assert all(result.failures_detected > 0 for result in serial)
