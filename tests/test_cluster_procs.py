"""Unit tests for nodes, unix processes and the debugger surface."""

import pytest

from repro.cluster.cluster import SSH_LATENCY, Cluster
from repro.cluster.unixproc import ProcState
from repro.simkernel.engine import Engine


def idle(proc):
    yield proc.engine.event()


def test_spawn_and_exit_states(engine, cluster):
    def main(proc):
        yield engine.timeout(1.0)
        return 7

    p = cluster.node(0).spawn("app", main)
    assert p.state is ProcState.RUNNING
    engine.run()
    assert p.state is ProcState.EXITED
    assert p.exit_value == 7
    assert p not in cluster.node(0).procs


def test_thread_crash_makes_process_errored(engine, cluster):
    def main(proc):
        yield engine.timeout(1.0)
        raise RuntimeError("app bug")

    p = cluster.node(0).spawn("app", main)
    engine.run()
    assert p.state is ProcState.ERRORED
    assert isinstance(p.exit_error, RuntimeError)


def test_kill_reports_killed_and_runs_exit_listeners(engine, cluster):
    events = []
    p = cluster.node(0).spawn("app", idle)
    p.on_exit(lambda proc, how: events.append(how))
    engine.call_later(1.0, p.kill)
    engine.run(until=2.0)
    assert p.state is ProcState.KILLED
    assert events == [ProcState.KILLED]


def test_helper_threads_die_with_process(engine, cluster):
    ticks = []

    def main(proc):
        def helper():
            while True:
                yield engine.timeout(1.0)
                ticks.append(engine.now)
        proc.spawn_thread(helper())
        yield engine.event()

    p = cluster.node(0).spawn("app", main)
    engine.call_later(2.5, p.kill)
    engine.run(until=10.0)
    assert ticks == [1.0, 2.0]


def test_helper_crash_takes_down_process(engine, cluster):
    def main(proc):
        def bad():
            yield engine.timeout(1.0)
            raise ValueError("helper bug")
        proc.spawn_thread(bad())
        yield engine.event()

    p = cluster.node(0).spawn("app", main)
    engine.run(until=5.0)
    assert p.state is ProcState.ERRORED


def test_spawn_thread_on_dead_process_rejected(engine, cluster):
    p = cluster.node(0).spawn("app", idle)
    engine.call_later(1.0, p.kill)
    engine.run(until=2.0)
    with pytest.raises(RuntimeError):
        p.spawn_thread(idle(p))


def test_exit_vs_abort_listener_distinction(engine, cluster):
    how = []
    p1 = cluster.node(0).spawn("a", idle)
    p1.on_exit(lambda proc, final: how.append(("a", final)))
    p2 = cluster.node(0).spawn("b", idle)
    p2.on_exit(lambda proc, final: how.append(("b", final)))
    engine.call_later(1.0, p1.exit)
    engine.call_later(1.0, p2.abort)
    engine.run(until=2.0)
    assert ("a", ProcState.EXITED) in how
    assert ("b", ProcState.ERRORED) in how


def test_suspend_resume_freezes_all_threads(engine, cluster):
    ticks = []

    def main(proc):
        def t():
            while True:
                yield engine.timeout(1.0)
                ticks.append(engine.now)
        proc.spawn_thread(t())
        yield engine.event()

    p = cluster.node(0).spawn("app", main)
    engine.call_later(2.5, p.suspend)
    engine.call_later(6.0, p.resume_all)
    engine.run(until=8.5)
    assert 3.0 not in ticks and 6.0 in ticks


def test_trace_point_fast_path_no_breakpoint(engine, cluster):
    reached = []

    def main(proc):
        yield from proc.trace_point("fn")
        reached.append(engine.now)
        yield engine.timeout(0.1)

    cluster.node(0).spawn("app", main)
    engine.run()
    assert reached == [0.0]


def test_trace_point_blocks_until_handler_releases(engine, cluster):
    reached = []

    def main(proc):
        yield from proc.trace_point("fn")
        reached.append(engine.now)

    def handler(proc, fn, resume):
        engine.call_later(3.0, resume.succeed)

    p = cluster.node(0).spawn("app", main, notify=False)
    p.set_breakpoint("fn", handler)
    engine.run()
    assert reached == [3.0]


def test_trace_point_kill_at_breakpoint(engine, cluster):
    reached = []

    def main(proc):
        yield from proc.trace_point("fn")
        reached.append("past")

    def handler(proc, fn, resume):
        proc.kill()

    p = cluster.node(0).spawn("app", main, notify=False)
    p.set_breakpoint("fn", handler)
    engine.run(until=1.0)
    assert reached == []
    assert p.state is ProcState.KILLED


def test_on_spawn_listener_and_notify_flag(engine, cluster):
    seen = []
    cluster.node(0).on_spawn(lambda proc: seen.append(proc.name))
    cluster.node(0).spawn("visible", idle)
    cluster.node(0).spawn("hidden", idle, notify=False)
    assert seen == ["visible"]


def test_remote_spawn_has_ssh_latency(engine, cluster):
    started = []
    cluster.remote_spawn(1, "remote", idle, done=lambda p: started.append(engine.now))
    engine.run(until=1.0)
    assert started == [pytest.approx(SSH_LATENCY)]


def test_node_lookup_by_name_and_index(cluster):
    assert cluster.node(0) is cluster.node("node0")
    with pytest.raises(KeyError):
        cluster.node("nope")


def test_add_node_unique_names(cluster):
    extra = cluster.add_node("svc0")
    assert cluster.node("svc0") is extra
    with pytest.raises(ValueError):
        cluster.add_node("svc0")


def test_running_filter(engine, cluster):
    cluster.node(0).spawn("vdaemon.1", idle)
    cluster.node(0).spawn("other", idle)
    names = [p.name for p in cluster.node(0).running("vdaemon")]
    assert names == ["vdaemon.1"]


def test_cluster_requires_nodes():
    with pytest.raises(ValueError):
        Cluster(Engine(seed=0), 0)
