"""Micro-benchmarks of the simulator itself.

These are honest pytest-benchmark targets (many fast rounds): kernel
event throughput, network message relay rate, FAIL parsing and a
fault-free BT run.  They guard against performance regressions that
would make the figure benchmarks impractically slow.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.fail import builtin_scenarios as scenarios
from repro.fail.lang.parser import parse_fail
from repro.mpichv.config import VclConfig
from repro.mpichv.runtime import VclRuntime
from repro.simkernel.engine import Engine
from repro.simkernel.store import Store, StoreClosed
from repro.workloads.nas_bt import BTWorkload


@pytest.mark.benchmark(group="micro")
def test_engine_event_throughput(benchmark):
    def run():
        eng = Engine(seed=0)

        def ticker():
            for _ in range(2000):
                yield eng.timeout(1.0)

        eng.process(ticker())
        eng.run()
        return eng.events_processed

    events = benchmark(run)
    assert events >= 2000


@pytest.mark.benchmark(group="micro")
def test_engine_callback_dispatch_throughput(benchmark):
    """The ``Engine.run`` hot path in isolation: slot-table dispatch of
    bare callbacks, no generator machinery.  This is the loop every
    message/timer of a trial passes through; the slotted fast path
    (events sharing an instant drain as one batch behind a single heap
    entry) is pinned by this benchmark."""
    N = 20000

    def run():
        eng = Engine(seed=0)

        def cb():
            pass

        for i in range(N):
            eng.call_later(0.001 * (i % 977), cb)
        eng.run()
        return eng.events_processed

    assert benchmark(run) == N


@pytest.mark.benchmark(group="micro")
def test_engine_scale_512_delivery_throughput(benchmark):
    """512-rank periodic-event pattern — the dominant event shape of a
    big deployment: every rank fires a heartbeat on a shared 1 s tick
    grid (each firing triggering a same-instant urgent dispatch, like a
    process wakeup delivering a message) plus a coarser shared
    checkpoint-timer grid.  All 512 firings of a tick land in one slot
    behind a single heap entry, which is what makes 512-rank trials
    cheap; the final mass-cancel exercises the O(1) tombstone path."""
    from repro.simkernel.events import PRIORITY_URGENT

    RANKS = 512
    HORIZON = 40.0

    def run():
        eng = Engine(seed=0)
        fired = [0]

        def wake():
            fired[0] += 1

        handles = []
        for rank in range(RANKS):
            def beat(rank=rank):
                fired[0] += 1
                # same-instant cascade: an urgent wakeup, as a message
                # delivery schedules the receiving process's dispatch
                eng._enqueue_call(wake, priority=PRIORITY_URGENT)

            handles.append(eng.periodic(1.0, beat))
        for _ in range(0, RANKS, 8):
            handles.append(eng.periodic(5.0, wake, first=5.0))
        eng.run(until=HORIZON)
        # batched cancel: the pending firing of every surviving timer
        # dispatches as a no-op tombstone
        for handle in handles:
            handle.cancel()
        eng.run()
        return fired[0]

    fired = benchmark(run)
    # 512 heartbeats + 512 wakeups per tick, 64 ckpt firings per 5 s
    assert fired >= 512 * 2 * 39 + 64 * 7


@pytest.mark.benchmark(group="micro")
def test_store_put_get_throughput(benchmark):
    def run():
        eng = Engine(seed=0)
        store = Store(eng)
        got = []

        def consumer():
            while True:
                try:
                    got.append((yield store.get()))
                except StoreClosed:
                    return

        eng.process(consumer())
        for i in range(1000):
            eng.call_later(0.001 * i, lambda i=i: store.put(i))
        eng.call_later(2.0, store.close)
        eng.run()
        return len(got)

    assert benchmark(run) == 1000


@pytest.mark.benchmark(group="micro")
def test_network_message_relay(benchmark):
    def run():
        eng = Engine(seed=0)
        clu = Cluster(eng, 2)
        done = []

        def server(proc):
            ls = proc.node.listen(5000, owner=proc)
            sock = yield ls.accept()
            count = 0
            while count < 500:
                yield sock.recv()
                count += 1
            done.append(count)

        def client(proc):
            sock = yield proc.node.connect(clu.node(0).addr(5000), owner=proc)
            for i in range(500):
                sock.send(i, size=1024)
            yield eng.timeout(10.0)

        clu.node(0).spawn("server", server)
        clu.node(1).spawn("client", client)
        eng.run(until=60.0)
        return done[0]

    assert benchmark(run) == 500


@pytest.mark.benchmark(group="micro")
@pytest.mark.parametrize("topology", ["uniform", "star", "twotier"])
def test_network_delivery_throughput(benchmark, topology):
    """Socket send → delivery rate per fabric model.

    The ``uniform`` row is the perf guard for the netmodel refactor:
    its hot path is structurally identical to the seed arithmetic (no
    per-message topology lookup — asserted by
    tests/test_netmodel.py::test_uniform_hot_path_never_consults_the_fabric),
    so its throughput tracks the historical baseline; the ``star`` /
    ``twotier`` rows record the cost of per-link accounting."""
    N = 2000

    def run():
        eng = Engine(seed=0)
        clu = Cluster(eng, 2, topology=topology)
        done = []

        def server(proc):
            ls = proc.node.listen(5000, owner=proc)
            sock = yield ls.accept()
            count = 0
            while count < N:
                yield sock.recv()
                count += 1
            done.append(count)

        def client(proc):
            sock = yield proc.node.connect(clu.node(0).addr(5000), owner=proc)
            for i in range(N):
                sock.send(i, size=1024)
            yield eng.timeout(10.0)

        clu.node(0).spawn("server", server)
        clu.node(1).spawn("client", client)
        eng.run(until=120.0)
        return done[0]

    assert benchmark(run) == N


@pytest.mark.benchmark(group="micro")
def test_fail_parse_throughput(benchmark):
    source = (scenarios.FIG7A_MASTER + scenarios.FIG8B_NODE_DAEMON
              + scenarios.FIG10B_NODE_DAEMON)

    prog = benchmark(parse_fail, source)
    assert len(prog.daemons) == 3


@pytest.mark.benchmark(group="micro")
def test_bt_fault_free_run(benchmark):
    def run():
        config = VclConfig(n_procs=9, n_machines=12, footprint=2e8)
        wl = BTWorkload(n_procs=9, niters=20, total_compute=360.0,
                        footprint=2e8)
        rt = VclRuntime(config, wl.make_factory(), seed=0)
        return rt.run()

    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert res.outcome.value == "terminated"


@pytest.mark.benchmark(group="micro")
def test_obs_span_off_switch_overhead(benchmark):
    """The instrumented call sites with observation OFF: every
    ``engine.span(...)`` must collapse to one attribute read plus the
    shared null handle, because this is what every unobserved trial
    (and the dispatch gate) pays at each instrumentation point."""
    N = 20000

    def run():
        eng = Engine(seed=0)
        assert eng.obs is None
        for i in range(N):
            eng.span("transfer", lane="m1", rank=i).close()
        return N

    assert benchmark(run) == N


@pytest.mark.benchmark(group="micro")
def test_causal_stamp_off_switch_overhead(benchmark):
    """Minting + stamping with observation OFF: ``causal.stamp`` must
    collapse to one attribute read per call — the cost every unobserved
    trial pays at each message mint site."""
    from repro.mpi.message import AppMessage
    from repro.obs.causal import stamp

    N = 20000

    def run():
        eng = Engine(seed=0)
        assert eng.obs is None
        for i in range(N):
            msg = AppMessage(0, 1, i, None)
            stamp(eng, msg, "r0")
        return N

    assert benchmark(run) == N


@pytest.mark.benchmark(group="micro")
def test_network_delivery_tracing_on(benchmark):
    """The relay benchmark with a live recorder and stamped messages:
    the causal choke point (one recorded row per transmission)
    rides the same dispatch loop the tracing-off gate pins, so this
    is the measured price of causal tracing per delivered message."""
    from repro.mpi.message import AppMessage
    from repro.obs import Obs
    from repro.obs.causal import stamp

    N = 2000

    def run():
        eng = Engine(seed=0)
        eng.obs = Obs(eng)
        clu = Cluster(eng, 2)
        done = []

        def server(proc):
            ls = proc.node.listen(5000, owner=proc)
            sock = yield ls.accept()
            count = 0
            while count < N:
                yield sock.recv()
                count += 1
            done.append(count)

        def client(proc):
            sock = yield proc.node.connect(clu.node(0).addr(5000), owner=proc)
            for i in range(N):
                msg = AppMessage(1, 0, i, None)
                stamp(eng, msg, "r1")
                sock.send(msg, size=1024)
            yield eng.timeout(10.0)

        clu.node(0).spawn("server", server)
        clu.node(1).spawn("client", client)
        eng.run(until=120.0)
        assert len(eng.obs.causal.tid) == N
        return done[0]

    assert benchmark(run) == N


@pytest.mark.benchmark(group="micro")
def test_obs_span_record_throughput(benchmark):
    """Span open/close against a live recorder — the observability
    hot path of an instrumented trial (checkpoint transfers dominate
    span volume at scale)."""
    from repro.obs import Obs

    N = 20000

    def run():
        eng = Engine(seed=0)
        eng.obs = Obs(eng)
        for i in range(N):
            eng.span("transfer", lane="m1", rank=i).close()
        return len(eng.obs.spans)

    assert benchmark(run) == N
