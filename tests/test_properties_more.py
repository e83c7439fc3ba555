"""Further property-based tests: the FAIL interpreter's error contract,
network FIFO, and V2 exactness under random kill schedules."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.classify import Outcome
from repro.cluster.cluster import Cluster
from repro.fail.lang import ast
from repro.fail.lang.errors import FailSemanticError
from repro.fail.machine import Machine
from repro.mpichv.config import VclConfig
from repro.mpichv.runtime import VclRuntime
from repro.simkernel.engine import Engine
from repro.simkernel.store import StoreClosed
from repro.workloads.nas_bt import BTWorkload
from test_fail_machine_scripts import Controller
from test_fail_machine import FakeCtx
from test_properties import _daemons, _idents

SLOW = settings(max_examples=10, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# the interpreter's error contract, on random daemons and event sequences
# ---------------------------------------------------------------------------

@st.composite
def _scripts(draw):
    """A random daemon, and events its own triggers may match."""
    daemon = draw(_daemons())
    triggers = [tr.trigger for node in daemon.nodes for tr in node.transitions]
    msgs = sorted({t.name for t in triggers if isinstance(t, ast.MsgTrigger)})
    funcs = sorted({t.func for t in triggers if isinstance(t, ast.Before)})
    events = draw(st.lists(st.one_of(
        st.sampled_from([("onload",), ("onexit",), ("onerror",)]),
        st.tuples(st.just("timer"), st.sampled_from(["fresh", "stale"])),
        st.tuples(st.just("msg"), st.sampled_from(msgs + ["bogus"]),
                  st.sampled_from(["P1", "G1[0]", "G1[3]"])),
        st.tuples(st.just("before"), st.sampled_from(funcs + ["bogus"])),
    ), max_size=8))
    return daemon, events


@given(script=_scripts(), app_vars=st.dictionaries(_idents, st.integers()),
       seed=st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_interpreter_runs_or_rejects_random_daemons(script, app_vars, seed):
    """Whatever a daemon says — any expression, ``FAIL_READ`` of any
    application value, any destination — and whatever arrives — timers
    fresh and stale, breakpoints with a controller — the interpreter
    either runs it or raises :class:`FailSemanticError`, never another
    exception."""
    daemon, events = script
    ctx = FakeCtx(seed=seed, app_vars=app_vars)
    try:
        machine = Machine(daemon, {}, ctx, "T")
        for event in events:
            if event[0] == "timer":
                event = ("timer", machine.entry_gen - (event[1] == "stale"))
            controller = Controller() if event[0] == "before" else None
            machine.handle(event, bp_controller=controller)
    except FailSemanticError:
        pass


# ---------------------------------------------------------------------------
# network: per-connection FIFO under arbitrary message sizes
# ---------------------------------------------------------------------------

@given(sizes=st.lists(st.integers(min_value=0, max_value=10**8),
                      min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_network_fifo_under_arbitrary_sizes(sizes):
    engine = Engine(seed=0)
    cluster = Cluster(engine, 2)
    got = []

    def server(proc):
        ls = proc.node.listen(5000, owner=proc)
        sock = yield ls.accept()
        while len(got) < len(sizes):
            try:
                got.append((yield sock.recv()))
            except StoreClosed:
                return

    def client(proc):
        sock = yield proc.node.connect(cluster.node(0).addr(5000), owner=proc)
        for i, size in enumerate(sizes):
            sock.send(i, size=size)
        yield engine.timeout(10.0)

    cluster.node(0).spawn("server", server)
    cluster.node(1).spawn("client", client)
    engine.run(until=100.0)
    assert got == list(range(len(sizes)))


# ---------------------------------------------------------------------------
# V2 exactness under random single-failure schedules
# ---------------------------------------------------------------------------

@given(
    seed=st.integers(0, 10**6),
    kill_times=st.lists(st.floats(min_value=5.0, max_value=150.0),
                        max_size=2, unique=True).map(sorted).filter(
        lambda ts: all(b - a > 20.0 for a, b in zip(ts, ts[1:]))),
)
@SLOW
def test_v2_checksum_exact_under_spaced_kills(seed, kill_times):
    """Sequential (spaced) failures: V2 must always recover exactly.
    Spacing matters — sender-based volatile logs make *concurrent*
    failures unrecoverable by design."""
    config = VclConfig(n_procs=4, n_machines=6, footprint=6e7, protocol="v2",
                       timeout=900.0)
    wl = BTWorkload(n_procs=4, niters=12, total_compute=240.0, footprint=6e7)
    rt = VclRuntime(config, wl.make_factory(), seed=seed)

    for i, t in enumerate(kill_times):
        def mk(t=t, i=i):
            def do():
                procs = rt.cluster.all_procs("vdaemon")
                if procs:
                    procs[(i * 7 + 1) % len(procs)].kill()
            rt.engine.call_at(t, do)
        mk()
    res = rt.run()
    failures = getattr(rt.engine, "process_failures", [])
    assert not failures, [(p.name, p.error) for p in failures]
    assert res.outcome is Outcome.TERMINATED
    assert res.trace.count("verify_ok") == 1
