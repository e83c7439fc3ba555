"""Further property-based tests: codegen/interpreter equivalence,
network FIFO, and V2 exactness under random kill schedules."""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.classify import Outcome
from repro.cluster.cluster import Cluster
from repro.fail.codegen import generate_python
from repro.mpichv.config import VclConfig
from repro.mpichv.runtime import VclRuntime
from repro.simkernel.engine import Engine
from repro.simkernel.store import StoreClosed
from repro.workloads.nas_bt import BTWorkload
from test_fail_machine import FakeCtx
from test_properties import _daemons
from repro.fail.machine import Machine

SLOW = settings(max_examples=10, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# generated code == interpreter, on random daemons and event sequences
# ---------------------------------------------------------------------------

class _GenCtx:
    """Context for generated handlers mirroring FakeCtx's recording."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.sent = []
        self.halted = 0
        self.stopped = 0
        self.continued = 0

    def send(self, msg, dest):
        self.sent.append((msg, dest))

    def halt(self):
        self.halted += 1

    def stop(self):
        self.stopped += 1

    def cont(self):
        self.continued += 1

    def arm_timer(self, delay):
        pass

    def read_app_var(self, name):
        return 0


_event_strategy = st.lists(
    st.one_of(
        st.just(("onload", None, None)),
        st.just(("onexit", None, None)),
        st.just(("onerror", None, None)),
        st.tuples(st.just("msg"),
                  st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True),
                  st.sampled_from(["P1", "G1[0]", "G1[3]"])),
        st.tuples(st.just("before"),
                  st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True),
                  st.none()),
    ),
    max_size=8)


@given(daemon=_daemons(), events=_event_strategy,
       seed=st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_codegen_matches_interpreter_on_random_daemons(daemon, events, seed):
    """The Python the FCI-compiler analogue emits must agree with the
    interpreter: same node trajectory, same variables, same outputs —
    semantics pinned down twice, on arbitrary machines.

    Timer events are excluded (arming time is context policy, not
    machine semantics); guards with FAIL_RANDOM draw from separate but
    identically-seeded streams.
    """
    interp_ctx = FakeCtx(seed=seed)
    try:
        interp = Machine(daemon, {}, interp_ctx, "T")
    except Exception:
        return      # e.g. division by zero in an initializer: skip
    code = generate_python(daemon)
    namespace = {}
    exec(compile(code, "<gen>", "exec"), namespace)
    gen_ctx = _GenCtx(seed)
    gen = namespace[f"{daemon.name}Handler"](gen_ctx, random.Random(seed))

    for kind, arg, sender in events:
        if kind == "msg":
            interp_ok = True
            try:
                interp.handle((kind, arg, sender))
            except Exception:
                interp_ok = False
            try:
                gen.handle(kind, arg, sender)
                gen_ok = True
            except Exception:
                gen_ok = False
        else:
            event = (kind,) if arg is None else (kind, arg)
            try:
                interp.handle(event)
                interp_ok = True
            except Exception:
                interp_ok = False
            try:
                gen.handle(kind, arg, sender)
                gen_ok = True
            except Exception:
                gen_ok = False
        assert interp_ok == gen_ok
        if not interp_ok:
            return
        assert gen.node == interp.node_id
        assert gen.vars == {**interp.params, **interp.vars}
        assert gen_ctx.sent == interp_ctx.sent
        assert (gen_ctx.halted, gen_ctx.stopped, gen_ctx.continued) == \
            (interp_ctx.halted, interp_ctx.stopped, interp_ctx.continued)


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
