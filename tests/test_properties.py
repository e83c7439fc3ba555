"""Property-based tests (hypothesis) on the system's core invariants.

The heavyweight one is Chandy-Lamport consistency: for *any* schedule
of task kills, a run that terminates must produce the exact integer
checksum — i.e. every message was delivered exactly once across all
rollbacks (no orphans, no duplicates) — and with the fixed dispatcher
the run must always terminate (never freeze).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.classify import Outcome
from repro.fail.lang import ast
from repro.fail.lang.parser import parse_fail
from repro.fail.lang.pretty import pretty_print
from repro.fail.machine import eval_expr
from repro.mpichv.config import VclConfig
from repro.mpichv.runtime import VclRuntime
from repro.workloads.masterworker import MasterWorkerWorkload
from repro.workloads.nas_bt import BTWorkload
from repro.workloads.ring import RingWorkload

SLOW = settings(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# FAIL language: parser/printer round-trip on generated ASTs
# ---------------------------------------------------------------------------

_idents = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s not in {"timer", "onload", "onexit", "onerror", "before",
                        "node", "int", "time", "always", "goto", "halt",
                        "stop", "on", "group"})


def _exprs(var_names):
    base = st.one_of(
        st.integers(min_value=0, max_value=999).map(ast.Num),
        st.sampled_from(sorted(var_names)).map(ast.Var) if var_names
        else st.integers(min_value=0, max_value=9).map(ast.Num),
        _idents.map(ast.ReadCall),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "/", "%", "==", "<>",
                                       "<", "<=", ">", ">=", "&&", "||"]),
                      children, children).map(lambda t: ast.BinOp(*t)),
            st.tuples(st.sampled_from(["-", "!"]), children).map(
                lambda t: ast.UnOp(*t)),
            st.tuples(children, children).map(lambda t: ast.RandCall(*t)),
        )

    return st.recursive(base, extend, max_leaves=8)


@st.composite
def _daemons(draw):
    var_names = draw(st.sets(_idents, min_size=1, max_size=3))
    exprs = _exprs(var_names)
    node_ids = sorted(draw(st.sets(st.integers(1, 9), min_size=1, max_size=3)))
    dests = st.one_of(
        st.just(ast.DestName("P1")),
        st.just(ast.DestSender()),
        exprs.map(lambda e: ast.DestIndex("G1", e)),
    )
    actions = st.one_of(
        st.just(ast.HaltAction()),
        st.just(ast.StopAction()),
        st.just(ast.ContinueAction()),
        st.sampled_from(node_ids).map(ast.GotoAction),
        st.tuples(_idents, dests).map(lambda t: ast.SendAction(*t)),
        dests.map(ast.PartitionAction),
        st.just(ast.HealAction()),
        st.tuples(st.sampled_from(sorted(var_names)), exprs).map(
            lambda t: ast.AssignAction(*t)),
    )
    triggers = st.one_of(
        st.just(ast.OnLoad()), st.just(ast.OnExit()), st.just(ast.OnError()),
        _idents.map(ast.MsgTrigger), _idents.map(ast.Before),
    )

    def node(nid, with_timer):
        always = draw(st.lists(
            st.tuples(_idents, exprs).map(lambda t: ast.AlwaysDecl(*t)),
            max_size=2))
        timers = ([ast.TimerDecl("g_timer", draw(exprs))] if with_timer else [])
        trigger_pool = (st.one_of(triggers, st.just(ast.TimerTrigger()))
                        if with_timer else triggers)
        transitions = draw(st.lists(
            st.tuples(trigger_pool,
                      st.one_of(st.none(), exprs),
                      st.lists(actions, min_size=1, max_size=3)).map(
                lambda t: ast.Transition(t[0], t[1], tuple(t[2]))),
            max_size=3))
        return ast.NodeDef(node_id=nid, always=tuple(always),
                           timers=tuple(timers), transitions=tuple(transitions))

    nodes = tuple(node(nid, draw(st.booleans())) for nid in node_ids)
    variables = tuple(ast.VarDecl(name, draw(exprs))
                      for name in sorted(var_names))
    return ast.DaemonDef(name="Gen", variables=variables, nodes=nodes)


@given(_daemons())
@settings(max_examples=150, deadline=None)
def test_pretty_parse_roundtrip(daemon):
    program = ast.Program(daemons=(daemon,))
    source = pretty_print(program)
    assert parse_fail(source) == program


@given(st.integers(), st.integers().filter(bool))
@settings(max_examples=300, deadline=None)
def test_division_truncates_toward_zero_exactly(a, b):
    """FAIL's ``/`` is C's truncating division on unbounded ints: the
    remainder it leaves is smaller than the divisor and has the
    dividend's sign.  Below 2^53 it also equals ``int(a / b)``, the
    float quotient truncated."""
    q = eval_expr(ast.BinOp("/", ast.Num(a), ast.Num(b)), {}, None)
    r = a - q * b
    assert abs(r) < abs(b)
    assert r == 0 or (r < 0) == (a < 0)
    if abs(a) < 2 ** 53:
        assert q == int(a / b)


# ---------------------------------------------------------------------------
# engine determinism under random workloads
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_runtime_deterministic_per_seed(seed, n):
    def build():
        config = VclConfig(n_procs=n * n, n_machines=n * n + 2, footprint=4e7)
        wl = BTWorkload(n_procs=n * n, niters=5, total_compute=50.0,
                        footprint=4e7)
        return VclRuntime(config, wl.make_factory(), seed=seed)

    first = build().run(timeout=200.0)
    second = build().run(timeout=200.0)
    assert first.sim_time == second.sim_time
    assert first.events_processed == second.events_processed
    assert first.outcome == second.outcome


# ---------------------------------------------------------------------------
# Chandy-Lamport consistency under arbitrary kill schedules
# ---------------------------------------------------------------------------

def _run_with_kills(workload, n_procs, kill_times, seed,
                    bug_compat=False, timeout=900.0):
    config = VclConfig(n_procs=n_procs, n_machines=n_procs + 2,
                       footprint=6e7, bug_compat=bug_compat, timeout=timeout)
    rt = VclRuntime(config, workload.make_factory(), seed=seed)

    def make_killer(t, pick):
        def do():
            procs = rt.cluster.all_procs("vdaemon")
            if procs:
                procs[pick % len(procs)].kill()
        rt.engine.call_at(t, do)

    for i, t in enumerate(kill_times):
        make_killer(t, i * 13 + 1)
    res = rt.run()
    failures = getattr(rt.engine, "process_failures", [])
    return res, failures


@given(
    seed=st.integers(0, 10**6),
    kill_times=st.lists(st.floats(min_value=5.0, max_value=200.0),
                        max_size=3, unique=True),
)
@SLOW
def test_bt_checksum_exact_under_any_kill_schedule(seed, kill_times):
    """Terminated => verified: the BT checksum is integer-exact, so any
    lost or duplicated message across rollbacks fails the run (a
    verification failure raises inside the app and shows up in
    process_failures)."""
    wl = BTWorkload(n_procs=4, niters=12, total_compute=240.0, footprint=6e7)
    res, failures = _run_with_kills(wl, 4, sorted(kill_times), seed)
    assert not failures, [(p.name, p.error) for p in failures]
    if res.outcome is Outcome.TERMINATED:
        assert res.trace.count("verify_ok") == 1


@given(
    seed=st.integers(0, 10**6),
    kill_times=st.lists(st.floats(min_value=5.0, max_value=150.0),
                        max_size=2, unique=True),
)
@SLOW
def test_ring_token_exact_under_any_kill_schedule(seed, kill_times):
    wl = RingWorkload(n_procs=4, rounds=60, work_per_hop=1.0)
    res, failures = _run_with_kills(wl, 4, sorted(kill_times), seed)
    assert not failures, [(p.name, p.error) for p in failures]


@given(
    seed=st.integers(0, 10**6),
    kill_times=st.lists(st.floats(min_value=5.0, max_value=120.0),
                        max_size=2, unique=True),
)
@SLOW
def test_masterworker_dedup_under_any_kill_schedule(seed, kill_times):
    wl = MasterWorkerWorkload(n_procs=4, n_tasks=20, work_per_task=2.0)
    res, failures = _run_with_kills(wl, 4, sorted(kill_times), seed)
    assert not failures, [(p.name, p.error) for p in failures]


@given(
    seed=st.integers(0, 10**6),
    kill_times=st.lists(st.floats(min_value=5.0, max_value=200.0),
                        min_size=1, max_size=3, unique=True),
)
@SLOW
def test_fixed_dispatcher_never_freezes(seed, kill_times):
    """With the epoch-tagged (fixed) dispatcher, no kill schedule may
    produce a frozen run: every run either terminates or is still
    making protocol progress at the timeout."""
    wl = BTWorkload(n_procs=4, niters=12, total_compute=240.0, footprint=6e7)
    res, failures = _run_with_kills(wl, 4, sorted(kill_times), seed,
                                    bug_compat=False)
    assert not failures
    assert res.outcome is not Outcome.BUGGY
    if res.outcome is Outcome.TERMINATED:
        assert res.trace.count("verify_ok") == 1
