"""The daemons' :class:`~repro.cluster.network.Mesh`: dial, accept, read.

* a hypothesis model test drives a mesh dial on the slotted engine and
  the generator it stands for — ``connect_retry`` plus the handshake,
  over a :class:`~repro.cluster.network.Socket` pair, with a generator
  accept loop — on the one-heap reference engine, with the same random
  program (refusals, back-off, suspend / resume / kill of the dialer,
  early termination), and demands the same log;
* dials that land at one instant — refused and connected ones mixed, a
  dialer stopped between the landing and the outcomes, far ends
  stopped at the landing, a continue from inside an outcome — log and
  count engine payloads as they did with one outcome payload per dial;
* the accept side takes one connection at a time and skips one that
  closes without a word;
* a crashing handler takes the process down and names the mesh.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from reference_engine import ReferenceEngine
from repro.analysis.traces import Trace
from repro.cluster.cluster import Cluster
from repro.cluster.network import DIALED, Mesh
from repro.cluster.unixproc import ProcState
from repro.mpichv.config import CONNECT_RETRY_INITIAL, CONNECT_RETRY_MAX
from repro.simkernel.engine import Engine
from repro.simkernel.store import StoreClosed


def _idle(proc):
    yield proc.engine.event()


def _mesh(proc, rank, n, log, on_connected=None):
    listener = proc.node.listen(9, owner=proc)
    return Mesh(proc, listener, rank, n,
                lambda row, msg: log.append(("msg", row, msg)), None,
                lambda row, msg: log.append(("hello", row, msg)),
                on_connected or (lambda rows: None))


# ---------------------------------------------------------------------------
# the dial against connect_retry + handshake
# ---------------------------------------------------------------------------

class _DialWorld:
    """A dialing process on the last node and ``servers`` listeners on
    the others that come up late, so the first attempts are refused and
    back off; with several servers the dials of one attempt land at one
    instant.  The mesh runs on the slotted engine, the generators on the
    reference."""

    def __init__(self, mesh: bool, servers: int = 1):
        engine_cls = Engine if mesh else ReferenceEngine
        self.engine = engine_cls(seed=3, trace=Trace())
        self.cluster = Cluster(self.engine, servers + 1)
        self.mesh = mesh
        self.n_servers = servers
        self.log = []
        self.terminating = False
        self.proc = self.cluster.node(servers).spawn("dialer", _idle)
        self.servers = [self.cluster.node(rank).spawn(f"server{rank}", _idle)
                        for rank in range(servers)]
        self.engine.run(until=0.0)

    def probe(self, *what):
        self.log.append((round(self.engine.now, 9),) + what)

    def dial(self):
        from repro.mpichv.daemonbase import connect_retry

        addrs = [self.cluster.node(rank).addr(9)
                 for rank in range(self.n_servers)]
        if self.mesh:
            def connected(rows):
                for row in rows:
                    self.probe("connected", row)
                    dialer.send(row, "hello")

            me = self.n_servers
            dialer = Mesh(self.proc, self.cluster.node(me).listen(
                9, owner=self.proc), me, me + 1, None, None, None, connected)
            dialer.dial(list(enumerate(addrs)),
                        CONNECT_RETRY_INITIAL, CONNECT_RETRY_MAX,
                        stop=lambda: self.terminating)
            return

        def dial_peer(rank, addr):
            sock = yield from connect_retry(
                self.proc, addr, CONNECT_RETRY_INITIAL, CONNECT_RETRY_MAX,
                stop=lambda: self.terminating)
            if sock is not None:
                self.probe("connected", rank)
                sock.send("hello")

        for rank, addr in enumerate(addrs):
            self.proc.spawn_thread(dial_peer(rank, addr))

    def listen(self):
        for rank, server in enumerate(self.servers):
            self._listen(rank, server)

    def _listen(self, rank, server):
        if self.cluster.node(rank).addr(9) in self.cluster.network._listeners:
            return
        listener = self.cluster.node(rank).listen(9, owner=server)
        if self.mesh:
            Mesh(server, listener, rank, self.n_servers + 1, None, None,
                 lambda row, msg: self.probe("accepted", rank, msg), None)
            return

        def accept():
            while True:
                sock = yield listener.accept()
                try:
                    msg = yield sock.recv()
                except StoreClosed:
                    continue
                self.probe("accepted", rank, msg)

        server.spawn_thread(accept())

    def terminate(self):
        self.terminating = True

    def ticker(self):
        for _ in range(40):
            yield self.engine.timeout(0.05)
            self.probe("tick")

    def run(self, program):
        eng = self.engine
        eng.call_at(0.0, self.dial)
        eng.process(self.ticker())
        for when, verb in program:
            target = self if verb in ("listen", "terminate") else self.proc
            eng.call_at(when, getattr(target, verb))
        eng.run(until=3.0)
        return self.log, sorted(eng.coverage), self.proc.state


_dial_times = st.sampled_from([0.0, 0.05, 0.1, 0.15, 0.3, 0.35, 0.75, 1.0])
_dial_program = st.lists(st.tuples(
    _dial_times, st.sampled_from(["listen", "suspend", "resume_all",
                                  "resume_all", "kill", "terminate"])),
    max_size=8)


@given(program=_dial_program, servers=st.sampled_from([1, 3]))
@example(program=[(0.3, "listen")], servers=1)
@example(program=[(0.1, "suspend"), (0.3, "listen"), (1.0, "resume_all")],
         servers=1)
@example(program=[(0.15, "suspend"), (0.15, "listen"), (0.35, "resume_all")],
         servers=1)
@example(program=[(0.0, "listen")], servers=3)
@example(program=[(0.0, "listen"), (0.0, "suspend"), (0.1, "resume_all")],
         servers=3)
@example(program=[(0.1, "suspend"), (0.3, "listen"), (0.75, "resume_all"),
                  (1.0, "kill")], servers=3)
@settings(max_examples=200, deadline=None)
def test_mesh_dial_and_generator_dial_log_the_same_history(program, servers):
    assert _DialWorld(mesh=True, servers=servers).run(program) \
        == _DialWorld(mesh=False, servers=servers).run(program)


def test_mesh_dial_backs_off_then_connects_and_shakes_hands():
    log, coverage, _state = _DialWorld(mesh=True).run([(0.3, "listen")])
    assert "daemon.connect.refused" in coverage
    events = [entry for entry in log if entry[1] != "tick"]
    # refused at ~0, 0.05, 0.15 (back-off 0.05, 0.1, 0.2); the attempt
    # made at ~0.35 finds the listener
    [connected, accepted] = events
    assert connected[1:] == ("connected", 0) and 0.35 < connected[0] < 0.36
    assert accepted[1:] == ("accepted", 0, "hello")


def test_mesh_handshake_crash_takes_the_process_down():
    world = _DialWorld(mesh=True)

    def probe(*what):
        if what[0] == "connected":
            raise RuntimeError("handshake bug")

    world.probe = probe
    world.run([(0.0, "listen")])
    assert world.proc.state is ProcState.ERRORED
    [failed] = world.engine.process_failures
    assert failed.name == "mesh.r1@node1"
    assert isinstance(failed.error, RuntimeError)


# ---------------------------------------------------------------------------
# one landing, several dials
# ---------------------------------------------------------------------------

class _Landing:
    """Rank 3 (node 3) dials ranks 0, 1 and 2 from one payload, so the
    dials land at one instant; it greets each peer it reaches with
    ``hi <row>``, and each listening rank logs the greeting it reads.
    ``log`` entries are ``(time, what, ...)``."""

    def __init__(self, engine, cluster, listening=(0, 1, 2)):
        self.engine, self.cluster = engine, cluster
        self.log = []
        self.procs = [cluster.node(rank).spawn(f"r{rank}", _idle)
                      for rank in range(4)]
        self.dialer = self.procs[3]
        self.also = lambda row: None
        engine.run(until=0.1)
        for rank in listening:
            self.listen(rank)
        self.mesh = Mesh(self.dialer, cluster.node(3).listen(
            9, owner=self.dialer), 3, 4, None, None, None, self.connected)

    def probe(self, *what):
        self.log.append((round(self.engine.now, 9),) + what)

    def listen(self, rank):
        def hello(row, msg):
            self.probe("hello", rank, msg)

        proc = self.procs[rank]
        Mesh(proc, self.cluster.node(rank).listen(9, owner=proc), rank, 4,
             None, None, hello, None)

    def connected(self, rows):
        for row in rows:
            self.probe("connected", row)
            self.mesh.send(row, f"hi {row}")
            self.also(row)

    def dial(self):
        self.mesh.dial([(rank, self.cluster.node(rank).addr(9))
                        for rank in range(3)], 0.1, 1.0, lambda: False)


def test_one_landing_mixes_refused_and_connected_dials(engine, cluster):
    """Rank 1 listens late: its dial is refused in the landing it shares
    with two that connect, and retries after its back-off (0.1, then
    0.2) while the greetings go out in dial order."""
    world = _Landing(engine, cluster, listening=(0, 2))
    world.dial()
    engine.run(until=0.3)
    world.listen(1)
    engine.run(until=1.0)
    assert world.log == LANDING_LOGS["mixed"]
    assert engine.coverage["daemon.connect.refused"] == 2
    assert engine.events_processed == LANDING_EVENTS["mixed"]


def test_a_dialer_stopped_between_its_landing_and_the_outcomes(engine,
                                                                cluster):
    """A stop lands in the slot after the dials' landing and before
    their outcomes: every outcome parks, and the continue greets each
    peer where its dial was made."""
    world = _Landing(engine, cluster)
    world.dial()
    rtt = 2 * cluster.network.latency
    engine.call_later(0.0, lambda: engine.call_later(rtt,
                                                     world.dialer.suspend))
    engine.run(until=0.5)
    assert world.log == []
    assert [world.mesh.state[rank] for rank in range(3)] == [DIALED] * 3
    world.dialer.resume_all()
    engine.run(until=1.0)
    assert world.log == LANDING_LOGS["stopped dialer"]
    assert engine.events_processed == LANDING_EVENTS["stopped dialer"]


def test_stopped_far_meshes_take_dials_that_land_together(engine, cluster):
    """Ranks 0 and 2 are stopped when the dials land, so their accept
    sides' looks are hops in the landing's slot, among the dialer's
    outcomes; each reads its greeting at its continue."""
    world = _Landing(engine, cluster)
    world.procs[0].suspend()
    world.procs[2].suspend()
    world.dial()
    engine.run(until=0.5)
    world.procs[2].resume_all()
    engine.run(until=0.7)
    world.procs[0].resume_all()
    engine.run(until=1.0)
    assert world.log == LANDING_LOGS["stopped fars"]
    assert engine.events_processed == LANDING_EVENTS["stopped fars"]


def test_a_continue_from_an_outcome_runs_before_the_next_outcome(engine,
                                                                 cluster):
    """Greeting rank 0 continues a stopped process whose mesh holds an
    unread greeting: its URGENT re-run reads it before the landing's
    next outcomes (rank 1's refusal, rank 2's greeting)."""
    world = _Landing(engine, cluster, listening=(0, 2))
    stopped = cluster.node(1).spawn("stopped", _idle)
    early = cluster.node(2).spawn("early", _idle)
    engine.run(until=0.2)
    Mesh(stopped, cluster.node(1).listen(11, owner=stopped), 0, 2, None,
         None, lambda row, msg: world.probe("read", msg), None)
    caller = Mesh(early, cluster.node(2).listen(12, owner=early), 1, 2,
                  None, None, None, lambda rows: caller.send(0, "early"))
    caller.dial([(0, cluster.node(1).addr(11))], 0.1, 1.0, lambda: False)
    engine.run(until=0.2003)
    stopped.suspend()           # landed, its greeting still on the way
    engine.run(until=0.3)
    world.also = lambda row: row == 0 and stopped.resume_all()
    world.dial()
    engine.run(until=0.35)
    assert world.log == LANDING_LOGS["continue"]
    assert engine.events_processed == LANDING_EVENTS["continue"]


#: the logs and engine payload counts, recorded with one outcome
#: payload per dial
LANDING_LOGS = {
    "mixed": [(0.1002, "connected", 0),
              (0.1002, "connected", 2),
              (0.10031024, "hello", 0, "hi 0"),
              (0.10031024, "hello", 2, "hi 2"),
              (0.4006, "connected", 1),
              (0.40071024, "hello", 1, "hi 1")],
    "stopped dialer": [(0.5, "connected", 0),
                       (0.5, "connected", 1),
                       (0.5, "connected", 2),
                       (0.50011024, "hello", 0, "hi 0"),
                       (0.50011024, "hello", 1, "hi 1"),
                       (0.50011024, "hello", 2, "hi 2")],
    "stopped fars": [(0.1002, "connected", 0),
                     (0.1002, "connected", 1),
                     (0.1002, "connected", 2),
                     (0.10031024, "hello", 1, "hi 1"),
                     (0.5, "hello", 2, "hi 2"),
                     (0.7, "hello", 0, "hi 0")],
    "continue": [(0.3002, "connected", 0),
                 (0.3002, "read", "early"),
                 (0.3002, "connected", 2),
                 (0.30031024, "hello", 0, "hi 0"),
                 (0.30031024, "hello", 2, "hi 2")],
}
LANDING_EVENTS = {"mixed": 18, "stopped dialer": 14, "stopped fars": 14,
                  "continue": 19}


# ---------------------------------------------------------------------------
# the accept side and the first look
# ---------------------------------------------------------------------------

def test_the_accept_side_takes_one_connection_at_a_time(engine, cluster):
    """Connection B is not looked at while A's first message is
    awaited; a connection that closes silently is skipped."""
    firsts = []
    server = cluster.node(0).spawn("server", _idle)
    engine.run(until=0.1)
    _mesh(server, 0, 4, firsts)
    dialers = {}
    for rank, name in ((1, "a"), (2, "b"), (3, "c")):
        proc = cluster.node(rank).spawn(name, _idle)
        engine.run(until=0.2)
        dialers[name] = (proc, _mesh(proc, rank, 4, []))
    engine.run(until=0.5)
    for proc, mesh in dialers.values():
        mesh.dial([(0, cluster.node(0).addr(9))], 0.1, 1.0, lambda: False)
    engine.run(until=1.0)
    dialers["b"][1].send(0, "from b")   # b speaks first, but a landed first
    engine.run(until=2.0)
    assert firsts == []
    dialers["a"][0].kill()              # a never speaks: skipped
    engine.run(until=3.0)
    assert firsts == [("hello", 2, "from b")]
    dialers["c"][1].send(0, "from c")
    engine.run(until=4.0)
    assert firsts == [("hello", 2, "from b"), ("hello", 3, "from c")]


def test_a_restarted_peer_dials_a_stopped_mesh(engine, cluster):
    """Rank 1 dies while rank 0's process is stopped, and its next
    incarnation dials in before the continue: the old connection's
    close is still unread, so the new one takes a spill row.  At the
    continue the old row's reader sees the close, the accept side reads
    the new hello, and the new row reads on."""
    log = []
    a = cluster.node(0).spawn("a", _idle)
    engine.run(until=0.1)

    def hello(row, msg):
        log.append(("hello", row, msg))
        mesh.serve(row)

    mesh = Mesh(a, cluster.node(0).listen(9, owner=a), 0, 2,
                lambda row, msg: log.append(("msg", row, msg)),
                lambda row: log.append(("gone", row)), hello, None)

    def incarnation(name):
        proc = cluster.node(1).spawn(name, _idle)
        engine.run(until=engine.now + 0.1)
        dialer = _mesh(proc, 1, 2, [], lambda rows: dialer.send(0, name))
        dialer.dial([(0, cluster.node(0).addr(9))], 0.1, 1.0, lambda: False)
        engine.run(until=engine.now + 1.0)
        return proc, dialer

    b1, first = incarnation("b1")
    first.send(0, "x")
    engine.run(until=engine.now + 1.0)
    assert log == [("hello", 1, "b1"), ("msg", 1, "x")]
    a.suspend()
    b1.kill()
    engine.run(until=engine.now + 1.0)
    b2, second = incarnation("b2")
    assert len(log) == 2
    a.resume_all()
    engine.run(until=engine.now + 1.0)
    second.send(0, "y")
    engine.run(until=engine.now + 1.0)
    [gone, (said, row, word), msg] = log[2:]
    assert gone == ("gone", 1) and (said, word) == ("hello", "b2")
    assert row != 1 and mesh.rank_of(row) == 1
    assert msg == ("msg", row, "y")
    assert a.state is ProcState.RUNNING and not engine.process_failures


def test_a_continue_reads_in_the_order_the_readers_were_started(engine,
                                                                 cluster):
    """Rows are served d, b, c with a service reader started between b
    and c; while the process is stopped, c, the service, b and d are
    handed something, in that order.  The continue reads them where
    their readers stand among the process's threads — d, b, the
    service, c — each from a payload of its own, as a Reader per
    connection did."""
    log = []
    a = cluster.node(0).spawn("a", _idle)
    engine.run(until=0.1)

    def hello(row, msg):
        mesh.serve(row)

    mesh = Mesh(a, cluster.node(0).listen(9, owner=a), 0, 4,
                lambda row, msg: log.append((row, msg)), None, hello, None)
    service = cluster.node(0).listen(10, owner=a)
    dialers = {}

    def dial(rank):
        proc = cluster.node(rank).spawn(f"r{rank}", _idle)
        engine.run(until=engine.now + 0.1)
        dialers[rank] = _mesh(proc, rank, 4, [],
                              lambda rows: dialers[rank].send_all(rows, "hi"))
        dialers[rank].dial([(0, cluster.node(0).addr(9))], 0.1, 1.0,
                           lambda: False)
        engine.run(until=engine.now + 1.0)

    dial(3)
    dial(1)
    a.spawn_reader(service, lambda sock: log.append("service"))
    dial(2)
    a.suspend()
    dialers[2].send(0, "x")
    engine.run(until=engine.now + 0.5)
    caller = cluster.node(1).spawn("caller", _idle)
    cluster.node(1).connect(service.addr, owner=caller)
    engine.run(until=engine.now + 0.5)
    for rank in (1, 3):
        dialers[rank].send(0, "x")
        engine.run(until=engine.now + 0.5)
    assert log == []
    a.resume_all()
    engine.run(until=engine.now + 1.0)
    assert log == [(3, "x"), (1, "x"), "service", (2, "x")]


# ---------------------------------------------------------------------------
# a daemon stopped with its mesh built
# ---------------------------------------------------------------------------

#: Fig. 4's node daemon, plus a stop on ``?pause`` and a continue on
#: ``?resume``
PAUSING_NODE = """
Daemon ADV2 {
  node 1:
    onload -> continue, goto 2;
    ?crash -> !no(P1), goto 1;
    ?pause -> goto 1;
    ?resume -> goto 1;
  node 2:
    onexit -> goto 1;
    onerror -> goto 1;
    onload -> continue, goto 2;
    ?crash -> !ok(P1), halt, goto 1;
    ?pause -> stop, goto 3;
    ?resume -> goto 2;
  node 3:
    onexit -> goto 1;
    onerror -> goto 1;
    ?resume -> continue, goto 2;
    ?crash -> !ok(P1), halt, goto 1;
    ?pause -> goto 3;
}
"""


def _pausing_master(stopped, killed, at, kill_after, resume_after):
    crashes = " ".join(f"!crash(G1[{k}])," for k in killed)
    return f"""
Daemon ADV1 {{
  node 1:
    time g_timer = {at};
    timer -> !pause(G1[{stopped}]), goto 2;
  node 2:
    time g_timer = {kill_after};
    timer -> {crashes} goto 3;
  node 3:
    time g_timer = {resume_after};
    timer -> !resume(G1[{stopped}]), goto 4;
    ?ok -> goto 3;
    ?no -> goto 3;
  node 4:
    ?ok -> goto 4;
    ?no -> goto 4;
}}
"""


#: (protocol, stopped machine, killed machines, pause at, kill after,
#: continue after) -> trace digest recorded with a Socket pair and a
#: Reader per connection.  The v2 rows restart the killed ranks while
#: the stopped daemon's reads of their old connections are parked, so
#: their dials take spill rows; every row parks hops whose thread order
#: is not their park order.
STOPPED_WITH_A_MESH = {
    ("v2", 0, (1,), 40, 2, 40):
        "1769fcc4d0ac5167d5d8efcfbf3d2e673858e3c07eb5dbf4096fe9f42be05909",
    ("v2", 0, (2, 3), 40, 1, 10):
        "5ca555e1fd38d2455b6e8355c2274801e5879e5422f96068d9880bc8d8cb43cf",
    ("vcl", 2, (3,), 55, 5, 90):
        "e4fdeb0bf3dc278e7e5c6ed4888bb29205cebfe12e0a1415d6bfc0a56b60612a",
}


@pytest.mark.parametrize("case", sorted(STOPPED_WITH_A_MESH))
def test_a_stopped_daemon_resumes_its_mesh_in_thread_order(case):
    from repro.experiments.harness import TrialSetup
    from test_golden_digests import _digest

    protocol, stopped, killed, at, kill_after, resume_after = case
    setup = TrialSetup(
        n_procs=4, n_machines=7, protocol=protocol, timeout=400.0,
        workload="ring", niters=40, total_compute=1280.0, footprint=1e8,
        scenario_source=PAUSING_NODE + _pausing_master(
            stopped, killed, at, kill_after, resume_after))
    assert _digest(setup.run_one(seed=7)) == STOPPED_WITH_A_MESH[case]


# ---------------------------------------------------------------------------
# the mesh is still simulated in full
# ---------------------------------------------------------------------------

#: observed faulted ring trials (``test_trial_garbage.faulted_ring``,
#: seed 1): per-kind causal ``(count, seconds)`` of every mesh message
#: kind, ``net_messages`` and ``net_bytes``, recorded with a Socket pair
#: per connection.  Every handshake of both incarnations' meshes, every
#: marker of every wave and every data message crosses the wire at the
#: instant it did.
MESH_TRAFFIC = {
    ("vcl", 16): ({"Hello": (240, 0.0241536), "Marker": (1024, 0.10305536),
                   "DataMsg": (766, 0.10682336)}, 2546, 4003201792),
    ("v2", 16): ({"V2Hello": (135, 0.0135864),
                  "V2Data": (704, 0.09808384)}, 3399, 3940474304),
    ("vcl", 32): ({"Hello": (992, 0.09983488), "Marker": (4096, 0.41222144),
                   "DataMsg": (1534, 0.21385184)}, 7634, 4006566656),
    ("v2", 32): ({"V2Hello": (527, 0.05303728),
                  "V2Data": (1376, 0.19158016)}, 9105, 4005956768),
}


@pytest.mark.parametrize("protocol, n_procs", sorted(MESH_TRAFFIC))
def test_the_mesh_is_still_fully_simulated(protocol, n_procs):
    import dataclasses

    from repro.experiments.resultstore import run_result_to_dict
    from test_trial_garbage import faulted_ring

    setup = dataclasses.replace(faulted_ring(n_procs, protocol), observe=True)
    result = setup.run_one(1)
    kinds = run_result_to_dict(result)["obs"]["causal"]["kinds"]
    traffic = {kind: (row["count"], row["seconds"])
               for kind, row in kinds.items()
               if kind in ("Hello", "V2Hello", "Marker", "DataMsg", "V2Data")}
    assert (traffic, result.net_messages, result.net_bytes) \
        == MESH_TRAFFIC[(protocol, n_procs)]
