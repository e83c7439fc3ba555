"""Callback threads: ``simkernel.store.Reader``, the socket reader lane.

Evidence that a :class:`Reader` is the generator loop ``while True:
handle((yield store.get()))`` with the plumbing removed:

* a hypothesis model test drives both with the same random program —
  same-instant ``put`` bursts on one store and across stores, ``close``,
  thread ``kill`` / ``suspend`` / ``resume``, an unrelated same-instant
  ``Timeout`` process and an acceptor that hands its connection over to
  a second consumer — and demands the same global log;
* one unit test per rule of the :class:`Reader` docstring, and the
  ``UnixProcess`` surface (a reader is a thread of its process);
* a regression test that a crashed handler is named in the trace, the
  verdict and the timeline instead of hiding behind a timeout.

The waiting first look — a reader that skips its first-look payload
where that look would find nothing — is now a mesh row's
(``Mesh.serve``), tested here on rows; the daemons' mesh dial and accept
side are ``tests/test_mesh.py``'s.
"""

from hypothesis import example, given, settings, strategies as st

from repro.cluster.network import ITEM, START, WAIT
from repro.cluster.unixproc import ProcState
from repro.simkernel.engine import Engine
from repro.simkernel.events import PRIORITY_URGENT
from repro.simkernel.store import Reader, Store, StoreClosed
from test_mesh import _mesh

# ---------------------------------------------------------------------------
# model equivalence
# ---------------------------------------------------------------------------


class World:
    """Three consumers (stores ``a`` and ``b``, and an acceptor on the
    backlog ``l`` that reads each connection's first item and then hands
    the connection to a fresh consumer), one log.  Subclasses say what
    a consumer is made of."""

    def __init__(self):
        self.eng = Engine(seed=0)
        self.log = []
        self.stores = {name: Store(self.eng, name=name) for name in "abl"}
        self.conns = {}
        self.threads = {}

    def probe(self, *what):
        self.log.append((self.eng.now,) + what)

    # -- what every consumer does with an item -----------------------------
    def handle(self, name, item):
        self.probe(name, item)
        tag, n = item
        other = self.stores["b" if name == "a" else "a"]
        if n % 3 == 0 and not other.closed:
            other.put(("x" + tag, n + 1))       # cross-store, same instant
        if n % 4 == 1:
            self.eng.call_later(0.0, lambda: self.probe("normal-after", item))
        if n % 5 == 2:
            self.eng._enqueue(lambda: self.probe("urgent-after", item),
                              0.0, PRIORITY_URGENT)
        if n % 7 == 3 and name in self.stores:
            self.stores[name].close()           # close with items queued
        if n % 11 == 5:
            self.threads[name].kill()           # a handler ending its thread

    # -- the program's verbs -------------------------------------------------
    def store(self, name):
        # not ``a or b``: an empty Store has len 0 and is falsy
        return self.stores[name] if name in self.stores \
            else self.conns.get(name)

    def put(self, name, item):
        store = self.store(name)
        if store is not None and not store.closed:
            store.put(item)

    def close(self, name):
        store = self.store(name)
        if store is not None:
            store.close()

    def connect(self, name):
        if name not in self.conns and not self.stores["l"].closed:
            self.conns[name] = Store(self.eng, name=name)
            self.stores["l"].put(name)

    def control(self, verb, name):
        thread = self.threads.get(name)
        if thread is not None:
            getattr(thread, verb)()

    def ticker(self, times):
        for dt in times:
            yield self.eng.timeout(dt)
            self.probe("tick")

    def run(self, program, ticks):
        eng = self.eng
        eng.call_at(0.0, lambda: self.spawn_consumer("a", self.stores["a"], True))
        eng.call_at(0.0, lambda: self.spawn_consumer("b", self.stores["b"], False))
        eng.call_at(0.0, self.spawn_acceptor)
        eng.process(self.ticker(ticks))
        for when, verb, args in program:
            eng.call_at(when, lambda verb=verb, args=args:
                        getattr(self, verb)(*args))
        eng.run(until=10.0)
        return self.log


class GeneratorWorld(World):
    def spawn_consumer(self, name, store, report_close):
        def loop():
            while True:
                try:
                    item = yield store.get()
                except StoreClosed:
                    if report_close:
                        self.probe(name, "closed")
                    return
                self.handle(name, item)
        self.threads[name] = self.eng.process(loop())

    def spawn_acceptor(self):
        def loop():
            backlog = self.stores["l"]
            while True:
                try:
                    conn = yield backlog.get()
                except StoreClosed:
                    return
                try:
                    first = yield self.conns[conn].get()
                except StoreClosed:
                    self.probe("acceptor", "skipped", conn)
                    continue
                self.probe("acceptor", conn, first)
                self.spawn_consumer(conn, self.conns[conn], True)
        self.threads["l"] = self.eng.process(loop())


class ReaderWorld(World):
    def spawn_consumer(self, name, store, report_close):
        self.threads[name] = Reader(
            self.eng, store, lambda item: self.handle(name, item),
            (lambda: self.probe(name, "closed")) if report_close else None)

    def spawn_acceptor(self):
        backlog = self.stores["l"]

        def on_conn(conn):
            def on_first(first):
                reader.retarget(on_conn, store=backlog)
                self.probe("acceptor", conn, first)
                self.spawn_consumer(conn, self.conns[conn], True)

            def on_gone():
                self.probe("acceptor", "skipped", conn)
                reader.retarget(on_conn, store=backlog)

            reader.retarget(on_first, on_gone, store=self.conns[conn])

        reader = self.threads["l"] = Reader(self.eng, backlog, on_conn)


_names = st.sampled_from(["a", "b", "l", "c0", "c1"])
_times = st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.0, 3.0])
_op = st.one_of(
    st.tuples(st.just("put"),
              st.tuples(st.sampled_from(["a", "b", "c0", "c1"]),
                        st.tuples(st.just("p"), st.integers(0, 40)))),
    st.tuples(st.just("connect"), st.tuples(st.sampled_from(["c0", "c1"]))),
    st.tuples(st.just("close"), st.tuples(_names)),
    st.tuples(st.just("control"),
              st.tuples(st.sampled_from(["kill", "suspend", "resume",
                                         "resume"]), _names)),
)
_program = st.lists(st.tuples(_times, _op).map(
    lambda t: (t[0], t[1][0], t[1][1])), max_size=40)


@given(program=_program,
       ticks=st.lists(st.sampled_from([0.0, 1.0, 1.0]), max_size=5))
@example(program=[(1.0, "control", ("suspend", "a")),
                  (1.0, "put", ("a", ("p", 2))),
                  (2.0, "control", ("resume", "a"))],
         ticks=[1.0, 1.0])              # resume re-issues ahead of the tick
@example(program=[(1.0, "put", ("a", ("p", 4))), (1.0, "close", ("a",))],
         ticks=[1.0])                   # in-flight item, then on_close
@settings(max_examples=500, deadline=None)
def test_reader_and_generator_loop_log_the_same_history(program, ticks):
    expected = GeneratorWorld().run(program, ticks)
    assert ReaderWorld().run(program, ticks) == expected


def test_the_model_program_space_reaches_every_verb():
    """A fixed program touching each mechanism at one instant — fails
    loudly if the worlds above stop exercising what they claim to."""
    program = [
        (0.0, "control", ("suspend", "a")),         # before its first look
        (1.0, "put", ("a", ("p", 6))),              # cross-store put to b
        (1.0, "put", ("a", ("p", 1))),              # queued behind it
        (1.0, "put", ("b", ("p", 2))),
        (1.0, "connect", ("c0",)),
        (1.0, "connect", ("c1",)),
        (1.0, "put", ("c1", ("p", 9))),             # B speaks before A
        (1.0, "control", ("resume", "a")),
        (1.5, "close", ("c0",)),                    # A never says hello
        (2.0, "put", ("c1", ("p", 10))),            # lands at the peer reader
        (2.0, "put", ("a", ("p", 5))),              # handler kills its thread
        (2.0, "put", ("a", ("p", 8))),
        (3.0, "put", ("b", ("p", 10))),             # handler closes its store
        (3.0, "put", ("b", ("p", 12))),             # ... with this one queued
        (3.0, "close", ("c1",)),
    ]
    log = ReaderWorld().run(program, [1.0, 1.0, 1.0])
    assert log == GeneratorWorld().run(program, [1.0, 1.0, 1.0])
    seen = {entry[1:] for entry in log}
    assert ("a", ("p", 6)) in seen and ("b", ("xp", 7)) in seen
    assert ("acceptor", "skipped", "c0") in seen
    assert ("acceptor", "c1", ("p", 9)) in seen
    assert ("c1", ("p", 10)) in seen and ("c1", "closed") in seen
    assert ("a", ("p", 5)) in seen and ("a", ("p", 8)) not in seen
    assert ("b", ("p", 10)) in seen and ("b", ("p", 12)) not in seen
    assert ("urgent-after", ("p", 2)) in seen
    assert ("normal-after", ("p", 1)) in seen


# ---------------------------------------------------------------------------
# one test per rule
# ---------------------------------------------------------------------------

def _reader(eng, store, log, on_close=False, **kw):
    return Reader(eng, store, lambda item: log.append((eng.now, item)),
                  (lambda: log.append((eng.now, "closed"))) if on_close
                  else None, **kw)


def test_item_put_while_waiting_costs_one_payload():
    eng = Engine()
    store = Store(eng)
    log = []
    _reader(eng, store, log)
    eng.run()                           # the first look at the store
    before = eng.events_processed
    store.put("m")
    eng.run()
    assert log == [(0.0, "m")]
    assert eng.events_processed - before == 1


def test_item_arriving_while_busy_is_enqueued_when_the_handler_returns():
    """Not at arrival: a payload enqueued between arrival and the
    handler's return runs before the second item's handler."""
    eng = Engine()
    store = Store(eng)
    order = []

    def on_item(item):
        order.append(item)
        if item == "first":
            store.put("second")         # arrives while the reader is busy
            eng.call_later(0.0, lambda: order.append("between"))

    Reader(eng, store, on_item)
    eng.call_at(1.0, lambda: store.put("first"))
    eng.run()
    assert order == ["first", "between", "second"]
    assert not store.items


def test_a_drained_queue_is_released():
    """A store keeps an item queue only while something waits in it:
    drained by a reader or by ``get``, the queue is dropped."""
    eng = Engine()
    store = Store(eng)
    log = []
    store.put("a")
    store.put("b")                      # no reader yet: both wait
    assert len(store.items) == 2
    _reader(eng, store, log)
    eng.run()
    assert log == [(0.0, "a"), (0.0, "b")]
    assert store.items is None
    other = Store(eng)
    other.put("c")
    other.get()
    assert other.items is None


def test_close_with_an_item_in_flight_delivers_it_then_on_close():
    eng = Engine()
    store = Store(eng)
    log = []
    _reader(eng, store, log, on_close=True)

    def burst():
        store.put("last")
        store.close()

    eng.call_at(1.0, burst)
    eng.run()
    assert log == [(1.0, "last"), (1.0, "closed")]


def test_close_without_on_close_enqueues_nothing():
    eng = Engine()
    store = Store(eng)
    log = []
    reader = _reader(eng, store, log)
    eng.run()
    before = eng.events_processed
    store.close()
    eng.run()
    assert eng.events_processed == before
    assert not reader.alive and log == []


def test_on_close_runs_in_a_payload_of_its_own():
    eng = Engine()
    store = Store(eng)
    order = []
    Reader(eng, store, order.append, lambda: order.append("closed"))

    def closer():
        store.close()
        order.append("after-close-call")

    eng.call_at(1.0, closer)
    eng.run()
    assert order == ["after-close-call", "closed"]


def test_kill_detaches_and_voids_the_pending_payload():
    eng = Engine()
    store = Store(eng)
    log = []
    reader = _reader(eng, store, log, on_close=True)

    def burst():
        store.put("in flight")
        reader.kill()

    eng.call_at(1.0, burst)
    eng.call_at(2.0, lambda: store.put("after"))
    eng.call_at(3.0, store.close)
    eng.run()
    assert log == []
    assert store._reader is None


def test_suspend_parks_the_payload_and_resume_reissues_it_urgent():
    eng = Engine()
    store = Store(eng)
    order = []
    reader = Reader(eng, store, order.append)

    def stop_then_send():
        reader.suspend()
        store.put("held")

    def go():
        eng.call_later(0.0, lambda: order.append("normal"))
        reader.resume()

    eng.call_at(1.0, stop_then_send)
    eng.call_at(2.0, go)
    eng.run(until=1.5)
    assert order == []
    eng.run()
    assert order == ["held", "normal"]


def test_first_look_is_a_normal_payload_at_spawn():
    eng = Engine()
    store = Store(eng)
    order = []

    def spawn():
        eng.call_later(0.0, lambda: order.append("before"))
        Reader(eng, store, order.append)
        store.put("queued")             # the reader has not looked yet
        eng.call_later(0.0, lambda: order.append("after"))

    eng.call_at(1.0, spawn)
    eng.run()
    # "queued" is picked up by the first look, which runs after
    # "after" was enqueued, so its own payload comes last
    assert order == ["before", "after", "queued"]


def test_raising_handler_is_recorded_and_reported_from_a_later_payload():
    eng = Engine()
    store = Store(eng)
    order = []

    def on_item(item):
        raise ValueError(item)

    reader = Reader(eng, store, on_item,
                    on_error=lambda err: order.append(("error", str(err))))

    def send():
        store.put("boom")
        eng.call_later(0.0, lambda: order.append("same instant"))

    eng.call_at(1.0, send)
    eng.call_at(2.0, lambda: store.put("ignored"))
    eng.run()
    assert order == ["same instant", ("error", "boom")]
    assert eng.process_failures == [reader]
    assert not reader.alive and isinstance(reader.error, ValueError)
    assert "on_item" in reader.name


def test_two_readers_waiting_on_one_store_is_an_error():
    eng = Engine()
    store = Store(eng)
    Reader(eng, store, lambda item: None)
    second = Reader(eng, store, lambda item: None)
    eng.run()
    assert eng.process_failures == [second]


# ---------------------------------------------------------------------------
# a reader is a thread of its UnixProcess
# ---------------------------------------------------------------------------

def _idle(proc):
    yield proc.engine.event()


def _pair(engine, cluster, server_main):
    """A server process listening on port 9 and a client socket to it."""
    server = cluster.node(0).spawn("server", server_main)
    client = cluster.node(1).spawn("client", _idle)
    engine.run(until=0.5)               # the server is listening
    socks = []
    ev = cluster.node(1).connect(cluster.node(0).addr(9), owner=client)
    ev.add_callback(lambda e: socks.append(e.value))
    engine.run(until=1.0)
    return server, client, socks[0]


def test_reader_handler_crash_takes_the_process_down_as_errored(engine, cluster):
    def handler(msg):
        raise RuntimeError(f"bad message {msg}")

    def main(proc):
        listener = proc.node.listen(9, owner=proc)
        proc.spawn_reader(listener,
                          lambda sock: proc.spawn_reader(sock, handler))
        yield proc.engine.event()

    server, _client, sock = _pair(engine, cluster, main)
    sock.send("x")
    engine.run(until=2.0)
    assert server.state is ProcState.ERRORED
    assert isinstance(server.exit_error, RuntimeError)
    assert [f.error for f in engine.process_failures] == [server.exit_error]


def test_process_kill_and_suspend_reach_its_readers(engine, cluster):
    got = []

    def main(proc):
        listener = proc.node.listen(9, owner=proc)
        proc.spawn_reader(
            listener,
            lambda sock: proc.spawn_reader(
                sock, lambda msg: got.append((engine.now, msg))))
        yield proc.engine.event()

    server, _client, sock = _pair(engine, cluster, main)
    server.suspend()
    sock.send("held")
    engine.run(until=2.0)
    assert got == []
    engine.call_at(3.0, server.resume_all)
    engine.run(until=4.0)
    assert got == [(3.0, "held")]
    server.kill()
    assert all(not t.alive for t in server._threads)
    engine.run(until=5.0)
    assert got == [(3.0, "held")]


def test_reader_spawned_on_a_suspended_process_starts_suspended(engine, cluster):
    server = cluster.node(0).spawn("server", _idle)
    listener = cluster.node(0).listen(9, owner=server)
    server.suspend()
    reader = server.spawn_reader(listener, lambda sock: None)
    assert reader.suspended
    server.kill()
    try:
        server.spawn_reader(listener, lambda sock: None)
    except RuntimeError:
        pass
    else:
        raise AssertionError("spawn_reader on a dead process must fail")


# ---------------------------------------------------------------------------
# the waiting first look: a mesh row's ``serve``
# ---------------------------------------------------------------------------

def _accepted(engine, cluster, n, log):
    """Rank 0's mesh on node 0, dialed by ranks 1..n-1 on their own
    nodes; each dialer's mesh and process, once every dial landed."""
    procs = [cluster.node(i).spawn(f"p{i}", _idle) for i in range(n)]
    engine.run(until=0.1)
    meshes = [_mesh(p, i, n, log) for i, p in enumerate(procs)]
    for mesh in meshes[1:]:
        mesh.dial([(0, cluster.node(0).addr(9))], 0.1, 1.0, lambda: False)
    engine.run(until=1.0)
    return meshes, procs


def test_bind_waits_at_once_only_where_the_first_look_would_find_nothing(
        engine, cluster):
    """``Mesh.serve`` waits at once only on an open row with nothing
    queued or in flight to it; a queued message, an arrival in flight or
    a closed stream makes its first look a payload of its own."""
    log = []
    (a, b, c, d), procs = _accepted(engine, cluster, 4, log)
    for row, mesh in ((1, b), (2, c), (3, d)):
        mesh.send(0, f"hello {row}")
    c.send(0, "queued")
    engine.run(until=2.0)
    procs[3].kill()                     # its close notice lands
    engine.run(until=3.0)
    assert log == [("hello", 1, "hello 1"), ("hello", 2, "hello 2"),
                   ("hello", 3, "hello 3")]
    a.serve(1)                          # open, empty: waits
    assert a.rd[1] == WAIT
    a.serve(2)                          # "queued" waits in the row
    assert a.rd[2] == START
    a.serve(3)                          # closed
    assert a.rd[3] == START
    a.send(1, "in flight")
    b.serve(0)                          # open, but a message is on its way
    assert b.rd[0] == START
    c.serve(0)
    assert c.rd[0] == WAIT
    engine.run(until=4.0)
    assert log[3:] == [("msg", 2, "queued"), ("msg", 0, "in flight")]
    assert a.rd[3] != WAIT              # looked, found it closed
    b.send(0, "to a waiting row")
    engine.run(until=5.0)
    assert log[5:] == [("msg", 1, "to a waiting row")]


def test_only_a_running_process_binds_its_socket_readers(engine, cluster):
    """A stopped process's ``serve`` never waits at once: its first look
    is a payload, parked until the continue.  A message handed to a
    waiting row of a process stopped meanwhile is read at the continue."""
    log = []
    (a, b), procs = _accepted(engine, cluster, 2, log)
    b.send(0, "hi")
    engine.run(until=2.0)
    procs[0].suspend()
    a.serve(1)                          # open and empty, but stopped
    assert a.rd[1] == START
    b.serve(0)                          # running: waits
    assert b.rd[0] == WAIT
    b.send(0, "to a stopped process")
    engine.run(until=3.0)
    assert log == [("hello", 1, "hi")]
    procs[0].resume_all()
    engine.run(until=4.0)
    assert log[1:] == [("msg", 1, "to a stopped process")]
    a.send(1, "in flight")
    procs[1].suspend()
    engine.run(until=5.0)               # handed over, parked
    assert b.rd[0] == ITEM and log[2:] == []
    procs[1].resume_all()
    engine.run(until=6.0)
    assert log[2:] == [("msg", 0, "in flight")]


# ---------------------------------------------------------------------------
# a crash in a real deployment must not hide behind the timeout it causes
# ---------------------------------------------------------------------------

def test_crashing_handler_is_named_in_trace_verdict_and_timeline(monkeypatch):
    from repro.analysis.timeline import render_timeline
    from repro.experiments.harness import TrialSetup
    from repro.mpichv.scheduler import SchedulerState

    # the checkpoint scheduler trips over the marker acks of the first
    # wave (those of one instant, until the crash payload takes the
    # process down ERRORED): no wave ever commits
    monkeypatch.setattr(SchedulerState, "acks", property(
        lambda self: (_ for _ in ()).throw(KeyError("acks")),
        lambda self, value: None), raising=False)
    rt, _deployment = TrialSetup(
        n_procs=4, n_machines=7, workload="ring", niters=40,
        total_compute=1280.0, footprint=1e8, timeout=300.0).build(seed=7)
    res = rt.run()

    failures = rt.engine.process_failures
    assert failures and all(isinstance(f.error, KeyError) for f in failures)
    assert rt.scheduler_proc.state is ProcState.ERRORED
    assert res.waves_committed == 0
    records = res.trace.of_kind("thread_crashed")
    assert len(records) == len(failures)
    assert "serve_daemon" in records[0].thread
    assert "KeyError" in records[0].error
    assert f"{len(failures)} simulated thread(s) crashed" in res.verdict.reason
    assert "\ncrash " in render_timeline(res.trace)


def test_crash_free_run_has_no_crash_lane_or_record():
    from repro.analysis.timeline import render_timeline
    from repro.experiments.harness import TrialSetup

    res = TrialSetup(n_procs=4, n_machines=7, workload="ring", niters=10,
                     total_compute=100.0, footprint=1e8).run_one(seed=1)
    assert res.trace.count("thread_crashed") == 0
    assert "crashed" not in res.verdict.reason
    assert "\ncrash " not in render_timeline(res.trace)
