"""Callback threads: ``simkernel.store.Reader`` (the socket reader
lane) and ``mpichv.daemonbase.PeerDialer`` (the mesh dial).

Evidence that a :class:`Reader` is the generator loop ``while True:
handle((yield store.get()))`` with the plumbing removed, and that a
``PeerDialer`` is ``connect_retry`` + handshake likewise:

* a hypothesis model test drives both with the same random program —
  same-instant ``put`` bursts on one store and across stores, ``close``,
  thread ``kill`` / ``suspend`` / ``resume``, an unrelated same-instant
  ``Timeout`` process and an acceptor that hands its connection over to
  a second consumer — and demands the same global log;
* one unit test per rule of the :class:`Reader` docstring, and the
  ``UnixProcess`` surface (a reader is a thread of its process);
* a regression test that a crashed handler is named in the trace, the
  verdict and the timeline instead of hiding behind a timeout;
* the same model test for the dialer — on the slotted engine, taking
  its outcome from the network — against the generator it replaced run
  on the one-heap reference engine (refusals, back-off, suspend /
  resume / kill, early termination).
"""

from hypothesis import example, given, settings, strategies as st

from repro.cluster.unixproc import ProcState
from repro.simkernel.engine import Engine
from repro.simkernel.events import PRIORITY_URGENT
from repro.simkernel.store import Reader, Store, StoreClosed

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


def test_bind_waits_at_once_only_where_the_first_look_would_find_nothing():
    """``bind`` skips the first-look payload only on an open, empty,
    unread store with nothing in flight to it (the state machine in
    ``test_reference_engine.py`` shows the histories then agree)."""
    eng = Engine()

    def bound(store):
        reader = Reader(eng, store, lambda item: None, bind=True)
        return store._reader is reader

    assert bound(Store(eng))
    full, closed, arriving = Store(eng), Store(eng), Store(eng)
    full.put("waiting")
    closed.close()
    eng.put_at(eng.now, arriving, "in flight")
    assert not any(bound(s) for s in (full, closed, arriving))
    eng.run()
    assert arriving._inflight == 0


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


def test_only_a_running_process_binds_its_socket_readers(engine, cluster):
    def main(proc):
        proc.node.listen(9, owner=proc)
        yield proc.engine.event()

    server, client, sock = _pair(engine, cluster, main)
    client.suspend()
    held = client.spawn_reader(sock, lambda msg: None, bind=True)
    assert sock._rx._reader is None and held.suspended     # looks on resume
    server_end = sock._peer                 # in the backlog, the server's
    ready = server.spawn_reader(server_end, lambda msg: None, bind=True)
    assert server_end._rx._reader is ready


def test_acceptor_takes_one_connection_at_a_time(engine, cluster):
    """Connection B is not looked at while A's first message is
    awaited; a connection that closes silently is skipped."""
    firsts = []

    def main(proc):
        listener = proc.node.listen(9, owner=proc)
        proc.spawn_acceptor(
            listener, lambda sock, msg: firsts.append((engine.now, msg)))
        yield proc.engine.event()

    cluster.node(0).spawn("server", main)
    client = cluster.node(1).spawn("client", _idle)
    engine.run(until=0.5)
    socks = {}
    for name in "abc":
        ev = cluster.node(1).connect(cluster.node(0).addr(9), owner=client)
        ev.add_callback(lambda e, name=name: socks.setdefault(name, e.value))
    engine.run(until=1.0)
    socks["b"].send("from b")           # b speaks first, but a was accepted first
    engine.run(until=2.0)
    assert firsts == []
    socks["a"].close()                  # a never speaks: skipped
    engine.run(until=3.0)
    assert [msg for _t, msg in firsts] == ["from b"]
    socks["c"].send("from c")
    engine.run(until=4.0)
    assert [msg for _t, msg in firsts] == ["from b", "from c"]


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
        total_compute=1280.0, footprint=1e8, timeout=300.0,
        keep_trace=True).build(seed=7)
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
                     total_compute=100.0, footprint=1e8,
                     keep_trace=True).run_one(seed=1)
    assert res.trace.count("thread_crashed") == 0
    assert "crashed" not in res.verdict.reason
    assert "\ncrash " not in render_timeline(res.trace)


# ---------------------------------------------------------------------------
# the mesh dial as a callback thread (PeerDialer) vs the generator it replaced
# ---------------------------------------------------------------------------

class _DialWorld:
    """A dialing process on node 1 and a listener on node 0 that comes
    up late, so the first attempts are refused and back off.  The
    dialer runs on the slotted engine, the generator on the reference."""

    def __init__(self, callbacks: bool):
        from reference_engine import ReferenceEngine
        from repro.analysis.traces import Trace
        from repro.cluster.cluster import Cluster
        from repro.mpichv.config import VclConfig

        engine_cls = Engine if callbacks else ReferenceEngine
        self.engine = engine_cls(seed=3, trace=Trace())
        self.cluster = Cluster(self.engine, 2)
        self.network = self.cluster.network
        self.timing = VclConfig(n_procs=2, n_machines=3).timing
        self.callbacks = callbacks
        self.log = []
        # the stub of MpichDaemon that PeerDialer talks to
        self.protocol, self.rank, self.terminating = "stub", 1, False
        self.proc = self.cluster.node(1).spawn("dialer", _idle)
        self.server = self.cluster.node(0).spawn("server", _idle)

    def probe(self, *what):
        self.log.append((round(self.engine.now, 9),) + what)

    def on_peer_connected(self, peer_rank, sock):
        self.probe("connected", peer_rank, sock.conn_id)
        sock.send("hello")

    def dial(self):
        from repro.mpichv.daemonbase import PeerDialer, connect_retry

        addr = self.cluster.node(0).addr(9)
        if self.callbacks:
            self.proc.adopt_thread(PeerDialer(self, 0, addr))
            return

        def dial_peer():
            sock = yield from connect_retry(
                self.proc, addr, self.timing.connect_retry_initial,
                self.timing.connect_retry_max, stop=lambda: self.terminating)
            if sock is not None:
                self.on_peer_connected(0, sock)

        self.proc.spawn_thread(dial_peer())

    def listen(self):
        if self.cluster.node(0).addr(9) in self.cluster.network._listeners:
            return
        listener = self.cluster.node(0).listen(9, owner=self.server)
        self.server.spawn_acceptor(
            listener, lambda sock, msg: self.probe("accepted", msg))

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


@given(program=_dial_program)
@example(program=[(0.3, "listen")])
@example(program=[(0.1, "suspend"), (0.3, "listen"), (1.0, "resume_all")])
@example(program=[(0.15, "suspend"), (0.15, "listen"), (0.35, "resume_all")])
@settings(max_examples=200, deadline=None)
def test_peer_dialer_and_generator_dial_log_the_same_history(program):
    assert _DialWorld(callbacks=True).run(program) \
        == _DialWorld(callbacks=False).run(program)


def test_peer_dialer_backs_off_then_connects_and_shakes_hands():
    log, coverage, _state = _DialWorld(callbacks=True).run([(0.3, "listen")])
    assert "daemon.connect.refused" in coverage
    events = [entry for entry in log if entry[1] != "tick"]
    # refused at ~0, 0.05, 0.15 (back-off 0.05, 0.1, 0.2); the attempt
    # made at ~0.35 finds the listener
    [connected, accepted] = events
    assert connected[1:3] == ("connected", 0) and 0.35 < connected[0] < 0.36
    assert accepted[1:] == ("accepted", "hello")


def test_peer_dialer_handshake_crash_takes_the_process_down():
    world = _DialWorld(callbacks=True)

    def boom(peer_rank, sock):
        raise RuntimeError("handshake bug")

    world.on_peer_connected = boom
    world.run([(0.0, "listen")])
    assert world.proc.state is ProcState.ERRORED
    [failed] = world.engine.process_failures
    assert failed.name == "stub.1.dial0"
