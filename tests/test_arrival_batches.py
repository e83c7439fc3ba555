"""Batches: ``Engine.put_at`` / ``call_at`` and the ``Batch`` payload.

Evidence that running the arrivals and calls of one instant in one
payload is the one-payload-per-item schedule with the plumbing removed:

* a hypothesis model test runs the same random program through the
  engine and through the one-heap ``ReferenceEngine``
  (``tests/reference_engine.py``: every arrival and every call a payload
  of its own) and demands the same global ``(engine.now, handler,
  item)`` log.  The program drives real sockets served by readers
  (bursts on one connection and floods on all of them, sizes that split
  arrivals across instants, zero-latency echoes into the slot being
  drained, closes, process kill / suspend / resume) and *taps*:
  receivers that handle in place, so that their handlers run inside a
  batch — an URGENT payload, ``stop()``, a close of the next item's
  receiver, a raise, all between two items of one batch;
* one unit test per rule of the ``Batch`` / ``_schedule`` docstrings.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from reference_engine import ReferenceEngine
from repro.cluster.cluster import Cluster
from repro.simkernel.engine import Batch, Engine
from repro.simkernel.events import PRIORITY_URGENT
from repro.simkernel.store import Store

#: a priority class sorting after NORMAL — nothing in the program uses
#: one, but the slot table orders any int
LAZY = 2

# ---------------------------------------------------------------------------
# model equivalence
# ---------------------------------------------------------------------------


class Boom(Exception):
    pass


class Tap:
    """A receiver that handles in place: the part of the ``Store``
    surface ``put_at`` uses, with the handler run by ``put`` itself."""

    def __init__(self, world, name):
        self.world = world
        self.name = name
        self.closed = False

    def put(self, item):
        self.world.handle(self.name, item)

    def close(self):
        self.closed = True


#: message sizes: at 1e6 B/s they put 0, 1e-4, ~1e-3 and 0.1 s between
#: back-to-back messages of one connection
SIZES = (0, 100, 1024, 100_000)
#: absolute tap arrival times: from the program instants 1.2, 1.3, 1.7
#: and 1.8, ``now + (when - now)`` is one ulp off 3.4 and 3.9 — two
#: slots where a reader of the program sees one
WHENS = (1.3, 1.7, 2.3, 3.4, 3.9)
END = 10.0


class World:
    """Three processes on three nodes, four connections into ``p0``
    (both ends served by readers), two taps, one log."""

    def __init__(self, engine_cls, latency):
        self.eng = eng = engine_cls(seed=0)
        self.cluster = Cluster(eng, 3, latency=latency, bandwidth=1e6)
        self.log = []
        self.stop_requested = False
        self.taps = [Tap(self, "tap0"), Tap(self, "tap1")]
        self.ends = {}

        def forever(proc):
            yield eng.event()

        self.procs = [self.cluster.node(i).spawn(f"p{i}", forever)
                      for i in range(3)]
        hub = self.procs[0]
        listener = self.cluster.node(0).listen(1, owner=hub)
        hub.spawn_reader(listener, lambda sock: self.serve(
            hub, f"s{sock.conn_id}", sock))
        for proc in self.procs[1:]:
            for _ in range(2):
                self.cluster.node(proc.node.name).connect(
                    listener.addr, owner=proc).add_callback(
                        lambda ev, proc=proc: self.serve(
                            proc, f"c{ev.value.conn_id}", ev.value))
        eng.run(until=1.0)
        assert len(self.ends) == 8

    def serve(self, proc, name, sock):
        self.ends[name] = sock
        proc.spawn_reader(sock, lambda item: self.handle(name, item),
                          lambda: self.probe(name, "closed"))

    def probe(self, *what):
        self.log.append((self.eng.now,) + what)

    def end(self, n):
        return self.ends[sorted(self.ends)[n % len(self.ends)]]

    # -- what every receiver does with an item ---------------------------
    def handle(self, name, item):
        self.probe(name, item)
        eng = self.eng
        tag, n = item
        if n % 3 == 0:
            # an echo with no size: at zero latency it lands in the
            # slot being drained
            if name in self.ends:
                if not self.ends[name].closed:
                    self.ends[name].send(("e" + tag, n + 1), size=0)
            else:
                eng.put_at(eng.now, self.taps[n % 2], ("e" + tag, n + 1))
        if n % 4 == 1:
            eng.call_later(0.0, lambda: self.probe("normal-after", item))
        if n % 5 == 2:
            eng._enqueue(lambda: self.probe("urgent-after", item), 0.0,
                         PRIORITY_URGENT)
        if n % 7 == 3:
            # maybe the receiver of the batch's next item
            (self.taps[n % 2] if n % 2 else self.end(n)).close()
        if n % 11 == 5:
            self.stop_requested = True
            eng.stop()
        if n % 13 == 6:
            raise Boom(item)
        if n % 17 == 7:
            self.procs[n % 3].kill()
        if n % 19 == 8:
            self.procs[n % 3].suspend()
        if n % 23 in (9, 10):
            self.procs[n % 3].resume_all()      # parked readers: URGENT

    # -- the program's verbs ------------------------------------------------
    def send(self, end, size, count, n):
        sock = self.end(end)
        for i in range(count):
            if not sock.closed:
                sock.send(("m", n + i), size=SIZES[size])

    def flood(self, size, n):
        for i, name in enumerate(sorted(self.ends)):
            if not self.ends[name].closed:
                self.ends[name].send(("f", n + i), size=SIZES[size])

    def tap(self, tap, when, count, n):
        for i in range(count):
            self.eng.put_at(max(self.eng.now, WHENS[when]),
                            self.taps[(tap + i) % 2], ("t", n + i))

    def plain(self, when, n):
        self.eng.call_at(max(self.eng.now, WHENS[when]),
                         lambda: self.probe("plain", n))

    def close(self, end):
        self.end(end).close()

    def control(self, verb, proc):
        getattr(self.procs[proc], verb)()

    def run(self, program):
        eng = self.eng
        for when, verb, args in program:
            eng.call_at(when, lambda verb=verb, args=args:
                        getattr(self, verb)(*args))
        # a program is a few hundred payloads: a driver still looping
        # after 5000 returns is an engine re-running the same work
        for _ in range(5000):
            try:
                eng.run(until=END)
            except Boom:
                self.probe("boom")
                continue
            if not self.stop_requested:
                return self.log
            self.stop_requested = False
            self.probe("stopped")
        raise AssertionError("the program never drained")


_times = st.sampled_from([1.0, 1.1, 1.2, 1.3, 1.7, 1.8, 2.0, 2.3])
_n = st.integers(0, 400)
_verbs = st.one_of(
    st.tuples(st.just("send"), st.tuples(
        st.integers(0, 7), st.integers(0, 3), st.integers(1, 5), _n)),
    st.tuples(st.just("flood"), st.tuples(st.integers(0, 3), _n)),
    st.tuples(st.just("tap"), st.tuples(
        st.integers(0, 1), st.integers(0, 4), st.integers(1, 6), _n)),
    st.tuples(st.just("plain"), st.tuples(st.integers(0, 4), _n)),
    st.tuples(st.just("close"), st.tuples(st.integers(0, 7))),
    st.tuples(st.just("control"), st.tuples(
        st.sampled_from(["kill", "suspend", "resume_all"]),
        st.integers(0, 2))),
)
_programs = st.lists(
    st.tuples(_times, _verbs).map(lambda tv: (tv[0],) + tv[1]),
    min_size=1, max_size=14)


@given(program=_programs, latency=st.sampled_from([0.0, 1e-4]))
# six taps in one instant with a plain payload between them: an URGENT
# payload, a stop(), a close of the next receiver and a raise all fall
# between two items of one batch
@example(program=[(1.0, "tap", (0, 0, 3, 2)), (1.0, "plain", (0, 0)),
                  (1.0, "tap", (1, 0, 6, 3))], latency=1e-4)
@example(program=[(1.0, "tap", (0, 1, 6, 5)), (1.0, "tap", (1, 1, 6, 16)),
                  (1.2, "tap", (0, 1, 4, 0))], latency=0.0)
# a flood answered by zero-latency echoes into the slot being drained
@example(program=[(1.0, "flood", (0, 0)), (1.0, "flood", (0, 3)),
                  (1.0, "send", (2, 0, 5, 6))], latency=0.0)
# arrivals for t = 3.4 scheduled from 1.0 (exactly 3.4) and from 1.2 (one
# ulp off): neighbours, not one batch
@example(program=[(1.0, "tap", (0, 3, 2, 0)), (1.2, "plain", (3, 1)),
                  (1.2, "tap", (0, 3, 3, 2)), (1.2, "plain", (3, 2))],
         latency=1e-4)
# suspended receivers park their wake-ups; the resume is URGENT
@example(program=[(1.0, "control", ("suspend", 0)), (1.0, "flood", (1, 0)),
                  (1.1, "tap", (0, 0, 2, 9)), (1.2, "flood", (2, 40))],
         latency=1e-4)
@settings(max_examples=300, deadline=None)
def test_batched_arrivals_keep_the_per_message_order(program, latency):
    batched = World(Engine, latency)
    reference = World(ReferenceEngine, latency)
    assert batched.run(program) == reference.run(program)
    # the same wire, in fewer payloads — never more
    for counter in ("messages_sent", "bytes_sent"):
        assert getattr(batched.cluster.network, counter) \
            == getattr(reference.cluster.network, counter)
    assert batched.eng.events_processed <= reference.eng.events_processed


# ---------------------------------------------------------------------------
# the rules, one by one
# ---------------------------------------------------------------------------

class Sink:
    """Logs what arrives; ``then`` runs inside the delivery."""

    def __init__(self, eng, log, name="sink", then=None):
        self.eng, self.log, self.name, self.then = eng, log, name, then
        self.closed = False

    def put(self, item):
        self.log.append((self.eng.now, self.name, item))
        if self.then is not None:
            self.then(item)


def test_same_instant_arrivals_share_one_payload():
    eng, log = Engine(), []
    a, b = Sink(eng, log, "a"), Sink(eng, log, "b")
    for i in range(3):
        eng.put_at(1.0, a, i)
        eng.put_at(1.0, b, i)
    eng.put_at(2.0, a, "later")
    eng.run()
    assert log == [(1.0, "a", 0), (1.0, "b", 0), (1.0, "a", 1),
                   (1.0, "b", 1), (1.0, "a", 2), (1.0, "b", 2),
                   (2.0, "a", "later")]
    assert eng.events_processed == 2 and eng.batches == 2


def test_only_the_batch_that_ends_the_slot_is_joined():
    """A payload of its own (an event, a wake-up) ends the batch before
    it; the next call or arrival turns that payload into a new batch."""
    eng, log = Engine(), []
    sink = Sink(eng, log)
    eng.put_at(1.0, sink, "a")
    eng.call_at(1.0, lambda: log.append("joins a"))
    eng._enqueue(lambda: log.append("own payload"), 1.0)
    eng.put_at(1.0, sink, "b")          # not into the batch of "a"
    eng.put_at(1.0, sink, "c")
    (first, second) = eng._slots[(1.0, 1)]
    assert [store for store, _ in first.items] == [sink, None]
    assert [store for store, _ in second.items] == [None, sink, sink]
    eng.run()
    assert log == [(1.0, "sink", "a"), "joins a", "own payload",
                   (1.0, "sink", "b"), (1.0, "sink", "c")]
    assert eng.events_processed == 2 and eng.batches == 2


def test_a_lone_call_is_a_payload_of_its_own():
    eng, log = Engine(), []
    fn = lambda: log.append(eng.now)    # noqa: E731
    eng.call_at(1.0, fn)
    assert list(eng._slots[(1.0, 1)]) == [fn]
    eng.call_at(1.0, fn)                # the second makes them a batch
    (batch,) = eng._slots[(1.0, 1)]
    assert type(batch) is Batch and batch.items == [(None, fn), (None, fn)]
    eng.run()
    assert log == [1.0, 1.0] and eng.batches == 1


def test_put_at_lands_where_call_at_lands():
    """``now + (when - now)`` is not always ``when``: an arrival keyed
    on ``when`` would miss the slot ``call_at`` fills from the same
    instant — or join a batch one ulp away."""
    now, when = 0.2, 0.9
    twin = now + (when - now)
    assert twin != when
    eng, log = Engine(), []
    sink = Sink(eng, log)
    eng.put_at(when, sink, "from t=0")          # keyed exactly at `when`

    def at_now():
        eng.call_at(when, lambda: log.append((eng.now, "call", 1)))
        eng.put_at(when, sink, "from t=now")
        eng.call_at(when, lambda: log.append((eng.now, "call", 2)))

    eng.call_at(now, at_now)
    eng.run()
    at_twin = [(twin, "call", 1), (twin, "sink", "from t=now"),
               (twin, "call", 2)]
    at_when = [(when, "sink", "from t=0")]
    assert log == (at_twin + at_when if twin < when else at_when + at_twin)
    assert eng.batches == 2


def test_put_at_in_the_past_raises():
    eng = Engine()
    eng.call_at(1.0, lambda: None)
    eng.run()
    with pytest.raises(ValueError):
        eng.put_at(0.5, Store(eng), "late")


def test_a_receiver_closed_by_then_gets_nothing():
    eng, log = Engine(), []
    first = Sink(eng, log, "first")
    second = Sink(eng, log, "second")
    first.then = lambda item: setattr(second, "closed", True)
    store = Store(eng)
    eng.put_at(1.0, first, 1)
    eng.put_at(1.0, second, 2)          # closed between the two items
    eng.put_at(1.0, store, 3)
    eng.call_at(0.5, store.close)
    eng.run()                           # no StoreClosed from the put
    assert log == [(1.0, "first", 1)] and len(store) == 0


def test_urgent_payload_cuts_in_between_two_items():
    eng, log = Engine(), []
    sink = Sink(eng, log, then=lambda item: item == "a" and eng._enqueue(
        lambda: log.append("urgent"), 0.0, PRIORITY_URGENT))
    for item in "abc":
        eng.put_at(1.0, sink, item)
    eng.call_at(1.0, lambda: log.append("after"))
    eng.run()
    assert log == [(1.0, "sink", "a"), "urgent", (1.0, "sink", "b"),
                   (1.0, "sink", "c"), "after"]
    # the batch ran twice: the remainder parked at the head of its slot
    assert eng.events_processed == 3 and eng.batches == 1


def test_a_parked_batch_that_is_the_whole_slot_still_takes_arrivals():
    eng, log = Engine(), []
    sink = Sink(eng, log)

    def then(item):
        if item == "a":
            eng.stop()
        if item == "b":
            eng.put_at(eng.now, sink, "d")      # the slot being drained

    sink.then = then
    for item in "abc":
        eng.put_at(1.0, sink, item)
    eng.run()
    assert [row[2] for row in log] == ["a"]
    (batch,) = eng._slots[(1.0, 1)]
    assert type(batch) is Batch and batch.cursor == 1
    eng.run()
    assert [row[2] for row in log] == ["a", "b", "c", "d"]
    assert eng.batches == 2             # "d": its batch had been popped


def test_zero_latency_arrival_from_a_later_priority_preempts():
    eng, log = Engine(), []
    sink = Sink(eng, log)

    def lazy():
        log.append("lazy-1")
        eng.put_at(eng.now, sink, "x")          # NORMAL sorts before LAZY

    eng._enqueue(lazy, 1.0, LAZY)
    eng._enqueue(lambda: log.append("lazy-2"), 1.0, LAZY)
    eng.run()
    assert log == ["lazy-1", (1.0, "sink", "x"), "lazy-2"]


def test_raising_item_leaves_the_remainder_schedulable():
    eng, log = Engine(), []

    def then(item):
        if item == "b":
            raise Boom(item)

    sink = Sink(eng, log, then=then)
    for item in "abcd":
        eng.put_at(1.0, sink, item)
    eng.call_at(1.0, lambda: log.append("after"))
    with pytest.raises(Boom):
        eng.run()
    assert [row[2] for row in log] == ["a", "b"]
    eng.run()
    assert log[2:] == [(1.0, "sink", "c"), (1.0, "sink", "d"), "after"]


def test_a_batch_is_one_payload():
    eng, log = Engine(), []
    sink = Sink(eng, log)
    for item in "abc":
        eng.put_at(1.0, sink, item)
    eng.call_at(1.0, lambda: log.append("after"))
    eng.put_at(2.0, sink, "d")
    eng.run()
    assert [row if type(row) is str else row[2] for row in log] \
        == ["a", "b", "c", "after", "d"]
    assert eng.events_processed == 2 and eng.batches == 2
