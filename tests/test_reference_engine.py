"""The slotted engine against the one-heap reference (``reference_engine``).

A hypothesis state machine drives two worlds in lockstep — one on
:class:`~repro.simkernel.engine.Engine`, one on
:class:`ReferenceEngine` — with the same random program: ``call_at`` /
``call_later`` / ``put_at`` payloads, sends and ``send_all`` floods over
real sockets (sizes that split arrivals across instants, and a
zero-latency fabric where a send lands in the instant it was made),
closes, and process suspend / resume / kill — at colliding instants —
and readers spawned mid-program on sockets that may already hold
messages, have arrivals in flight or belong to a suspended process.
Handlers answer with zero-size echoes, same-instant NORMAL and URGENT
payloads, closes, ``stop()`` and crashes.  After every step the two logs
must be equal: the slots, the batches (:meth:`Engine._schedule`'s tail
rule) and ``send_all`` are invisible in the history.  A spawn runs at
an instant of its own, ``SPAWN_AT`` past a step — alone, or right after
a zero-size flood whose echoes keep arrivals in flight through it.

Mutants this kills (each checked on a copy of the tree): a call joining a
batch that is not its slot's tail; ``send_all`` reading the first
socket's pipe for all of them, or appending an arrival to the previous
one's batch at another instant; a batch that ignores ``_preempt``.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule)

from reference_engine import ReferenceEngine
from repro.cluster.cluster import Cluster
from repro.simkernel.engine import Engine
from repro.simkernel.events import PRIORITY_URGENT
from repro.simkernel.store import Reader, Store

#: at 1e6 B/s: 0, 1e-4 s, ~1e-3 s and 0.1 s on the wire
SIZES = (0, 100, 1024, 100_000)
#: when a program verb runs, from the current instant
OFFSETS = (0.0, 0.0, 1e-4, 2e-4, 1e-3, 0.1)
#: when a reader is spawned: an instant no other verb, and (steps and
#: transfer times being multiples of 1e-4 and 2.4e-5) no arrival but a
#: same-instant flood's, can share
SPAWN_AT = 5e-5
#: a flood whose handlers close and suspend nothing, echoes included
QUIET = 0


class Boom(Exception):
    pass


class World:
    """Three processes on three nodes and four connections into ``p0`` —
    the four server ends read from the start, the four client ends (of
    ``p1`` and ``p2``) only once the program spawns a reader — plus a
    plain store read from the start; one log."""

    def __init__(self, engine_cls, latency):
        self.eng = eng = engine_cls(seed=0)
        self.slotted = engine_cls is not ReferenceEngine
        self.cluster = Cluster(eng, 3, latency=latency, bandwidth=1e6)
        self.log = []
        self.stopped = False
        self.ends = []          # (name, owner, socket), in accept order
        self.readers = {}

        def forever(proc):
            yield eng.event()

        self.procs = [self.cluster.node(i).spawn(f"p{i}", forever)
                      for i in range(3)]
        listener = self.cluster.node(0).listen(1, owner=self.procs[0])
        self.procs[0].spawn_reader(listener, self.accepted)
        for src in (1, 2, 1, 2):
            proc = self.procs[src]
            self.cluster.node(src).connect(listener.addr, owner=proc) \
                .add_callback(lambda ev, proc=proc: self.ends.append(
                    (f"c{ev.value.conn_id}", proc, ev.value)))
        self.plain = Store(eng, name="plain")
        Reader(eng, self.plain, lambda item: self.handle("plain", item))
        eng.run(until=1.0)
        assert len(self.ends) == 8
        self.clients = [i for i, e in enumerate(self.ends) if e[0][0] == "c"]

    def accepted(self, sock):
        name = f"s{sock.conn_id}"
        self.ends.append((name, self.procs[0], sock))
        self.readers[name] = self.procs[0].spawn_reader(
            sock, lambda item: self.handle(name, item),
            lambda: self.probe(name, "closed"))

    def probe(self, *what):
        self.log.append((self.eng.now,) + what)

    def end(self, i):
        return self.ends[i % len(self.ends)]

    # -- what every reader does with an item ---------------------------------
    def handle(self, name, item):
        self.probe(name, item)
        eng = self.eng
        tag, n = item
        if n % 3 == 0:
            # a zero-size echo: at zero latency it lands in this instant
            if name == "plain":
                eng.put_at(eng.now, self.plain, ("e" + tag, n + 1))
            else:
                sock = dict((e[0], e[2]) for e in self.ends)[name]
                if not sock.closed:
                    sock.send(("e" + tag, n + 1), size=0)
        if n % 4 == 1:
            eng.call_later(0.0, lambda: self.probe("normal-after", item))
        if n % 5 == 2:
            eng._enqueue(lambda: self.probe("urgent-after", item), 0.0,
                         PRIORITY_URGENT)
        if n % 7 == 3:
            self.close(n)
        if n % 11 == 5:
            self.stopped = True
            eng.stop()
        if n % 13 == 6:
            raise Boom(item)            # the reader crashes, its process dies
        if n % 17 == 7:
            self.procs[n % 3].suspend()
        if n % 19 in (8, 9):
            self.procs[n % 3].resume_all()

    # -- the program's verbs ---------------------------------------------------
    def at(self, offset, verb, *args):
        self.eng.call_at(self.eng.now + offset,
                         lambda: getattr(self, verb)(*args))

    def call(self, n):
        self.probe("call", n)

    def later(self, n):
        self.eng.call_later(0.0, lambda: self.probe("later", n))

    def put(self, when, count, n):
        for i in range(count):
            self.eng.put_at(self.eng.now + when, self.plain, ("t", n + i))

    def send(self, i, size, count, n):
        sock = self.end(i)[2]
        for k in range(count):
            if not sock.closed:
                sock.send(("m", n + k), size=SIZES[size])

    def flood(self, size, n):
        # the reference floods one send at a time: send_all must be
        # that loop (each socket's pipe its own) with the rest done once
        socks = [e[2] for e in self.ends]
        if self.slotted:
            self.cluster.network.send_all(socks, ("f", n), size=SIZES[size])
            return
        for sock in socks:
            if not sock.closed:
                sock.send(("f", n), size=SIZES[size])

    def spawn(self, i):
        name, proc, sock = self.end(self.clients[i % len(self.clients)])
        if name in self.readers or not proc.state.alive:
            return

        def on_item(item):
            self.handle(name, item)

        def on_close():
            self.probe(name, "closed")

        self.readers[name] = proc.spawn_reader(sock, on_item, on_close)

    def close(self, i):
        self.end(i)[2].close()

    def control(self, verb, i):
        getattr(self.procs[i], verb)()
        # a NORMAL payload right behind: a wake-up the verb re-issues
        # (URGENT) must run before it, one it merely enables after it
        self.eng.call_later(0.0, lambda: self.probe("after", verb, i))

    def advance(self, dt):
        target = self.eng.now + dt
        while True:
            self.stopped = False
            self.eng.run(until=target)
            if not self.stopped:
                return
            self.probe("stopped")


_offsets = st.sampled_from(OFFSETS)
_n = st.integers(0, 400)


class SlottedVersusReference(RuleBasedStateMachine):
    @initialize(latency=st.sampled_from([0.0, 0.0, 1e-4]))
    def build(self, latency):
        self.worlds = (World(Engine, latency), World(ReferenceEngine, latency))

    def each(self, verb, *args):
        for world in self.worlds:
            world.at(*args[:1], verb, *args[1:])

    @rule(offset=_offsets, n=_n)
    def call(self, offset, n):
        self.each("call", offset, n)

    @rule(offset=_offsets, n=_n)
    def later(self, offset, n):
        self.each("later", offset, n)

    @rule(offset=_offsets, when=st.sampled_from([0.0, 0.0, 1e-4]),
          count=st.integers(1, 4), n=_n)
    def put(self, offset, when, count, n):
        self.each("put", offset, when, count, n)

    @rule(offset=_offsets, end=st.integers(0, 7), size=st.integers(0, 3),
          count=st.integers(1, 4), n=_n)
    def send(self, offset, end, size, count, n):
        self.each("send", offset, end, size, count, n)

    @rule(offset=_offsets, size=st.integers(0, 3), n=_n)
    def flood(self, offset, size, n):
        self.each("flood", offset, size, n)

    @rule(end=st.integers(0, 3), flood_first=st.booleans())
    def spawn(self, end, flood_first):
        if flood_first:
            self.each("flood", SPAWN_AT, 0, QUIET)
        self.each("spawn", SPAWN_AT, end)

    @rule(offset=_offsets, end=st.integers(0, 7))
    def close(self, offset, end):
        self.each("close", offset, end)

    @rule(offset=_offsets,
          verb=st.sampled_from(["suspend", "resume_all", "resume_all", "kill"]),
          proc=st.integers(0, 2))
    def control(self, offset, verb, proc):
        self.each("control", offset, verb, proc)

    @rule(offset=_offsets, proc=st.integers(1, 2),
          length=st.sampled_from([1e-4, 2e-4, 0.01, 0.5]))
    def pause(self, offset, proc, length):
        """A debugger stop and continue of one client process."""
        self.each("control", offset, "suspend", proc)
        self.each("control", offset + length, "resume_all", proc)

    @rule(dt=st.sampled_from([0.0, 1e-4, 2e-4, 0.01, 0.5]))
    def advance(self, dt):
        for world in self.worlds:
            world.advance(dt)

    @invariant()
    def same_history(self):
        slotted, reference = self.worlds
        assert slotted.log == reference.log
        assert slotted.eng.now == reference.eng.now

    def teardown(self):
        if hasattr(self, "worlds"):
            self.advance(5.0)
            self.same_history()


SlottedVersusReference.TestCase.settings = settings(
    max_examples=800, stateful_step_count=40, deadline=None)
test_slotted_engine_dispatches_in_reference_order = \
    SlottedVersusReference.TestCase
