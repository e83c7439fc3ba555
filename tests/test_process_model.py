"""``Process`` against the wake-up path it replaced.

A :class:`~repro.simkernel.process.Process` steps its generator inside
the awaited event's payload.  It used to queue the wake-up in a
per-process inbox and step from an URGENT payload of its own, right
behind the event.  Nothing can run between an event's payload and the
URGENT slot it creates, so the two give the same history — with one
carved-out case: a *plain* callback registered on an event **after** a
waiting process ran before that process's step under deferred dispatch
and runs after it in place.  No code under ``src/`` does that
(``spawn_thread``'s exit callback is registered at spawn, ahead of any
waiter, which is what ``on_exit`` mirrors here, and a mesh dial takes
its connection outcome without an event), so the model's programs do not
either, and ``tests/test_simkernel_process.py`` pins the in-place order
for that case on its own.

The oracle: hypothesis programs of timeouts, store gets, waits on shared
events (several waiters each, some already processed, some failing),
process-on-process waits, and ``kill`` / ``suspend`` / ``resume`` / ``put``
/ ``close`` / ``fire`` issued from plain payloads *and* from inside
steps, run through ``Process`` and through ``DeferredProcess`` — the
inbox-and-hop path, kept here as the reference — with identical
``(now, process, value)`` logs required.
"""

from collections import deque

from hypothesis import example, given, settings, strategies as st

from repro.simkernel.engine import Engine
from repro.simkernel.events import Event, PRIORITY_URGENT
from repro.simkernel.process import Process
from repro.simkernel.store import Store, StoreClosed


class DeferredProcess(Event):
    """The reference: every wake-up goes through ``_inbox`` and is
    stepped by an URGENT ``_dispatch`` payload."""

    def __init__(self, engine, gen):
        super().__init__(engine)
        self.gen = gen
        self.state = "new"
        self._target = self._target_cb = None
        self._inbox = deque()
        self._dispatch_scheduled = False
        self._started = False
        engine._enqueue(self._start)

    @property
    def alive(self):
        return self.state in ("new", "running", "suspended")

    def _start(self):
        if not self.alive:
            return
        self._started = True
        if self.state == "suspended":
            self._inbox.appendleft(None)
            return
        self.state = "running"
        self._step(None)

    def _step(self, event):
        try:
            if event is None:
                target = next(self.gen)
            elif event._exc is None:
                target = self.gen.send(event._value)
            else:
                target = self.gen.throw(event._exc)
        except StopIteration as stop:
            self.state = "done"
            if not self.triggered:
                self.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - process crash path
            self.state = "failed"
            self.engine.process_failures.append(self)
            if not self.triggered:
                self.fail(err)
            return
        self._target = target

        def _cb(ev):
            if self._target is target:
                self._target = self._target_cb = None
            self._inbox.append(ev)
            self._maybe_dispatch()

        self._target_cb = _cb
        target.add_callback(_cb)

    def _maybe_dispatch(self):
        if (self.state in ("new", "running") and self._inbox
                and not self._dispatch_scheduled and self._started):
            self._dispatch_scheduled = True
            self.engine._enqueue(self._dispatch, 0.0, PRIORITY_URGENT)

    def _dispatch(self):
        self._dispatch_scheduled = False
        if self.state not in ("new", "running") or not self._inbox:
            return
        self._step(self._inbox.popleft())
        self._maybe_dispatch()

    def suspend(self):
        if self.alive:
            self.state = "suspended"

    def resume(self):
        if self.state == "suspended":
            self.state = "running"
            self._maybe_dispatch()

    def kill(self):
        if not self.alive:
            return
        self.state = "killed"
        if self._target is not None:
            self._target.remove_callback(self._target_cb)
        self._target = self._target_cb = None
        self._inbox.clear()
        try:
            self.gen.close()
        except (RuntimeError, ValueError):
            pass
        if not self.triggered:
            self.succeed(None)


class Boom(Exception):
    pass


class World:
    """Two stores, three shared one-shot events, processes numbered in
    spawn order, one log.  ``spawn(engine, gen)`` says what a process is
    made of; everything else is shared."""

    def __init__(self, spawn):
        self.spawn_process = spawn
        self.eng = Engine(seed=0)
        self.log = []
        self.procs = []
        self.stores = [Store(self.eng, name=f"s{i}") for i in range(2)]
        self.events = [self.eng.event() for _ in range(3)]

    def probe(self, who, value):
        self.log.append((self.eng.now, who, value))

    # -- verbs that do not block: from a plain payload or inside a step ----
    def put(self, store, value):
        if not self.stores[store].closed:
            self.stores[store].put(value)

    def close(self, store):
        self.stores[store].close()

    def fire(self, event, ok):
        ev = self.events[event]
        if not ev.triggered:
            ev.succeed(f"e{event}") if ok else ev.fail(Boom())

    def control(self, verb, idx):
        if idx < len(self.procs):
            getattr(self.procs[idx], verb)()

    def after(self, priority, tag):
        self.eng._enqueue(lambda: self.probe("payload", tag), 0.0, priority)

    def spawn(self, script, exit_kills):
        idx = len(self.procs)
        proc = self.spawn_process(self.eng, self.body(idx, script))
        self.procs.append(proc)

        def on_exit(ev):            # first in the list, as _thread_done is
            self.probe(idx, "exit" if ev.ok else "crash")
            if exit_kills is not None:
                self.control("kill", exit_kills)

        proc.add_callback(on_exit)

    # -- what a process does --------------------------------------------------
    def body(self, idx, script):
        for verb, *args in script:
            try:
                if verb == "sleep":
                    value = yield self.eng.timeout(args[0], value=args[0])
                elif verb == "get":
                    value = yield self.stores[args[0]].get()
                elif verb == "wait":
                    value = yield self.events[args[0]]
                elif verb == "join":
                    if args[0] == idx or args[0] >= len(self.procs):
                        continue
                    value = yield self.procs[args[0]]
                elif verb == "raise":
                    raise RuntimeError("step crashed")
                else:
                    value = (verb, getattr(self, verb)(*args))
            except (StoreClosed, Boom) as err:
                value = type(err).__name__
            self.probe(idx, value)
        return idx

    def run(self, program):
        for when, verb, args in program:
            self.eng.call_at(when, lambda verb=verb, args=args:
                             getattr(self, verb)(*args))
        self.eng.run(until=12.0)
        return self.log


def in_place(program):
    return World(Process).run(program)


def deferred(program):
    return World(DeferredProcess).run(program)


_idx = st.integers(0, 4)
_nonblocking = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 1), st.integers(0, 9)),
    st.tuples(st.just("close"), st.integers(0, 1)),
    st.tuples(st.just("fire"), st.integers(0, 2), st.booleans()),
    st.tuples(st.just("control"),
              st.sampled_from(["kill", "suspend", "resume", "resume"]), _idx),
    st.tuples(st.just("after"), st.sampled_from([PRIORITY_URGENT, 1]),
              st.integers(0, 99)),
)
_blocking = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 0.5, 1.0, 1.0])),
    st.tuples(st.just("get"), st.integers(0, 1)),
    st.tuples(st.just("wait"), st.integers(0, 2)),
    st.tuples(st.just("join"), _idx),
)
_script = st.lists(st.one_of(_blocking, _blocking, _nonblocking,
                             st.just(("raise",))), max_size=6)
_spawn = st.tuples(st.just("spawn"), _script, st.one_of(st.none(), _idx))
_times = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 2.0, 3.0])
_program = st.lists(
    st.tuples(_times, st.one_of(_spawn, _spawn, _nonblocking)).map(
        lambda t: (t[0], t[1][0], t[1][1:])), max_size=30)

#: every mechanism at colliding instants; also the fixed program below
_EVERYTHING = [
    (0.0, "spawn", ([("wait", 0), ("sleep", 1.0)], 4)),                 # 0
    (0.0, "spawn", ([("wait", 0), ("control", "kill", 2),
                     ("control", "suspend", 3), ("after", 0, 1)], None)),  # 1
    (0.0, "spawn", ([("wait", 0), ("sleep", 0.0)], None)),              # 2
    (0.0, "spawn", ([("wait", 0), ("get", 0), ("get", 0)], None)),      # 3
    (0.0, "spawn", ([("sleep", 0.5), ("join", 0), ("wait", 1)], None)),  # 4
    (0.0, "spawn", ([("sleep", 1.5), ("control", "resume", 3),
                     ("control", "suspend", 3)], None)),    # 5: stays parked
    (0.0, "control", ("suspend", 4)),           # before its _start payload
    (0.5, "control", ("resume", 4)),
    (1.0, "fire", (0, True)),                   # four waiters, one payload
    (1.0, "after", (1, 2)),
    (1.0, "put", (0, 7)),
    (2.0, "control", ("resume", 3)),
    (2.0, "after", (1, 3)),                     # the resumed step runs first
    (2.0, "close", (0,)),
    (3.0, "fire", (1, False)),                  # 4 is dead by now
    (3.0, "spawn", ([("wait", 0), ("wait", 1), ("raise",)], None)),     # 6
]


@given(program=_program)
@example(program=_EVERYTHING)
@example(program=[(0.0, "spawn", ([("sleep", 1.0)], None)),
                  (0.0, "control", ("suspend", 0)),
                  (0.0, "control", ("resume", 0))])  # resumed before _start
@example(program=[(0.0, "spawn", ([("sleep", 1.0), ("sleep", 1.0)], None)),
                  (0.5, "control", ("suspend", 0)),
                  (1.0, "control", ("resume", 0)),   # same instant as the wake-up,
                  (1.0, "after", (1, 0))])           # queued ahead of it
@example(program=[(0.0, "spawn", ([("sleep", 1.0)] * 3, None)),
                  (0.5, "control", ("suspend", 0)),
                  (1.5, "control", ("resume", 0)),   # the parked wake-up ...
                  (1.75, "control", ("suspend", 0)),
                  (2.0, "control", ("resume", 0))])  # ... is issued once
@settings(max_examples=500, deadline=None)
def test_in_place_and_deferred_dispatch_log_the_same_history(program):
    assert in_place(program) == deferred(program)


def test_the_model_program_space_reaches_every_rule():
    """The fixed program above really does what its comments say —
    fails loudly if the worlds stop exercising what they claim to."""
    log = in_place(_EVERYTHING)
    assert log == deferred(_EVERYTHING)
    at = {}
    for now, who, value in log:
        at.setdefault((who, value if not isinstance(value, tuple)
                       else value[:2]), now)
    assert at[(0, "e0")] == at[(1, "e0")] == 1.0        # co-waiters of e0
    assert (2, "e0") not in at and (2, "exit") in at    # killed by 1's step
    assert at[(3, "e0")] == 2.0                         # suspended by 1's step
    order = [(who, value) for _, who, value in log]
    assert order.index((3, "e0")) < order.index(("payload", 3))
    assert order.index(("payload", 1)) < order.index(("payload", 2))
    assert at[(3, 7)] == 2.0 and at[(3, "StoreClosed")] == 2.0
    assert at[(4, 0.5)] == 1.0                          # first step at 0.5
    assert (4, 0) not in at and at[(4, "exit")] == 2.0  # killed as 0 exits
    assert at[(6, "e0")] == 3.0 and at[(6, "Boom")] == 3.0
    assert at[(6, "crash")] == 3.0
