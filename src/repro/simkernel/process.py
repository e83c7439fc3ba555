"""Coroutine-style simulated processes.

A :class:`Process` drives a Python generator: the generator ``yield``\\ s
:class:`~repro.simkernel.events.Event` objects and is resumed with the
event's value (or has the event's exception thrown into it).  A Process
is itself an Event that triggers when the generator finishes, so
processes can wait on each other.

Processes support the control verbs needed by the FAIL debugger model:

``suspend()`` / ``resume()``
    Freeze delivery of the wake-up (the awaited event still fires, the
    step it would have run is parked), exactly like stopping a task
    under a debugger: the rest of the world keeps moving.

``kill()``
    Terminate immediately without executing any further generator code
    (modelling ``kill -9``; OS-level cleanup like socket closure is the
    responsibility of the :mod:`repro.cluster.unixproc` layer).

A generator process is for code that *blocks mid-step* (a handshake, a
transfer, an application).  Code that only reacts to wake-ups is a
:class:`CallbackThread` — same verbs, no generator.  Either way a
wake-up is one engine payload.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.simkernel.events import Event, PRIORITY_URGENT

#: process lifecycle states
NEW = "new"
RUNNING = "running"
SUSPENDED = "suspended"
DONE = "done"
FAILED = "failed"
KILLED = "killed"


class _Start:
    """The wake-up behind a process's first step: sending ``None`` into
    a fresh generator is ``next()``."""

    _value = None
    _exc = None


_START = _Start()


class Process(Event):
    """A simulated process wrapping generator ``gen``.

    The completion event succeeds with the generator's return value on
    normal exit, succeeds with ``None`` if killed, and *fails* with the
    escaping exception if the generator raised.

    Where a step runs: the process hangs :meth:`_wake` on the event it
    yielded, and the generator is stepped right there — inside the
    awaited event's payload, at this callback's position in the event's
    callback list.  Several processes waiting on one event step in the
    order they started waiting, and a plain callback registered between
    two of them runs between their steps.  A process waits on one event
    at a time, so it has at most one wake-up outstanding: fired while
    the process is suspended it is parked, and :meth:`resume` re-issues
    it from an URGENT payload of its own — after the rest of the
    payload that called ``resume()``, ahead of anything NORMAL at that
    instant — as :meth:`CallbackThread.resume` does.
    """

    __slots__ = ("gen", "pid", "state", "result", "error", "_target",
                 "_parked")

    _next_pid = [1]

    def __init__(self, engine, gen: Generator, name: Optional[str] = None):
        super().__init__(engine, name=name or getattr(gen, "__name__", "process"))
        if not hasattr(gen, "send"):
            raise TypeError(f"Process requires a generator, got {gen!r}")
        self.gen = gen
        self.pid = Process._next_pid[0]
        Process._next_pid[0] += 1
        self.state = NEW
        self.result: Any = None
        self.error: Optional[BaseException] = None
        #: the event being waited on (its callbacks hold ``_wake``)
        self._target: Optional[Event] = None
        #: the wake-up that fired while suspended, until resumed
        self._parked: Any = None
        engine._enqueue(self._start)

    # -- public inspection ---------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the generator can still run."""
        return self.state in (NEW, RUNNING, SUSPENDED)

    # -- lifecycle -------------------------------------------------------------
    def _start(self) -> None:
        if self.state == SUSPENDED:     # debugger attach-at-launch
            self._parked = _START
        elif self.alive:
            self.state = RUNNING
            self._step(_START)

    def _wake(self, event: Event) -> None:
        """The awaited event fired (its callback): step, or park the
        wake-up if suspended.  A dead process can still be called — it
        was killed by an earlier callback of the same event."""
        state = self.state
        if state == RUNNING:
            self._target = None
            self._step(event)
        elif state == SUSPENDED:
            self._target = None
            self._parked = event

    def _unpark(self) -> None:
        # suspended again since resume() enqueued this: stays parked
        wakeup = self._parked
        if wakeup is not None and self.state == RUNNING:
            self._parked = None
            self._step(wakeup)

    def _step(self, wakeup) -> None:
        """Advance the generator by one yield."""
        try:
            if wakeup._exc is None:
                target = self.gen.send(wakeup._value)
            else:
                target = self.gen.throw(wakeup._exc)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - process crash path
            self._finish_err(err)
            return
        if not isinstance(target, Event):
            self._finish_err(TypeError(f"process {self.name!r} yielded non-Event {target!r}"))
            return
        self._target = target
        target.add_callback(self._wake)

    def _detach(self) -> None:
        if self._target is not None:
            self._target.remove_callback(self._wake)
            self._target = None

    def _finish_ok(self, value: Any) -> None:
        self.state = DONE
        self.result = value
        if not self.triggered:
            self.succeed(value)

    def _finish_err(self, err: BaseException) -> None:
        self.state = FAILED
        self.error = err
        self.engine.process_failures.append(self)
        if not self.triggered:
            self.fail(err)

    # -- control verbs ---------------------------------------------------------
    def suspend(self) -> None:
        """Debugger 'stop': freeze wakeup delivery; world keeps moving."""
        if self.alive:
            self.state = SUSPENDED

    def resume(self) -> None:
        """Debugger 'continue': re-issue the wake-up parked while stopped."""
        if self.state == SUSPENDED:
            self.state = RUNNING
            if self._parked is not None:
                self.engine._enqueue(self._unpark, 0.0, PRIORITY_URGENT)

    def kill(self) -> None:
        """Terminate without executing further generator code."""
        if not self.alive:
            return
        self.state = KILLED
        self._detach()
        self._parked = None
        # Close without running finally-blocks' sim-yields: generator
        # close() raises GeneratorExit at the suspension point; any
        # attempt to yield during cleanup raises RuntimeError which we
        # swallow — matching SIGKILL's "no user-space cleanup".
        try:
            self.gen.close()
        except (RuntimeError, ValueError):
            # ValueError: closing a generator that is currently
            # executing (a thread killing its own process); the frame
            # finishes its current step and never resumes.
            pass
        if not self.triggered:
            self.succeed(None)

    def dispose(self) -> None:
        """Break this (finished) process's reference cycles — the
        generator frame, the waited-on event, a parked wakeup — so
        teardown can reclaim it by refcount (see
        ``VclRuntime.dispose``).  The process is unusable afterwards."""
        self.gen = None
        self._detach()      # a never-fired target and our wake-up name each other
        self._parked = None
        self.callbacks = None

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<Process pid={self.pid} {self.name!r} {self.state}>"


class CallbackThread:
    """A thread of control made of callbacks instead of a generator.

    For code that never blocks *inside* a step — it reacts to one
    wake-up (an item, a connection outcome, a timer) and returns — the
    generator and the wake-up ``Event`` of a :class:`Process` are pure
    overhead.  A callback thread is its own engine payload: whoever
    wakes it enqueues the object (or calls it from inside the waking
    event's payload), and :meth:`_run` does the step.  It keeps the
    control verbs a ``UnixProcess`` needs of its threads, with
    :class:`Process` semantics:

    * the first step runs from a NORMAL payload scheduled at
      construction (where ``Process._start`` ran) — by the tail rule,
      so threads built back to back start in one payload;
    * ``kill()`` turns every pending or later wake-up into a no-op;
    * ``suspend()`` parks a wake-up that fires meanwhile and
      ``resume()`` re-issues it at URGENT, as ``Process.resume`` does;
    * a step that raises ends the thread, lands it in
      ``engine.process_failures`` and reports to ``on_error`` from a
      NORMAL payload (where the failed process event was processed).

    Subclasses keep what the next step should do in their own fields;
    :class:`repro.simkernel.store.Reader` is the socket-reading one.
    """

    __slots__ = ("engine", "on_error", "alive", "suspended", "error",
                 "_parked")

    def __init__(self, engine, on_error=None, start: bool = True):
        self.engine = engine
        self.on_error = on_error
        self.alive = True
        self.suspended = False
        self.error: Optional[BaseException] = None
        self._parked = False
        if start:
            engine._schedule(0.0, None, self)

    @property
    def name(self) -> str:
        return type(self).__name__

    def __call__(self) -> None:
        if not self.alive:
            return
        if self.suspended:
            self._parked = True
            return
        try:
            self._run()
        except Exception as err:
            self._crash(err)

    def _run(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _crash(self, err: BaseException) -> None:
        self.kill()
        self.error = err
        self.engine.process_failures.append(self)
        on_error = self.on_error
        if on_error is not None:
            self.engine._enqueue(lambda: on_error(err))

    def suspend(self) -> None:
        if self.alive:
            self.suspended = True

    def resume(self) -> None:
        if self.suspended:
            self.suspended = False
            if self._parked:
                self._parked = False
                self.engine._enqueue(self, 0.0, PRIORITY_URGENT)

    def kill(self) -> None:
        self.alive = False
        self.suspended = False

    def dispose(self) -> None:
        """Teardown-only cycle breaking; subclasses drop their own
        references too.  Dead, but not ``kill()``: a deployment has
        thousands of these, so teardown clears fields and
        makes no calls."""
        self.alive = self.suspended = False
        self.on_error = None

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        state = "alive" if self.alive else "dead"
        return f"<{type(self).__name__} {self.name} {state}>"
