"""Event primitives for the discrete-event kernel.

Events are the only things a simulated process may ``yield``.  An event
is *triggered* exactly once, either successfully (:meth:`Event.succeed`)
with a value, or unsuccessfully (:meth:`Event.fail`) with an exception.
Triggering enqueues the event on the engine's heap at the current
simulated time; its callbacks run when the engine pops it, which keeps
the global event order total and deterministic.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

#: Heap priority classes.  Lower sorts first among events at equal time.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence in simulated time.

    Parameters
    ----------
    engine:
        The owning :class:`repro.simkernel.engine.Engine`.
    name:
        Optional label used in traces and reprs.
    """

    __slots__ = ("engine", "name", "callbacks", "_value", "_exc", "_triggered", "_processed")

    def __init__(self, engine, name: Optional[str] = None):
        self.engine = engine
        self.name = name
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the engine has run this event's callbacks."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        """The success value, or raise the failure exception."""
        if not self._triggered:
            raise RuntimeError(f"value of untriggered event {self!r}")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise RuntimeError(f"event {self!r} already triggered")
        self._triggered = True
        self._value = value
        self.engine._enqueue(self, 0.0, priority)
        return self

    def fail(self, exc: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event with an exception ``exc``."""
        if self._triggered:
            raise RuntimeError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exc = exc
        self.engine._enqueue(self, 0.0, priority)
        return self

    # -- callback plumbing ---------------------------------------------------
    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb`` to run when this event is processed.

        If the event was already processed the callback is scheduled to
        run at the current time (so late subscribers never miss it).
        """
        if self.callbacks is None:
            # Already processed: deliver asynchronously but immediately.
            self.engine._enqueue(lambda: cb(self))
        else:
            self.callbacks.append(cb)

    def remove_callback(self, cb: Callable[["Event"], None]) -> None:
        if self.callbacks is not None and cb in self.callbacks:
            self.callbacks.remove(cb)

    def _process(self) -> None:
        """Run callbacks (engine-internal)."""
        if self._processed:
            return
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks or ():
            cb(self)

    #: the engine dispatches every slot payload with ``payload()`` —
    #: aliasing keeps Events and bare callables on one uniform hot
    #: path (no per-event isinstance)
    __call__ = _process

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        label = self.name or self.__class__.__name__
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{label} {state} at t={getattr(self.engine, 'now', '?')}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine, delay: float, value: Any = None, name: Optional[str] = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        # no eager f-string label: one Timeout per sleep/transfer makes
        # this a hot path, and __repr__ falls back to the class name
        super().__init__(engine, name=name)
        self.delay = delay
        self._triggered = True
        self._value = value
        engine._enqueue(self, delay)
