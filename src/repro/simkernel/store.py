"""FIFO message stores (the kernel-level queue behind sockets).

A :class:`Store` decouples producers and consumers: ``put`` never
blocks (the queue is unbounded), ``get`` returns an Event the
consumer yields on.  Closing a store wakes every pending getter with
:class:`StoreClosed` and makes further gets fail immediately — this is
the primitive the socket layer maps TCP connection-closure onto.

A store has two kinds of consumer.  Code that *blocks between reads*
(a handshake, a transfer, an application) is a generator process and
yields on ``get()``.  Code that only ever loops ``item = yield
store.get(); handle(item)`` is a :class:`Reader`: the same loop with
the generator and its wake-up ``Event`` taken out.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.simkernel.events import Event
from repro.simkernel.process import CallbackThread


class StoreClosed(Exception):
    """The store was closed; no further items will ever arrive."""


class Store:
    """Deterministic FIFO queue of items with event-based ``get``.

    One per end of every service connection, most of them served by a
    :class:`Reader` that takes each item as it comes: the instance is
    slotted, the item and getter queues exist only while something has
    to wait in them, and a socket's store is named by its connection
    id alone (formatted on first read).
    """

    __slots__ = ("engine", "_label", "items", "_getters", "_reader",
                 "closed")

    def __init__(self, engine, name=None):
        self.engine = engine
        self._label = name or "store"
        #: buffered items / waiting getter events; None while empty
        self.items: Optional[Deque[Any]] = None
        self._getters: Optional[Deque[Event]] = None
        #: the :class:`Reader` waiting for the next item, if one is
        self._reader: Optional["Reader"] = None
        self.closed = False

    @property
    def name(self) -> str:
        label = self._label
        if type(label) is int:
            label = self._label = f"sock#{label}"
        return label

    def __len__(self) -> int:
        return len(self.items) if self.items else 0

    def put(self, item: Any) -> None:
        """Append ``item``; wakes the oldest waiting getter if any.

        Raises :class:`StoreClosed` if the store has been closed.
        """
        if self.closed:
            raise StoreClosed(f"put on closed store {self.name!r}")
        # Hand the item straight to a waiting getter, preserving FIFO
        # order between queued items and queued getters.
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        reader = self._reader
        if reader is not None:
            # one payload, enqueued exactly where the getter Event of
            # a generator loop would have been
            self._reader = None
            reader._item = item
            reader._pending = _ITEM
            self.engine._enqueue(reader)
        elif self.items is None:
            self.items = deque((item,))
        else:
            self.items.append(item)

    def get(self) -> Event:
        """Return an event that yields the next item (or fails Closed)."""
        # Direct construction with the store's own name: get() runs
        # once per message and a per-call f-string label would be pure
        # allocation overhead on the hot path.
        ev = Event(self.engine, name=self.name)
        items = self.items
        if items:
            ev.succeed(items.popleft())
            if not items:
                self.items = None
        elif self.closed:
            ev.fail(StoreClosed(f"get on closed store {self.name!r}"))
        elif self._getters is None:
            self._getters = deque((ev,))
        else:
            self._getters.append(ev)
        return ev

    def get_nowait(self) -> Any:
        """Pop an item immediately; raises ``IndexError`` if empty."""
        if not self.items:
            raise IndexError(f"get_nowait on empty store {self.name!r}")
        return self.items.popleft()

    def close(self) -> None:
        """Close: drained items stay readable=False (we fail getters).

        Matching TCP reset-on-kill semantics: pending and future reads
        fail with :class:`StoreClosed` even if unread bytes existed.
        """
        if self.closed:
            return
        self.closed = True
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if not getter.triggered:
                getter.fail(StoreClosed(f"store {self.name!r} closed"))
        reader = self._reader
        if reader is not None:
            self._reader = None
            reader._closed()
        self.items = None

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Store {self.name!r} items={len(self)} "
                f"getters={len(self._getters or ())} closed={self.closed}>")


#: what a reader's enqueued payload will do when the engine runs it
_START, _ITEM, _CLOSE = range(3)


class Reader(CallbackThread):
    """``while True: on_item((yield store.get()))`` without the generator.

    A :class:`~repro.simkernel.process.CallbackThread` whose wake-ups
    are the store's.  It mirrors, slot position for slot position, what
    a generator loop on the same store did:

    * it first looks at the store in the NORMAL payload scheduled at
      construction;
    * an item put while it waits is handed over in one NORMAL payload
      enqueued by :meth:`Store.put` (where the getter ``Event`` was),
      and the handler runs inside that payload, as the generator's
      step does;
    * an item put while a payload is pending or the handler runs waits
      in ``store.items`` and is enqueued only when the handler returns;
    * a store closed while it waits (or found closed when the handler
      returns) runs ``on_close`` in a NORMAL payload of its own, where
      the ``StoreClosed`` wake-up was — and nothing at all when
      ``on_close`` is None (the loop that simply returned).  An item
      already handed over is still delivered first;
    * ``kill()`` also detaches it from the store.

    A running handler may :meth:`retarget` its reader; the change takes
    effect when the handler returns.
    """

    __slots__ = ("store", "on_item", "on_close", "_pending", "_item")

    def __init__(self, engine, store: Store,
                 on_item: Callable[[Any], None],
                 on_close: Optional[Callable[[], None]] = None,
                 on_error: Optional[Callable[[BaseException], None]] = None):
        self.store = store
        self.on_item = on_item
        self.on_close = on_close
        self._pending = _START
        self._item: Any = None
        super().__init__(engine, on_error)

    @property
    def name(self) -> str:
        handler = getattr(self.on_item, "__qualname__", repr(self.on_item))
        return f"{handler}@{getattr(self.store, 'name', None)}"

    def retarget(self, on_item: Callable[[Any], None],
                 on_close: Optional[Callable[[], None]] = None,
                 store: Optional[Store] = None) -> None:
        """Swap the handlers (and, with ``store``, the queue read next).
        Only from this reader's own running handler."""
        self.on_item = on_item
        self.on_close = on_close
        if store is not None:
            self.store = store

    def __call__(self) -> None:
        if not self.alive:
            return
        if self.suspended:
            self._parked = True
            return
        pending = self._pending
        try:
            if pending == _ITEM:
                item, self._item = self._item, None
                self.on_item(item)
            elif pending == _CLOSE:
                store = self.store
                self.on_close()
                if self.store is store:
                    self.kill()         # not retargeted: the loop is over
        except Exception as err:
            self._crash(err)
            return
        if not self.alive:
            return
        # the loop's next ``yield store.get()``
        store = self.store
        items = store.items
        if items:
            self._item = items.popleft()
            if not items:
                store.items = None
            self._pending = _ITEM
            self.engine._enqueue(self)
        elif store.closed:
            self._closed()
        elif store._reader is None:
            store._reader = self
        else:
            self._crash(RuntimeError(f"two readers on store {store.name!r}"))

    def _closed(self) -> None:
        if self.on_close is None:
            self.kill()
        else:
            self._pending = _CLOSE
            self.engine._enqueue(self)

    def kill(self) -> None:
        super().kill()
        self._item = None
        store = self.store
        if store is not None and store._reader is self:
            store._reader = None

    def dispose(self) -> None:
        """Drop the store and handler references (the ``reader <->
        store`` and closure cycles) when the owning process dies."""
        super().dispose()
        self.store = self.on_item = self.on_close = self._item = None
