"""Unit tests for stores."""

import pytest

from repro.simkernel.engine import Engine
from repro.simkernel.store import Reader, Store, StoreClosed


def test_store_fifo_order():
    eng = Engine(seed=0)
    store = Store(eng)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    eng.process(consumer())
    for i in range(3):
        eng.call_later(float(i), lambda i=i: store.put(i))
    eng.run()
    assert got == [0, 1, 2]


def test_store_buffers_when_no_getter():
    eng = Engine(seed=0)
    store = Store(eng)
    store.put("x")
    store.put("y")
    assert len(store) == 2
    assert store.get_nowait() == "x"


def test_store_get_nowait_empty_raises():
    eng = Engine(seed=0)
    store = Store(eng)
    with pytest.raises(IndexError):
        store.get_nowait()


def test_store_close_wakes_getters_with_error():
    eng = Engine(seed=0)
    store = Store(eng)
    outcome = []

    def consumer():
        try:
            yield store.get()
        except StoreClosed:
            outcome.append("closed")

    eng.process(consumer())
    eng.call_later(1.0, store.close)
    eng.run()
    assert outcome == ["closed"]


def test_store_put_after_close_raises():
    eng = Engine(seed=0)
    store = Store(eng)
    store.close()
    with pytest.raises(StoreClosed):
        store.put(1)


def test_store_get_after_close_fails_event():
    eng = Engine(seed=0)
    store = Store(eng)
    store.close()
    caught = []

    def consumer():
        try:
            yield store.get()
        except StoreClosed:
            caught.append(True)

    eng.process(consumer())
    eng.run()
    assert caught == [True]


def test_close_is_idempotent():
    eng = Engine(seed=0)
    store = Store(eng)
    store.close()
    store.close()


def test_many_getters_fifo_wakeup():
    eng = Engine(seed=0)
    store = Store(eng)
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item))

    for tag in "abc":
        eng.process(consumer(tag))
    eng.call_later(1.0, lambda: [store.put(i) for i in range(3)])
    eng.run()
    assert got == [("a", 0), ("b", 1), ("c", 2)]


# -- a store allocates its queues, and formats its label, on first use ------

def test_unused_store_has_no_queues_and_still_answers():
    eng = Engine(seed=0)
    store = Store(eng)
    assert store.items is None and store._getters is None
    assert len(store) == 0 and not store
    with pytest.raises(IndexError):
        store.get_nowait()
    assert not hasattr(store, "__dict__")


def test_first_put_and_first_get_allocate_their_queue_only():
    eng = Engine(seed=0)
    buffered, awaited = Store(eng), Store(eng)
    buffered.put("x")
    assert list(buffered.items) == ["x"] and buffered._getters is None
    assert len(buffered) == 1 and buffered
    getter = awaited.get()
    assert list(awaited._getters) == [getter] and awaited.items is None
    awaited.put("y")                    # straight to the getter
    assert awaited.items is None and getter.value == "y"


def test_a_reader_served_store_never_allocates():
    eng = Engine(seed=0)
    store = Store(eng)
    got = []
    Reader(eng, store, got.append)
    for i in range(3):
        eng.call_later(float(i + 1), lambda i=i: store.put(i))
    eng.run()
    assert got == [0, 1, 2]
    assert store.items is None and store._getters is None


def test_close_and_dispose_of_a_never_used_store():
    eng = Engine(seed=0)
    closed, disposed = Store(eng), Store(eng)
    closed.close()
    assert closed.closed and len(closed) == 0
    with pytest.raises(StoreClosed):
        closed.put(1)
    disposed.dispose()
    assert len(disposed) == 0 and not disposed.closed


def test_store_label_is_formatted_once_on_first_read():
    eng = Engine(seed=0)
    store = Store(eng, name=7)          # a socket's: its connection id
    assert store._label == 7                            # not yet
    assert store.name == "sock#7"
    assert store._label == "sock#7" and store.name is store.name
    assert Store(eng).name == "store" and Store(eng, name="q").name == "q"
    with pytest.raises(StoreClosed, match="sock#7"):
        store.close()
        store.put(1)
