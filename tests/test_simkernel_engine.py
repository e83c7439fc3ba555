"""Unit tests for the discrete-event engine."""

import pytest

from repro.simkernel.engine import Engine, SimTimeoutError


def test_clock_starts_at_zero():
    eng = Engine(seed=0)
    assert eng.now == 0.0
    assert eng.run() == 0.0             # nothing pending: nothing moves


def test_timeout_advances_clock():
    eng = Engine(seed=0)
    fired = []
    eng.call_later(2.5, lambda: fired.append(eng.now))
    eng.run()
    assert fired == [2.5]
    assert eng.now == 2.5


def test_call_at_schedules_absolute():
    eng = Engine(seed=0)
    fired = []
    eng.call_later(1.0, lambda: eng.call_at(5.0, lambda: fired.append(eng.now)))
    eng.run()
    assert fired == [5.0]


def test_call_at_past_raises():
    eng = Engine(seed=0)
    eng.call_later(3.0, lambda: None)
    eng.run()
    with pytest.raises(ValueError):
        eng.call_at(1.0, lambda: None)


def test_negative_delay_rejected():
    eng = Engine(seed=0)
    with pytest.raises(ValueError):
        eng.call_later(-1.0, lambda: None)


def test_same_time_events_fire_in_insertion_order():
    eng = Engine(seed=0)
    order = []
    for i in range(10):
        eng.call_later(1.0, lambda i=i: order.append(i))
    eng.run()
    assert order == list(range(10))


def test_run_until_pauses_cleanly():
    eng = Engine(seed=0)
    fired = []
    eng.call_later(10.0, lambda: fired.append("late"))
    eng.run(until=5.0)
    assert eng.now == 5.0
    assert fired == []
    eng.run()
    assert fired == ["late"]
    assert eng.now == 10.0


def test_run_until_raise_on_timeout():
    eng = Engine(seed=0)
    eng.call_later(10.0, lambda: None)
    with pytest.raises(SimTimeoutError):
        eng.run(until=5.0, raise_on_timeout=True)


def test_run_until_with_empty_heap_advances_clock():
    eng = Engine(seed=0)
    eng.run(until=42.0)
    assert eng.now == 42.0


def test_stop_interrupts_run():
    eng = Engine(seed=0)
    fired = []
    eng.call_later(1.0, lambda: (fired.append(1), eng.stop()))
    eng.call_later(2.0, lambda: fired.append(2))
    eng.run()
    assert fired == [1]
    eng.run()
    assert fired == [1, 2]


def test_event_value_and_flags():
    eng = Engine(seed=0)
    ev = eng.event(name="x")
    assert not ev.triggered and not ev.processed
    ev.succeed("payload")
    assert ev.triggered
    with pytest.raises(RuntimeError):
        ev.succeed("again")
    eng.run()
    assert ev.processed
    assert ev.value == "payload"


def test_event_fail_propagates():
    eng = Engine(seed=0)
    ev = eng.event()
    ev.fail(ValueError("boom"))
    eng.run()
    assert not ev.ok
    with pytest.raises(ValueError):
        _ = ev.value


def test_event_fail_requires_exception():
    eng = Engine(seed=0)
    ev = eng.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_untriggered_value_raises():
    eng = Engine(seed=0)
    ev = eng.event()
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_late_callback_subscription_still_fires():
    eng = Engine(seed=0)
    ev = eng.event()
    ev.succeed(7)
    eng.run()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    eng.run()
    assert got == [7]


def test_seeded_determinism():
    def history(seed):
        eng = Engine(seed=seed)
        out = []

        def proc():
            for _ in range(20):
                yield eng.timeout(eng.random.uniform(0, 1))
                out.append(round(eng.now, 9))
        eng.process(proc())
        eng.run()
        return out

    assert history(99) == history(99)
    assert history(99) != history(100)


def test_engine_log_without_trace_is_noop():
    eng = Engine(seed=0)
    eng.log("whatever", a=1)  # must not raise
