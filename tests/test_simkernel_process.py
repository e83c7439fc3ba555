"""Unit tests for simulated processes (coroutines)."""

import pytest

from repro.simkernel.engine import Engine
from repro.simkernel import process as proc_mod


def test_process_runs_and_returns():
    eng = Engine(seed=0)

    def main():
        yield eng.timeout(1.0)
        yield eng.timeout(2.0)
        return "result"

    p = eng.process(main())
    eng.run()
    assert p.state == proc_mod.DONE
    assert p.result == "result"
    assert eng.now == 3.0


def test_process_requires_generator():
    eng = Engine(seed=0)
    with pytest.raises(TypeError):
        eng.process(lambda: None)


def test_waiting_on_a_process():
    eng = Engine(seed=0)

    def child():
        yield eng.timeout(5.0)
        return 42

    def parent():
        value = yield eng.process(child())
        return value * 2

    p = eng.process(parent())
    eng.run()
    assert p.result == 84


def test_process_crash_recorded_and_propagates():
    eng = Engine(seed=0)

    def bad():
        yield eng.timeout(1.0)
        raise RuntimeError("crashed")

    p = eng.process(bad())
    eng.run()
    assert p.state == proc_mod.FAILED
    assert isinstance(p.error, RuntimeError)
    assert p in eng.process_failures


def test_crash_propagates_to_waiter():
    eng = Engine(seed=0)

    def bad():
        yield eng.timeout(1.0)
        raise ValueError("inner")

    def parent():
        try:
            yield eng.process(bad())
        except ValueError:
            return "caught"
        return "missed"

    p = eng.process(parent())
    eng.run()
    assert p.result == "caught"


def test_yield_non_event_fails_process():
    eng = Engine(seed=0)

    def bad():
        yield 42

    p = eng.process(bad())
    eng.run()
    assert p.state == proc_mod.FAILED
    assert isinstance(p.error, TypeError)


def test_kill_stops_immediately():
    eng = Engine(seed=0)
    progress = []

    def main():
        for i in range(10):
            yield eng.timeout(1.0)
            progress.append(i)

    p = eng.process(main())
    eng.call_later(3.5, p.kill)
    eng.run()
    assert p.state == proc_mod.KILLED
    assert progress == [0, 1, 2]
    # the already-scheduled 4.0 wakeup drains harmlessly
    assert eng.now == 4.0


def test_kill_does_not_run_finally_yields():
    """SIGKILL semantics: cleanup code needing simulation time never runs."""
    eng = Engine(seed=0)
    cleaned = []

    def main():
        try:
            yield eng.timeout(100.0)
        finally:
            cleaned.append("sync-cleanup")

    p = eng.process(main())
    eng.call_later(1.0, p.kill)
    eng.run()
    assert p.state == proc_mod.KILLED
    # synchronous finally does run (GeneratorExit), but the process is dead
    assert cleaned == ["sync-cleanup"]


def test_waiter_of_killed_process_gets_none():
    eng = Engine(seed=0)

    def child():
        yield eng.timeout(100.0)

    def parent(c):
        value = yield c
        return ("done", value)

    c = eng.process(child())
    p = eng.process(parent(c))
    eng.call_later(2.0, c.kill)
    eng.run()
    assert p.result == ("done", None)


def test_suspend_stashes_wakeups_until_resume():
    eng = Engine(seed=0)
    ticks = []

    def main():
        while True:
            yield eng.timeout(1.0)
            ticks.append(eng.now)

    p = eng.process(main())
    eng.call_later(2.5, p.suspend)
    eng.call_later(10.0, p.resume)
    eng.run(until=12.0)
    # ticks at 1,2 then the 3.0 wakeup is stashed until 10.0;
    # after resume the loop continues from there
    assert ticks[0:2] == [1.0, 2.0]
    assert ticks[2] == 10.0
    assert ticks[3] == 11.0


def test_suspend_before_first_step():
    eng = Engine(seed=0)
    ran = []

    def main():
        ran.append(eng.now)
        yield eng.timeout(1.0)

    p = eng.process(main())
    p.suspend()                 # same instant as creation
    eng.call_later(5.0, p.resume)
    eng.run()
    assert ran == [5.0]


# ---------------------------------------------------------------------------
# where a step runs: inside the awaited event's payload, at the process's
# position in the callback list (one test per rule of the Process docstring)
# ---------------------------------------------------------------------------

def _waiter(eng, log, tag, event, then=None):
    def gen():
        log.append((tag, (yield event)))
        if then is not None:
            then()
        yield eng.timeout(1.0)
        log.append((tag, "later"))
    return eng.process(gen(), name=tag)


def test_waiters_and_plain_callbacks_run_in_callback_order():
    eng = Engine(seed=0)
    log = []
    ev = eng.event()
    _waiter(eng, log, "p1", ev)
    eng.call_at(0.5, lambda: ev.add_callback(lambda e: log.append(("plain", e.value))))
    eng.call_at(0.6, lambda: _waiter(eng, log, "p2", ev))
    eng.call_at(1.0, lambda: ev.succeed("go"))
    eng.run(until=1.0)
    assert log == [("p1", "go"), ("plain", "go"), ("p2", "go")]


def test_a_wakeup_is_one_payload():
    eng = Engine(seed=0)
    log = []
    ev = eng.event()
    for tag in ("p1", "p2", "p3"):
        _waiter(eng, log, tag, ev)
    eng.run()
    before = eng.events_processed
    ev.succeed("go")
    eng.run(until=0.5)
    assert [tag for tag, _ in log] == ["p1", "p2", "p3"]
    assert eng.events_processed - before == 1     # the event; no hop per waiter


def test_first_waiters_step_kills_the_second_which_never_steps():
    eng = Engine(seed=0)
    log = []
    ev = eng.event()
    procs = {}
    procs["p1"] = _waiter(eng, log, "p1", ev, then=lambda: procs["p2"].kill())
    procs["p2"] = _waiter(eng, log, "p2", ev)
    eng.call_at(1.0, lambda: ev.succeed("go"))
    eng.run()
    assert log == [("p1", "go"), ("p1", "later")]
    assert procs["p2"].state == proc_mod.KILLED and procs["p2"]._parked is None


def test_first_waiters_step_suspends_the_second_which_steps_on_resume():
    eng = Engine(seed=0)
    log = []
    ev = eng.event()
    procs = {}
    procs["p1"] = _waiter(eng, log, "p1", ev, then=lambda: procs["p2"].suspend())
    procs["p2"] = _waiter(eng, log, "p2", ev)
    eng.call_at(1.0, lambda: ev.succeed("go"))
    eng.call_at(5.0, lambda: procs["p2"].resume())
    eng.run()
    assert log == [("p1", "go"), ("p1", "later"), ("p2", "go"), ("p2", "later")]
    assert procs["p2"].result is None and eng.now == 6.0


def test_kill_drops_the_parked_wakeup():
    eng = Engine(seed=0)
    steps = []

    def main():
        yield eng.timeout(1.0)
        steps.append(eng.now)

    p = eng.process(main())
    eng.call_at(0.5, p.suspend)
    eng.run(until=2.0)
    assert p._parked is not None
    p.kill()
    p.resume()
    eng.run()
    assert p._parked is None and steps == [] and p.state == proc_mod.KILLED


@pytest.mark.parametrize("resume_at", ["before-start", "after-start"])
def test_suspended_at_launch_takes_exactly_one_first_step(resume_at):
    eng = Engine(seed=0)
    steps = []

    def main():
        steps.append(eng.now)
        yield eng.timeout(1.0)
        steps.append(eng.now)

    p = eng.process(main())
    p.suspend()
    if resume_at == "before-start":
        p.resume()                      # the _start payload has not run yet
        eng.run()
        assert steps == [0.0, 1.0]
    else:
        eng.run()                       # _start parks the first step
        assert steps == [] and p.alive
        p.resume()
        p.resume()                      # second resume: nothing left to issue
        eng.run()
        assert steps == [0.0, 1.0]
    assert p.state == proc_mod.DONE


def test_suspend_resume_suspend_in_one_instant_stays_parked():
    eng = Engine(seed=0)
    ticks = []

    def main():
        while True:
            yield eng.timeout(1.0)
            ticks.append(eng.now)

    p = eng.process(main())
    eng.call_at(0.5, p.suspend)
    eng.call_at(2.0, lambda: (p.resume(), p.suspend()))
    eng.run(until=3.0)
    assert ticks == [] and p._parked is not None
    p.resume()
    eng.run(until=3.5)
    assert ticks == [3.0]


def test_resumed_process_steps_ahead_of_normal_payloads_of_that_instant():
    """``resume()`` re-issues the parked wake-up at URGENT: after the
    rest of the resuming payload, before anything NORMAL already queued
    (the ``CallbackThread`` rule, same wording)."""
    eng = Engine(seed=0)
    order = []

    def main():
        yield eng.timeout(1.0)
        order.append("held")

    p = eng.process(main())
    eng.call_at(0.5, p.suspend)

    def resumer():
        p.resume()
        order.append("rest of the resuming payload")

    eng.call_at(2.0, resumer)
    eng.call_at(2.0, lambda: order.append("normal"))
    eng.run()
    assert order == ["rest of the resuming payload", "held", "normal"]


def test_waiting_on_an_already_processed_event():
    eng = Engine(seed=0)
    seen = []
    ev = eng.event()
    ev.succeed("old news")

    def main():
        yield eng.timeout(1.0)
        assert ev.processed
        seen.append((eng.now, (yield ev)))

    eng.process(main())
    eng.run()
    assert seen == [(1.0, "old news")]


def test_generator_raising_inside_an_event_payload():
    """The crash belongs to the process, not to the payload it stepped
    in: later callbacks of the event and the slot's tail still run."""
    eng = Engine(seed=0)
    order = []
    ev = eng.timeout(1.0, value="go")

    def bad():
        yield ev
        raise RuntimeError("step crashed")

    p = eng.process(bad())
    _waiter(eng, order, "co-waiter", ev)
    eng.call_at(1.0, lambda: order.append("tail of the slot"))
    eng.run(until=1.0)                  # does not raise
    assert p.state == proc_mod.FAILED and p in eng.process_failures
    assert isinstance(p.error, RuntimeError) and not p.ok
    assert order == [("co-waiter", "go"), "tail of the slot"]


def test_pids_are_unique():
    eng = Engine(seed=0)

    def main():
        yield eng.timeout(1.0)

    pids = {eng.process(main()).pid for _ in range(50)}
    assert len(pids) == 50
