"""Whole daemons through the interpreter (:mod:`repro.fail.machine`).

Every expected value below is read off the scenario text (the paper's
Fig. 4 and Fig. 8b listings, and two small daemons), never recorded
from a run.
"""

from repro.fail import builtin_scenarios as scenarios
from test_fail_machine import build


def test_fig4_daemon_behaviour():
    machine, ctx = build(scenarios.FIG4_NODE_DAEMON)
    assert machine.node_id == 1
    # line 2: a crash order with no process -> negative ack, stay
    assert machine.handle(("msg", "crash", "P1"))
    assert ctx.sent == [("no", "P1")]
    assert machine.node_id == 1
    # line 1: a load -> continue it, goto 2
    assert machine.handle(("onload",))
    assert (machine.node_id, ctx.continued) == (2, 1)
    # line 6: a crash order -> ok, halt, goto 1
    assert machine.handle(("msg", "crash", "P1"))
    assert ctx.sent[-1] == ("ok", "P1")
    assert ctx.halted == 1
    assert machine.node_id == 1


def test_fig8b_daemon_counts_its_loads():
    """Fig. 8b counts its machine's loads from ``wave = 1``; the load
    that finds ``wave == 2`` is the first recovery wave and reports
    ``waveok`` to P1 (lines 3 / 8)."""
    machine, ctx = build(scenarios.FIG8B_NODE_DAEMON)
    assert (machine.node_id, machine.vars) == (1, {"wave": 1})
    steps = [
        # event, node after, wave after, last message sent
        (("onload",), 2, 2, None),                      # line 2
        (("msg", "crash", "P1"), 1, 2, ("ok", "P1")),   # line 9
        (("onload",), 2, 3, ("waveok", "P1")),          # line 3
        (("onexit",), 1, 3, ("waveok", "P1")),          # line 5
        (("onload",), 2, 4, ("waveok", "P1")),          # line 2
        (("msg", "crash", "P1"), 1, 4, ("ok", "P1")),   # line 9
    ]
    for event, node, wave, last_sent in steps:
        assert machine.handle(event), event
        assert (machine.node_id, machine.vars["wave"]) == (node, wave), event
        assert (ctx.sent[-1] if ctx.sent else None) == last_sent, event
    assert ctx.sent == [("ok", "P1"), ("waveok", "P1"), ("ok", "P1")]
    assert (ctx.halted, ctx.continued) == (2, 3)


def test_guard_reads_the_last_assignment():
    """An assignment made by one event is what the next event's guard
    reads: two ticks count ``n`` down, the third falls through."""
    machine, ctx = build("""
        Daemon D {
          int n = 2;
          node 1:
            ?tick && n > 0 -> n = n - 1, goto 1;
            ?tick -> !done(P1), goto 1;
        }
    """)
    machine.handle(("msg", "tick", "P1"))
    machine.handle(("msg", "tick", "P1"))
    assert machine.vars["n"] == 0
    assert ctx.sent == []
    machine.handle(("msg", "tick", "P1"))
    assert ctx.sent == [("done", "P1")]


def test_assignment_is_visible_to_the_next_action():
    """Two assignments in one transition: the second reads the first,
    not the value the event started with."""
    machine, _ctx = build("""
        Daemon D {
          int a = 1;
          int b = 0;
          node 1:
            ?tick -> a = 0, b = a;
        }
    """)
    machine.handle(("msg", "tick", "P1"))
    assert machine.vars == {"a": 0, "b": 0}
