"""Randomized event scripts through the interpreter, on every builtin
paper scenario and on both daemons of every explorer generator family.

The interpreter (:mod:`repro.fail.machine`) is the one semantics of a
scenario, so these scripts check it against facts read off the daemon
definition, after every single event:

* the current node is a declared node;
* ``handle`` fires only when the current node has a transition whose
  trigger matches the event, and always fires when such a transition
  carries no guard;
* a stale timer never fires and changes nothing;
* every timer armed carries the current ``entry_gen``;
* the armed breakpoints are the current node's ``before(fn)`` triggers;
* at a breakpoint, ``halt`` consumes the pause and ``continue``
  consumes and releases it — once per action.
"""

import random

from repro.explore import generators
from repro.fail import build as fb
from repro.fail import builtin_scenarios as scenarios
from repro.fail.lang import ast
from repro.fail.lang.parser import parse_fail
from repro.fail.machine import Machine

from test_fail_machine import FakeCtx

BUILTINS = {
    "fig4": scenarios.FIG4_NODE_DAEMON,
    "fig5a": scenarios.FIG5A_MASTER,
    "fig7a": scenarios.FIG7A_MASTER,
    "fig8a": scenarios.FIG8A_MASTER,
    "fig8b": scenarios.FIG8B_NODE_DAEMON,
    "fig10a": scenarios.FIG10A_MASTER,
    "fig10b": scenarios.FIG10B_NODE_DAEMON,
}

PARAMS = {"X": 3, "N": 5}

_SIMPLE_TRIGGERS = {ast.TimerTrigger: "timer", ast.OnLoad: "onload",
                    ast.OnExit: "onexit", ast.OnError: "onerror"}


def waits_for(trigger: ast.Trigger):
    """The ``(kind, arg)`` event a trigger is written to match."""
    if isinstance(trigger, ast.MsgTrigger):
        return ("msg", trigger.name)
    if isinstance(trigger, ast.Before):
        return ("before", trigger.func)
    return (_SIMPLE_TRIGGERS[type(trigger)], None)


def event_alphabet(daemon: ast.DaemonDef):
    """Every event kind the daemon could conceivably receive; timers
    come fresh and stale."""
    events = {("onload", None), ("onexit", None), ("onerror", None),
              ("timer", "fresh"), ("timer", "stale"), ("msg", "bogus"),
              ("before", "bogus")}
    for node in daemon.nodes:
        for tr in node.transitions:
            if not isinstance(tr.trigger, ast.TimerTrigger):
                events.add(waits_for(tr.trigger))
    # deterministic order regardless of set iteration
    return sorted(events, key=repr)


class Controller:
    """A paused breakpoint; records what the scenario decided."""

    def __init__(self):
        self.calls = []

    def consume(self):
        self.calls.append("halt")

    def consume_and_release(self):
        self.calls.append("continue")


def _outputs(machine, ctx):
    return (machine.node_id, dict(machine.vars), dict(machine.always_vars),
            list(ctx.sent), ctx.halted, ctx.stopped, ctx.continued,
            list(ctx.partitions), ctx.healed, len(ctx.timers))


def drive(source: str, label: str, seed: int, steps: int = 60):
    prog = parse_fail(source)
    daemon = prog.daemons[0]
    declared = {node.node_id for node in daemon.nodes}
    ctx = FakeCtx(seed=seed)
    machine = Machine(daemon, PARAMS, ctx, "T")

    alphabet = event_alphabet(daemon)
    script_rng = random.Random(f"codegen-roundtrip:{label}:{seed}")
    for step in range(steps):
        kind, arg = alphabet[script_rng.randrange(len(alphabet))]
        where = f"{label} step {step}: {kind}({arg})"
        node = machine.current
        assert node.node_id in declared, where
        assert ctx.breakpoints == tuple(
            tr.trigger.func for tr in node.transitions
            if isinstance(tr.trigger, ast.Before)), where
        before = _outputs(machine, ctx)
        controller = None
        if kind == "timer":
            stale = arg == "stale"
            arg = None
            fired = machine.handle(("timer", machine.entry_gen - stale))
        elif kind == "msg":
            fired = machine.handle(("msg", arg, "P1"))
        elif kind == "before":
            controller = Controller()
            fired = machine.handle(("before", arg), bp_controller=controller)
        else:
            fired = machine.handle((kind,))

        if kind == "timer" and stale:
            assert not fired, where
        else:
            matching = [tr for tr in node.transitions
                        if waits_for(tr.trigger) == (kind, arg)]
            if not matching:
                assert not fired, where
            if any(tr.guard is None for tr in matching):
                assert fired, where
        if not fired:
            assert _outputs(machine, ctx) == before, where
        new_timers = ctx.timers[before[-1]:]
        assert all(g == machine.entry_gen for _d, g in new_timers), where
        if controller is not None:
            assert controller.calls.count("halt") == ctx.halted - before[4], \
                where
            assert controller.calls.count("continue") == \
                ctx.continued - before[6], where


def test_builtin_scenarios_roundtrip():
    for label, source in BUILTINS.items():
        for seed in (0, 1, 2):
            drive(source, label, seed)


def test_generated_scenarios_roundtrip():
    """Both daemons of every generated family, each driven alone from
    its own re-rendered text."""
    ctx = generators.GeneratorContext(n_machines=6, n_busy=4)
    for family in generators.FAMILIES:
        scenario = generators.generate(family, 0, 11, ctx)
        prog = parse_fail(scenario.source)
        for daemon in prog.daemons:
            source = fb.render(fb.program(daemon))
            drive(source, f"{family}:{daemon.name}", seed=3)
