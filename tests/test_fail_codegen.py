"""Tests for the Python code generator (the FCI-compiler analogue).

The generated classes must be executable and agree with the
interpreter (:mod:`repro.fail.machine`) on the same event sequences —
semantics pinned down twice.
"""

import random

from repro.fail import builtin_scenarios as scenarios
from repro.fail.codegen import generate_module, generate_python
from repro.fail.lang.parser import parse_fail
from repro.fail.machine import Machine
from test_fail_machine import FakeCtx


class GenCtx:
    """Context for generated handlers (send/halt/stop/cont/arm_timer)."""

    def __init__(self):
        self.sent = []
        self.halted = 0
        self.stopped = 0
        self.continued = 0
        self.partitions = []
        self.healed = 0
        self.timers = []

    def send(self, msg, dest):
        self.sent.append((msg, dest))

    def halt(self):
        self.halted += 1

    def stop(self):
        self.stopped += 1

    def cont(self):
        self.continued += 1

    def partition(self, dest):
        self.partitions.append(dest)

    def heal(self):
        self.healed += 1

    def arm_timer(self, delay):
        self.timers.append(delay)


def compile_handler(source, params=None, seed=0):
    prog = parse_fail(source)
    code = generate_python(prog.daemons[0], params)
    namespace = {}
    exec(compile(code, "<generated>", "exec"), namespace)
    cls = namespace[f"{prog.daemons[0].name}Handler"]
    ctx = GenCtx()
    return cls(ctx, random.Random(seed)), ctx


def test_generated_code_is_valid_python_for_all_paper_scenarios():
    for src in (scenarios.FIG4_NODE_DAEMON, scenarios.FIG5A_MASTER,
                scenarios.FIG7A_MASTER, scenarios.FIG8A_MASTER,
                scenarios.FIG8B_NODE_DAEMON, scenarios.FIG10A_MASTER,
                scenarios.FIG10B_NODE_DAEMON):
        prog = parse_fail(src)
        module = generate_module(prog, params={"X": 5, "N": 9})
        compile(module, "<generated>", "exec")


def test_generated_fig4_behaviour():
    handler, ctx = compile_handler(scenarios.FIG4_NODE_DAEMON)
    assert handler.node == 1
    # crash order with no process -> negative ack
    assert handler.handle("msg", "crash", "P1")
    assert ctx.sent == [("no", "P1")]
    # a load, then a crash order -> ok + halt
    assert handler.handle("onload")
    assert handler.node == 2
    assert handler.handle("msg", "crash", "P1")
    assert ctx.sent[-1] == ("ok", "P1")
    assert ctx.halted == 1
    assert handler.node == 1


def test_generated_matches_interpreter_on_fig8b():
    """Drive the interpreter and the generated code through the same
    event sequence; states and outputs must agree."""
    src = scenarios.FIG8B_NODE_DAEMON
    prog = parse_fail(src)
    interp_ctx = FakeCtx(seed=5)
    interp = Machine(prog.daemons[0], {}, interp_ctx, "T")
    gen, gen_ctx = compile_handler(src, seed=5)

    events = [
        ("onload", None, None),
        ("msg", "crash", "P1"),      # ok + halt, -> node 1
        ("onload", None, None),      # wave == 2 -> waveok
        ("onexit", None, None),
        ("onload", None, None),
        ("msg", "crash", "P1"),
    ]
    for kind, arg, sender in events:
        if kind == "msg":
            interp.handle((kind, arg, sender))
        else:
            interp.handle((kind,))
        gen.handle(kind, arg, sender)
        assert gen.node == interp.node_id
        assert gen.vars["wave"] == interp.vars["wave"]
    assert [s for s in gen_ctx.sent] == [s for s in interp_ctx.sent]
    assert gen_ctx.halted == interp_ctx.halted


def test_generated_guard_and_assignment():
    handler, ctx = compile_handler("""
        Daemon D {
          int n = 2;
          node 1:
            ?tick && n > 0 -> n = n - 1, goto 1;
            ?tick -> !done(P1), goto 1;
        }
    """)
    handler.handle("msg", "tick", "P1")
    handler.handle("msg", "tick", "P1")
    assert handler.vars["n"] == 0
    handler.handle("msg", "tick", "P1")
    assert ctx.sent == [("done", "P1")]


def test_generated_assignment_is_visible_to_the_next_action():
    """Two assignments in one transition: the second reads the first
    (as the interpreter does), not the value the event started with."""
    handler, _ctx = compile_handler("""
        Daemon D {
          int a = 1;
          int b = 0;
          node 1:
            ?tick -> a = 0, b = a;
        }
    """)
    handler.handle("msg", "tick", "P1")
    assert handler.vars == {"a": 0, "b": 0}


def test_generated_timer_armed_with_param():
    handler, ctx = compile_handler("""
        Daemon D {
          node 1:
            time g_timer = X;
            timer -> goto 1;
        }
    """, params={"X": 45})
    assert ctx.timers == [45]


def test_generated_module_header():
    prog = parse_fail("Daemon D { node 1: }")
    text = generate_module(prog)
    assert text.startswith('"""Generated by repro.fail.codegen')
