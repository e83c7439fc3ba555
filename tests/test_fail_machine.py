"""Unit tests for FAIL expression evaluation and machine semantics."""

import random

import pytest

from repro.fail.lang import ast
from repro.fail.lang.errors import FailSemanticError
from repro.fail.lang.parser import parse_fail
from repro.fail.machine import Machine, eval_expr


class FakeCtx:
    """Records actions; enough context for Machine in isolation.

    ``app_vars`` is the controlled application's state ``FAIL_READ``
    sees (absent names read 0, as under a live daemon).
    """

    def __init__(self, seed=0, app_vars=None):
        self.rng = random.Random(seed)
        self.app_vars = dict(app_vars or {})
        self.sent = []
        self.halted = 0
        self.stopped = 0
        self.continued = 0
        self.partitions = []
        self.healed = 0
        self.timers = []
        self.breakpoints = ()

    def send_msg(self, msg, dest):
        self.sent.append((msg, dest))

    def read_app_var(self, name):
        return self.app_vars.get(name, 0)

    def act_halt(self):
        self.halted += 1

    def act_stop(self):
        self.stopped += 1

    def act_continue(self):
        self.continued += 1

    def act_partition(self, dest):
        self.partitions.append(dest)

    def act_heal(self):
        self.healed += 1

    def arm_timer(self, delay, gen):
        self.timers.append((delay, gen))

    def arm_breakpoints(self, funcs):
        self.breakpoints = funcs


def build(src, params=None, seed=0):
    prog = parse_fail(src)
    ctx = FakeCtx(seed=seed)
    machine = Machine(prog.daemons[0], params or {}, ctx, "T")
    return machine, ctx


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("expr_src,env,expected", [
    ("1 + 2 * 3", {}, 7),
    ("(1 + 2) * 3", {}, 9),
    ("10 - 4 - 3", {}, 3),          # left associativity
    ("7 % 3", {}, 1),
    ("7 / 2", {}, 3),               # integer division toward zero
    ("x + 1", {"x": 41}, 42),
    ("1 == 1", {}, 1),
    ("1 <> 1", {}, 0),
    ("2 <= 2", {}, 1),
    ("3 < 2", {}, 0),
    ("1 && 0", {}, 0),
    ("1 || 0", {}, 1),
    ("!0", {}, 1),
    ("!5", {}, 0),
    ("-3 + 5", {}, 2),
    ("-7 / 2", {}, -3),
    ("7 / -2", {}, -3),
    ("-7 % 2", {}, 1),              # % takes the divisor's sign
    ("7 % -2", {}, -1),
    ("100000000000000001 / 1", {}, 100000000000000001),   # no float
])
def test_eval_expr_table(expr_src, env, expected):
    prog = parse_fail(f"Daemon D {{ int r = {expr_src}; node 1: }}")
    expr = prog.daemons[0].variables[0].init
    env = dict(env)
    assert eval_expr(expr, env, random.Random(0)) == expected


def test_eval_undefined_var_raises():
    with pytest.raises(FailSemanticError):
        eval_expr(ast.Var("nope"), {}, random.Random(0))


def test_eval_division_by_zero():
    with pytest.raises(FailSemanticError):
        eval_expr(ast.BinOp("/", ast.Num(1), ast.Num(0)), {}, random.Random(0))
    with pytest.raises(FailSemanticError):
        eval_expr(ast.BinOp("%", ast.Num(1), ast.Num(0)), {}, random.Random(0))


def test_fail_random_inclusive_bounds():
    rng = random.Random(7)
    draws = {eval_expr(ast.RandCall(ast.Num(0), ast.Num(2)), {}, rng)
             for _ in range(300)}
    assert draws == {0, 1, 2}


def test_fail_random_swapped_bounds_tolerated():
    rng = random.Random(7)
    value = eval_expr(ast.RandCall(ast.Num(5), ast.Num(5)), {}, rng)
    assert value == 5


# ---------------------------------------------------------------------------
# machine semantics
# ---------------------------------------------------------------------------

def test_machine_starts_in_first_node_and_arms_timer():
    machine, ctx = build("""
        Daemon D {
          node 1:
            time g_timer = 50;
            timer -> goto 2;
          node 2:
        }
    """)
    assert machine.node_id == 1
    assert ctx.timers == [(50.0, 1)]


def test_params_substitute_into_timer_and_vars():
    machine, ctx = build("""
        Daemon D {
          int c = X;
          node 1:
            time g_timer = X;
            timer -> goto 1;
        }
    """, params={"X": 45})
    assert machine.vars["c"] == 45
    assert ctx.timers[0][0] == 45.0


def test_transition_first_match_wins():
    machine, ctx = build("""
        Daemon D {
          int w = 2;
          node 1:
            onload && w == 2 -> !first(P1), goto 1;
            onload -> !second(P1), goto 1;
        }
    """)
    assert machine.handle(("onload",))
    assert ctx.sent == [("first", "P1")]


def test_guard_false_falls_through():
    machine, ctx = build("""
        Daemon D {
          int w = 1;
          node 1:
            onload && w == 2 -> !first(P1), goto 1;
            onload -> !second(P1), goto 1;
        }
    """)
    machine.handle(("onload",))
    assert ctx.sent == [("second", "P1")]


def test_unmatched_event_returns_false():
    machine, ctx = build("Daemon D { node 1: onload -> goto 1; }")
    assert not machine.handle(("msg", "crash", "P1"))
    assert machine.node_id == 1


def test_assignment_updates_daemon_vars():
    machine, ctx = build("""
        Daemon D {
          int w = 1;
          node 1:
            onload -> w = w + 1, goto 1;
        }
    """)
    machine.handle(("onload",))
    machine.handle(("onload",))
    assert machine.vars["w"] == 3


def test_always_reevaluated_on_every_entry_including_self_goto():
    machine, ctx = build("""
        Daemon D {
          node 1:
            always int ran = FAIL_RANDOM(0, 1000000);
            ?go -> !m(G1[ran]), goto 1;
        }
    """, seed=3)
    seen = set()
    for _ in range(5):
        machine.handle(("msg", "go", "P1"))
        seen.add(ctx.sent[-1][1])
    assert len(seen) > 1      # re-drawn on re-entry


def test_stale_timer_ignored_after_goto():
    machine, ctx = build("""
        Daemon D {
          node 1:
            time g_timer = 10;
            timer -> !fired(P1), goto 2;
          node 2:
            ?back -> goto 1;
        }
    """)
    old_gen = ctx.timers[0][1]
    machine.handle(("timer", old_gen))          # fires, goto 2
    assert machine.node_id == 2
    assert not machine.handle(("timer", old_gen))   # stale now
    machine.handle(("msg", "back", "P1"))       # re-enter node 1
    assert ctx.timers[-1][1] == machine.entry_gen


def test_fail_sender_resolution():
    machine, ctx = build("""
        Daemon D {
          node 1:
            ?ping -> !pong(FAIL_SENDER), goto 1;
        }
    """)
    machine.handle(("msg", "ping", "G1[7]"))
    assert ctx.sent == [("pong", "G1[7]")]


def test_halt_stop_continue_reach_context():
    machine, ctx = build("""
        Daemon D {
          node 1:
            ?a -> halt, goto 1;
            ?b -> stop, goto 1;
            ?c -> continue, goto 1;
        }
    """)
    machine.handle(("msg", "a", "P1"))
    machine.handle(("msg", "b", "P1"))
    machine.handle(("msg", "c", "P1"))
    assert (ctx.halted, ctx.stopped, ctx.continued) == (1, 1, 1)


def test_before_trigger_matching():
    machine, ctx = build("""
        Daemon D {
          node 1:
            before(setCommand) -> halt, goto 1;
        }
    """)
    assert ctx.breakpoints == ("setCommand",)
    assert not machine.handle(("before", "otherFn"))
    assert machine.handle(("before", "setCommand"))
    assert ctx.halted == 1


def test_breakpoints_follow_the_current_node():
    machine, ctx = build("""
        Daemon D {
          node 1:
            before(a) -> goto 2;
            ?x -> goto 1;
            before(b) -> goto 1;
          node 2:
            onload -> goto 1;
        }
    """)
    assert ctx.breakpoints == ("a", "b")
    machine.handle(("before", "a"))
    assert ctx.breakpoints == ()
    machine.handle(("onload",))
    assert ctx.breakpoints == ("a", "b")


def test_fail_sender_outside_a_message_handler_raises():
    machine, ctx = build("""
        Daemon D {
          node 1:
            onload -> !pong(FAIL_SENDER), goto 1;
        }
    """)
    with pytest.raises(FailSemanticError, match="FAIL_SENDER"):
        machine.handle(("onload",))
    assert ctx.sent == []


def test_destination_index_reads_the_application():
    prog = parse_fail("""
        Daemon D {
          node 1:
            onload -> !crash(G1[FAIL_READ(iter) % 4]), partition(G1[FAIL_READ(iter)]);
        }
    """)
    ctx = FakeCtx(app_vars={"iter": 7})
    machine = Machine(prog.daemons[0], {}, ctx, "T")
    machine.handle(("onload",))
    assert ctx.sent == [("crash", "G1[3]")]
    assert ctx.partitions == ["G1[7]"]


def test_destination_index_past_str_digit_limit_raises():
    machine, ctx = build("""
        Daemon D {
          node 1:
            onload -> !crash(G1[X]);
        }
    """, params={"X": 10 ** 5000})
    with pytest.raises(FailSemanticError, match="too large"):
        machine.handle(("onload",))


@pytest.mark.parametrize("delay", ["0 - 1", "X * X * X * X"])
def test_timer_delay_out_of_range_raises(delay):
    with pytest.raises(FailSemanticError, match="timer delay"):
        build(f"""
            Daemon D {{
              node 1:
                time t = {delay};
                timer -> goto 1;
            }}
        """, params={"X": 10 ** 100})


def test_paper_fig7a_counting_logic():
    """Replays the Fig. 7a accounting: X crashes per batch."""
    machine, ctx = build("""
        Daemon ADV1 {
          int nb_crash = X;
          node 1:
            always int ran = FAIL_RANDOM(0, N);
            time g_timer = 50;
            timer -> !crash(G1[ran]), goto 2;
          node 2:
            always int ran = FAIL_RANDOM(0, N);
            ?ok && nb_crash > 1 -> !crash(G1[ran]), nb_crash = nb_crash - 1, goto 2;
            ?ok && nb_crash <= 1 -> nb_crash = X, goto 1;
            ?no -> !crash(G1[ran]), goto 2;
        }
    """, params={"X": 3, "N": 9})
    machine.handle(("timer", machine.entry_gen))        # crash #1
    machine.handle(("msg", "ok", "G1[0]"))              # crash #2
    machine.handle(("msg", "no", "G1[1]"))              # re-roll #2
    machine.handle(("msg", "ok", "G1[2]"))              # crash #3
    machine.handle(("msg", "ok", "G1[3]"))              # batch done
    crashes = [d for m, d in ctx.sent if m == "crash"]
    assert len(crashes) == 4        # 3 effective + 1 re-roll
    assert machine.node_id == 1     # back to the timer
    assert machine.vars["nb_crash"] == 3
