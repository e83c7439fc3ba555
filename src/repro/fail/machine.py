"""Runtime for compiled FAIL state machines.

A :class:`Machine` interprets one daemon definition for one instance,
and is the only run-time reader of a scenario's AST: it tracks the
current node, daemon variables, node-entry (``always``) variables and
the node timer, resolves destinations, and turns delivered events into
actions through a :class:`MachineContext` (implemented by
:class:`repro.fail.daemon.FailDaemon`).  The context only ever sees
resolved instance names, timer delays and breakpoint function names.

Determinism: ``FAIL_RANDOM`` draws from the context RNG (the
deployment's seeded stream); transition matching is first-match in
source order, as in the paper's listings.

Arithmetic is on Python ints: ``/`` truncates toward zero (C's rule,
computed exactly, never through a float) and ``%`` takes the sign of
the divisor (Python's rule).
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Optional, Tuple

from repro.fail.lang import ast
from repro.fail.lang.errors import FailSemanticError

# Event tuples delivered to Machine.handle():
#   ("timer", entry_gen)
#   ("msg", name, sender_instance)
#   ("onload",) / ("onexit",) / ("onerror",)
#   ("before", func_name, resume_callback_owner)


class MachineContext:
    """What a machine needs from its host daemon (duck-typed)."""

    rng: Any

    def send_msg(self, msg: str, dest_instance: str) -> None:
        raise NotImplementedError

    def act_halt(self) -> None:
        raise NotImplementedError

    def act_stop(self) -> None:
        raise NotImplementedError

    def act_continue(self) -> None:
        raise NotImplementedError

    def act_partition(self, dest_instance: str) -> None:
        """Isolate the machine hosting ``dest_instance`` from the fabric."""
        raise NotImplementedError

    def act_heal(self) -> None:
        """Restore every cut link of the fabric."""
        raise NotImplementedError

    def arm_timer(self, delay: float, entry_gen: int) -> None:
        raise NotImplementedError

    def arm_breakpoints(self, funcs: Tuple[str, ...]) -> None:
        """Replace the armed breakpoints by ``funcs``: the ``before(fn)``
        triggers of the node just entered, in source order."""
        raise NotImplementedError


#: the longest timer delay a float (the engine's clock) can hold
_MAX_DELAY = int(sys.float_info.max)


def _truthy(value: int) -> bool:
    return bool(value)


def eval_expr(expr: ast.Expr, env: Dict[str, int], rng, reader=None) -> int:
    """Evaluate a FAIL expression to an int (booleans are 0/1).

    ``reader`` resolves ``FAIL_READ(name)`` against the controlled
    application (the paper's planned variable-inspection feature);
    without one, reads evaluate to 0.
    """
    if isinstance(expr, ast.Num):
        return expr.value
    if isinstance(expr, ast.Var):
        try:
            return env[expr.name]
        except KeyError:
            raise FailSemanticError(f"undefined variable {expr.name!r} at runtime")
    if isinstance(expr, ast.ReadCall):
        if reader is None:
            return 0
        return int(reader(expr.name))
    if isinstance(expr, ast.RandCall):
        lo = eval_expr(expr.lo, env, rng, reader)
        hi = eval_expr(expr.hi, env, rng, reader)
        if hi < lo:
            lo, hi = hi, lo
        return rng.randint(lo, hi)      # bounds inclusive, like the paper
    if isinstance(expr, ast.UnOp):
        val = eval_expr(expr.operand, env, rng, reader)
        if expr.op == "-":
            return -val
        if expr.op == "!":
            return 0 if _truthy(val) else 1
        raise FailSemanticError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, ast.BinOp):
        op = expr.op
        if op == "&&":
            return 1 if (_truthy(eval_expr(expr.left, env, rng, reader))
                         and _truthy(eval_expr(expr.right, env, rng, reader))) else 0
        if op == "||":
            return 1 if (_truthy(eval_expr(expr.left, env, rng, reader))
                         or _truthy(eval_expr(expr.right, env, rng, reader))) else 0
        lhs = eval_expr(expr.left, env, rng, reader)
        rhs = eval_expr(expr.right, env, rng, reader)
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if rhs == 0:
                raise FailSemanticError("division by zero in FAIL expression")
            quotient = abs(lhs) // abs(rhs)
            return quotient if (lhs < 0) == (rhs < 0) else -quotient
        if op == "%":
            if rhs == 0:
                raise FailSemanticError("modulo by zero in FAIL expression")
            return lhs % rhs
        if op == "==":
            return 1 if lhs == rhs else 0
        if op == "<>":
            return 1 if lhs != rhs else 0
        if op == "<":
            return 1 if lhs < rhs else 0
        if op == "<=":
            return 1 if lhs <= rhs else 0
        if op == ">":
            return 1 if lhs > rhs else 0
        if op == ">=":
            return 1 if lhs >= rhs else 0
        raise FailSemanticError(f"unknown operator {op!r}")
    raise TypeError(f"not an expression: {expr!r}")


class Machine:
    """One executing instance of a FAIL daemon definition."""

    def __init__(self, daemon: ast.DaemonDef, params: Dict[str, int],
                 ctx: MachineContext, instance: str):
        self.daemon = daemon
        self.params = dict(params)
        self.ctx = ctx
        self.instance = instance
        self.vars: Dict[str, int] = {}
        self.always_vars: Dict[str, int] = {}
        self.entry_gen = 0
        self.current: Optional[ast.NodeDef] = None
        self._reader = getattr(ctx, "read_app_var", None)
        base_env = dict(self.params)
        for decl in daemon.variables:
            self.vars[decl.name] = eval_expr(decl.init, {**base_env, **self.vars},
                                             ctx.rng, self._reader)
        self.enter_node(daemon.start_node)

    # -- environment -------------------------------------------------------
    def env(self) -> Dict[str, int]:
        out = dict(self.params)
        out.update(self.vars)
        out.update(self.always_vars)
        return out

    def _eval(self, expr: ast.Expr) -> int:
        return eval_expr(expr, self.env(), self.ctx.rng, self._reader)

    def _dest(self, dest: ast.Dest, sender: Optional[str]) -> str:
        """The instance name ``dest`` denotes in the current state."""
        if isinstance(dest, ast.DestName):
            return dest.name
        if isinstance(dest, ast.DestSender):
            if sender is None:
                raise FailSemanticError(
                    f"{self.instance}: FAIL_SENDER outside a message handler")
            return sender
        index = self._eval(dest.index)
        try:
            return f"{dest.group}[{index}]"
        except ValueError:      # past int-to-str's digit limit
            raise FailSemanticError(
                f"{self.instance}: index into {dest.group} too large") from None

    @property
    def node_id(self) -> int:
        return self.current.node_id if self.current is not None else -1

    # -- node transitions -----------------------------------------------------
    def enter_node(self, node_id: int) -> None:
        """Enter ``node_id`` (a self-goto still re-enters): re-evaluate
        ``always`` variables, re-arm timers, re-arm breakpoints."""
        node = self.daemon.node(node_id)
        self.current = node
        self.entry_gen += 1
        self.always_vars = {}
        for decl in node.always:
            self.always_vars[decl.name] = self._eval(decl.init)
        for tdecl in node.timers:
            delay = self._eval(tdecl.delay)
            if not 0 <= delay <= _MAX_DELAY:
                raise FailSemanticError(
                    f"{self.instance}: timer delay negative or past float range")
            self.ctx.arm_timer(float(delay), self.entry_gen)
        self.ctx.arm_breakpoints(tuple(
            tr.trigger.func for tr in node.transitions
            if isinstance(tr.trigger, ast.Before)))

    # -- event handling -----------------------------------------------------------
    def _matches(self, trigger: ast.Trigger, event: Tuple) -> bool:
        kind = event[0]
        if kind == "timer":
            return isinstance(trigger, ast.TimerTrigger)
        if kind == "msg":
            return isinstance(trigger, ast.MsgTrigger) and trigger.name == event[1]
        if kind == "onload":
            return isinstance(trigger, ast.OnLoad)
        if kind == "onexit":
            return isinstance(trigger, ast.OnExit)
        if kind == "onerror":
            return isinstance(trigger, ast.OnError)
        if kind == "before":
            return isinstance(trigger, ast.Before) and trigger.func == event[1]
        return False

    def handle(self, event: Tuple, bp_controller=None) -> bool:
        """Deliver one event; returns True if a transition fired.

        ``bp_controller`` (for breakpoint events) is an object with
        ``consume()``/``consumed`` used by halt/stop/continue so the
        host daemon knows whether to auto-resume the paused process.
        """
        if event[0] == "timer" and event[1] != self.entry_gen:
            return False                    # stale timer from a left node
        sender = event[2] if event[0] == "msg" else None
        for tr in self.current.transitions:
            if not self._matches(tr.trigger, event):
                continue
            if tr.guard is not None and not _truthy(self._eval(tr.guard)):
                continue
            self._run_actions(tr, sender, bp_controller)
            return True
        return False

    def _run_actions(self, tr: ast.Transition, sender: Optional[str],
                     bp_controller) -> None:
        goto_target: Optional[int] = None
        for action in tr.actions:
            if isinstance(action, ast.SendAction):
                self.ctx.send_msg(action.msg, self._dest(action.dest, sender))
            elif isinstance(action, ast.GotoAction):
                goto_target = action.node
            elif isinstance(action, ast.HaltAction):
                if bp_controller is not None:
                    bp_controller.consume()
                self.ctx.act_halt()
            elif isinstance(action, ast.StopAction):
                self.ctx.act_stop()
            elif isinstance(action, ast.ContinueAction):
                if bp_controller is not None:
                    bp_controller.consume_and_release()
                self.ctx.act_continue()
            elif isinstance(action, ast.PartitionAction):
                self.ctx.act_partition(self._dest(action.dest, sender))
            elif isinstance(action, ast.HealAction):
                self.ctx.act_heal()
            elif isinstance(action, ast.AssignAction):
                self.vars[action.name] = self._eval(action.expr)
            else:  # pragma: no cover - parser precludes this
                raise TypeError(f"unknown action {action!r}")
        if goto_target is not None:
            self.enter_node(goto_target)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Machine {self.instance} daemon={self.daemon.name} "
                f"node={self.node_id} vars={self.vars}>")
