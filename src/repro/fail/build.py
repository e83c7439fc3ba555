"""Programmatic construction of FAIL scenarios.

The paper writes adversaries by hand; the exploration subsystem
(:mod:`repro.explore`) writes them *programmatically*.  This module is
the construction API: thin, composable builders over the AST in
:mod:`repro.fail.lang.ast` plus :func:`render`, which semantic-checks
the program and pretty-prints it to canonical FAIL source.

Everything built here flows through the same pipeline as the
hand-transcribed listings — ``render`` → ``parse`` → ``check`` →
interpret — and the pretty-printer round-trip property
(``parse(render(p)) == p``, see ``tests/test_fail_build.py``) is what
entitles generators to treat the *source text* as the scenario's
canonical, cache-keyable form.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from repro.fail.lang import ast
from repro.fail.lang.pretty import pretty_print
from repro.fail.lang.semantics import check_program

ExprLike = Union[int, str, ast.Num, ast.Var, ast.BinOp, ast.UnOp,
                 ast.RandCall, ast.ReadCall]

#: singleton triggers/actions (no AST node is changed once built, so
#: one instance serves every scenario)
TIMER = ast.TimerTrigger()
ONLOAD = ast.OnLoad()
ONEXIT = ast.OnExit()
ONERROR = ast.OnError()
HALT = ast.HaltAction()
STOP = ast.StopAction()
CONTINUE = ast.ContinueAction()
HEAL = ast.HealAction()
SENDER = ast.DestSender()


def expr(value: ExprLike) -> ast.Expr:
    """Coerce an int (literal) or str (variable name) to an expression."""
    if isinstance(value, bool):
        raise TypeError("FAIL has no booleans; use 0/1")
    if isinstance(value, int):
        return ast.Num(value)
    if isinstance(value, str):
        return ast.Var(value)
    return value


def rand(lo: ExprLike, hi: ExprLike) -> ast.RandCall:
    """``FAIL_RANDOM(lo, hi)`` — bounds inclusive."""
    return ast.RandCall(expr(lo), expr(hi))


def group(name: str, index: ExprLike) -> ast.DestIndex:
    """A group member destination, e.g. ``G1[ran]``."""
    return ast.DestIndex(name, expr(index))


def computer(name: str) -> ast.DestName:
    """A computer-instance destination, e.g. ``P1``."""
    return ast.DestName(name)


def send(msg: str, dest: ast.Dest) -> ast.SendAction:
    return ast.SendAction(msg, dest)


def crash(dest: ast.Dest) -> ast.SendAction:
    """The conventional injection order of the paper's scenarios."""
    return send("crash", dest)


def partition(dest: ast.Dest) -> ast.PartitionAction:
    """``partition(dest)`` — cut ``dest``'s machine off the fabric."""
    return ast.PartitionAction(dest)


def goto(node_id: int) -> ast.GotoAction:
    return ast.GotoAction(node_id)


def on_msg(name: str) -> ast.MsgTrigger:
    """``?name`` — a FAIL message arrived."""
    return ast.MsgTrigger(name)


def when(trigger: ast.Trigger, *actions: ast.Action,
         guard: Optional[ExprLike] = None) -> ast.Transition:
    """One ``trigger [&& guard] -> actions;`` transition."""
    g = expr(guard) if guard is not None else None
    return ast.Transition(trigger=trigger, guard=g, actions=tuple(actions))


def int_var(name: str, init: ExprLike) -> ast.VarDecl:
    """Daemon-scope ``int name = init;``"""
    return ast.VarDecl(name, expr(init))


def always_int(name: str, init: ExprLike) -> ast.AlwaysDecl:
    """Node-entry ``always int name = init;`` (re-drawn on every entry)."""
    return ast.AlwaysDecl(name, expr(init))


def timer(delay: ExprLike, name: str = "g_timer") -> ast.TimerDecl:
    """Node timer ``time name = delay;`` armed on node entry."""
    return ast.TimerDecl(name, expr(delay))


def node(node_id: int, *transitions: ast.Transition,
         always: Sequence[ast.AlwaysDecl] = (),
         timers: Sequence[ast.TimerDecl] = ()) -> ast.NodeDef:
    return ast.NodeDef(node_id=node_id, always=tuple(always),
                       timers=tuple(timers), transitions=tuple(transitions))


def daemon(name: str, *nodes: ast.NodeDef,
           variables: Sequence[ast.VarDecl] = ()) -> ast.DaemonDef:
    return ast.DaemonDef(name=name, variables=tuple(variables),
                         nodes=tuple(nodes))


def deploy_computer(instance: str, daemon_name: str) -> ast.DeployDirective:
    return ast.DeployDirective(instance=instance, daemon=daemon_name)


def deploy_group(instance: str, size: int,
                 daemon_name: str) -> ast.DeployDirective:
    return ast.DeployDirective(instance=instance, daemon=daemon_name,
                               group_size=size)


def program(*daemons: ast.DaemonDef,
            deploy: Sequence[ast.DeployDirective] = ()) -> ast.Program:
    return ast.Program(daemons=tuple(daemons), deploy=tuple(deploy))


def render(prog: ast.Program, params: Iterable[str] = ()) -> str:
    """Semantic-check ``prog`` (with meta-parameter names ``params``)
    and return canonical FAIL source.

    Checking *before* printing means a buggy generator fails loudly at
    generation time, not deep inside a campaign trial.
    """
    check_program(prog, params=params)
    return pretty_print(prog)
