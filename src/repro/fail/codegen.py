"""Python code generation from FAIL daemons.

The real FCI compiler emits C++ sources that are shipped to every
machine and compiled there.  The equivalent artifact here is readable
Python: :func:`generate_python` renders a daemon definition as a
self-contained handler class whose structure mirrors the generated C++
(one method per node, a dispatch table, explicit variable slots).  The
output is primarily documentation/debugging aid — the interpreter in
:mod:`repro.fail.machine` is what actually runs scenarios — but it is
executable and covered by tests, which pins down the semantics twice.
"""

from __future__ import annotations

from typing import List

from repro.fail.lang import ast
from repro.fail.lang.pretty import action_str, trigger_str


def _py_expr(expr: ast.Expr) -> str:
    """FAIL expression → Python expression over ``self.vars``/``env``."""
    if isinstance(expr, ast.Num):
        return str(expr.value)
    if isinstance(expr, ast.Var):
        return f"env[{expr.name!r}]"
    if isinstance(expr, ast.RandCall):
        # _rand() mirrors the interpreter: inclusive, swapped if reversed
        return f"self._rand({_py_expr(expr.lo)}, {_py_expr(expr.hi)})"
    if isinstance(expr, ast.ReadCall):
        return f"self.ctx.read_app_var({expr.name!r})"
    if isinstance(expr, ast.UnOp):
        if expr.op == "-":
            return f"(-{_py_expr(expr.operand)})"
        return f"(0 if {_py_expr(expr.operand)} else 1)"
    if isinstance(expr, ast.BinOp):
        op = {"&&": "and", "||": "or", "<>": "!=", "==": "==",
              "/": "//"}.get(expr.op, expr.op)
        lhs, rhs = _py_expr(expr.left), _py_expr(expr.right)
        if expr.op in ("==", "<>", "<", "<=", ">", ">=", "&&", "||"):
            return f"(1 if ({lhs} {op} {rhs}) else 0)"
        return f"({lhs} {op} {rhs})"
    raise TypeError(f"not an expression: {expr!r}")


def _trigger_cond(trigger: ast.Trigger) -> str:
    if isinstance(trigger, ast.TimerTrigger):
        return "kind == 'timer'"
    if isinstance(trigger, ast.MsgTrigger):
        return f"kind == 'msg' and arg == {trigger.name!r}"
    if isinstance(trigger, ast.OnLoad):
        return "kind == 'onload'"
    if isinstance(trigger, ast.OnExit):
        return "kind == 'onexit'"
    if isinstance(trigger, ast.OnError):
        return "kind == 'onerror'"
    if isinstance(trigger, ast.Before):
        return f"kind == 'before' and arg == {trigger.func!r}"
    raise TypeError(f"not a trigger: {trigger!r}")


def _dest_py(dest: ast.Dest) -> str:
    if isinstance(dest, ast.DestSender):
        return "sender"
    if isinstance(dest, ast.DestName):
        return repr(dest.name)
    if isinstance(dest, ast.DestIndex):
        return f"'{dest.group}[' + str({_py_expr(dest.index)}) + ']'"
    raise TypeError(f"not a destination: {dest!r}")


def generate_python(daemon: ast.DaemonDef, params=None) -> str:
    """Render ``daemon`` as a Python handler class (source text)."""
    params = dict(params or {})
    lines: List[str] = []
    emit = lines.append
    emit(f"class {daemon.name}Handler:")
    emit(f'    """Generated from FAIL daemon {daemon.name!r} — one method')
    emit('    per node, mirroring the FCI compiler\'s C++ output."""')
    emit("")
    emit("    PARAMS = " + repr(params))
    emit("")
    emit("    def __init__(self, ctx, rng):")
    emit("        self.ctx = ctx")
    emit("        self.rng = rng")
    emit("        self.vars = dict(self.PARAMS)")
    for var in daemon.variables:
        emit(f"        self.vars[{var.name!r}] = "
             f"{_py_expr(var.init).replace('env[', 'self.vars[')}")
    emit(f"        self.node = {daemon.start_node}")
    emit("        self.enter_node()")
    emit("")
    emit("    def env(self):")
    emit("        return dict(self.vars)")
    emit("")
    emit("    def _rand(self, lo, hi):")
    emit("        if hi < lo:")
    emit("            lo, hi = hi, lo")
    emit("        return self.rng.randint(lo, hi)")
    emit("")
    emit("    def enter_node(self):")
    emit("        getattr(self, f'enter_{self.node}')()")
    emit("")
    emit("    def handle(self, kind, arg=None, sender=None):")
    emit("        return getattr(self, f'node_{self.node}')(kind, arg, sender)")
    emit("")
    for node in daemon.nodes:
        emit(f"    def enter_{node.node_id}(self):")
        emit("        env = self.env()")
        emit("        self.always_vars = {}")
        for decl in node.always:
            emit(f"        env[{decl.name!r}] = "
                 f"self.always_vars[{decl.name!r}] = {_py_expr(decl.init)}")
        for tdecl in node.timers:
            emit(f"        self.ctx.arm_timer({_py_expr(tdecl.delay)})")
        emit("")
        emit(f"    def node_{node.node_id}(self, kind, arg, sender):")
        emit("        # env rebuilt per event: assignments without a goto")
        emit("        # must be visible to later guards, as in the")
        emit("        # interpreter (repro.fail.machine)")
        emit("        env = self.env()")
        emit("        env.update(self.always_vars)")
        for tr in node.transitions:
            cond = _trigger_cond(tr.trigger)
            if tr.guard is not None:
                cond += f" and ({_py_expr(tr.guard)})"
            emit(f"        # {trigger_str(tr.trigger)} -> "
                 + ", ".join(action_str(a) for a in tr.actions))
            emit(f"        if {cond}:")
            goto = None
            for action in tr.actions:
                if isinstance(action, ast.SendAction):
                    emit(f"            self.ctx.send({action.msg!r}, "
                         f"{_dest_py(action.dest)})")
                elif isinstance(action, ast.GotoAction):
                    goto = action.node
                elif isinstance(action, ast.HaltAction):
                    emit("            self.ctx.halt()")
                elif isinstance(action, ast.StopAction):
                    emit("            self.ctx.stop()")
                elif isinstance(action, ast.ContinueAction):
                    emit("            self.ctx.cont()")
                elif isinstance(action, ast.PartitionAction):
                    emit(f"            self.ctx.partition("
                         f"{_dest_py(action.dest)})")
                elif isinstance(action, ast.HealAction):
                    emit("            self.ctx.heal()")
                elif isinstance(action, ast.AssignAction):
                    emit(f"            self.vars[{action.name!r}] = "
                         f"{_py_expr(action.expr)}")
                    # a later action of this transition reads it
                    emit("            env = {**self.vars, "
                         "**self.always_vars}")
            if goto is not None:
                emit(f"            self.node = {goto}")
                emit("            self.enter_node()")
            emit("            return True")
        emit("        return False")
        emit("")
    return "\n".join(lines) + "\n"


def generate_module(program: ast.Program, params=None) -> str:
    """Render every daemon of a program into one Python module text."""
    header = (
        '"""Generated by repro.fail.codegen — the Python analogue of the\n'
        'FCI compiler\'s per-machine C++ output.  Do not edit."""\n\n'
    )
    return header + "\n\n".join(
        generate_python(d, params) for d in program.daemons)
