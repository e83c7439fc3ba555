"""Abstract syntax tree of the FAIL language.

The structure matches the paper's description: a scenario is a set of
``Daemon`` definitions, each a state machine of numbered ``node``\\ s
holding declarations and trigger→actions transitions, plus an optional
``Deploy`` block associating daemons with computers or groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

@dataclass
class Num:
    value: int


@dataclass
class Var:
    name: str


@dataclass
class BinOp:
    op: str            # + - * / % == <> < <= > >= && ||
    left: "Expr"
    right: "Expr"


@dataclass
class UnOp:
    op: str            # - !
    operand: "Expr"


@dataclass
class RandCall:
    """``FAIL_RANDOM(lo, hi)`` — uniform integer, bounds inclusive."""

    lo: "Expr"
    hi: "Expr"


@dataclass
class ReadCall:
    """``FAIL_READ(name)`` — read a variable of the *stressed
    application* through the debugger.

    The paper lists this as a planned feature (§6: the tool "should be
    able to read and modify internal variables of the stressed
    application"); we implement the read half.  Evaluates to the named
    entry of the controlled process's application state (0 when absent
    or when no process is controlled).
    """

    name: str


Expr = Union[Num, Var, BinOp, UnOp, RandCall, ReadCall]


# ---------------------------------------------------------------------------
# destinations (message targets)
# ---------------------------------------------------------------------------

@dataclass
class DestName:
    """A computer instance, e.g. ``P1``."""

    name: str


@dataclass
class DestIndex:
    """A group member, e.g. ``G1[ran]``."""

    group: str
    index: Expr


@dataclass
class DestSender:
    """``FAIL_SENDER`` — reply to the sender of the handled message."""


Dest = Union[DestName, DestIndex, DestSender]


# ---------------------------------------------------------------------------
# triggers
# ---------------------------------------------------------------------------

@dataclass
class TimerTrigger:
    """``timer`` — the node's timer expired."""


@dataclass
class MsgTrigger:
    """``?name`` — a message arrived from another FAIL daemon."""

    name: str


@dataclass
class OnLoad:
    """A process joined the application under test on this machine."""


@dataclass
class OnExit:
    """The controlled process exited normally."""


@dataclass
class OnError:
    """The controlled process exited abnormally."""


@dataclass
class Before:
    """``before(fn)`` — the controlled process is about to enter fn."""

    func: str


Trigger = Union[TimerTrigger, MsgTrigger, OnLoad, OnExit, OnError, Before]


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

@dataclass
class SendAction:
    """``!name(dest)``"""

    msg: str
    dest: Dest


@dataclass
class GotoAction:
    node: int


@dataclass
class HaltAction:
    """Kill the controlled process (the injected fault)."""


@dataclass
class StopAction:
    """Suspend the controlled process under the debugger."""


@dataclass
class ContinueAction:
    """Resume the controlled process."""


@dataclass
class AssignAction:
    name: str
    expr: Expr


@dataclass
class PartitionAction:
    """``partition(dest)`` — cut the machine hosting instance ``dest``
    off the rest of the network fabric.

    Isolation accumulates into one minority partition (isolated
    machines stay connected to each other), so a transition can carve
    out a whole neighborhood with several ``partition`` actions.  A
    destination naming no daemon instance falls back to a cluster node
    name (e.g. ``partition(svc2)`` isolates a checkpoint server).
    """

    dest: Dest


@dataclass
class HealAction:
    """``heal`` — restore every cut link of the fabric.

    Severed connections stay dead; a heal landing within one network
    latency of the cut wins the race against the closure notification,
    so the failure detector never fires (see
    :class:`repro.cluster.network.Network`).
    """


Action = Union[SendAction, GotoAction, HaltAction, StopAction,
               ContinueAction, AssignAction, PartitionAction, HealAction]


# ---------------------------------------------------------------------------
# daemon structure
# ---------------------------------------------------------------------------

@dataclass
class VarDecl:
    """Daemon-scope variable: ``int nb_crash = X;``"""

    name: str
    init: Expr


@dataclass
class AlwaysDecl:
    """Node-entry variable: ``always int ran = FAIL_RANDOM(0, N);``
    Re-evaluated every time the node is entered (including self-goto)."""

    name: str
    init: Expr


@dataclass
class TimerDecl:
    """Node timer: ``time g_timer = 50;`` armed on node entry."""

    name: str
    delay: Expr


@dataclass
class Transition:
    trigger: Trigger
    guard: Optional[Expr]
    actions: Tuple[Action, ...]
    #: source line, excluded from equality so ASTs compare structurally
    line: int = field(default=0, compare=False)


@dataclass
class NodeDef:
    node_id: int
    always: Tuple[AlwaysDecl, ...] = ()
    timers: Tuple[TimerDecl, ...] = ()
    transitions: Tuple[Transition, ...] = ()


@dataclass
class DaemonDef:
    name: str
    variables: Tuple[VarDecl, ...] = ()
    nodes: Tuple[NodeDef, ...] = ()

    def node(self, node_id: int) -> NodeDef:
        for nd in self.nodes:
            if nd.node_id == node_id:
                return nd
        raise KeyError(node_id)

    @property
    def start_node(self) -> int:
        return self.nodes[0].node_id


@dataclass
class DeployDirective:
    """``P1 = ADV1;`` or ``G1[53] = ADVnodes;``"""

    instance: str
    daemon: str
    group_size: Optional[int] = None   # None -> single computer


@dataclass
class Program:
    daemons: Tuple[DaemonDef, ...] = ()
    deploy: Tuple[DeployDirective, ...] = ()

    def daemon(self, name: str) -> DaemonDef:
        for d in self.daemons:
            if d.name == name:
                return d
        raise KeyError(name)
