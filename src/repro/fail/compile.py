"""The "FCI compiler": FAIL source → executable scenario.

The real FCI compiler emits C++ sources plus configuration files that
get distributed and built per machine.  Here compilation means:
parse → semantic check (with the experiment's meta-parameters) →
a :class:`CompiledScenario` of daemon definitions, and the bindings of
its ``Deploy`` block, ready for instantiation by
:mod:`repro.fail.scenario`.  There is no generated program: each
instance runs its daemon definition through the interpreter in
:mod:`repro.fail.machine`, the one semantics of the language.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fail.lang import ast
from repro.fail.lang.errors import FailSemanticError
from repro.fail.lang.parser import parse_fail
from repro.fail.lang.semantics import check_program


@dataclass
class Binding:
    """How one scenario instance name maps onto the cluster.

    ``nodes`` — list of cluster node names (group) or a single-element
    list / None (computer).  ``None`` means an unattached coordinator
    (it controls no process; e.g. the paper's P1).
    """

    daemon: str
    nodes: Optional[List[str]] = None


@dataclass(frozen=True)
class CompiledScenario:
    """A validated FAIL program plus its meta-parameter values."""

    program: ast.Program
    params: Dict[str, int] = field(default_factory=dict)

    def daemon(self, name: str) -> ast.DaemonDef:
        try:
            return self.program.daemon(name)
        except KeyError:
            raise FailSemanticError(f"no daemon named {name!r} in scenario")

    @property
    def daemon_names(self) -> Tuple[str, ...]:
        return tuple(d.name for d in self.program.daemons)

    def default_bindings(self, group_nodes: List[str]) -> Dict[str, Binding]:
        """Bindings from the scenario's ``Deploy`` block.

        Group directives are spread over ``group_nodes``; a declared
        group size must not exceed the machines available.
        """
        out: Dict[str, Binding] = {}
        for d in self.program.deploy:
            if d.group_size is None:
                out[d.instance] = Binding(daemon=d.daemon, nodes=None)
            else:
                if d.group_size > len(group_nodes):
                    raise FailSemanticError(
                        f"deploy: group {d.instance!r} wants {d.group_size} "
                        f"machines, only {len(group_nodes)} available")
                out[d.instance] = Binding(
                    daemon=d.daemon, nodes=group_nodes[:d.group_size])
        return out


def compile_scenario(source: str, params: Dict[str, int] = None) -> CompiledScenario:
    """Parse + check ``source`` with meta-parameters ``params``.

    ``params`` plays the role of the paper's meta variables (X, N):
    identifiers left free in the scenario text and bound per experiment.
    """
    params = dict(params or {})
    for key, value in params.items():
        if not isinstance(value, int):
            raise FailSemanticError(
                f"parameter {key!r} must be an int, got {value!r}")
    program = parse_fail(source)
    check_program(program, params=params.keys())
    return CompiledScenario(program=program, params=params)
