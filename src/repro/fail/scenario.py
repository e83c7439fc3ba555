"""User-facing scenario API: compile, bind, deploy.

A FAIL scenario text defines daemons; a *deployment* associates daemon
definitions with the machines of a runtime:

* a **computer** binding (``P1``) creates one coordinator instance,
  optionally attached to a machine;
* a **group** binding (``G1``) creates one instance per machine
  (``G1[0]``, ``G1[1]``, …) controlling the application processes that
  load on that machine.

Bindings can come from the scenario's own ``Deploy`` block or be given
programmatically; programmatic bindings win (they know the actual
cluster size).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.fail.compile import CompiledScenario, compile_scenario
from repro.fail.bus import FailBus
from repro.fail.daemon import FailDaemon
from repro.fail.lang.errors import FailSemanticError


@dataclass
class Binding:
    """How one scenario instance name maps onto the cluster.

    ``nodes`` — list of cluster node names (group) or a single-element
    list / None (computer).  ``None`` means an unattached coordinator
    (it controls no process; e.g. the paper's P1).
    """

    daemon: str
    nodes: Optional[List[str]] = None


class Scenario:
    """A compiled scenario ready for deployment."""

    def __init__(self, compiled: CompiledScenario):
        self.compiled = compiled

    @classmethod
    def from_source(cls, source: str, params: Dict[str, int] = None) -> "Scenario":
        return cls(compile_scenario(source, params))

    @property
    def program(self):
        return self.compiled.program

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


class ScenarioDeployment:
    """Live FAIL-MPI platform attached to a runtime."""

    def __init__(self, runtime, scenario: Scenario,
                 bindings: Dict[str, Binding],
                 app_prefix: str = "vdaemon"):
        self.runtime = runtime
        self.scenario = scenario
        self.engine = runtime.engine
        self.timing = runtime.config.timing
        # The scenario's own random stream: every FAIL_RANDOM draw of
        # every daemon comes from here, seeded from the trial seed, so
        # one (scenario, seed) pair always replays the same fault
        # schedule — regardless of how the protocol or workload under
        # test consumes the engine's shared RNG.  (String seeding is
        # hash-stable across processes.)
        self.rng = random.Random(f"fail-mpi:{getattr(self.engine, 'seed', 0)}")
        self.bus = FailBus(self.engine, latency=self.timing.fail_bus_latency)
        self.app_prefix = app_prefix
        self.daemons: Dict[str, FailDaemon] = {}
        self.groups: Dict[str, List[FailDaemon]] = {}
        compiled = scenario.compiled
        for instance, binding in bindings.items():
            daemon_ast = compiled.daemon(binding.daemon)
            if binding.nodes is None:
                self.daemons[instance] = FailDaemon(
                    self, instance, daemon_ast, compiled.params, node=None)
            elif len(binding.nodes) == 1 and "[" not in instance:
                node = runtime.cluster.node(binding.nodes[0])
                self.daemons[instance] = FailDaemon(
                    self, instance, daemon_ast, compiled.params, node=node)
            else:
                members: List[FailDaemon] = []
                for i, node_name in enumerate(binding.nodes):
                    name = f"{instance}[{i}]"
                    node = runtime.cluster.node(node_name)
                    fd = FailDaemon(self, name, daemon_ast,
                                    compiled.params, node=node)
                    self.daemons[name] = fd
                    members.append(fd)
                self.groups[instance] = members

    # -- platform services used by FailDaemon ---------------------------------
    def is_app_process(self, proc) -> bool:
        """The registration interface: which processes joined the
        application under test (paper §4's wrapper-script scheme)."""
        return proc.name.startswith(self.app_prefix)

    @property
    def network(self):
        """The runtime's network fabric (``partition``/``heal`` actions)."""
        return self.runtime.cluster.network

    def node_for_instance(self, name: str):
        """Cluster node a ``partition(dest)`` destination refers to.

        A FAIL instance name resolves to the machine its daemon
        controls; anything else falls back to a raw cluster node name
        (service machines carry no FAIL daemon), or ``None``.
        """
        daemon = self.daemons.get(name)
        if daemon is not None:
            return daemon.node
        try:
            return self.runtime.cluster.node(name)
        except KeyError:
            return None

    # -- introspection ------------------------------------------------------------
    def daemon(self, instance: str) -> FailDaemon:
        return self.daemons[instance]

    def group(self, name: str) -> List[FailDaemon]:
        return self.groups[name]

    def total_faults_injected(self) -> int:
        return sum(d.faults_injected for d in self.daemons.values())

    def total_partitions_injected(self) -> int:
        return sum(d.partitions_injected for d in self.daemons.values())


def deploy_scenario(runtime, source: str, params: Dict[str, int] = None,
                    bindings: Dict[str, Binding] = None,
                    app_prefix: str = "vdaemon") -> ScenarioDeployment:
    """One-call deployment: compile ``source`` and attach to ``runtime``.

    Without explicit ``bindings`` the scenario must carry a ``Deploy``
    block; groups then spread over the runtime's compute machines.
    """
    scenario = Scenario.from_source(source, params)
    if bindings is None:
        bindings = scenario.default_bindings(list(runtime.machines))
        if not bindings:
            raise FailSemanticError(
                "scenario has no Deploy block and no bindings were given")
    return ScenarioDeployment(runtime, scenario, bindings, app_prefix=app_prefix)
