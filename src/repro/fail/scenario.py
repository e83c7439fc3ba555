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
from typing import Dict, List

from repro.fail.compile import Binding, CompiledScenario, compile_scenario
from repro.fail.bus import FailBus
from repro.fail.daemon import FailDaemon
from repro.fail.lang.errors import FailSemanticError


class ScenarioDeployment:
    """Live FAIL-MPI platform attached to a runtime."""

    def __init__(self, runtime, compiled: CompiledScenario,
                 bindings: Dict[str, Binding]):
        self.runtime = runtime
        self.engine = runtime.engine
        # The scenario's own random stream: every FAIL_RANDOM draw of
        # every daemon comes from here, seeded from the trial seed, so
        # one (scenario, seed) pair always replays the same fault
        # schedule — regardless of how the protocol or workload under
        # test consumes the engine's shared RNG.  (String seeding is
        # hash-stable across processes.)
        self.rng = random.Random(f"fail-mpi:{getattr(self.engine, 'seed', 0)}")
        self.bus = FailBus(self.engine)
        self.daemons: Dict[str, FailDaemon] = {}
        self.groups: Dict[str, List[FailDaemon]] = {}
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
        return proc.name.startswith("vdaemon")

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
                    bindings: Dict[str, Binding] = None) -> ScenarioDeployment:
    """One-call deployment: compile ``source`` and attach to ``runtime``.

    Without explicit ``bindings`` the scenario must carry a ``Deploy``
    block; groups then spread over the runtime's compute machines.
    """
    compiled = compile_scenario(source, params)
    if bindings is None:
        bindings = compiled.default_bindings(list(runtime.machines))
        if not bindings:
            raise FailSemanticError(
                "scenario has no Deploy block and no bindings were given")
    return ScenarioDeployment(runtime, compiled, bindings)
