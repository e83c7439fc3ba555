"""The FAIL-MPI daemon: one per machine (plus coordinator instances).

Responsibilities (paper §4):

* receive registrations of the self-deploying application's processes
  (our :meth:`repro.cluster.node.Node.on_spawn` listener is the
  "wrapper script" automation the paper describes) — each newly loaded
  process is attached **suspended**, and the scenario decides when it
  may run (every paper scenario's ``onload`` handler carries an
  explicit ``continue``);
* observe process exits (``onexit`` / ``onerror``; an injected kill is
  neither);
* execute the scenario state machine: timers, inter-daemon messages,
  debugger actions (halt / stop / continue), breakpoints;
* serialize event handling with a per-event processing delay — the
  intrusion cost of the FCI daemon + debugger, and an experimentally
  important quantity (it paces multi-fault injection in Fig. 7).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.cluster.unixproc import ProcState, UnixProcess
from repro.fail.debugger import Debugger
from repro.fail.lang import ast
from repro.fail.machine import Machine, MachineContext

#: handling of an injection order (an inter-daemon message), including
#: the GDB verb's cost, uniform (lo, hi) in s
ORDER_HANDLING: Tuple[float, float] = (0.004, 0.04)
#: handling of a local event (onload / onexit / breakpoint), uniform
#: (lo, hi) in s
EVENT_HANDLING: Tuple[float, float] = (0.001, 0.01)


class _BpController:
    """Tracks what the scenario decided about a paused breakpoint."""

    def __init__(self, resume_event):
        self.resume_event = resume_event
        self.consumed = False

    def consume(self) -> None:
        """halt: the process dies at the breakpoint; never release."""
        self.consumed = True

    def consume_and_release(self) -> None:
        """continue: release the paused thread."""
        self.consumed = True
        if not self.resume_event.triggered:
            self.resume_event.succeed()

    def finish(self) -> None:
        """Default: a breakpoint nobody killed/held resumes (GDB
        'continue' after the handler)."""
        if not self.consumed and not self.resume_event.triggered:
            self.resume_event.succeed()


class FailDaemon(MachineContext):
    """One FAIL daemon instance executing one state machine."""

    def __init__(self, platform, instance: str, daemon_ast: ast.DaemonDef,
                 params: dict, node=None):
        self.platform = platform
        self.engine = platform.engine
        # Scenario semantics (FAIL_RANDOM, destination indices) draw
        # from the deployment's dedicated stream; intrusion-cost timing
        # stays on the engine stream (see _handling_delay).
        self.rng = getattr(platform, "rng", platform.engine.random)
        self.instance = instance
        self.node = node
        self.debugger = Debugger()
        self._queue: Deque[Tuple] = deque()
        self._busy = False
        self.events_handled = 0
        self.faults_injected = 0
        self.partitions_injected = 0
        platform.bus.register(instance, self)
        # Building the machine enters the start node, which may arm
        # timers/breakpoints through the context methods below.
        self.machine = Machine(daemon_ast, params, self, instance)
        if node is not None:
            node.on_spawn(self._on_spawn)

    # ------------------------------------------------------------------
    # inbound events (listeners; all asynchronous w.r.t. the machine)
    # ------------------------------------------------------------------
    def _on_spawn(self, proc: UnixProcess) -> None:
        if not self.platform.is_app_process(proc):
            return
        # Attach at launch: the process starts under debugger control,
        # suspended until the scenario continues it (or auto-continue
        # if the scenario has no onload transition here).
        proc.suspend()
        self.debugger.attach(proc)
        proc.on_exit(self._on_exit)
        self._enqueue(("onload",))

    def _on_exit(self, proc: UnixProcess, final: ProcState) -> None:
        if proc is not self.debugger.target:
            return
        if final is ProcState.EXITED:
            self._enqueue(("onexit",))
        elif final is ProcState.ERRORED:
            self._enqueue(("onerror",))
        # KILLED: the injected fault itself — not an application event.

    def deliver_msg(self, msg: str, src: str) -> None:
        self._enqueue(("msg", msg, src))

    def _on_breakpoint(self, proc: UnixProcess, fn: str, resume) -> None:
        self._enqueue(("before", fn, _BpController(resume)))

    # ------------------------------------------------------------------
    # serialized handling with per-event processing delay
    # ------------------------------------------------------------------
    def _handling_delay(self, event: Tuple) -> float:
        rng = self.engine.random      # timing noise, not scenario logic
        if event[0] == "msg":
            return rng.uniform(*ORDER_HANDLING)
        return rng.uniform(*EVENT_HANDLING)

    def _enqueue(self, event: Tuple) -> None:
        self._queue.append(event)
        self._pump()

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        event = self._queue.popleft()
        self.engine.call_later(self._handling_delay(event),
                               lambda: self._process(event))

    def _process(self, event: Tuple) -> None:
        self.events_handled += 1
        kind = event[0]
        controller = event[2] if kind == "before" else None
        machine_event = ("before", event[1]) if kind == "before" else event
        matched = self.machine.handle(machine_event, bp_controller=controller)
        if kind == "onload" and not matched:
            # No scenario opinion: let the process run (documented
            # default; every paper scenario continues explicitly).
            self.debugger.cont()
        if controller is not None:
            controller.finish()
        self._busy = False
        self._pump()

    # ------------------------------------------------------------------
    # MachineContext — actions
    # ------------------------------------------------------------------
    def send_msg(self, msg: str, dest_instance: str) -> None:
        self.platform.bus.send(self.instance, dest_instance, msg)

    def read_app_var(self, name: str) -> int:
        """``FAIL_READ(name)``: inspect the controlled application's
        state through the debugger (the paper's §6 planned feature).

        Reads the named entry of the controlled MPI process's
        checkpointable state (e.g. the BT iteration counter); 0 when no
        process is controlled or the variable is absent.
        """
        target = self.debugger.target
        if target is None or not target.state.alive:
            return 0
        core = target.tags.get("vcl")
        if core is None:
            return 0
        value = core.app_state.get(name, 0)
        try:
            return int(value)
        except (TypeError, ValueError):
            return 0

    def act_halt(self) -> None:
        target = self.debugger.target
        if self.debugger.halt():
            self.faults_injected += 1
            self.engine.log("fault_injected", instance=self.instance,
                            pid=target.pid, name=target.name,
                            node=target.node.name)
            # detection starts the moment the fault lands; the
            # dispatcher closes this span when it attributes the
            # closure (see repro.mpichv.dispatcher.close_detect)
            self.engine.span("detect", lane=target.node.name,
                             node=target.node.name, pid=target.pid)
        else:
            self.engine.log("halt_noop", instance=self.instance)

    def act_stop(self) -> None:
        self.debugger.stop()

    def act_continue(self) -> None:
        self.debugger.cont()

    def act_partition(self, dest_instance: str) -> None:
        """``partition(dest)``: isolate the machine hosting the FAIL
        instance ``dest_instance`` (falling back to a raw cluster node
        name, so scenarios can cut service machines like ``svc2``)."""
        resolver = getattr(self.platform, "node_for_instance", None)
        node = resolver(dest_instance) if resolver is not None else None
        network = getattr(self.platform, "network", None)
        if node is None or network is None:
            self.engine.log("partition_noop", instance=self.instance,
                            target=dest_instance)
            return
        network.isolate(node.name)
        self.partitions_injected += 1
        self.engine.log("partition_injected", instance=self.instance,
                        target=dest_instance, node=node.name)

    def act_heal(self) -> None:
        """``heal``: restore every cut link of the fabric."""
        network = getattr(self.platform, "network", None)
        if network is None:
            self.engine.log("heal_noop", instance=self.instance)
            return
        network.heal()
        self.engine.log("heal_injected", instance=self.instance)

    def arm_timer(self, delay: float, entry_gen: int) -> None:
        self.engine.call_later(
            delay, lambda: self._timer_fired(entry_gen))

    def _timer_fired(self, entry_gen: int) -> None:
        # staleness re-checked at processing time by the machine
        if entry_gen == self.machine.entry_gen:
            self._enqueue(("timer", entry_gen))

    def arm_breakpoints(self, funcs: Tuple[str, ...]) -> None:
        self.debugger.clear_breakpoints()
        for fn in funcs:
            self.debugger.set_breakpoint(fn, self._on_breakpoint)

    # -- introspection -------------------------------------------------------
    @property
    def node_id(self) -> int:
        return self.machine.node_id

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FailDaemon {self.instance} node={self.node_id}>"
