"""The GDB-like control surface FAIL-MPI drives processes through.

FAIL-FCI controlled processes "by using GDB with a command line
interface"; FAIL-MPI keeps the same verbs but attaches via the daemon
registration interface (and can attach to already-running processes by
pid).  Our debugger exposes exactly those verbs over simulated unix
processes:

* ``halt``  — kill the inferior (the injected crash),
* ``stop``  — freeze all its threads,
* ``cont``  — resume,
* ``breakpoint(fn)`` — intercept the inferior at a named trace point
  (``before(fn)`` in FAIL).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.cluster.unixproc import UnixProcess


class Debugger:
    """Controls at most one inferior process at a time."""

    def __init__(self) -> None:
        self.target: Optional[UnixProcess] = None
        self._breakpoints: Dict[str, Callable] = {}

    # -- attachment -----------------------------------------------------------
    def attach(self, proc: UnixProcess) -> None:
        """Attach to ``proc`` (re-applying any armed breakpoints)."""
        self.detach()
        self.target = proc
        for fn, handler in self._breakpoints.items():
            proc.set_breakpoint(fn, handler)

    def detach(self) -> None:
        if self.target is not None:
            for fn in self._breakpoints:
                self.target.clear_breakpoint(fn)
        self.target = None

    @property
    def attached(self) -> bool:
        return self.target is not None and self.target.state.alive

    # -- control verbs -----------------------------------------------------------
    def halt(self) -> bool:
        """Kill the inferior; returns True if something actually died."""
        if self.attached:
            self.target.kill()
            return True
        return False

    def stop(self) -> bool:
        if self.attached:
            self.target.suspend()
            return True
        return False

    def cont(self) -> bool:
        if self.attached:
            self.target.resume_all()
            return True
        return False

    # -- breakpoints --------------------------------------------------------------
    def set_breakpoint(self, fn: str, handler: Callable) -> None:
        """Arm ``fn``; applies to the current and future inferiors."""
        self._breakpoints[fn] = handler
        if self.attached:
            self.target.set_breakpoint(fn, handler)

    def clear_breakpoints(self) -> None:
        if self.attached:
            for fn in self._breakpoints:
                self.target.clear_breakpoint(fn)
        self._breakpoints.clear()
