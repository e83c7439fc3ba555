"""Simulated unix processes.

A :class:`UnixProcess` groups one *main* simulated coroutine plus any
helper threads — generator threads for code that blocks, callback
threads (:meth:`UnixProcess.spawn_reader`, :meth:`UnixProcess.adopt_thread`)
for code that only reacts, e.g. to what a socket delivers, or a
daemon's :class:`~repro.cluster.network.Mesh` — owns sockets and mesh
ends (closed by the "OS" when the process dies), and exposes the
control surface the FAIL debugger needs:

* ``kill()``   — SIGKILL: all threads die instantly, sockets close;
* ``suspend()``/``resume_all()`` — debugger stop/continue of every thread;
* ``trace_point(name)`` — a cooperative breakpoint site; programs mark
  protocol locations (e.g. ``localMPI_setCommand``) with
  ``yield from proc.trace_point("localMPI_setCommand")`` and an armed
  debugger can intercept there (see :mod:`repro.fail.debugger`).

Exit notification: node-level listeners observe normal exits, error
exits and kills — the events the FAIL language maps to ``onexit`` /
``onerror`` (a kill is the *injected* death, handled separately by the
injector itself).  Once they have run, the dead process breaks its own
reference cycles: a killed incarnation is freed by reference count while
the simulation goes on.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.simkernel.process import CallbackThread, Process
from repro.simkernel.store import Reader


class ProcState(enum.Enum):
    RUNNING = "running"
    SUSPENDED = "suspended"
    EXITED = "exited"
    ERRORED = "errored"
    KILLED = "killed"

    @property
    def alive(self) -> bool:
        return self in _LIVE


_LIVE = (ProcState.RUNNING, ProcState.SUSPENDED)


class UnixProcess:
    """A process on a :class:`~repro.cluster.node.Node`.

    Parameters
    ----------
    node:
        Hosting node.
    name:
        Program name (used by FAIL group matching and traces).
    main:
        Generator factory ``f(proc) -> generator`` for the main thread.
    """

    def __init__(self, node, name: str, main: Callable[["UnixProcess"], Generator],
                 tags: Optional[Dict[str, Any]] = None):
        self.node = node
        self.engine = node.engine
        self.name = name
        self.tags: Dict[str, Any] = dict(tags or {})
        self.pid = node.cluster.next_pid()
        self.state = ProcState.RUNNING
        self.exit_value: Any = None
        self.exit_error: Optional[BaseException] = None
        #: generator threads (Process) and callback threads alike: both
        #: answer ``alive`` / ``kill`` / ``suspend`` / ``resume``; each
        #: -> when it was started (``_tick``)
        self._threads: Dict[Any, int] = {}
        #: open sockets and listeners -> when they were opened.  The
        #: ends of :attr:`mesh`, if any, keep theirs in ``mesh.fd``, and
        #: its row readers and dials their thread positions
        self._sockets: Dict[Any, int] = {}
        #: the next number in the order things of this process were
        #: opened or started
        self._tick: Callable[[], int] = itertools.count().__next__
        self.mesh = None
        #: the causal site the messages this process sends are minted
        #: at (``disp``, ``sched``, ``r<rank>``, ...; see
        #: :mod:`repro.obs.causal`): its main sets it once, before it
        #: opens a socket or builds a mesh, which keep a copy
        self.site: Optional[str] = None
        self._exit_listeners: List[Callable[["UnixProcess", ProcState], None]] = []
        #: breakpoint interceptors: name -> callable(proc, name, resume_event)
        #: returning True if it took ownership of the pause (see trace_point)
        self._bp_handlers: Dict[str, Callable] = {}
        self._crash_handler: Optional[Callable] = self._thread_crashed
        self.main_thread = self.spawn_thread(main(self), name=f"{name}.main", _main=True)

    # -- threads -------------------------------------------------------------
    def spawn_thread(self, gen: Generator, name: Optional[str] = None,
                     _main: bool = False) -> Process:
        """Run ``gen`` as an additional thread of this process."""
        if not self.state.alive:
            raise RuntimeError(f"spawn_thread on dead process {self}")
        t = self.engine.process(gen, name=name or f"{self.name}.t{len(self._threads)}")
        self._threads[t] = self._tick()
        t.add_callback(lambda ev, main=_main: self._thread_done(ev, main))
        if self.state is ProcState.SUSPENDED:
            t.suspend()
        return t

    def spawn_reader(self, source, on_item: Callable[[Any], None],
                     on_close: Optional[Callable[[], None]] = None) -> Reader:
        """Serve ``source`` — a socket's messages or a listener's
        accepted sockets — with ``on_item``, as a thread of this
        process that never blocks: ``on_close`` (if given) runs once
        when the stream closes.
        """
        return self.adopt_thread(Reader(self.engine, source._rx, on_item,
                                        on_close))

    def adopt_thread(self, thread: CallbackThread) -> CallbackThread:
        """Make a just-built callback thread one of this process's
        threads: it dies, stops and continues with the process, and a
        step of it that raises takes the process down."""
        if self.state not in _LIVE:     # state.alive, minus a call: per reader
            thread.kill()
            raise RuntimeError(f"adopt_thread on dead process {self}")
        thread.on_error = self._crash_handler
        self._threads[thread] = self._tick()
        if self.state is ProcState.SUSPENDED:
            thread.suspend()
        return thread

    def _thread_done(self, ev, is_main: bool) -> None:
        if not ev.ok:
            self._thread_crashed(ev.exception)
        elif is_main and self.state.alive:
            self.exit_value = ev._value
            self._terminate(ProcState.EXITED)

    def _thread_crashed(self, err: BaseException) -> None:
        """A crashing thread takes the whole process down (abort())."""
        if self.state.alive:
            self.exit_error = err
            self._terminate(ProcState.ERRORED)

    # -- sockets ---------------------------------------------------------------
    def adopt_socket(self, sock) -> None:
        self._sockets[sock] = self._tick()

    def disown_socket(self, sock) -> None:
        self._sockets.pop(sock, None)

    # -- lifecycle ---------------------------------------------------------------
    def kill(self) -> None:
        """SIGKILL: immediate death, no user-space cleanup."""
        if not self.state.alive:
            return
        self._terminate(ProcState.KILLED)

    def exit(self, value: Any = None) -> None:
        """Voluntary clean exit (callable from the process's own
        threads): ends every thread, closes sockets, reports EXITED —
        the event FAIL maps to ``onexit``."""
        if not self.state.alive:
            return
        self.exit_value = value
        self._terminate(ProcState.EXITED)

    def abort(self) -> None:
        """Voluntary abnormal exit — reported as ERRORED (FAIL
        ``onerror``)."""
        if not self.state.alive:
            return
        self._terminate(ProcState.ERRORED)

    def _terminate(self, final: ProcState) -> None:
        self.state = final
        for t in self._threads:
            if t.alive:
                t.kill()
        # The OS closes every fd the process held, in the order they
        # were opened: peers see closure.
        mesh = self.mesh
        ends = mesh.open_ends() if mesh is not None else []
        i = 0
        for sock, fd in list(self._sockets.items()):
            while i < len(ends) and ends[i][0] < fd:
                mesh.close_end(ends[i][1])
                i += 1
            sock.close()
        for _fd, row in ends[i:]:
            mesh.close_end(row)
        self._sockets.clear()
        self.node._proc_gone(self)
        self.engine.log("proc_exit", pid=self.pid, name=self.name,
                        node=self.node.name, how=final.value)
        for listener in list(self._exit_listeners):
            listener(self, final)
        self._release()

    def _release(self) -> None:
        """Break a dead process's cycles.  :attr:`tags` stay readable
        (each value drops what it held for the run) and a crashed
        callback thread whole: the runtime names it at the end."""
        for thread in self._threads:
            if isinstance(thread, CallbackThread) and thread.error is None:
                thread.dispose()
        self._threads.clear()
        for tagged in self.tags.values():
            dispose = getattr(tagged, "dispose", None)
            if dispose is not None:
                dispose()
        self._exit_listeners.clear()
        self._bp_handlers.clear()
        self._crash_handler = self.mesh = None

    def on_exit(self, listener: Callable[["UnixProcess", ProcState], None]) -> None:
        """Register an exit listener (FAIL onexit/onerror plumbing).

        A listener registered on an already-dead process fires
        immediately — a watcher (e.g. the dispatcher's ssh watch)
        must not miss a death that happened in the same instant as the
        spawn.
        """
        if not self.state.alive:
            listener(self, self.state)
            return
        self._exit_listeners.append(listener)

    # -- debugger surface ---------------------------------------------------------
    def suspend(self) -> None:
        """Debugger stop: freeze every thread."""
        if self.state is ProcState.RUNNING:
            self.state = ProcState.SUSPENDED
            for t in self._threads:
                if t.alive:
                    t.suspend()

    def resume_all(self) -> None:
        """Debugger continue: every thread re-issues what fired while
        stopped, in the order the threads started (what the mesh parked
        goes in at its readers' and dials' places)."""
        if self.state is ProcState.SUSPENDED:
            self.state = ProcState.RUNNING
            mesh = self.mesh
            parked = mesh.unpark() if mesh is not None else []
            i = 0
            for t, tick in self._threads.items():
                while i < len(parked) and parked[i][0] < tick:
                    mesh.rerun(*parked[i])
                    i += 1
                if t.alive:
                    t.resume()
            for pos, hop in parked[i:]:
                mesh.rerun(pos, hop)

    def set_breakpoint(self, fn_name: str, handler: Callable) -> None:
        """Arm a breakpoint at trace point ``fn_name``.

        ``handler(proc, fn_name, resume_event)`` runs (asynchronously,
        at the same instant) when a thread reaches the trace point; the
        thread stays blocked until ``resume_event`` succeeds or the
        process dies.
        """
        self._bp_handlers[fn_name] = handler

    def clear_breakpoint(self, fn_name: str) -> None:
        self._bp_handlers.pop(fn_name, None)

    def trace_point(self, fn_name: str):
        """Cooperative breakpoint site; use ``yield from``.

        Fast path (no breakpoint armed) yields nothing at all, so
        un-instrumented runs pay only a dict lookup.
        """
        handler = self._bp_handlers.get(fn_name)
        if handler is None:
            return
        resume = self.engine.event(name=f"bp({fn_name})@{self.name}")
        # Notify asynchronously so the handler may safely kill/suspend us.
        self.engine.call_later(0.0, lambda: handler(self, fn_name, resume))
        yield resume

    def __repr__(self) -> str:  # pragma: no cover
        return f"<UnixProcess pid={self.pid} {self.name!r} on {self.node.name} {self.state.value}>"
