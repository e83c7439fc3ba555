"""The discrete-event engine: virtual clock + slotted event dispatch.

Scheduling structure (the scale-out fast path): payloads are bucketed
into *slots* keyed by ``(time, priority)``; a heap orders the distinct
slot keys and a plain FIFO list holds each slot's payloads.  In real
deployments the overwhelming majority of events share their instant
with earlier ones (same-time cascades: message deliveries, process
wakeups, the periodic checkpoint/heartbeat grids — measured ~85 % at
128 ranks), so most enqueues are a dict lookup + list append instead
of an ``O(log n)`` heap push, and the heap holds one entry per
*distinct* instant rather than one per event.  Dispatch drains a slot
as a batch (9.25 payloads per slot visit in a faulted 128-rank vcl
trial).
Ordering is bit-identical to the classic one-entry-per-event heap:
globally ``(time, priority, insertion order)`` — FIFO
within a slot *is* insertion order, and a payload that schedules work
at an earlier-sorting key mid-slot preempts the batch so the new slot
runs first (guarded by golden digests in
``tests/test_engine_fastpath.py``).

What a payload is: an :class:`~repro.simkernel.events.Event` whose
callbacks step the generator processes waiting on it, in place; a bare
callable; a :class:`~repro.simkernel.process.CallbackThread` — a socket
:class:`~repro.simkernel.store.Reader`, a daemon's
:class:`~repro.cluster.network.Mesh` — which *is* its wake-up and
handles it in place; or a :class:`Batch`: the calls and arrivals
:meth:`Engine.call_at` / :meth:`Engine.put_at` scheduled back to back
into one slot (a marker flood lands 127 messages in one instant, a
daemon's dials land together, a dead incarnation's close notices land
together), run by one payload.  A wire message is therefore the payload
that reads it plus its share of a batch — 1.47 payloads per message
(135 522 / 91 922) in a faulted 128-rank vcl trial, connection set-up
and timers included.
"""

from __future__ import annotations

import gc
import heapq
import random
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from repro.simkernel.events import Event, Timeout, PRIORITY_NORMAL
from repro.simkernel.process import Process


class SimTimeoutError(Exception):
    """Raised by :meth:`Engine.run` when ``until`` elapses and
    ``raise_on_timeout`` is set — used by test helpers that consider a
    non-finished simulation an error."""


class Batch:
    """Payloads scheduled back to back into one slot, run as one
    (:meth:`Engine._schedule`'s tail rule builds them).

    Items that would have been adjacent payloads of a FIFO slot run back
    to back in the same order, so the global ``(time, priority,
    insertion)`` order is the one-payload-per-item order by
    construction.  An item is ``(None, fn)`` — ``fn()`` — or ``(store,
    item)`` — an arrival: ``store.put(item)`` unless the store closed
    (a :class:`~repro.cluster.network.Mesh` is such a store).
    Between items the batch honours the run loop's interrupt
    (:attr:`Engine._preempt`: an earlier-sorting slot, :meth:`Engine.stop`)
    by parking itself, with the items still to run, at the head of the
    slot being drained — as it does when an item raises.
    """

    __slots__ = ("engine", "items", "cursor")

    def __init__(self, engine: "Engine", items: List[Tuple[Any, Any]]):
        self.engine = engine
        self.items = items
        self.cursor = 0

    def __call__(self) -> None:
        engine = self.engine
        items = self.items
        i = self.cursor
        n = len(items)      # popped from its slot: nothing appends now
        try:
            while i < n:
                store, item = items[i]
                i += 1
                if store is None:
                    item()
                elif not store.closed:
                    store.put(item)
                if engine._preempt:
                    break
        finally:
            if i < n:
                self.cursor = i
                engine._slots[engine._current_key].appendleft(self)


@contextmanager
def gc_paused():
    """Disable the cyclic GC for the duration of a simulation.

    Big deployments allocate millions of interlinked objects (events,
    processes, meshes); the generational collector re-scans that live
    graph over and over without finding garbage (a faulted 512-rank
    vcl trial takes ~1.35x the CPU with collection on: 31 full passes,
    ~3 CPU s, that free 5 objects between them).  A killed process
    frees what it held as it dies (``UnixProcess._release``), so the
    pause does not let the dead pile up.  On exit the collector is
    restored, and its next pass walks whatever the pause allocated
    that is still alive — so the pause should end *after* the
    deployment is dropped: the trial throughput path
    (:meth:`repro.experiments.harness.TrialSetup.run_one`) holds it
    across build, run and drop, and that one pass frees the dead
    deployment's O(N) cycles (the result it returns names none of
    them).  Pauses nest (an inner exit leaves the
    collector off); anyone who keeps the runtime just lets the
    re-enabled ambient GC get to it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Engine:
    """Owns the virtual clock and the pending-event slot table.

    Determinism guarantee: events scheduled at the same simulated time
    run in (priority, insertion-order) order, and the only source of
    randomness is :attr:`random`, seeded at construction.  Two engines
    built with the same seed replay identical histories.
    """

    def __init__(self, seed: int = 0, trace=None):
        self.now: float = 0.0
        self.random = random.Random(seed)
        self.seed = seed
        #: heap of distinct slot keys ``(time, priority)`` — one entry
        #: per *live slot* (but the one being drained), not per event
        self._heap: List[Tuple[float, int]] = []
        #: slot table: ``(time, priority) -> deque of payloads`` in
        #: insertion (FIFO) order; payloads are Events or bare callables
        self._slots: Dict[Tuple[float, int], Deque[Any]] = {}
        #: key of the slot currently being drained by :meth:`run`
        self._current_key: Optional[Tuple[float, int]] = None
        #: set when a payload schedules an earlier-sorting slot (or by
        #: :meth:`stop`): the current batch yields after this payload
        self._preempt = False
        #: optional repro.analysis.traces.Trace sink shared by subsystems
        self.trace = trace
        #: coverage probe label -> hits during this run.  The label set
        #: folds into the trial's coverage signature (see
        #: :mod:`repro.analysis.coverage`); the counts are what the
        #: runtime's end-of-run fold turns into the dispatcher's
        #: metrics counters
        self.coverage: Dict[str, int] = {}
        #: number of payloads processed so far (cheap progress metric);
        #: a :class:`Batch` is one payload however many items it carries
        self.events_processed = 0
        #: batches opened by the tail rule.  Execution metadata, like
        #: :attr:`slots_drained`.
        self.batches = 0
        #: interrupted drains put back on the heap (``bench/child.py``
        #: reads it under this name)
        self.front_lane_hits = 0
        #: slot visits by the dispatch loop; with
        #: :attr:`events_processed` this gives the mean batch size per
        #: slot — the slot-table occupancy.  Execution metadata: never
        #: exported into the deterministic obs document.
        self.slots_drained = 0
        #: optional repro.obs.spans.Obs recorder; None keeps :meth:`span`
        #: and :meth:`log`'s hand-off a single attribute test on the hot
        #: path
        self.obs = None
        #: every :class:`Process` whose generator raised and every
        #: :class:`~repro.simkernel.store.Reader` whose handler did
        #: (each has ``.name`` and ``.error``); the runtime turns them
        #: into ``thread_crashed`` trace records
        self.process_failures: List[Any] = []
        self._stopped = False

    def cover(self, label: str) -> None:
        """Count that execution reached the probe point ``label``."""
        coverage = self.coverage
        coverage[label] = coverage.get(label, 0) + 1

    # -- construction helpers ---------------------------------------------
    def event(self, name: Optional[str] = None) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: Optional[str] = None) -> Timeout:
        """Create an event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, gen: Generator, name: Optional[str] = None):
        """Spawn a simulated process from generator ``gen``."""
        return Process(self, gen, name=name)

    # -- scheduling internals ------------------------------------------------
    def _enqueue(self, payload: Callable[[], None], delay: float = 0.0,
                 priority: int = PRIORITY_NORMAL) -> None:
        """A payload of its own at ``now + delay`` (Events, wake-ups).
        A fresh slot sorting before the one being drained (a ``resume()``
        at URGENT) flags the run loop to yield; an existing earlier slot
        is impossible mid-drain."""
        key = (self.now + delay, priority)
        slots = self._slots
        slot = slots.get(key)
        if slot is None:
            slots[key] = deque((payload,))
            heapq.heappush(self._heap, key)
            cur = self._current_key
            if cur is not None and key < cur:
                self._preempt = True
        else:
            slot.append(payload)

    def _schedule(self, delay: float, store, item: Any) -> Optional[Batch]:
        """The tail rule: ``item`` (a callable if ``store`` is None, else
        an arrival) goes where its own NORMAL payload at ``now + delay``
        would: into the :class:`Batch` that ends the slot, or with the
        payload that ends it into a new batch (returned: the tail until
        the next schedule); a lone callable is a payload of its own."""
        slot = self._slots.get((self.now + delay, PRIORITY_NORMAL))
        if slot:    # the live slot may be empty mid-drain
            tail = slot[-1]
            if type(tail) is not Batch:
                self.batches += 1
                tail = slot[-1] = Batch(self, [(None, tail)])
            tail.items.append((store, item))
            return tail
        if store is None:
            self._enqueue(item, delay)
            return None
        self.batches += 1
        batch = Batch(self, [(store, item)])
        self._enqueue(batch, delay)
        return batch

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Schedule a bare callable at absolute time ``when`` (>= now)."""
        if when < self.now:
            raise ValueError(f"call_at past time {when} < now {self.now}")
        # every path keys ``now + (when - now)``: not always ``when``
        self._schedule(when - self.now, None, fn)

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule a bare callable ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._schedule(delay, None, fn)

    def put_at(self, when: float, store, item: Any) -> None:
        """``store.put(item)`` at absolute time ``when`` (>= now), or
        nothing if the store has closed by then — a message's arrival.
        """
        now = self.now
        if when < now:
            raise ValueError(f"put_at past time {when} < now {now}")
        self._schedule(when - now, store, item)

    # -- main loop ----------------------------------------------------------
    def run(self, until: Optional[float] = None, *,
            raise_on_timeout: bool = False) -> float:
        """Run until the slots drain or the clock reaches ``until``.

        Returns the final simulated time.  If ``until`` is hit with work
        still pending, the clock is advanced to exactly ``until`` (so a
        subsequent ``run`` continues cleanly).

        The loop body is the simulator's hottest path (every message,
        timer and context switch of a trial passes through it): one
        heap pop fetches a whole slot, whose payloads dispatch as a
        batch with hoisted locals.  Mid-batch interruptions (a payload
        scheduling an earlier-sorting slot, :meth:`stop`) push the
        undrained tail back, keeping the global order exactly
        ``(time, priority, insertion order)``.
        """
        self._stopped = False
        heap = self._heap
        slots = self._slots
        pop = heapq.heappop
        limit = float("inf") if until is None else until
        processed = 0
        drained = 0
        try:
            while heap and not self._stopped:
                key = heap[0]
                when = key[0]
                if when > limit:
                    self.now = until
                    if raise_on_timeout:
                        raise SimTimeoutError(
                            f"simulation exceeded t={until}")
                    return self.now
                pop(heap)
                slot = slots[key]
                drained += 1
                self.now = when
                self._current_key = key
                # The slot being drained is the globally earliest: any
                # stale preempt request is satisfied by starting it.
                self._preempt = False
                # The slot stays live in the table while draining, so
                # same-instant payloads scheduled by a dispatch append
                # straight onto the deque and drain in this batch —
                # exactly their (time, priority, insertion) rank.
                while True:
                    # Events are callable (``Event.__call__`` aliases
                    # ``_process``), so every payload dispatches the
                    # same way — no per-event type check.
                    payload = slot.popleft()
                    processed += 1
                    payload()
                    if not slot:
                        del slots[key]
                        break
                    # Interrupt checks run only *between* payloads; an
                    # undrained tail goes back on the heap under its
                    # key.  stop() sets the preempt flag.
                    if self._preempt:
                        heapq.heappush(heap, key)
                        self.front_lane_hits += 1
                        break
                self._current_key = None
        finally:
            # A payload that raised leaves its slot undrained: requeue
            # the key so the engine stays consistent for a subsequent run.
            ck = self._current_key
            if ck is not None:
                if slots.get(ck):
                    heapq.heappush(heap, ck)
                else:
                    slots.pop(ck, None)     # drained when the payload raised
            self._current_key = None
            self._preempt = False
            self.events_processed += processed
            self.slots_drained += drained
        if until is not None and not heap and self.now < until:
            self.now = until
        return self.now

    def stop(self) -> None:
        """Make :meth:`run` return after the current event."""
        self._stopped = True
        self._preempt = True        # yield the current batch immediately

    # -- tracing ------------------------------------------------------------
    def log(self, kind: str, **fields) -> None:
        """Record a structured trace record if a trace sink is attached,
        and hand its kind and instant to the obs recorder if one is
        (:meth:`repro.obs.spans.Obs.on_log`)."""
        if self.trace is not None:
            self.trace.record(self.now, kind, **fields)
        if self.obs is not None:
            self.obs.on_log(kind, self.now)

    def span(self, kind: str, lane: str = "sim", **fields):
        """Open an observability span at the current instant: the open
        row ``[t0, None, kind, lane, fields]`` of the
        :class:`repro.obs.spans.Obs` recorder, or None when no recorder
        is attached (a single attribute test — the off switch that
        keeps instrumented call sites free on the dispatch hot path) or
        the recorder is past its span cap.  Opening or ending a span
        never schedules events, never logs to the trace, and never
        consumes :attr:`random`, so the simulated history is identical
        with observation on or off.
        """
        obs = self.obs
        if obs is None:
            return None
        return obs.open(kind, lane, self.now, fields)

    def end(self, span, **fields) -> None:
        """Close ``span`` (a row :meth:`span` returned) at the current
        instant, adding ``fields``; nothing for None or a closed span."""
        if span is not None and span[1] is None:
            self.obs.close(span, self.now, fields)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        pending = sum(len(s) for s in self._slots.values())
        return f"<Engine t={self.now} pending={pending}>"
