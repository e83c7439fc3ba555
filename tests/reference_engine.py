"""The dispatch order the slotted engine must reproduce, stated plainly.

:class:`ReferenceEngine` is :class:`~repro.simkernel.engine.Engine`
with its scheduling replaced by the textbook structure: one heap entry
``(time, priority, seq, payload)`` per payload, popped one at a time.
Every bare callable, every arrival and every wake-up is a payload of its
own — no slots, no batches, no preemption bookkeeping — so the global
order is ``(time, priority, insertion order)`` by definition.  Everything
above the scheduler (events, processes, stores, readers, sockets) is the
production code, unchanged.
"""

import heapq
import itertools

from repro.simkernel.engine import Engine, SimTimeoutError
from repro.simkernel.events import PRIORITY_NORMAL


class ReferenceEngine(Engine):
    def __init__(self, seed=0, trace=None):
        super().__init__(seed=seed, trace=trace)
        self._queue = []
        self._seq = itertools.count()

    def _enqueue(self, payload, delay=0.0, priority=PRIORITY_NORMAL):
        heapq.heappush(self._queue, (self.now + delay, priority,
                                     next(self._seq), payload))

    def _schedule(self, delay, store, item):
        if store is None:
            self._enqueue(item, delay)
            return

        def arrive():
            if not store.closed:
                store.put(item)

        self._enqueue(arrive, delay)

    def run(self, until=None, *, raise_on_timeout=False):
        self._stopped = False
        limit = float("inf") if until is None else until
        queue = self._queue
        while queue and not self._stopped:
            when = queue[0][0]
            if when > limit:
                self.now = until
                if raise_on_timeout:
                    raise SimTimeoutError(f"simulation exceeded t={until}")
                return self.now
            payload = heapq.heappop(queue)[3]
            self.now = when
            self.events_processed += 1
            payload()
        if until is not None and not queue and self.now < until:
            self.now = until
        return self.now
