"""Host-speed probe: how fast is this vCPU *right now*?

On the shared 2-vCPU VM this benchmark runs on, the CPU time a fixed
piece of Python needs drifts by ~20 % over minutes and flickers by up
to 2x in phases of 0.2-1 s (a busy neighbour on the physical core).
The process CPU clock excludes hypervisor steal but not this: a slower
core simply burns more CPU seconds for the same work.  Medians alone
cannot remove a drift that outlasts the run.

So every timed region is sampled from the inside.  An interval timer
interrupts the main thread every ``INTERVAL_S`` of wall time and the
handler steps a fixed, self-contained mini event loop (heap +
generators + small objects + a dict: the simulator's instruction mix,
but none of its code, so optimising the repo cannot move it) for
``STEPS`` steps, timing that chunk on the thread CPU clock.  A region's
CPU time is then reported *at reference speed*::

    cpu_s = (cpu_measured - cpu_of_chunks) * mean(REF_CHUNK_S / chunk_i)

i.e. each slice of the region is weighted by the speed the host had
while it ran.  ``REF_CHUNK_S`` is what a chunk costs on this host in
its fast phase, so reported seconds stay close to real seconds there.
Measured on 40 back-to-back 128-rank ring trials: raw CPU seconds had
an inter-quartile range of 13.5 % of the median, reference-speed
seconds 3.6 %.

In a pooled run the probe ticks in the (otherwise idle) parent and
samples whichever vCPU it lands on; timers are not inherited across
``fork``, so workers are never interrupted.
"""

from __future__ import annotations

import heapq
import signal
import time
from dataclasses import dataclass
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

INTERVAL_S = 0.02
STEPS = 600
#: thread-CPU seconds one chunk takes on the reference host (Xeon
#: 2.1 GHz Firecracker guest, python 3.11) when nothing disturbs it
REF_CHUNK_S = 0.0005
#: fewer samples than this and the region is topped up synchronously
MIN_SAMPLES = 5


class _Ev:
    __slots__ = ("t", "k", "gen")

    def __init__(self, t, k, gen):
        self.t = t
        self.k = k
        self.gen = gen


def _proc(i, box):
    n = 0
    while True:
        d = yield (i * 7 + n) % 13 + 1
        n += 1
        box[i & 63] = box.get(i & 63, 0) + d


class HostProbe:
    """One per process; :meth:`timed` brackets each timed region."""

    def __init__(self):
        self._box = {}
        self._heap = []
        for i in range(64):
            gen = _proc(i, self._box)
            dt = next(gen)
            heapq.heappush(self._heap, (dt, i, _Ev(dt, i, gen)))
        self._seq = 64
        self._samples: List[float] = []
        self._busy = False
        # installed for the life of the process: a tick still in
        # flight when a region ends must find a handler, not SIG_DFL
        signal.signal(signal.SIGALRM, self._chunk)

    def _chunk(self, _signum=None, _frame=None) -> None:
        if self._busy:          # a late tick landed inside a chunk
            return
        self._busy = True
        heap, seq = self._heap, self._seq
        push, pop = heapq.heappush, heapq.heappop
        start = time.thread_time()
        for _ in range(STEPS):
            t, _s, ev = pop(heap)
            dt = ev.gen.send(1)
            seq += 1
            push(heap, (t + dt, seq, _Ev(t + dt, ev.k, ev.gen)))
        self._samples.append(time.thread_time() - start)
        self._seq = seq
        self._busy = False

    def timed(self, fn: Callable[[], T], cpu_clock: Callable[[], float]
              ) -> Tuple[T, "Sample"]:
        """Run ``fn`` as one timed region, sampled by the probe."""
        self._samples = []
        cpu0, wall0 = cpu_clock(), time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        wall = time.perf_counter() - wall0
        while len(self._samples) < MIN_SAMPLES:
            self._chunk()
        # read the clock last: every chunk, topped-up ones too, lies
        # inside [cpu0, cpu1] and is subtracted below
        chunks = self._samples
        cpu = cpu_clock() - cpu0 - sum(chunks)
        speed = sum(REF_CHUNK_S / c for c in chunks) / len(chunks)
        return value, Sample(cpu_raw_s=cpu, cpu_s=cpu * speed, wall_s=wall,
                             chunks=len(chunks))


@dataclass(frozen=True)
class Sample:
    """One timed region."""

    #: CPU seconds as the clock read them (probe chunks subtracted)
    cpu_raw_s: float
    #: the same at reference host speed — what the metrics report
    cpu_s: float
    wall_s: float
    chunks: int
