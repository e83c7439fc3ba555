"""Deterministic discrete-event simulation kernel.

This package is the foundation every other subsystem builds on.  It
provides a virtual clock, slotted event dispatch (a heap of distinct
``(time, priority)`` slots — see :mod:`repro.simkernel.engine` for the
scale fast path), coroutine-style simulated
processes (generators that ``yield`` awaitable events), timeouts, and
simple queues (:class:`Store`) with their callback consumer
(:class:`Reader`).

The design follows the classic process-interaction style (as in SimPy),
but is implemented from scratch so the repository is self-contained and
fully deterministic: two runs with the same seed produce the same event
order, including tie-breaking between events scheduled at the same
instant.
"""
