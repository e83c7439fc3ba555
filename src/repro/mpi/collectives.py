"""A restartable allreduce built on point-to-point.

The collective records its progress inside the endpoint ``state``
under a caller-supplied key, so a process image snapped at *any*
instant resumes it without losing or duplicating contributions.  The invariant relied upon: in the discrete-event
kernel, everything between two ``yield`` points is atomic, so a state
update performed in the same step as the send/recv it describes can
never be separated from it by a checkpoint.

It is the flat (linear) algorithm of mpich-1's ch_p4 device for small
communicators — adequate for ≤64 ranks and simple to make
restartable.  The ring and BT workloads verify their result with it.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.mpi.message import ANY

TAG_REDUCE = 9003
TAG_RESULT = 9004


def _sub(ep, key: str) -> dict:
    return ep.state.setdefault(key, {"stage": "init"})


def reduce_bcast(ep, key: str, value: Any,
                 op: Callable[[List[Any]], Any] = sum,
                 size: int = 256):
    """Allreduce: reduce ``value`` across ranks with ``op`` and return
    the result on every rank (gather-to-0 + broadcast).

    ``value`` must be derivable from checkpointed state at the call
    site, since a rolled-back rank will call again with the same value.
    """
    st = _sub(ep, key)
    if st["stage"] == "done":
        return st["result"]
    if ep.rank == 0:
        if st["stage"] == "init":
            st["acc"] = [value]
            st["stage"] = "collect"
        while st["stage"] == "collect":
            if len(st["acc"]) == ep.size:
                st["result"] = op(st["acc"])
                for dst in range(1, ep.size):
                    ep.send(dst, TAG_RESULT, st["result"], size=size)
                st["stage"] = "done"
                break
            msg = yield from ep.recv(ANY, TAG_REDUCE)
            st["acc"].append(msg.payload)
        return st["result"]
    else:
        if st["stage"] == "init":
            ep.send(0, TAG_REDUCE, value, size=size)
            st["stage"] = "wait"
        if st["stage"] == "wait":
            msg = yield from ep.recv(0, TAG_RESULT)
            st["result"] = msg.payload
            st["stage"] = "done"
        return st["result"]
