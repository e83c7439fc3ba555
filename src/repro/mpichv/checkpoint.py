"""Checkpoint images and node-local checkpoint storage.

Stands in for BLCR/Condor/libckpt (paper §3): an image captures the
whole MPI process state — for our restartable applications that is a
:func:`snapshot` of the ``state`` dict — plus the Chandy-Lamport
channel state (the logged in-transit messages).

Node-local storage models the local disk the forked clone writes to:
it *survives process death* (it lives on the Node, not the process),
which is what makes same-node restarts fast ("all MPI processes
restart from the local checkpoint stored on the disk if it exists").
"""

from __future__ import annotations

import copy
import operator
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.mpi.message import AppMessage

#: shared, never copied: immutable values and the frozen message
_ATOMS = frozenset((int, float, str, bool, type(None), AppMessage))


def snapshot(state: Any) -> Any:
    """A copy of ``state`` that nothing later done to ``state`` changes.

    Contract: the state is a tree (no container reachable twice) and no
    message payload is mutated, as in every registered workload.  Dicts
    and lists are copied, only their containers recursed into; atoms
    (numbers, strings, None, tuples of atoms, :class:`AppMessage`) are
    shared; any other type falls back to :func:`copy.deepcopy`.
    """
    cls = type(state)
    if cls is dict:
        out = state.copy()
        for key, value in out.items():
            if type(value) not in _ATOMS:
                out[key] = snapshot(value)
        return out
    if cls is list:
        return [v if type(v) in _ATOMS else snapshot(v) for v in state]
    if cls in _ATOMS:
        return state
    if cls is tuple:
        parts = tuple(map(snapshot, state))
        return state if all(map(operator.is_, parts, state)) else parts
    return copy.deepcopy(state)


@dataclass
class CheckpointImage:
    """One rank's checkpoint for one wave."""

    rank: int
    wave: int
    state: Any
    logs: List[AppMessage] = field(default_factory=list)
    img_size: int = 0
    complete: bool = False      # logging finished (all peer markers seen)

    def snapshot_of(self) -> "CheckpointImage":
        """An independent copy (what a fork would capture)."""
        return replace(self, state=snapshot(self.state), logs=list(self.logs))


class LocalCkptStore:
    """Per-node local checkpoint files, two-slot alternation.

    Mirrors the server-side policy ("two files alternatively"): at most
    the two most recent waves per rank are kept; a restart may only use
    a wave the scheduler committed globally.
    """

    def __init__(self) -> None:
        self._images: Dict[int, Dict[int, CheckpointImage]] = {}

    def store(self, img: CheckpointImage) -> None:
        per_rank = self._images.setdefault(img.rank, {})
        per_rank[img.wave] = img
        # two-slot alternation: drop everything but the newest two
        for wave in sorted(per_rank)[:-2]:
            del per_rank[wave]

    def load(self, rank: int, wave: int) -> Optional[CheckpointImage]:
        return self._images.get(rank, {}).get(wave)

    def waves_for(self, rank: int) -> List[int]:
        return sorted(self._images.get(rank, {}))


def node_local_store(node) -> LocalCkptStore:
    """The node's local checkpoint store, created on first use."""
    store = getattr(node, "_ckpt_store", None)
    if store is None:
        store = LocalCkptStore()
        node._ckpt_store = store
    return store
