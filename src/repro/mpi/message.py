"""Application-level message representation and matching."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: wildcard for source/tag matching (MPI_ANY_SOURCE / MPI_ANY_TAG)
ANY = -1


@dataclass
class AppMessage:
    """An MPI point-to-point message as seen by endpoints.

    ``size`` is the simulated payload size in bytes — it only affects
    network transfer time, not content.
    """

    src: int
    dst: int
    tag: int
    payload: Any
    size: int = 1024

    def matches(self, src: int, tag: int) -> bool:
        """MPI receive matching with :data:`ANY` wildcards."""
        return (src == ANY or src == self.src) and (tag == ANY or tag == self.tag)

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"AppMessage({self.src}->{self.dst} tag={self.tag} size={self.size})"
