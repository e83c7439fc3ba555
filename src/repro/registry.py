"""Name lookup in the closed tables of built-ins.

The protocols (:data:`repro.mpichv.protocols.PROTOCOLS`), the workloads
(:data:`repro.workloads.WORKLOADS`) and the fabric models
(:data:`repro.netmodel.fabric.FABRICS`) are plain dicts; this keeps
their unknown-name errors identical.
"""

from __future__ import annotations

from typing import Any, Mapping


def lookup(table: Mapping[str, Any], kind: str, name: str) -> Any:
    """``table[name]``; an unknown name raises ``ValueError`` naming
    the known ones."""
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown {kind} {name!r} (known: "
                         f"{', '.join(sorted(table))})") from None
