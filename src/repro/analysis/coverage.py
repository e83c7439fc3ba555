"""Per-trial coverage signatures for greybox fault exploration.

A fault-injection trial "covers" the protocol behaviours it forced the
system through: which wire message types crossed the dispatcher, which
closure-attribution branches fired, which restore path a restarted
daemon took, how many restart waves ran.  The explorer
(:mod:`repro.explore`) uses that as a search signal, the AFL/libFuzzer
recipe: trials whose signature lights up *new* bits join a corpus and
get mutated; trials that only retread known behaviour are discarded.

The signature is a fixed-width bitmap (:data:`BITS` bits).  Every
coverage *label* — a short stable string such as
``disp.closure.single_rank`` or ``trace.restart_wave.x4`` — hashes to
one bit (:func:`edge_bit`, sha256-based, stable across processes and
Python versions).  Two label families feed it:

* **probe labels**, recorded during the run via :meth:`Engine.cover`
  at the branch points the dispatcher and the daemon lifecycle already
  own (see :mod:`repro.mpichv.dispatcher` /
  :mod:`repro.mpichv.daemonbase`);
* **trace labels**, derived after the run from the structured trace's
  per-kind counters with AFL-style logarithmic hit buckets
  (:func:`trace_labels`): one restart is a different behaviour than
  eight, but eight and nine are the same.

Both are pure functions of the simulation history, so the signature
inherits the runner's determinism contract: same ``(setup, seed)`` ⇒
bit-identical signature, serial or pooled, live or cache-loaded.

The oracle layer folds its own labels (excuse branches, invariant
violations) on top — see
:func:`repro.explore.oracles.coverage_labels`.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List

#: signature width in bits; 1024 bits ≈ a hundred-ish live labels with
#: negligible collision mass, and a 256-hex-char wire form
BITS = 1024

_EMPTY = bytes(BITS // 8)


def edge_bit(label: str) -> int:
    """Stable bit index of one coverage label (hash-stable everywhere)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % BITS


def hit_bucket(count: int) -> int:
    """AFL-style logarithmic hit-count bucket (1,2,4,8,...)."""
    return 1 << (count.bit_length() - 1) if count > 1 else 1


class Signature:
    """An immutable coverage bitmap with set algebra.

    Hashable and comparable, so signatures can key dicts (corpus dedup)
    and sets directly.  The wire form is :attr:`hex` — compact enough
    to ride on every cached :class:`~repro.mpichv.runtime.RunResult`.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: bytes = _EMPTY):
        if len(bits) != BITS // 8:
            raise ValueError(f"signature must be {BITS} bits wide")
        self.bits = bytes(bits)

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "Signature":
        raw = bytearray(BITS // 8)
        for label in labels:
            bit = edge_bit(label)
            raw[bit // 8] |= 1 << (bit % 8)
        return cls(bytes(raw))

    @classmethod
    def from_hex(cls, text: str) -> "Signature":
        if not text:
            return cls()
        return cls(bytes.fromhex(text))

    @property
    def hex(self) -> str:
        return self.bits.hex()

    @property
    def popcount(self) -> int:
        """Number of set bits (distinct edges hit)."""
        return sum(bin(b).count("1") for b in self.bits)

    def __or__(self, other: "Signature") -> "Signature":
        return Signature(bytes(a | b for a, b in zip(self.bits, other.bits)))

    def __and__(self, other: "Signature") -> "Signature":
        return Signature(bytes(a & b for a, b in zip(self.bits, other.bits)))

    def minus(self, other: "Signature") -> "Signature":
        """Bits set here but not in ``other`` (the novelty mask)."""
        return Signature(bytes(a & ~b for a, b in zip(self.bits, other.bits)))

    def new_bits(self, accumulated: "Signature") -> int:
        """How many of this signature's bits ``accumulated`` lacks."""
        return self.minus(accumulated).popcount

    def covers(self, other: "Signature") -> bool:
        """Does this signature include every bit of ``other``?"""
        return all((a & b) == b for a, b in zip(self.bits, other.bits))

    def __bool__(self) -> bool:
        return self.bits != _EMPTY

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Signature) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"Signature({self.popcount} bits)"


def trace_labels(counts: dict) -> List[str]:
    """Coverage labels derived from a trace's per-kind counters.

    Every kind contributes its existence plus its logarithmic hit
    bucket, so both *which* protocol events happened and their order of
    magnitude land in the signature.
    """
    labels: List[str] = []
    for kind, count in counts.items():
        if count > 0:
            labels.append(f"trace.{kind}")
            labels.append(f"trace.{kind}.x{hit_bucket(count)}")
    return labels


def run_signature(probe_labels: Iterable[str], counts: dict) -> Signature:
    """The execution-side signature of one finished run."""
    return Signature.from_labels(
        list(probe_labels) + trace_labels(counts))
