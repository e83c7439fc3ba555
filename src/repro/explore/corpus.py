"""The guided campaign's persistent corpus of coverage-novel plans.

A corpus entry is one :class:`~repro.explore.generators.FaultPlan`
whose trial lit up coverage bits no earlier entry had — the seeds of
the greybox mutation loop.  Entries live as one JSON file each under a
directory (by convention ``<cache_dir>/corpus/``, so the same CI cache
key restores the trial cache *and* the corpus together), named by the
signature digest: admitting a behaviourally-identical plan twice is a
filesystem-level no-op.

Admit order is preserved via a ``seq`` counter inside each document;
:meth:`Corpus.entries` yields failing entries first (a fuzzer replays
its crashers before its merely-interesting inputs), then admit order.
Writes are atomic (the result store's
:func:`~repro.experiments.resultstore.write_text`), matching its
crash-resumability.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.coverage import Signature
from repro.experiments.resultstore import write_text
from repro.explore.generators import (FaultPlan, plan_digest, plan_from_doc,
                                      plan_to_doc)

#: bump when the entry layout changes; readers skip other versions
CORPUS_FORMAT = 1


@dataclass
class CorpusEntry:
    """One admitted plan plus the provenance the mutation loop uses."""

    seq: int
    plan: FaultPlan
    signature: Signature
    family: str
    protocol: str
    workload: str
    trial_seed: int
    description: str = ""
    #: oracle names that failed on the admitting trial ([] = survived)
    failed: List[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.signature.bits).hexdigest()[:16]

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": CORPUS_FORMAT,
            "seq": self.seq,
            "plan": plan_to_doc(self.plan),
            "signature": self.signature.hex,
            "family": self.family,
            "protocol": self.protocol,
            "workload": self.workload,
            "trial_seed": self.trial_seed,
            "description": self.description,
            "failed": list(self.failed),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "CorpusEntry":
        return cls(
            seq=int(doc["seq"]),
            plan=plan_from_doc(doc["plan"]),
            signature=Signature.from_hex(str(doc["signature"])),
            family=str(doc["family"]),
            protocol=str(doc["protocol"]),
            workload=str(doc["workload"]),
            trial_seed=int(doc["trial_seed"]),
            description=str(doc.get("description", "")),
            failed=[str(n) for n in doc.get("failed", [])],
        )


class Corpus:
    """Directory-backed set of coverage-novel plans."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._entries: List[CorpusEntry] = []
        self._digests: set = set()
        self.accumulated = Signature()
        self._load()

    def _load(self) -> None:
        docs: List[CorpusEntry] = []
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.root, name)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
                if doc.get("format") != CORPUS_FORMAT:
                    continue
                docs.append(CorpusEntry.from_dict(doc))
            except (OSError, ValueError, KeyError, TypeError,
                    AttributeError):
                continue               # truncated/foreign file: skip
        docs.sort(key=lambda e: e.seq)
        for entry in docs:
            self._entries.append(entry)
            self._digests.add(entry.digest)
            self.accumulated = self.accumulated | entry.signature

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[CorpusEntry]:
        """Replay order: failing entries first, then admit order."""
        return sorted(self._entries, key=lambda e: (not e.failed, e.seq))

    def plans(self) -> List[FaultPlan]:
        return [e.plan for e in self._entries]

    def admit(self, entry: CorpusEntry) -> bool:
        """Persist ``entry`` if its signature is new; True on admit.

        Dedup is by exact signature (the digest doubles as the file
        name); the accumulated bitmap grows either way, so a caller
        can feed every trial through here and only the novel ones
        stick.
        """
        self.accumulated = self.accumulated | entry.signature
        if entry.digest in self._digests:
            return False
        entry.seq = self.next_seq()
        write_text(os.path.join(self.root, f"{entry.digest}.json"),
                   json.dumps(entry.to_dict(), indent=2, sort_keys=True))
        self._entries.append(entry)
        self._digests.add(entry.digest)
        return True

    def next_seq(self) -> int:
        return max((e.seq for e in self._entries), default=0) + 1


def default_corpus_dir(cache_dir: Optional[str],
                       out_dir: str) -> str:
    """Where the corpus lives: beside the trial cache when there is
    one (a single CI cache key restores both), else under the
    campaign's output directory."""
    base = cache_dir if cache_dir else os.path.join(out_dir, "cache")
    return os.path.join(base, "corpus")


__all__ = ["Corpus", "CorpusEntry", "default_corpus_dir", "plan_digest"]
