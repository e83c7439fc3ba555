"""Small statistics helpers for experiment aggregation.

Kept dependency-light on purpose: only the mean and standard deviation
the paper's plots need.
"""

from __future__ import annotations

import math
from typing import Sequence


def mean(xs: Sequence[float]) -> float:
    """Arithmetic mean; raises ``ValueError`` on empty input."""
    if not xs:
        raise ValueError("mean of empty sequence")
    return sum(xs) / len(xs)


def stdev(xs: Sequence[float]) -> float:
    """Sample standard deviation (n-1 denominator); 0.0 for n<2."""
    n = len(xs)
    if n == 0:
        raise ValueError("stdev of empty sequence")
    if n == 1:
        return 0.0
    m = mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (n - 1))

