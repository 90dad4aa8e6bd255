"""Percentiles from raw per-request samples (nearest rank, never buckets)."""

from __future__ import annotations

import math
from typing import Iterable


def pct(values: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-percentile (``q`` in [0, 100]); 0.0 when empty."""
    xs = sorted(values)
    if not xs:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    return float(xs[rank - 1])


def median(values: Iterable[float]) -> float:
    return pct(values, 50)


def ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0
