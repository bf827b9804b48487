"""Order statistics and the benchmark definition, shared by run and compare.

The benchmark computes its own statistics (no ``repro.obs.bench``), so
a change under test cannot alter how it is measured.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

#: The benchmark definition at the repository root.
DEFINITION = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def percentile(values: list[float], q: float) -> float:
    """The *q*-th percentile (0-100) with linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def definition() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(DEFINITION.read_text(encoding="utf-8"))
