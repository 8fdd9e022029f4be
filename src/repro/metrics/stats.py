"""Means for the figure reductions (Figure 10a uses geometric means),
without pulling heavier dependencies into the experiment layer.
"""

from __future__ import annotations

import math
from typing import Sequence


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; values must be positive (Figure 10a normalization)."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("empty data")
    if any(v <= 0 for v in data):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in data) / len(data))


def arithmetic_mean(values: Sequence[float]) -> float:
    data = [float(v) for v in values]
    if not data:
        raise ValueError("empty data")
    return sum(data) / len(data)
