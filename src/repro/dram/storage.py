"""Functional DRAM contents.

The timing model does not need data values, but the examples and functional
tests do: a PIM vector-add should actually produce the right sums.
:class:`DataStore` holds one value per DRAM word, addressed by
(channel, bank, row, column), lazily materialized (untouched words read as
zero).  Values are floats; a DRAM word's SIMD lanes are represented by a
single representative lane, which is sufficient because the modelled FU
applies the same operation to every lane.
"""

from __future__ import annotations

from typing import Dict, Tuple

Coordinate = Tuple[int, int, int, int]  # (channel, bank, row, column)


class DataStore:
    """Sparse functional storage for DRAM words."""

    def __init__(self) -> None:
        self._words: Dict[Coordinate, float] = {}

    def read(self, channel: int, bank: int, row: int, column: int) -> float:
        return self._words.get((channel, bank, row, column), 0.0)

    def write(self, channel: int, bank: int, row: int, column: int, value: float) -> None:
        self._words[(channel, bank, row, column)] = float(value)

    def __len__(self) -> int:
        return len(self._words)

    def clear(self) -> None:
        self._words.clear()
