"""Physical address mapping.

Table I gives the paper's address map as a bit string (MSB to LSB)::

    RRRRRRRR RRRRRRRR RRRRRBBB CCCBDDDD DCCC

where R=row, B=bank, C=column and D=channel.  The paper deliberately uses
this regular scheme (instead of pseudo-random I-poly interleaving) so PIM
kernels can map warps to channels and threads to banks.

:class:`AddressMapper` parses such a spec string and provides bidirectional
translation between flat byte addresses and (channel, bank, row, column)
coordinates.  The mapping is a bijection over the address bits named in the
spec; any address bits above the spec are treated as additional row bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

# Paper's map, MSB first (dots are cosmetic separators).
PAPER_ADDRESS_MAP = "RRRRRRRRRRRRRRRRRRRRRBBBCCCBDDDDDCCC"

_FIELDS = {"R": "row", "B": "bank", "C": "column", "D": "channel"}


@dataclass(frozen=True)
class DecodedAddress:
    channel: int
    bank: int
    row: int
    column: int


class AddressMapper:
    """Bit-sliced address mapper built from a spec string.

    Parameters
    ----------
    spec:
        String of characters from ``{R, B, C, D}`` (dots/spaces ignored),
        written MSB first.  Each letter assigns one address bit to the
        corresponding field; bits are concatenated MSB-first within a
        field.
    """

    def __init__(self, spec: str = PAPER_ADDRESS_MAP) -> None:
        clean = [c for c in spec if c not in ". _"]
        unknown = sorted({c for c in clean if c not in _FIELDS})
        if unknown:
            raise ValueError(f"unknown field letters in address map: {unknown}")
        if not clean:
            raise ValueError("empty address map spec")
        self.spec = "".join(clean)
        self.total_bits = len(clean)

        # For each field, the list of address-bit positions (LSB=0) holding
        # its bits, ordered from the field's own MSB to LSB.
        positions: Dict[str, List[int]] = {name: [] for name in _FIELDS.values()}
        for i, letter in enumerate(clean):
            bit = self.total_bits - 1 - i  # MSB first in the spec
            positions[_FIELDS[letter]].append(bit)
        self._positions = positions

        self.channel_bits = len(positions["channel"])
        self.bank_bits = len(positions["bank"])
        self.row_bits = len(positions["row"])
        self.column_bits = len(positions["column"])

        # Compile each field's bit positions into contiguous runs of
        # (field_shift, address_shift, mask) so encode/decode are a handful
        # of shift/mask ops instead of a per-bit loop.  A run covers address
        # bits [addr_shift, addr_shift + width) holding field-value bits
        # [field_shift, field_shift + width).
        self._field_runs: Dict[str, List[Tuple[int, int, int]]] = {}
        for name, bits in positions.items():
            runs: List[Tuple[int, int, int]] = []
            i = 0
            width = len(bits)
            while i < width:
                j = i
                while j + 1 < width and bits[j + 1] == bits[j] - 1:
                    j += 1
                run_width = j - i + 1
                field_shift = width - 1 - j  # LSB of the run within the field
                runs.append((field_shift, bits[j], (1 << run_width) - 1))
                i = j + 1
            self._field_runs[name] = runs
        self._base_mask = (1 << self.total_bits) - 1
        self._row_mask = (1 << self.row_bits) - 1

    @property
    def num_channels(self) -> int:
        return 1 << self.channel_bits

    @property
    def num_banks(self) -> int:
        return 1 << self.bank_bits

    @property
    def num_rows(self) -> int:
        return 1 << self.row_bits

    @property
    def num_columns(self) -> int:
        return 1 << self.column_bits

    def _extract(self, address: int, field: str) -> int:
        value = 0
        for field_shift, addr_shift, mask in self._field_runs[field]:
            value |= ((address >> addr_shift) & mask) << field_shift
        return value

    def decode(self, address: int) -> DecodedAddress:
        """Split a flat byte address into DRAM coordinates."""
        if address < 0:
            raise ValueError("address must be non-negative")
        base = address & self._base_mask
        extra_row = address >> self.total_bits  # overflow bits extend the row
        return DecodedAddress(
            channel=self._extract(base, "channel"),
            bank=self._extract(base, "bank"),
            row=self._extract(base, "row") | (extra_row << self.row_bits),
            column=self._extract(base, "column"),
        )

    def encode(self, channel: int, bank: int, row: int, column: int) -> int:
        """Compose DRAM coordinates back into a flat byte address."""
        if channel < 0 or bank < 0 or row < 0 or column < 0:
            raise ValueError("channel/bank/row/column must be non-negative")
        if channel >> self.channel_bits:
            raise ValueError(f"channel={channel} exceeds {self.channel_bits} bits")
        if bank >> self.bank_bits:
            raise ValueError(f"bank={bank} exceeds {self.bank_bits} bits")
        if column >> self.column_bits:
            raise ValueError(f"column={column} exceeds {self.column_bits} bits")

        runs = self._field_runs
        address = (row >> self.row_bits) << self.total_bits
        row &= self._row_mask
        for field_shift, addr_shift, mask in runs["row"]:
            address |= ((row >> field_shift) & mask) << addr_shift
        for field_shift, addr_shift, mask in runs["bank"]:
            address |= ((bank >> field_shift) & mask) << addr_shift
        for field_shift, addr_shift, mask in runs["column"]:
            address |= ((column >> field_shift) & mask) << addr_shift
        for field_shift, addr_shift, mask in runs["channel"]:
            address |= ((channel >> field_shift) & mask) << addr_shift
        return address

    def assign(self, request) -> None:
        """Decode ``request.address`` into the request's coordinate fields.

        This is the *only* place request coordinates are derived; every
        downstream consumer (L2 slicing, the scheduling policies, DRAM
        issue) reads the cached fields.
        """
        address = request.address
        if address < 0:
            raise ValueError("address must be non-negative")
        base = address & self._base_mask
        extract = self._extract
        request.channel = extract(base, "channel")
        request.bank = extract(base, "bank")
        request.row = extract(base, "row") | ((address >> self.total_bits) << self.row_bits)
        request.column = extract(base, "column")

    def shape(self) -> Tuple[int, int, int, int]:
        return (self.num_channels, self.num_banks, self.num_rows, self.num_columns)


def scaled_address_map(channel_bits: int, bank_bits: int = 4, column_bits: int = 7, row_bits: int = 16) -> str:
    """Build a paper-style address map with a different channel count.

    Keeps the paper's general structure (row bits on top, channel bits low
    so consecutive cache lines stripe across channels, a column split
    around the channel bits for burst locality).
    """
    if min(channel_bits, bank_bits, row_bits) < 0 or column_bits < 1:
        raise ValueError("bit widths must be non-negative (>=1 column bit)")
    low_col = min(3, column_bits)
    high_col = column_bits - low_col
    return "R" * row_bits + "B" * bank_bits + "C" * high_col + "D" * channel_bits + "C" * low_col
