"""The workloads' random stream: ``numpy.random.default_rng`` in pure Python.

Synthetic kernels draw their addresses, store mix and compute jitter from
a :class:`Stream`.  It reproduces, bit for bit, the part of numpy's
default generator those kernels use, so every recorded result and golden
digest holds while no simulating process has to import numpy:

* ``SeedSequence`` pool mixing of an int seed or a flat list of int
  seeds (numpy's ``default_rng(seed)`` with a four-word pool);
* the PCG64 bit generator: a 128-bit LCG with the XSL-RR output;
* ``integers(high)`` for ``1 <= high <= 2**32`` through numpy's 32-bit
  Lemire rejection sampler, which draws 32-bit words from the halves of
  64-bit outputs and keeps the unused upper half between calls;
* ``random()``, a double from the top 53 bits of a fresh 64-bit output
  (the buffered half-word stays buffered).

Anything outside that subset raises :class:`ValueError` rather than
drifting from numpy.  ``tests/test_rng.py`` checks the stream against
numpy itself.
"""

from __future__ import annotations

import operator
from typing import List, Sequence, Union

__all__ = ["Stream"]

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _entropy_words(seed: Union[int, Sequence[int]]) -> List[int]:
    """The seed as little-endian 32-bit words, each int contributing its own."""
    values = seed if isinstance(seed, (list, tuple)) else [seed]
    words: List[int] = []
    for value in values:
        try:
            n = operator.index(value)
        except TypeError:
            raise ValueError(f"seed must be an int or a flat list of ints, got {seed!r}") from None
        if n < 0:
            raise ValueError(f"seed values must be non-negative, got {n}")
        words.append(n & _MASK32)
        n >>= 32
        while n:
            words.append(n & _MASK32)
            n >>= 32
    return words


def _seed_state(seed: Union[int, Sequence[int]]) -> List[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``."""
    entropy = _entropy_words(seed)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class Stream:
    """The draws of ``numpy.random.default_rng(seed)`` the workloads make."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: Union[int, Sequence[int]]) -> None:
        seed_hi, seed_lo, inc_hi, inc_lo = _seed_state(seed)
        self._inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        self._state = ((self._inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + self._inc) & _MASK128
        #: The upper 32 bits of the last output ``_next32`` split, until drawn.
        self._half = None

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def integers(self, high: int) -> int:
        """A uniform int in ``[0, high)``, for ``1 <= high <= 2**32``."""
        if type(high) is not int or not 1 <= high <= 1 << 32:
            raise ValueError(f"integers(high) supports 1 <= high <= 2**32, got {high!r}")
        if high == 1:
            return 0
        if high == 1 << 32:
            return self._next32()
        m = self._next32() * high
        if m & _MASK32 < high:
            threshold = (1 << 32) % high
            while m & _MASK32 < threshold:
                m = self._next32() * high
        return m >> 32

    def random(self) -> float:
        """A uniform float in ``[0, 1)``."""
        return (self._next64() >> 11) / 9007199254740992.0
