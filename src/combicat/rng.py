"""Portable seeded pseudo-randomness for reproducible question synthesis.

Synthesis outputs must be byte-identical for the same (inputs, seed) no matter
which platform or language runtime replays them, so this module pins the exact
generator instead of relying on a standard library whose stream is an
implementation detail. The generator is splitmix64 (Steele, Lea and Flood's
mixing constants), advanced one 64-bit word per draw:

    state  = (state + 0x9E3779B97F4A7C15) mod 2^64
    z      = state
    z      = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z      = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z XOR (z >> 31)

Derived draws are defined on top of the raw 64-bit stream:

  * ``random()``   takes the top 53 bits as a float in [0, 1).
  * ``below(n)``   rejection-samples unbiased integers in [0, n).
  * ``shuffle``    is a Fisher-Yates pass from the last index down.
  * ``weighted_index`` walks the cumulative weights with one ``random()``.

Seeds derived from strings use FNV-1a (64-bit) so identifiers hash identically
everywhere, unlike Python's salted ``hash``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, TypeVar

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

T = TypeVar("T")


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash of a byte string."""
    value = 0xCBF29CE484222325
    for byte in data:
        value ^= byte
        value = (value * 0x100000001B3) & _MASK64
    return value


@lru_cache(maxsize=1024)  # the constant parts ("tier-assignment", tier names) recur per item
def _part_hash(part: str) -> int:
    return fnv1a64(part.encode("utf-8"))


def derive_seed(seed: int, *parts: str) -> int:
    """Stable per-item seed: mix the run seed with identifying strings."""
    value = seed & _MASK64
    for part in parts:
        value = (value ^ _part_hash(part)) & _MASK64
        value = PortableRng(value).next_u64()
    return value


class PortableRng:
    """splitmix64 stream with the derived draws documented in the module header."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self.next_u64() >> 11) * (2.0**-53)

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("below() requires a positive bound")
        threshold = (1 << 64) - ((1 << 64) % n)
        while True:
            value = self.next_u64()
            if value < threshold:
                return value % n

    def randint(self, lo: int, hi: int) -> int:
        """Integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)

    def choice(self, seq: Sequence[T]) -> T:
        return seq[self.below(len(seq))]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def weighted_index(self, weights: Sequence[float]) -> int:
        """Index drawn proportionally to non-negative weights."""
        total = 0.0
        for w in weights:
            if w < 0:
                raise ValueError("weights must be non-negative")
            total += w
        if total <= 0:
            raise ValueError("weights must not all be zero")
        target = self.random() * total
        running = 0.0
        for i, w in enumerate(weights):
            running += w
            if target < running:
                return i
        return len(weights) - 1
