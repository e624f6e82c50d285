"""Deterministic seeded randomness for rational test data.

The generator is SplitMix64 (Steele-Lea-Flood mixer, the one used to seed
xoshiro-family generators): state advances by the 64-bit golden ratio and
the output is a three-stage xor-shift multiply.  It is tiny, well known,
and trivially reimplementable from this file alone, so runs are
reproducible across machines and implementations.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Tuple

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("need a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.u64()
            if x < limit:
                return x % n

    def int_between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)

    def fraction(self, num_bound: int = 9, den_bound: int = 4) -> Fraction:
        """Random p/q with |p| <= num_bound and 1 <= q <= den_bound."""
        return Fraction(
            self.int_between(-num_bound, num_bound), self.int_between(1, den_bound)
        )

    def rational_point(
        self, d: int, num_bound: int = 9, den_bound: int = 4
    ) -> Tuple[Fraction, ...]:
        return tuple(self.fraction(num_bound, den_bound) for _ in range(d))
