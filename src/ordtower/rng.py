"""Deterministic 64-bit linear congruential generator.

Knuth's MMIX multiplier/increment, state advanced mod 2^64 and sampled
from the high bits.  Every randomized routine in the package draws from
one of these so runs are reproducible from the seed alone.
"""

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_raw(self) -> int:
        self.state = (self.state * _MULT + _INC) & _MASK
        return self.state

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return (self.next_raw() >> 33) % n
