"""The space of eventually-zero binary sequences with the l1 metric.

A sequence is recorded by its support: the finite set of 1-based
positions carrying a one.  The l1 distance between two sequences is the
size of the symmetric difference of their supports, which makes the
space an abelian group under coordinatewise addition mod 2 with the
distance to zero as a norm.

Each odd prime p owns a disjoint "line" of positions: the prime powers
p, p^2, ... encode positive integers and their doubles 2p, 2p^2, ...
encode negative ones.  Integer points embed isometrically along a
single line, and tuples embed isometrically along several lines at
once because distinct odd primes never collide on these positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt
from typing import Iterable, Sequence

__all__ = [
    "BinarySeq",
    "l1_distance",
    "zn_embed",
    "first_odd_primes",
]


@dataclass(frozen=True, slots=True)
class BinarySeq:
    """A finitely supported 0/1 sequence, stored as its sorted support.

    `ones` must be strictly increasing positive integers; materializing
    the support as a tuple is what enforces finiteness.  Structural
    equality is equality of sequences.
    """

    ones: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        ones = self.ones
        if not all(map(lt, ones, ones[1:])):
            raise ValueError(f"support must be strictly increasing: {self.ones!r}")
        if ones and ones[0] < 1:
            raise ValueError(f"support positions must be >= 1: {self.ones!r}")

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "BinarySeq":
        """Build a sequence from any finite iterable of positions."""
        return cls(tuple(sorted(set(indices))))

    @property
    def weight(self) -> int:
        """Number of ones, i.e. the distance to the zero sequence."""
        return len(self.ones)

    def to_json(self) -> dict:
        return {"ones": list(self.ones)}


def l1_distance(a: BinarySeq, b: BinarySeq) -> int:
    """l1 distance: the number of positions where the two sequences differ.

    >>> l1_distance(BinarySeq((2, 3, 5)), BinarySeq((2, 4)))
    3
    """
    return len(set(a.ones).symmetric_difference(b.ones))


# The largest prime a line takes: trial division up to sqrt(2^31) makes at
# most about 23,000 steps, and `zn_embed` needs only the first few primes.
_MAX_PRIME = 2**31

# The most bits a coordinate m of the line of p may take, |m| * bit_length(p):
# its last position then prints in fewer than Python's 4,300 digits.
_MAX_POSITION_BITS = 14_000

# The most bits a whole support may take, bit_length(p) * k summed over its
# positions p^k: about 33 MB as printed decimals.
_MAX_SUPPORT_BITS = 2**27


def _require_odd_prime(p: int) -> None:
    if p > _MAX_PRIME:
        raise ValueError(f"prime {p} exceeds the bound {_MAX_PRIME}")
    if p < 3 or p % 2 == 0:
        raise ValueError(f"{p} is not an odd prime")
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"{p} is not an odd prime")
        d += 2


def _line_positions(p: int, m: int) -> list[int]:
    """The positions m lights on the line of p, increasing: p, ..., p^m
    for m > 0 and 2p, ..., 2p^|m| for m < 0."""
    value = 1 if m > 0 else 2
    out = []
    for _ in range(abs(m)):
        value *= p
        out.append(value)
    return out


def zn_embed(primes: Sequence[int], point: Sequence[int]) -> BinarySeq:
    """Embed an integer tuple isometrically, one prime line per coordinate.

    Requires pairwise distinct odd primes, one per coordinate of `point`.
    The coordinate supports are pairwise disjoint, so distances add up
    coordinatewise and the embedding is an l1 isometry.  Each prime and
    coordinate is checked once, before any position is built: a prime
    above 2^31, a coordinate m with |m| * bit_length(p) above 14,000, or
    a support of more than 2^27 bits in all raises ValueError.

    >>> zn_embed((3,), (2,)).ones
    (3, 9)
    >>> zn_embed((3,), (-2,)).ones
    (6, 18)
    """
    if len(primes) != len(set(primes)):
        raise ValueError(f"primes must be distinct: {tuple(primes)!r}")
    if len(primes) != len(point):
        raise ValueError(
            f"got {len(primes)} primes for a point of dimension {len(point)}"
        )
    bits = 0
    for p, m in zip(primes, point):
        _require_odd_prime(p)
        last_bits = abs(m) * p.bit_length()
        if last_bits > _MAX_POSITION_BITS:
            raise ValueError(f"coordinate {m} of line {p} exceeds {_MAX_POSITION_BITS} bits")
        bits += last_bits * (abs(m) + 1) // 2
        if bits > _MAX_SUPPORT_BITS:
            raise ValueError(f"the point's support exceeds {_MAX_SUPPORT_BITS} bits")
    support: list[int] = []
    for p, m in zip(primes, point):
        support.extend(_line_positions(p, m))
    support.sort()
    return BinarySeq(tuple(support))


def first_odd_primes(n: int) -> tuple[int, ...]:
    """The n smallest odd primes, the default lines for `zn_embed`."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[int] = []
    candidate = 3
    while len(out) < n:
        try:
            _require_odd_prime(candidate)
        except ValueError:
            pass
        else:
            out.append(candidate)
        candidate += 2
    return tuple(out)
