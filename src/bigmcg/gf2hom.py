"""Graded automorphisms of a block line over GF(2) and their homology norm.

Vectors are Python ints with bit k for coordinate k.  The model is a
Z-indexed chain of coordinate blocks of a fixed dimension d (d = 2
matches one handle per block).  A `GradedAut` translates blocks by a
fixed offset outside a finite block window and acts by an invertible
matrix inside it.  Splitting the blocks into a negative side (index <= 0)
and a positive side (index >= 1) gives `homology_norm`, the cut rank of
the map: d times the number of off-window blocks the translation carries
across the 0|1 cut, plus, for each side, the rank of that side's window
rows restricted to the image blocks on the other side.  It is symmetric,
subadditive, zero on split-preserving maps, and equals d * |n| on the
pure block translation by n.

`rank` and `GradedAut.inverse` share one forward elimination: each row
is reduced by the pivot stored at its highest set bit, in a list indexed
by bit length, until it is zero or takes a free slot.  The inverse runs it
on the rows with the identity in their low bits, then back-substitutes
from the lowest pivot column up.  Invertibility is still checked at
construction of every `GradedAut`, including the results of `compose` and
`inverse`, by `rank`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .shark import _fields, _flip_overlap, _window_fields

__all__ = [
    "rank",
    "GradedAut",
    "graded_shift",
    "minimal_hull",
    "homology_norm",
    "gradedaut_from_json",
]


def rank(rows: Sequence[int]) -> int:
    """Rank over GF(2) of row bitmasks, by forward elimination on the
    highest set bits.

    The pivot list takes one slot per bit of the widest row, so its size
    follows the row width, not the row count; every caller in the library
    passes rows of at most the window's n columns.

    >>> rank([0b1100, 0b0110, 0b1010, 0])
    2

    Raises `ValueError` on a negative row, which is no GF(2) vector."""
    if not rows:
        return 0
    if min(rows) < 0:
        raise ValueError("rows must be nonnegative bitmasks")
    # slot b holds the pivot whose highest set bit is bit b - 1; a row
    # reduced to zero is stored in slot 0, which so stays zero
    pivots = [0] * (max(rows).bit_length() + 1)
    for row in rows:
        while p := pivots[b := row.bit_length()]:
            row ^= p
        pivots[b] = row
    return len(pivots) - pivots.count(0)


def _invert_rows(rows: Sequence[int]) -> list[int]:
    """Inverse of a square GF(2) matrix given as row bitmasks below 1 << n.

    Row i enters as rows[i] << n | 1 << i, the matrix in the high bits and
    the identity in the low ones, so one XOR updates both halves.  The
    forward pass of `rank` leaves the pivot of matrix column c in slot
    n + c + 1; a row that drops below 1 << n has no matrix bit left, and
    the matrix is singular.  The back-substitution then clears, from the
    lowest pivot column up, every matrix bit j < c of pivot c by pivot j,
    which already holds only bit j, so slot n + c + 1 ends with matrix
    part 1 << c and row c of the inverse in its low bits.
    """
    n = len(rows)
    pivots = [0] * (2 * n + 1)
    for i, row in enumerate(rows):
        row = row << n | 1 << i
        while p := pivots[b := row.bit_length()]:
            row ^= p
        if b <= n:
            raise ValueError("matrix is singular")
        pivots[b] = row
    low = (1 << n) - 1
    for s in range(n + 1, 2 * n + 1):
        top = 1 << (s - 1)
        row = pivots[s] ^ top
        while (b := row.bit_length()) > n:
            row ^= pivots[b]
        pivots[s] = top | row
    return [p & low for p in pivots[n + 1 :]]


# ---------------------------------------------------------------------------
# graded automorphisms


@dataclass(frozen=True, slots=True)
class GradedAut:
    """Automorphism of the block line: block i goes to block i + offset
    outside the window [lo, lo + len(rows)//block_dim - 1], and the rows
    give the images of the window coordinates.

    Row r is the image of coordinate (lo + r // d, r % d); bit c of a row
    is coordinate (lo + offset + c // d, c % d).  Canonical form trims
    window blocks that are translated identically and whose image block
    is touched by no other row, so structural equality is equality of
    maps.
    """

    block_dim: int
    offset: int = 0
    lo: int = 0
    rows: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        d = self.block_dim
        if d < 1:
            raise ValueError("block_dim must be >= 1")
        n = len(self.rows)
        if n % d:
            raise ValueError("rows must cover whole blocks")
        if n and min(self.rows) < 0:
            raise ValueError("rows must be nonnegative bitmasks")
        if n and max(self.rows) >> n:
            raise ValueError("row has bits outside the image window")
        if n and rank(self.rows) != n:
            raise ValueError("window matrix must be invertible")
        if n and (_block_clean(self.rows, d, 0) or _block_clean(self.rows, d, n // d - 1)):
            raise ValueError("window is not minimal; use the canonical constructors")
        if not self.rows and self.lo != 0:
            raise ValueError("an empty window must be stored with lo = 0")

    @classmethod
    def from_rows(
        cls, block_dim: int, offset: int, lo: int, rows: Sequence[int]
    ) -> "GradedAut":
        """Canonicalize and build from image-row bitmasks on window [lo, ...]:
        trim the end blocks that are translated identically and touched by
        no other row."""
        d = block_dim
        while rows and _block_clean(rows, d, 0):
            rows = [r >> d for r in rows[d:]]
            lo += 1
        while rows and _block_clean(rows, d, len(rows) // d - 1):
            rows = rows[: len(rows) - d]
        if not rows:
            return cls(block_dim=d, offset=offset)
        return cls(block_dim=d, offset=offset, lo=lo, rows=tuple(rows))

    @property
    def n_blocks(self) -> int:
        return len(self.rows) // self.block_dim

    @property
    def hi(self) -> int:
        """Upper window block; lo - 1 when the window is empty."""
        return self.lo + self.n_blocks - 1

    def compose(self, inner: "GradedAut") -> "GradedAut":
        """The composite applying `inner` first, then self.

        Rows are products over a frame of blocks [lo, hi] of the domain
        that covers both windows.  Bit c of a row stands for frame block
        c // d: block lo + inner.offset + c // d after `inner`, and
        lo + t + c // d after both maps.  A block outside a map's window
        keeps its frame position under that map.
        """
        if self.block_dim != inner.block_dim:
            raise ValueError("block_dim mismatch")
        d = self.block_dim
        s, t = inner.offset, self.offset + inner.offset
        # a translation moves the other window whole; minimality reads only rows
        if not self.rows:
            return GradedAut(d, t, inner.lo, inner.rows)
        if not inner.rows:
            return GradedAut(d, t, self.lo - s, self.rows)
        lo, hi = min(inner.lo, self.lo - s), max(inner.hi, self.hi - s)
        inner_at = (inner.lo - lo) * d
        outer_at = (self.lo - s - lo) * d
        outer_rows = [r << outer_at for r in self.rows]
        outer_mask = ((1 << len(self.rows)) - 1) << outer_at
        rows = []
        for c in range((hi - lo + 1) * d):
            if inner_at <= c < inner_at + len(inner.rows):
                mid = inner.rows[c - inner_at] << inner_at
            else:
                mid = 1 << c
            row = mid & ~outer_mask
            hits = (mid & outer_mask) >> outer_at
            while hits:
                low = hits & -hits
                row ^= outer_rows[low.bit_length() - 1]
                hits ^= low
            rows.append(row)
        return GradedAut.from_rows(d, t, lo, rows)

    def inverse(self) -> "GradedAut":
        if not self.rows:
            return graded_shift(-self.offset, self.block_dim)
        return GradedAut.from_rows(
            self.block_dim,
            -self.offset,
            self.lo + self.offset,
            _invert_rows(self.rows),
        )


def _block_clean(rows: Sequence[int], d: int, block_pos: int) -> bool:
    """Whether window block `block_pos` is an identity translation no other
    row touches (same local index on both sides since windows align)."""
    n = len(rows)
    base = block_pos * d
    for k in range(d):
        if rows[base + k] != 1 << (base + k):
            return False
    mask = ((1 << d) - 1) << base
    return all(not (rows[r] & mask) for r in range(n) if not base <= r < base + d)


def graded_shift(n: int, block_dim: int) -> GradedAut:
    """The pure block translation by n."""
    return GradedAut(block_dim=block_dim, offset=n)


# ---------------------------------------------------------------------------
# the two-sided norm


def minimal_hull(aut: GradedAut) -> tuple[int, int]:
    """Smallest block interval holding every block the map moves or mixes:
    the window, its image, and the blocks the translation carries across
    the cut; (0, 1) when there are none."""
    t = aut.offset
    ends = []
    if aut.rows:
        ends += [aut.lo, aut.hi, aut.lo + t, aut.hi + t]
    if t > 0:
        ends += [1, t]
    elif t < 0:
        ends += [t + 1, 0]
    return (min(ends), max(ends)) if ends else (0, 1)


def _cut_rows(aut: GradedAut) -> tuple[list[int], list[int]]:
    """The window rows restricted to image blocks across the 0|1 cut: the
    minus-side rows keep their plus-side bits, shifted down to bit 0 (a
    shift of columns, which keeps the rank), the plus-side rows their
    minus-side bits."""
    d, n = aut.block_dim, len(aut.rows)
    # row r is block lo + r // d; bit c is image block lo + offset + c // d
    first_plus_row = min(n, max(0, (1 - aut.lo) * d))
    minus_count = min(n, max(0, (1 - aut.lo - aut.offset) * d))
    minus_bits = (1 << minus_count) - 1
    return (
        [r >> minus_count for r in aut.rows[:first_plus_row]],
        [r & minus_bits for r in aut.rows[first_plus_row:]],
    )


def homology_norm(aut: GradedAut) -> int:
    """How far `aut` is from preserving both sides of the 0|1 cut.

    The norm is the cut rank

        d * #{off-window blocks the translation carries across the cut}
        + rank(minus-side window rows restricted to plus-side image blocks)
        + rank(plus-side window rows restricted to minus-side image blocks),

    the GF(2) analogue of `shark.crossing_norm`.  It equals the hull-wide
    definition: on any finite hull holding every block the map moves or
    mixes, the hull dimension minus, summed over both sides, the dimension
    of the side's span meet the image of that whole side.  Blocks that
    every map fixes add to both terms and cancel.
    """
    t = aut.offset
    in_window = _flip_overlap(t, aut.lo, aut.hi)
    minus_cut, plus_cut = _cut_rows(aut)
    return aut.block_dim * (abs(t) - in_window) + rank(minus_cut) + rank(plus_cut)


# ---------------------------------------------------------------------------
# serialization


def gradedaut_from_json(doc: object) -> GradedAut:
    required = {"offset": int, "block_dim": int}
    _fields(doc, "automorphism", required, {"window": list, "matrix": list})
    window = _window_fields(doc, "matrix")
    offset, d = doc["offset"], doc["block_dim"]
    if d < 1:
        raise ValueError(f'"block_dim" must be >= 1, got {d}')
    if window is None:
        return graded_shift(offset, d)
    lo, hi = window
    matrix = doc["matrix"]
    n = (hi - lo + 1) * d
    if len(matrix) != n:
        raise ValueError(f'"matrix" must have {n} rows for window [{lo}, {hi}]')
    rows = []
    for entry in matrix:
        # bits are the integers 0 and 1; floats and booleans are rejected
        if (
            not isinstance(entry, list)
            or len(entry) != n
            or any(type(b) is not int or b not in (0, 1) for b in entry)
        ):
            raise ValueError('"matrix" rows must be integer 0/1 lists matching the window size')
        rows.append(sum(bit << c for c, bit in enumerate(entry)))
    return GradedAut.from_rows(d, offset, lo, rows)
