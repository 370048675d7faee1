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

`rank` and `GradedAut.inverse` eliminate a small enough matrix as one
packed integer, clearing a pivot column from every row with one
multiplication (the bounds and their reasons are on the `_PACK_*`
constants): `rank` takes its pivots from the top slot down, and the
cleared slot drops off the integer by itself; the inverse, whose windows
pack up to 80 rows, rotates each pivot from the bottom slot to the top.
Other matrices take a lowest-bit pivot loop for `rank` and a
four-Russians Gauss-Jordan elimination in chunks of four columns for the
inverse.  Invertibility is still checked at construction of every
`GradedAut`, including the results of `compose` and `inverse`, by `rank`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
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


# A matrix is eliminated as one packed integer when it has at most
# `_PACK_MAX_BITS` bits (rows times bit width) for the inverse, and for
# `rank` at most `_RANK_PACK_MAX_BITS` bits with at least 24 rows and at
# least 6 set bits per row on average.  The inverse's rows carry the
# identity in their high bits, so n rows take 2n * n bits and it packs
# windows of up to 80 rows.  A packed step costs a few operations on the
# whole matrix, a loop step one XOR of two rows, so rank's loop wins on
# few rows, and on sparse rows that need few XORs (the near-permutation
# windows of composites and conjugates).  The four-Russians inverse, which
# builds a table per chunk of columns, is slower at every size up to the
# bound of 80 rows of 160 bits: in two sweeps the packed inverse took
# 0.59-0.92x its time from 60 to 84 rows, tied at 88 and lost from 92.  The
# packed rank still wins at 181 square rows (32,761 bits), by 2.0x on dense
# rows and 1.2x on rows of 6 set bits; at 256 rows the 6-bit rows lose, and
# from about 300 dense rows the loop wins.  CHANGES.md records the
# crossover sweeps.
_PACK_MIN_ROWS = 24
_PACK_MAX_BITS = 12800
_RANK_PACK_MAX_BITS = 32768
_PACK_MIN_ROW_BITS = 6


def rank(rows: Sequence[int]) -> int:
    """Rank over GF(2) of row bitmasks, by forward elimination on the
    lowest set bits: on one packed integer (`_packed_rank`) when the
    matrix is within the packing bounds, else row by row.

    Raises `ValueError` on a negative row, which is no GF(2) vector."""
    n = len(rows)
    if n >= _PACK_MIN_ROWS and sum(map(int.bit_count, rows)) >= _PACK_MIN_ROW_BITS * n:
        if min(rows) < 0:
            raise ValueError("rows must be nonnegative bitmasks")
        width = max(rows).bit_length()
        if n * width <= _RANK_PACK_MAX_BITS:
            return _packed_rank(rows, width)
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            if low in pivots:
                row ^= pivots[low]
            elif row < 0:
                # the first negative row stays negative against nonnegative
                # pivots, so it is caught here, before it could be stored
                raise ValueError("rows must be nonnegative bitmasks")
            else:
                pivots[low] = row
                break
    return len(pivots)


def _pack(rows: Sequence[int], width: int) -> tuple[int, int, int]:
    """Nonnegative rows below 1 << width as one integer, row i in slot i,
    bits [i * w, (i + 1) * w) for w = width rounded up to whole bytes.

    Returns the packed rows, `ones` (bit 0 of every slot) and w.
    """
    size = (width + 7) // 8 or 1
    data = b"".join(map(int.to_bytes, rows, repeat(size), repeat("little")))
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * len(rows), "little")
    return int.from_bytes(data, "little"), ones, 8 * size


def _packed_rank(rows: Sequence[int], width: int) -> int:
    """Rank of nonnegative rows below 1 << width, eliminated as one packed
    integer (`_pack`) from the top slot down.

    Each step takes the top slot's row p, read as `packed >> at`, as the
    pivot at its lowest bit j.  `packed >> j & ones` holds bit j of every
    row at its slot's base, so one multiplication by p adds p to exactly
    the rows holding bit j, with no carry between slots since p < 1 << w.
    That clears the pivot's own slot too, so the integer drops below
    1 << at with no shift of its own.
    """
    packed, ones, w = _pack(rows, width)
    count = 0
    for at in range((len(rows) - 1) * w, -1, -w):
        if not packed:
            break
        p = packed >> at
        if p:
            packed ^= (packed >> ((p & -p).bit_length() - 1) & ones) * p
            count += 1
    return count


def _packed_gauss_jordan(rows: Sequence[int], width: int) -> list[int]:
    """The rows of `_pack` reduced by Gauss-Jordan elimination on their
    lowest set bits, in their original order: each pivot's lowest bit is
    set in no other row.

    Each step takes the bottom slot's row p as the pivot at its lowest bit
    j and clears column j from every row by the multiplication of
    `_packed_rank`, the pivot's own slot included.  The pivot then
    re-enters at the top, so later pivots clear their columns from it as
    well, and the bottom slot is dropped.  After len(rows) steps the
    reduced rows are back in their slots.
    """
    n = len(rows)
    packed, ones, w = _pack(rows, width)
    slot = (1 << w) - 1
    top = n * w
    for _ in range(n):
        p = packed & slot
        if p:
            packed ^= (packed >> ((p & -p).bit_length() - 1) & ones) * p
            packed |= p << top
        packed >>= w
    size = w // 8
    data = packed.to_bytes(n * size, "little")
    return [int.from_bytes(data[k : k + size], "little") for k in range(0, n * size, size)]


_CHUNK = 4


def _sums(rows: Sequence[int]) -> list[int]:
    """The XOR sum of every subset of `rows`, indexed by subset bitmask."""
    table = [0]
    for row in rows:
        table += [t ^ row for t in table]
    return table


def _invert_rows(rows: Sequence[int]) -> list[int]:
    """Inverse of a square GF(2) matrix given as row bitmasks below 1 << n.

    Gauss-Jordan on the rows with the identity in their high bits: row i
    is rows[i] | 1 << (n + i), so one XOR updates both halves.  The
    elimination runs on one packed integer within the packing bounds, and
    beyond by the method of four Russians: each chunk of `_CHUNK` columns
    finds its pivot rows, reduces them to a unit block, and clears the
    chunk from every other row by one lookup in the table of the pivots'
    XOR sums.
    """
    n = len(rows)
    work = [row | 1 << (n + i) for i, row in enumerate(rows)]
    if 2 * n * n <= _PACK_MAX_BITS:
        # reduced, a row's low half is the unit vector of its pivot column,
        # or zero when the rows are dependent
        half = (1 << n) - 1
        inverse = [0] * n
        for w in _packed_gauss_jordan(work, 2 * n):
            if not w & half:
                raise ValueError("matrix is singular")
            inverse[(w & half).bit_length() - 1] = w >> n
        return inverse
    for c in range(0, n, _CHUNK):
        pivots: list[int] = []
        for j in range(c, min(c + _CHUNK, n)):
            for r in range(j, n):
                w = work[r]
                for k, p in enumerate(pivots):
                    if w >> (c + k) & 1:
                        w ^= p
                if w >> j & 1:
                    # slot j takes the pivot when the chunk is spliced in
                    work[r] = work[j]
                    pivots.append(w)
                    break
            else:
                raise ValueError("matrix is singular")
        # back-substitute so that pivot k carries only column c + k of the chunk
        for k in range(len(pivots) - 1, 0, -1):
            for i in range(k):
                if pivots[i] >> (c + k) & 1:
                    pivots[i] ^= pivots[k]
        table = _sums(pivots)
        mask = len(table) - 1
        work = [w ^ table[w >> c & mask] for w in work]
        work[c : c + len(pivots)] = pivots
    return [w >> n for w in work]


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
