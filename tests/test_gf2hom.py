import copy
import random
import re

import pytest
from hypothesis import example, given, strategies as st

from bigmcg.gf2hom import (
    GradedAut,
    _cut_rows,
    _invert_rows,
    graded_shift,
    gradedaut_from_json,
    homology_norm,
    minimal_hull,
    rank,
)

from bigmcg import endspace, shark

from strategies import end_perms, graded_auts, row_product, split_graded_auts, unit_triangular


def span_set(vectors):
    """Independent oracle: materialize a span by closing under xor."""
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return out


def dim_of(span):
    return len(span).bit_length() - 1


def bits(text):
    """Read '1100' with the leftmost character as coordinate 0."""
    return sum(1 << i for i, ch in enumerate(text) if ch == "1")


# ---------------------------------------------------------------------------
# plain linear algebra


def test_rref_rank_example():
    assert rank([bits("1100"), bits("0110"), bits("1010")]) == 2


@given(st.lists(st.integers(0, 2**10 - 1), max_size=8))
def test_rref_preserves_span(rows):
    assert rank(rows) == dim_of(span_set(rows))
    for v in span_set(rows):
        assert rank(rows + [v]) == rank(rows)


def pivot_loop_rank(rows):
    """Reference oracle: forward elimination one row at a time on the
    lowest set bits."""
    pivots = {}
    for row in rows:
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
    return len(pivots)


@st.composite
def bit_matrices(draw):
    """0-100 rows of 0-140 bits with zero, repeated and summed rows, a last
    row that sums earlier ones (it reduces to zero against their pivots),
    and optionally only bits at or above a floor."""
    n = draw(st.integers(0, 100))
    width = draw(st.integers(0, 140))
    floor = draw(st.sampled_from([0, 0, width // 2, width]))
    rng = draw(st.randoms(use_true_random=False))
    rows = [rng.getrandbits(width) >> floor << floor for _ in range(n)]
    if n:
        for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "sum", "top"]), max_size=8)):
            i, j, k = (rng.randrange(n) for _ in range(3))
            if kind == "top":
                i, j, k = n - 1, j % (n - 1 or 1), k % (n - 1 or 1)
            rows[i] = 0 if kind == "zero" else rows[j] if kind == "repeat" else rows[j] ^ rows[k]
    return rows


@given(bit_matrices())
def test_rank_matches_pivot_loop(rows):
    assert rank(rows) == pivot_loop_rank(rows)


@pytest.mark.parametrize(
    "n, width",
    [(23, 23), (24, 24), (23, 140), (24, 140), (90, 90), (91, 91), (181, 181), (182, 182)],
)
def test_rank_on_both_sides_of_the_packed_bounds(n, width):
    # the bounds of the packed kernels rank and the inverse once had: at
    # least 24 rows and at most 32768 bits (181 square rows) for rank, at
    # most 80 rows for the inverse
    rng = random.Random(n * width)
    full = [rng.getrandbits(width) for _ in range(n)]
    high = [r >> (width // 2) << (width // 2) for r in full]
    summed = full[:-1] + [full[0] ^ full[n // 2]]
    repeated = [0] + full[1:-1] + [full[1]]
    for rows in (full, high, summed, repeated):
        assert rank(rows) == pivot_loop_rank(rows)


def test_rank_of_rows_wider_than_tall():
    # the pivot list takes one slot per bit of the widest row, not per row
    far = [1 << 60000 | 1 << 5000, 1 << 5000 | 1, 1 << 60000 | 1, 1 << 59999 | 1 << 4999]
    for rows in (far, far[:2], far[3:], far + [1 << 60000]):
        assert rank(rows) == pivot_loop_rank(rows)
    assert rank(far) == 3


@pytest.mark.parametrize("n", [1, 23, 24, 91])
def test_negative_rows_refused(n):
    # the last row is refused before any elimination, sparse rows or dense
    for rows in ([1 << i for i in range(n)], [((1 << n) - 1) ^ (1 << i) for i in range(n)]):
        rows[-1] = -1
        with pytest.raises(ValueError, match="rows must be nonnegative bitmasks"):
            rank(rows)
        with pytest.raises(ValueError, match="rows must be nonnegative bitmasks"):
            GradedAut(1, 0, 0, tuple(rows))


def meet_dim(u, v):
    """dim(span(u) meet span(v)) by the dimension formula."""
    return rank(u) + rank(v) - rank(u + v)


def test_intersect_example():
    assert meet_dim([bits("1100"), bits("0011")], [bits("1000"), bits("0100")]) == 1


@given(
    st.lists(st.integers(0, 2**8 - 1), max_size=6),
    st.lists(st.integers(0, 2**8 - 1), max_size=6),
)
def test_intersect_matches_set_oracle(rows_u, rows_v):
    assert meet_dim(rows_u, rows_v) == dim_of(span_set(rows_u) & span_set(rows_v))


# ---------------------------------------------------------------------------
# the inverse kernel against the column scan it replaced


def column_scan_inverse(rows):
    """Reference oracle: Gauss-Jordan one column at a time, testing every
    row's bit and carrying the identity in a separate list."""
    n = len(rows)
    work = list(rows)
    aug = [1 << i for i in range(n)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if work[r] >> col & 1:
                pivot = r
                break
        if pivot is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and work[r] >> col & 1:
                work[r] ^= work[col]
                aug[r] ^= aug[col]
    return aug


def matrix_families(rng, n):
    identity = [1 << i for i in range(n)]
    permutation = list(identity)
    rng.shuffle(permutation)
    lower = unit_triangular(rng, n, True)
    upper = unit_triangular(rng, n, False)
    dense = row_product(row_product(lower, upper), permutation)
    yield from (identity, permutation, lower, upper, dense)
    yield [rng.getrandbits(n) for _ in range(n)]  # random: often singular


INVERSE_SIZES = list(range(0, 131))


def test_invert_rows_matches_column_scan():
    rng = random.Random(20211006)
    for n in INVERSE_SIZES:
        identity = [1 << i for i in range(n)]
        for rows in matrix_families(rng, n):
            try:
                expected = column_scan_inverse(rows)
            except ValueError:
                with pytest.raises(ValueError, match="matrix is singular"):
                    _invert_rows(rows)
                continue
            inverse = _invert_rows(rows)
            assert inverse == expected, n
            assert row_product(rows, inverse) == identity
            assert row_product(inverse, rows) == identity


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 9, 63, 64, 65, 80, 81, 130])
def test_invert_rows_rejects_singular(n):
    rng = random.Random(n)
    for rows in list(matrix_families(rng, n))[:5]:
        # a zero row, and a last row that repeats or sums earlier rows, each
        # make the matrix singular, as the first row eliminated or the last
        cases = [[0] + rows[1:], rows[:-1] + [0]]
        if n >= 2:
            cases.append(rows[:-1] + [rows[0]])
        if n >= 3:
            cases.append(rows[:-1] + [rows[0] ^ rows[n // 2]])
        for bad in cases:
            with pytest.raises(ValueError, match="matrix is singular"):
                column_scan_inverse(bad)
            with pytest.raises(ValueError, match="matrix is singular"):
                _invert_rows(bad)


def test_large_windows_against_oracles():
    rng = random.Random(512)
    square = {
        n: row_product(unit_triangular(rng, n, True), unit_triangular(rng, n, False))
        for n in (128, 256, 512)
    }
    for n in (256, 512):
        rows = square[n]
        assert rank(rows) == n
        assert rank(rows[:-1] + [rows[0] ^ rows[n // 2]]) == n - 1
    for n in (128, 512):
        assert _invert_rows(square[n]) == column_scan_inverse(square[n])
    # a window read from JSON is checked and inverted as well
    blocks = 128
    rows = row_product(unit_triangular(rng, 2 * blocks, True), unit_triangular(rng, 2 * blocks, False))
    doc = {
        "offset": 3,
        "block_dim": 2,
        "window": [0, blocks - 1],
        "matrix": [[r >> c & 1 for c in range(2 * blocks)] for r in rows],
    }
    g = gradedaut_from_json(doc)
    assert g.compose(g.inverse()) == graded_shift(0, g.block_dim)
    # identities and rows of 6 set bits around the former packing bounds
    identity = [1 << i for i in range(91)]
    for n in (1, 80, 81):
        assert _invert_rows(identity[:n]) == identity[:n]
    for n in (24, 64, 90):
        assert rank(identity[:n]) == n
        six = [sum(1 << (i + k) % n for k in range(6)) for i in range(n)]
        assert rank(six) == pivot_loop_rank(six)
    for n in (23, 182):
        dense = row_product(unit_triangular(rng, n, True), unit_triangular(rng, n, False))
        assert rank(dense) == n


@pytest.mark.parametrize("blocks, d", [(64, 2), (40, 3)])
def test_large_window_round_trip(blocks, d):
    # far past the 18 rows of graded_auts
    rng = random.Random(blocks * d)
    n = blocks * d
    lower = unit_triangular(rng, n, True)
    upper = unit_triangular(rng, n, False)
    g = GradedAut.from_rows(d, 5, -blocks // 2, row_product(lower, upper))
    assert g.n_blocks == blocks
    assert g.compose(g.inverse()) == graded_shift(0, g.block_dim)
    assert g.inverse().compose(g) == graded_shift(0, g.block_dim)
    assert g.inverse().rows == tuple(column_scan_inverse(g.rows))


# ---------------------------------------------------------------------------
# graded automorphisms


def apply_coord(aut, block, k):
    """Reference evaluation: the image of basis coordinate (block, k) as a
    set of (block, coordinate) pairs, read off the window rows."""
    d = aut.block_dim
    if not 0 <= k < d:
        raise ValueError(f"coordinate index {k} outside block of dim {d}")
    if not aut.lo <= block <= aut.hi:
        return frozenset([(block + aut.offset, k)])
    row = aut.rows[(block - aut.lo) * d + k]
    base = aut.lo + aut.offset
    return frozenset((base + c // d, c % d) for c in range(row.bit_length()) if row >> c & 1)


def apply_coords(aut, coords):
    acc = set()
    for block, k in coords:
        acc ^= apply_coord(aut, block, k)
    return frozenset(acc)


def swap_blocks_aut():
    # exchange blocks 0 and 1 coordinatewise, d = 2
    return GradedAut.from_rows(2, 0, 0, [0b0100, 0b1000, 0b0001, 0b0010])


def test_graded_shift_identity():
    g = graded_shift(0, 2)
    assert (g.block_dim, g.offset, g.rows) == (2, 0, ())
    assert graded_shift(3, 2).offset == 3


def test_from_rows_canonicalizes():
    # both blocks translated identically: collapses to the pure shift
    aut = GradedAut.from_rows(2, 1, 0, [0b0001, 0b0010, 0b0100, 0b1000])
    assert aut == graded_shift(1, 2)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((0,), "block_dim must be >= 1"),
        ((2, 0, 0, (0b01,)), "whole blocks"),
        ((1, 0, 0, (0b10,)), "bits outside the image window"),
        ((1, 0, 3, ()), "empty window must be stored with lo = 0"),
        # a window clean at one end only
        ((1, 0, 0, (0b001, 0b100, 0b010)), "not minimal"),
        ((1, 0, 0, (0b010, 0b001, 0b100)), "not minimal"),
    ],
)
def test_constructor_rejects_malformed_fields(fields, message):
    with pytest.raises(ValueError, match=message):
        GradedAut(*fields)


def test_compose_refuses_mixed_block_dims():
    with pytest.raises(ValueError, match="block_dim mismatch"):
        graded_shift(1, 1).compose(graded_shift(1, 2))


@pytest.mark.parametrize("n", [2, 23, 24, 80, 81, 90, 91, 181, 182])
def test_constructor_rejects_singular(n):
    with pytest.raises(ValueError):
        GradedAut(2, 0, 0, (0b01, 0b01))
    with pytest.raises(ValueError):
        GradedAut(2, 0, 0, (0b01, 0b10))  # clean block, not canonical
    # windows of n rows around the former packing bounds of rank (24 rows,
    # 181 square rows) and of the inverse (80 rows), whose result the
    # constructor checks again
    rng = random.Random(n)
    rows = row_product(unit_triangular(rng, n, True), unit_triangular(rng, n, False))
    assert rank(rows) == n
    g = GradedAut.from_rows(1, 0, 0, rows)
    assert g.compose(g.inverse()) == graded_shift(0, 1)
    singular = [rows[:-1] + [0], rows[:-1] + [rows[0]]]
    if n >= 3:
        singular.append(rows[:-1] + [rows[0] ^ rows[n // 2]])
    for bad in singular:
        with pytest.raises(ValueError, match="window matrix must be invertible"):
            GradedAut(1, 0, 0, tuple(bad))


def test_apply_coord():
    aut = swap_blocks_aut()
    assert apply_coord(aut, 0, 0) == frozenset({(1, 0)})
    assert apply_coord(aut, 1, 1) == frozenset({(0, 1)})
    assert apply_coord(aut, 7, 1) == frozenset({(7, 1)})
    shifted = graded_shift(2, 3)
    assert apply_coord(shifted, 0, 2) == frozenset({(2, 2)})


# a shear of blocks lo and lo + 1: minimal at both ends
SHEAR_ROWS = [0b0101, 0b0010, 0b0100, 0b1000]


@given(graded_auts(), graded_auts())
# a pure translation as the outer map, as the inner map, and on both sides
@example(graded_shift(3, 2), GradedAut.from_rows(2, -1, -2, SHEAR_ROWS))
@example(GradedAut.from_rows(2, 1, 1, SHEAR_ROWS), graded_shift(-2, 2))
@example(graded_shift(2, 2), graded_shift(-3, 2))
@example(graded_shift(0, 2), swap_blocks_aut())
def test_graded_compose_is_pointwise(g, h):
    gh = g.compose(h)
    for block in range(-6, 7):
        for k in range(g.block_dim):
            assert apply_coord(gh, block, k) == apply_coords(g, apply_coord(h, block, k))


@given(graded_auts())
def test_graded_inverse(g):
    assert g.compose(g.inverse()) == graded_shift(0, g.block_dim)
    assert g.inverse().compose(g) == graded_shift(0, g.block_dim)


@given(graded_auts(), graded_auts(), graded_auts())
def test_graded_associativity(g, h, k):
    assert g.compose(h).compose(k) == g.compose(h.compose(k))


# ---------------------------------------------------------------------------
# the homology norm


def test_shift_norm_values():
    assert homology_norm(graded_shift(0, 2)) == 0
    assert homology_norm(graded_shift(1, 2)) == 2
    assert homology_norm(graded_shift(3, 2)) == 6
    assert homology_norm(graded_shift(-4, 2)) == 8
    assert homology_norm(graded_shift(3, 1)) == 3
    assert homology_norm(graded_shift(2, 5)) == 10


def side_and_image_rows(aut, extra_minus, extra_plus, hull):
    """The hull-wide definition of the norm: for each side, the span of
    its coordinates in the hull plus its extra fixed blocks, and the image
    of the whole side under `aut` cut down to the hull plus the same
    extras.  Returns the total dimension and a (side, image) pair of row
    lists per side."""
    lo, hi = hull
    d = aut.block_dim
    n_main = (hi - lo + 1) * d
    n_total = n_main + (extra_minus + extra_plus) * d
    extras = {
        False: [1 << c for c in range(n_main, n_main + extra_minus * d)],
        True: [1 << c for c in range(n_main + extra_minus * d, n_total)],
    }

    def flat(block, k):
        return (block - lo) * d + k

    window = set(range(aut.lo, aut.hi + 1))
    pairs = []
    for positive in (False, True):
        side = list(extras[positive])
        for block in range(lo, hi + 1):
            if (block >= 1) == positive:
                side += [1 << flat(block, k) for k in range(d)]
        image = list(extras[positive])
        for block in window:
            if (block >= 1) == positive:
                for k in range(d):
                    vec = 0
                    for b2, k2 in apply_coord(aut, block, k):
                        vec |= 1 << flat(b2, k2)
                    image.append(vec)
        for block in range(lo - aut.offset, hi - aut.offset + 1):
            if block in window or (block >= 1) != positive:
                continue
            image += [1 << flat(block + aut.offset, k) for k in range(d)]
        pairs.append((side, image))
    return n_total, pairs


def brute_norm(aut, extra_minus, extra_plus, hull):
    """Independent oracle: enumerate the side spans and their images as
    explicit vector sets and count codimensions."""
    n_total, pairs = side_and_image_rows(aut, extra_minus, extra_plus, hull)
    return n_total - sum(dim_of(span_set(side) & span_set(image)) for side, image in pairs)


def elimination_norm(aut, extra_minus, extra_plus, hull):
    """Differential oracle: the same codimension by row elimination over the
    whole hull, meeting each side with its image by ranks."""
    n_total, pairs = side_and_image_rows(aut, extra_minus, extra_plus, hull)
    return n_total - sum(meet_dim(side, image) for side, image in pairs)


def padded_hull(aut, pad_lo, pad_hi):
    lo, hi = minimal_hull(aut)
    return (lo - pad_lo, hi + pad_hi)


def test_swap_example_against_brute_force():
    aut = swap_blocks_aut()
    value = brute_norm(aut, 0, 0, (-2, 3))
    assert value == 4
    assert elimination_norm(aut, 0, 0, (-2, 3)) == 4
    assert homology_norm(aut) == 4


@given(
    graded_auts(span=1, max_offset=1),
    st.integers(0, 1),
    st.integers(0, 1),
    st.integers(0, 2),
    st.integers(0, 2),
)
def test_norm_matches_brute_force(aut, extra_minus, extra_plus, pad_lo, pad_hi):
    hull = padded_hull(aut, pad_lo, pad_hi)
    assert homology_norm(aut) == brute_norm(aut, extra_minus, extra_plus, hull)


@given(
    st.integers(1, 3).flatmap(lambda d: graded_auts(span=4, max_offset=8, block_dim=d)),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_norm_matches_elimination_oracle(aut, extra_minus, extra_plus, pad_lo, pad_hi):
    hull = padded_hull(aut, pad_lo, pad_hi)
    assert homology_norm(aut) == elimination_norm(aut, extra_minus, extra_plus, hull)


def test_norm_on_a_wide_cut_against_elimination_oracle():
    # 60 dense minus-side rows whose plus-side image bits start at bit 50:
    # the cut rank takes them shifted down to bit 0, 30 bits wide
    rng = random.Random(26)
    rows = row_product(unit_triangular(rng, 80, True), unit_triangular(rng, 80, False))
    aut = GradedAut.from_rows(2, 5, -29, rows)
    assert (aut.lo, aut.n_blocks) == (-29, 40)
    minus_cut, plus_cut = _cut_rows(aut)
    assert (len(minus_cut), max(minus_cut).bit_length()) == (60, 30)
    assert rank(minus_cut) == pivot_loop_rank(minus_cut)
    assert rank(plus_cut) == pivot_loop_rank(plus_cut)
    assert homology_norm(aut) == 50
    assert elimination_norm(aut, 0, 0, minimal_hull(aut)) == 50


def is_split_preserving(aut):
    """Oracle: offset zero, and every window coordinate's image stays on its
    side of the 0|1 cut."""
    return aut.offset == 0 and all(
        all((b > 0) == (block > 0) for b, _ in apply_coord(aut, block, k))
        for block in range(aut.lo, aut.hi + 1)
        for k in range(aut.block_dim)
    )


def graded_of_perm(perm):
    """The block_dim=1 automorphism moving coordinate i to perm(i)."""
    base = perm.lo + perm.offset
    return GradedAut.from_rows(1, perm.offset, perm.lo, [1 << (j - base) for j in perm.images])


@given(end_perms())
def test_block_dim_one_matches_crossing_norm(perm):
    aut = graded_of_perm(perm)
    assert all(apply_coord(aut, i, 0) == {(perm(i), 0)} for i in range(-12, 13))
    assert homology_norm(aut) == shark.crossing_norm(perm)
    assert is_split_preserving(aut) == perm.is_side_preserving()


@given(graded_auts(), st.integers(0, 3), st.integers(0, 3))
def test_norm_hull_stable(aut, pad_lo, pad_hi):
    # the hull-wide definition gives the same value on every hull that
    # holds the minimal one
    base = elimination_norm(aut, 0, 0, minimal_hull(aut))
    assert elimination_norm(aut, 0, 0, padded_hull(aut, pad_lo, pad_hi)) == base


def test_hull_of_huge_shift():
    # a span, not a block set: instant at any offset
    assert minimal_hull(graded_shift(10**30, 2)) == (1, 10**30)
    assert minimal_hull(graded_shift(-(10**30), 2)) == (1 - 10**30, 0)
    assert homology_norm(graded_shift(10**30, 2)) == 2 * 10**30


def required_blocks_by_set(aut):
    """Differential oracle: every block the map moves or mixes, as a set."""
    need = set()
    if aut.rows:
        need.update(range(aut.lo, aut.hi + 1))
        need.update(b + aut.offset for b in range(aut.lo, aut.hi + 1))
    t = aut.offset
    if t > 0:
        need.update(range(1, t + 1))
    elif t < 0:
        need.update(range(t + 1, 1))
    return need


@given(graded_auts(span=5, max_offset=6))
def test_hull_check_matches_block_sets(aut):
    need = required_blocks_by_set(aut)
    assert minimal_hull(aut) == ((min(need), max(need)) if need else (0, 1))


@given(graded_auts())
def test_norm_symmetric(aut):
    assert homology_norm(aut.inverse()) == homology_norm(aut)


@given(graded_auts(span=3, max_offset=2), graded_auts(span=3, max_offset=2))
def test_norm_triangle(g, h):
    assert homology_norm(g.compose(h)) <= homology_norm(g) + homology_norm(h)


@given(split_graded_auts())
def test_split_preserving_has_norm_zero(aut):
    assert is_split_preserving(aut)
    assert homology_norm(aut) == 0


@given(st.integers(-10, 10), st.integers(1, 4))
def test_shift_norm_law(n, d):
    assert homology_norm(graded_shift(n, d)) == d * abs(n)


# ---------------------------------------------------------------------------
# serialization


def gradedaut_to_json(aut):
    """The document `gradedaut_from_json` reads: the window as a 0/1
    matrix, row r's bit c in column c."""
    doc = {"offset": aut.offset, "block_dim": aut.block_dim}
    if aut.rows:
        doc["window"] = [aut.lo, aut.hi]
        n = len(aut.rows)
        doc["matrix"] = [[(r >> c) & 1 for c in range(n)] for r in aut.rows]
    return doc


@given(graded_auts())
def test_gradedaut_json_round_trip(aut):
    assert gradedaut_from_json(gradedaut_to_json(aut)) == aut


def test_gradedaut_json_canonicalizes():
    doc = {
        "offset": 1,
        "block_dim": 1,
        "window": [0, 1],
        "matrix": [[1, 0], [0, 1]],
    }
    assert gradedaut_from_json(doc) == graded_shift(1, 1)


def test_gradedaut_json_rejects_malformed():
    with pytest.raises(ValueError):
        gradedaut_from_json({"offset": 1})
    with pytest.raises(ValueError):
        gradedaut_from_json(
            {"offset": 0, "block_dim": 2, "window": [0, 0], "matrix": [[1, 0]]}
        )
    with pytest.raises(ValueError):
        gradedaut_from_json(
            {"offset": 0, "block_dim": 1, "window": [0, 1], "matrix": [[1, 1], [1, 1]]}
        )
    for d in (0, -1):
        with pytest.raises(ValueError, match='"block_dim" must be >= 1'):
            gradedaut_from_json({"offset": 0, "block_dim": d, "window": [0, 0], "matrix": []})
        with pytest.raises(ValueError, match='"block_dim" must be >= 1'):
            gradedaut_from_json({"offset": 0, "block_dim": d})


def test_gradedaut_json_matrix_bits_are_integers():
    doc = {"offset": 0, "block_dim": 1, "window": [0, 1], "matrix": [[0, 1], [1, 0]]}
    assert gradedaut_from_json(doc).rows == (2, 1)
    for bit in (1.0, True):
        bad = dict(doc, matrix=[[0, bit], [1, 0]])
        with pytest.raises(ValueError, match="integer 0/1"):
            gradedaut_from_json(bad)


@pytest.mark.parametrize(
    "load, body, doc",
    [
        (
            shark.endperm_from_json,
            "images",
            {"offset": 0, "window": [0, 1], "images": {"0": 1, "1": 0}},
        ),
        (
            gradedaut_from_json,
            "matrix",
            {"offset": 0, "block_dim": 1, "window": [0, 1], "matrix": [[0, 1], [1, 0]]},
        ),
    ],
)
def test_window_checks_shared_by_both_loaders(load, body, doc):
    load(doc)
    bad = [
        ([], "expected an object with"),
        ({k: v for k, v in doc.items() if k != "offset"}, "expected an object with"),
        (dict(doc, extra=1), r"unknown fields: \['extra'\]"),
        (dict(doc, offset=True), '"offset" must be an integer'),
        (
            {k: v for k, v in doc.items() if k != body},
            f'"window" and "{body}" must be given together',
        ),
        (dict(doc, window=[0, 1.0]), r'"window" must be a \[lo, hi\] pair'),
        (dict(doc, window=[0]), r'"window" must be a \[lo, hi\] pair'),
        (dict(doc, window=[1, 0]), r'"window" must satisfy lo <= hi, got \[1, 0\]'),
    ]
    for bad_doc, message in bad:
        with pytest.raises(ValueError, match=message):
            load(bad_doc)


TABLE_DOC = {
    "pieces": ["A", "B"],
    "genus": "zero",
    "classes": [
        {"id": "m", "cardinality": "countable", "nonplanar": False,
         "presence": {"A": "maximal", "B": "maximal"}, "accumulates_to": []},
    ],
}
DESCRIPTOR_DOC = {
    "x": {"piece": "A", "class": "m"},
    "y": {"piece": "B", "class": "m"},
    "block_genus": "zero",
    "block_maximal_classes": [{"class": "m", "multiplicity": "one"}],
}
# a value of another JSON kind for a field of each kind; bool stands in
# for an integer, which it is not
WRONG_KIND = {int: True, str: 1, bool: 0, list: {}, dict: []}


@pytest.mark.parametrize(
    "load, doc, path, required",
    [
        (
            shark.endperm_from_json,
            {"offset": 0, "window": [0, 1], "images": {"0": 1, "1": 0}},
            (),
            {"offset"},
        ),
        (
            gradedaut_from_json,
            {"offset": 0, "block_dim": 1, "window": [0, 1], "matrix": [[0, 1], [1, 0]]},
            (),
            {"offset", "block_dim"},
        ),
        (endspace.table_from_json, TABLE_DOC, (), {"pieces", "genus", "classes"}),
        (endspace.table_from_json, TABLE_DOC, ("classes", 0), {"id", "cardinality", "presence"}),
        (endspace.descriptor_from_json, DESCRIPTOR_DOC, (), {"x", "y", "block_genus"}),
        (endspace.descriptor_from_json, DESCRIPTOR_DOC, ("y",), {"piece", "class"}),
        (
            endspace.descriptor_from_json,
            DESCRIPTOR_DOC,
            ("block_maximal_classes", 0),
            {"class", "multiplicity"},
        ),
    ],
    ids=["endperm", "gradedaut", "table", "class", "descriptor", "end_ref", "block_entry"],
)
def test_field_rules_on_every_shape(load, doc, path, required):
    """Each object shape, valid but for one fault in the object at `path`:
    not an object, a required field removed, a field of the wrong kind, or
    an unknown field.  The rejection names the field.  (An end ref that is
    not an object is a descriptor field of the wrong kind.)"""
    load(doc)

    def with_object(obj):
        out = copy.deepcopy(doc)
        if not path:
            return obj
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = obj
        return out

    target = doc
    for key in path:
        target = target[key]
    faults = [({**target, "extra": 1}, r"\['extra'\]")]
    if path != ("y",):
        faults.append(([], "expected an object with"))
    for name, value in target.items():
        named = re.escape(f'"{name}"')
        faults.append(({**target, name: WRONG_KIND[type(value)]}, f"{named} must be"))
        if name in required:
            rest = {k: v for k, v in target.items() if k != name}
            faults.append((rest, f"expected an object with .*{named}"))
    for obj, message in faults:
        with pytest.raises(ValueError, match=message):
            load(with_object(obj))


@pytest.mark.parametrize(
    "field, value",
    [("pieces", ["A", 1]), ("presence", {"A": 1}), ("accumulates_to", [None])],
)
def test_table_string_lists_hold_only_strings(field, value):
    doc = copy.deepcopy(TABLE_DOC)
    (doc if field == "pieces" else doc["classes"][0])[field] = value
    with pytest.raises(ValueError, match=f'"{field}" must hold only strings'):
        endspace.table_from_json(doc)
