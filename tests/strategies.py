"""Hypothesis strategies and input builders shared across the test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from bigmcg import endspace, gf2hom, qinf, shark


def binary_seqs(max_pos: int = 60, max_size: int = 10):
    return st.frozensets(st.integers(1, max_pos), max_size=max_size).map(
        qinf.BinarySeq.from_indices
    )


def frac_twist(start: int, end: int) -> shark.EndPerm:
    """Cycle the labels of [start, end] one step up, wrapping end to start:
    the fractional twist on a loop through consecutive punctures."""
    assert start <= end, (start, end)
    return shark._canon(0, start, [*range(start + 1, end + 1), start])


@st.composite
def side_perms(draw, half_width: int = 3) -> shark.EndPerm:
    neg = draw(st.permutations(list(range(-half_width, 1))))
    pos = draw(st.permutations(list(range(1, half_width + 1))))
    return shark._canon(0, -half_width, list(neg) + list(pos))


def letters():
    return st.one_of(
        side_perms(),
        st.sampled_from([shark.shift_power(1), shark.shift_power(-1)]),
    )


@st.composite
def end_perms(draw, max_letters: int = 8) -> shark.EndPerm:
    acc = shark.identity()
    for letter in draw(st.lists(letters(), max_size=max_letters)):
        acc = shark.compose(letter, acc)
    return acc


@st.composite
def far_end_perms(draw, reach: int = 60) -> shark.EndPerm:
    """An `end_perms()` element conjugated by shift_power(k), then composed
    with shift_power(m): windows far from the cut and from each other, and
    offsets wider than the window."""
    k = draw(st.integers(-reach, reach))
    m = draw(st.integers(-reach, reach))
    g = draw(end_perms())
    conjugate = shark.compose(shark.shift_power(k), shark.compose(g, shark.shift_power(-k)))
    return shark.compose(shark.shift_power(m), conjugate)


def any_end_perms():
    return st.one_of(end_perms(), far_end_perms())


@st.composite
def invertible_rows(draw, n: int) -> list[int]:
    # random row operations on the identity stay invertible by construction
    rows = [1 << i for i in range(n)]
    ops = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()),
            max_size=3 * n,
        )
    )
    for i, j, is_swap in ops:
        if i == j:
            continue
        if is_swap:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] ^= rows[j]
    return rows


def row_product(a, b):
    """The matrix product a.b on row bitmasks: row i xors the rows of b
    that row i of a selects."""
    out = []
    for row in a:
        acc = 0
        for j, other in enumerate(b):
            if row >> j & 1:
                acc ^= other
        out.append(acc)
    return out


def unit_triangular(rng, n, lower):
    """A random triangular matrix with ones on the diagonal."""
    rows = []
    for i in range(n):
        off = rng.getrandbits(n) & ((1 << i) - 1 if lower else ~((1 << (i + 1)) - 1))
        rows.append(1 << i | off)
    return rows


@st.composite
def graded_auts(draw, span: int = 4, max_offset: int = 3, block_dim: int = 2) -> gf2hom.GradedAut:
    if draw(st.integers(0, 5)) == 0:
        return gf2hom.graded_shift(draw(st.integers(-max_offset, max_offset)), block_dim)
    lo = draw(st.integers(-span, span))
    hi = draw(st.integers(lo, span))
    offset = draw(st.integers(-max_offset, max_offset))
    n = (hi - lo + 1) * block_dim
    rows = draw(invertible_rows(n))
    return gf2hom.GradedAut.from_rows(block_dim, offset, lo, rows)


@st.composite
def split_graded_auts(draw, span: int = 3, block_dim: int = 2) -> gf2hom.GradedAut:
    """Offset-zero automorphisms block-diagonal across the 0|1 cut."""
    lo = draw(st.integers(-span, 0))
    hi = draw(st.integers(1, span))
    d = block_dim
    n_minus = (0 - lo + 1) * d
    n_plus = hi * d
    minus = draw(invertible_rows(n_minus))
    plus = draw(invertible_rows(n_plus))
    rows = [r for r in minus] + [r << n_minus for r in plus]
    return gf2hom.GradedAut.from_rows(d, 0, lo, rows)


def end_class(id, card, nonplanar, presence, accumulates_to=()):
    """An `EndClass` from a presence mapping and any iterable of targets."""
    return endspace.EndClass(
        id, card, nonplanar, tuple(sorted(presence.items())), frozenset(accumulates_to)
    )


def wide_table(n_pieces, n_classes) -> endspace.EndClassTable:
    """A planar table with a cantor class maximal in every piece and
    `n_classes - 1` countable classes present in every piece, accumulating
    to it: the cantor rule glues all pieces, so the search answers no after
    looking at every mode, and the cantor note holds."""
    pieces = [f"p{i}" for i in range(n_pieces)]
    cantor, countable = endspace.Cardinality("cantor"), endspace.Cardinality("countable")
    top = end_class("M", cantor, False, dict.fromkeys(pieces, "maximal"))
    present = dict.fromkeys(pieces, "present")
    below = [end_class(f"C{k}", countable, False, present, ("M",)) for k in range(n_classes - 1)]
    return endspace.EndClassTable(tuple(pieces), endspace.Genus("zero"), (top, *below))


@st.composite
def tables(draw, max_pieces: int = 3, max_extra_classes: int = 3) -> endspace.EndClassTable:
    """Valid end-class tables built invariant-by-invariant."""
    n_pieces = draw(st.integers(1, max_pieces))
    pieces = tuple(f"P{i}" for i in range(n_pieces))

    # each piece picks its maximal class from a small pool
    n_max = draw(st.integers(1, n_pieces))
    assignment = [draw(st.integers(0, n_max - 1)) for _ in range(n_pieces)]
    used = sorted(set(assignment))
    max_ids = {m: f"M{m}" for m in used}
    max_cards = {m: draw(st.sampled_from(["countable", "cantor"])) for m in used}
    max_nonplanar = {m: draw(st.booleans()) for m in used}

    classes = []
    for m in used:
        presence = {
            pieces[i]: "maximal" for i, chosen in enumerate(assignment) if chosen == m
        }
        accumulates = (max_ids[m],) if max_cards[m] == "cantor" and draw(st.booleans()) else ()
        classes.append(
            end_class(
                max_ids[m],
                endspace.Cardinality.parse(max_cards[m]),
                max_nonplanar[m],
                presence,
                accumulates,
            )
        )

    nonplanar_of = {max_ids[m]: max_nonplanar[m] for m in used}
    n_extra = draw(st.integers(0, max_extra_classes))
    for k in range(n_extra):
        where = draw(
            st.lists(st.integers(0, n_pieces - 1), min_size=1, max_size=n_pieces, unique=True)
        )
        presence = {pieces[i]: "present" for i in where}
        # accumulating to each host piece's maximum keeps the table valid;
        # targets among the earlier extra classes make chains
        targets = {max_ids[assignment[i]] for i in where}
        extra_targets = draw(st.lists(st.sampled_from(sorted(nonplanar_of)), max_size=2))
        targets |= set(extra_targets)
        all_np = all(nonplanar_of[t] for t in targets)
        nonplanar = draw(st.booleans()) if all_np else False
        nonplanar_of[f"C{k}"] = nonplanar
        card = draw(st.sampled_from(["countable", "cantor", "finite:3"]))
        classes.append(
            end_class(
                f"C{k}",
                endspace.Cardinality.parse(card),
                nonplanar,
                presence,
                sorted(targets),
            )
        )

    any_np = any(c.nonplanar for c in classes)
    if any_np:
        genus = endspace.Genus("infinite")
    else:
        genus = draw(
            st.sampled_from([endspace.Genus("zero"), endspace.Genus("finite", 2)])
        )
    table = endspace.EndClassTable(pieces, genus, tuple(classes))
    assert endspace.validate_table(table).ok, endspace.validate_table(table)
    return table
