"""A faithful finite model for mapping classes of a two-ended punctured strip.

Punctures sit at the integers; side A is {i <= 0} and side B is {i > 0}.
A mapping class is recorded by its action on puncture labels as an
`EndPerm`: a bijection of Z equal to translation by a fixed offset
outside a finite window.  The group is generated by side-preserving
elements (arbitrary reshuffles within each side) together with the unit
shift, and `crossing_norm` counts the labels carried across the A|B cut,
which is a length function bounding word length in that alphabet from
below; a word's `Shift` letter is a run of unit shifts, costing |step|.

Binary sequences embed into the group through `phi`, the shift by the
weight of the sequence followed by one fractional twist per zero before
its final one.  That product has a closed form, built in one pass over
the window: translation by the weight, with the window
[1 - weight, last - weight] sent to the ones and then to the zeros, in
increasing order.  It sends the non-positive labels exactly onto the
support, and the crossing norm of difference elements reproduces the l1
distance on sequences.  `witness_factorization` turns any element into
a generator word of at most five letters and cost at most
crossing_norm + 3: two packing reshuffles, one built gap by gap between
the labels that cross and the other as its mirror image, two shift
runs, and a correcting reshuffle built in one pass over the window,
whose images it splits by side in order.
`GenWord.replay` folds each run of shifts into the reshuffle after it,
which moves that reshuffle's window, so it costs one window pass per
reshuffle letter.
`word_length` returns an optimal word in the side-preserving maps and
the unit shift, so its cost is the word length: one window pass and a
scan of the shift exponents the window decides choose its shape, as its
docstring proves.  `word_ball` and `word_length_oracle` search the
capped alphabet of the reshuffles of [-W, W], W <= 4, and the unit
shifts breadth first, one coset per layer (`_grow` proves it exact);
a ball of more than `_MAX_SEARCH_STATES` states raises ValueError.

The primitives `compose`, `inverse` and `crossing_norm` read the window
tuples directly instead of evaluating the map point by point.
`crossing_norm` reads only the A half of the window: by the flux
identity (proved in its docstring) a bijection translating by t outside
a window sends exactly t more labels from A to B than back, so the norm
is 2 * #(A -> B) - t.  It counts the translation's crossings outside
the window by interval arithmetic, so its cost does not grow with
|offset|.  `compose` with a pure translation on either side skips the
general splice: it moves the other window as a whole, or returns it
unchanged for a zero shift.  `_crossers` reads the labels that change
sides off the window tuple and adds the translation's flip zone outside
the window by arithmetic; the witness and the support law use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, permutations
from operator import itemgetter
from typing import Optional, Sequence, Union

from .qinf import BinarySeq

__all__ = [
    "EndPerm",
    "identity",
    "shift_power",
    "compose",
    "inverse",
    "crossing_norm",
    "positive_images_of_nonpositives",
    "zero_stats",
    "phi",
    "Nu",
    "Shift",
    "GenWord",
    "witness_factorization",
    "word_length",
    "side_preserving_alphabet",
    "word_ball",
    "word_length_oracle",
    "endperm_to_json",
    "endperm_from_json",
    "genword_to_json",
    "format_endperm",
]


@dataclass(frozen=True, slots=True)
class EndPerm:
    """Bijection of Z acting as i -> i + offset outside a finite window.

    `images[j]` is the value at position `lo + j`.  Instances are kept in
    canonical form: the window is the smallest interval outside of which
    the map is the pure translation, and the window images are a
    bijection onto the translated window.  Structural equality therefore
    coincides with equality as functions, and instances are hashable.
    """

    offset: int = 0
    lo: int = 0
    images: tuple[int, ...] = ()

    def __init__(self, offset: int = 0, lo: int = 0, images: tuple[int, ...] = ()) -> None:
        # Written out rather than generated, to check the fields before they
        # are set and to set them through the slots, not object.__setattr__;
        # `dataclass` keeps a class-defined __init__ and still adds the rest.
        if images:
            first = lo + offset
            last = first + len(images) - 1
            if sorted(images) != list(range(first, last + 1)):
                raise ValueError(
                    "window images must form a bijection onto the translated window"
                )
            if images[0] == first or images[-1] == last:
                raise ValueError("window is not minimal; use the canonical constructors")
        elif lo != 0:
            raise ValueError("an empty window must be stored with lo = 0")
        _set_offset(self, offset)
        _set_lo(self, lo)
        _set_images(self, images)

    @property
    def hi(self) -> int:
        """Upper window endpoint; lo - 1 when the window is empty."""
        return self.lo + len(self.images) - 1

    def window_range(self) -> range:
        return range(self.lo, self.lo + len(self.images))

    def __call__(self, i: int) -> int:
        if self.images and self.lo <= i <= self.hi:
            return self.images[i - self.lo]
        return i + self.offset

    @property
    def is_identity(self) -> bool:
        return self.offset == 0 and not self.images

    def is_side_preserving(self) -> bool:
        """True when the map fixes both sides of the A|B cut setwise: no
        label crosses, so `crossing_norm`, which counts the crossers and by
        the flux identity is at least |offset|, is 0."""
        return crossing_norm(self) == 0


# The slot setters EndPerm.__init__ calls; frozenness blocks only __setattr__.
_set_offset = EndPerm.offset.__set__
_set_lo = EndPerm.lo.__set__
_set_images = EndPerm.images.__set__

# The fields (offset, lo, images) of a canonical EndPerm.
_Key = tuple[int, int, tuple[int, ...]]


def _trim_key(offset: int, lo: int, images: Sequence[int]) -> _Key:
    """Trim translational endpoints: the canonical fields of the map that
    sends lo + k to images[k] and translates by offset elsewhere."""
    first = lo + offset
    start, end = 0, len(images)
    while start < end and images[start] == first + start:
        start += 1
    if start == end:
        return (offset, 0, ())
    while images[end - 1] == first + end - 1:
        end -= 1
    return (offset, lo + start, tuple(images[start:end]))


def _canon(offset: int, lo: int, images: Sequence[int]) -> EndPerm:
    """Trim translational endpoints and build a canonical EndPerm."""
    return EndPerm(*_trim_key(offset, lo, images))


def identity() -> EndPerm:
    return EndPerm()


def shift_power(n: int) -> EndPerm:
    """The translation i -> i + n."""
    return EndPerm(offset=n)


def _frame(t: int, w_lo: int, images: Sequence[int], lo: int, hi: int) -> tuple[int, ...]:
    """The images over [lo, hi] of the map with fields (t, w_lo, images):
    translation by t with the window spliced in.  [lo, hi] holds the
    window; an empty one, stored at w_lo = 0, needs lo <= 0 <= hi + 1."""
    w_hi = w_lo + len(images) - 1
    return (*range(lo + t, w_lo + t), *images, *range(w_hi + 1 + t, hi + 1 + t))


def compose(outer: EndPerm, inner: EndPerm) -> EndPerm:
    """The composite applying `inner` first, then `outer`."""
    t = outer.offset + inner.offset
    # a translation on either side moves the other window as a whole, and
    # the ends stay non-translational, so the result is canonical as built
    if not outer.images:
        s = outer.offset
        return EndPerm(t, inner.lo, tuple([v + s for v in inner.images])) if s else inner
    if not inner.images:
        s = inner.offset
        return EndPerm(t, outer.lo - s, outer.images) if s else outer
    # the indices whose inner image can land in the outer window, and the
    # inner window
    s = inner.offset
    o_lo, o_images, o_t = outer.lo, outer.images, outer.offset
    o_hi = o_lo + len(o_images) - 1
    i_lo = inner.lo
    i_hi = i_lo + len(inner.images) - 1
    lo = i_lo if i_lo < o_lo - s else o_lo - s
    hi = i_hi if i_hi > o_hi - s else o_hi - s
    frame = _frame(s, i_lo, inner.images, lo, hi)
    mid = [o_images[v - o_lo] if o_lo <= v <= o_hi else v + o_t for v in frame]
    return _canon(t, lo, mid)


def inverse(perm: EndPerm) -> EndPerm:
    """The inverse map, built already canonical.

    A canonical map with fields (t, lo, images) and window [lo, hi] sends
    the window onto [lo + t, hi + t], so its inverse translates by -t
    outside [lo + t, hi + t] and sends perm(i) back to i inside it.  That
    window is minimal: the inverse sends its lower end lo + t to the
    translate lo exactly when perm(lo) = lo + t, and its upper end hi + t
    to hi exactly when perm(hi) = hi + t; perm's window is minimal, so
    neither holds.  No trim pass is needed, and the checking constructor
    still confirms the bijection and the minimal window.
    """
    if not perm.images:
        return shift_power(-perm.offset)
    lo2 = perm.lo + perm.offset
    images = [0] * len(perm.images)
    for i, v in enumerate(perm.images, start=perm.lo):
        images[v - lo2] = i
    return EndPerm(-perm.offset, lo2, tuple(images))


def _cut_index(perm: EndPerm) -> int:
    """The slice bound of side A in the window: images[:cut] are the images
    of positions lo .. 0 and images[cut:] those of the positions above 0.

    A bound past the window's end is left to slicing, which clamps it; a
    negative one would count from the right, hence the guard."""
    return 1 - perm.lo if perm.lo <= 0 else 0


def _flip_zone(t: int) -> tuple[int, int]:
    """The labels the translation by t carries across the cut, as bounds
    (lo, hi): [1 - t, 0] to B for t > 0, [1, -t] to A for t < 0, and
    the empty (1, 0) for t = 0."""
    return (1 - t, 0) if t > 0 else (1, -t)


def _flip_overlap(t: int, lo: int, hi: int) -> int:
    """How many labels of the translation's flip zone lie in [lo, hi].

    Counted by arithmetic, not by len() of a range, which fails beyond
    sys.maxsize."""
    z_lo, z_hi = _flip_zone(t)
    top = hi if hi < z_hi else z_hi
    bottom = lo if lo > z_lo else z_lo
    return top - bottom + 1 if top >= bottom else 0


def _crossers(perm: EndPerm) -> tuple[list[int], list[int]]:
    """The labels that change sides, each list increasing: (to_a, to_b),
    the positive labels sent to A and the non-positive labels sent to B.

    The window part is read off the images; outside the window the
    translation's flip zone (`_flip_zone`) crosses, its part below the
    window first and its part above it last.
    """
    images, lo, hi, t = perm.images, perm.lo, perm.hi, perm.offset
    split = _cut_index(perm)
    to_b = [i for i, v in enumerate(images[:split], lo) if v > 0]
    to_a = [i for i, v in enumerate(images[split:], lo + split) if v <= 0]
    if t:
        z_lo, z_hi = _flip_zone(t)
        below = range(z_lo, z_hi + 1 if z_hi < lo else lo)
        above = range(z_lo if z_lo > hi else hi + 1, z_hi + 1)
        if t > 0:
            to_b = [*below, *to_b, *above]
        else:
            to_a = [*below, *to_a, *above]
    return to_a, to_b


def crossing_norm(perm: EndPerm) -> int:
    """Number of labels carried across the A|B cut, in either direction.

    This is a length function: symmetric, subadditive under composition,
    zero exactly on side-preserving elements, and a lower bound for word
    length in the side-preserving-plus-unit-shift alphabet.

    It is counted on side A alone, by the flux identity: a bijection f
    that translates by t outside a finite window sends exactly t more
    labels from A to B than from B to A.  Proof: take N >= |t| with the
    window inside [-N, oo).  Below -N, f is i -> i + t, so it maps
    (-oo, -N) onto (-oo, -N + t), every label there stays in A, and f
    maps [-N, oo) onto [-N + t, oo).  The N + 1 - t non-positive labels
    of [-N + t, oo) are then the images of the labels of [-N, 0] that
    stay in A, N + 1 - #(A -> B) of them, and of the #(B -> A) labels
    that cross to A; so #(A -> B) - #(B -> A) = t.  The norm is
    therefore 2 * #(A -> B) - t.  The labels carried to B are the window
    positions lo .. 0 with positive images and, for t > 0 only, the part
    of the flip zone [1 - t, 0] outside the window.
    """
    images, t = perm.images, perm.offset
    to_b = sum(map((0).__lt__, images[: _cut_index(perm)]))
    if t > 0:
        lo = perm.lo
        to_b += t - _flip_overlap(t, lo, lo + len(images) - 1)
    return 2 * to_b - t


def positive_images_of_nonpositives(perm: EndPerm) -> tuple[int, ...]:
    """Sorted positive values taken on non-positive arguments (finite)."""
    return tuple(sorted(map(perm, _crossers(perm)[1])))


def zero_stats(a: BinarySeq) -> tuple[int, list[int]]:
    """Count and locate the zeros occurring before the final one of `a`.

    Returns (z, positions) with positions sorted increasingly; the zero
    sequence gives (0, []).

    >>> zero_stats(BinarySeq((3,)))
    (2, [1, 2])
    """
    positions: list[int] = []
    prev = 0
    for one in a.ones:
        positions.extend(range(prev + 1, one))
        prev = one
    return (len(positions), positions)


# The largest last support position `phi` takes.  Its window holds one
# entry per position up to the last (531,441 took 0.2 s and 85 MB), so a
# larger one is refused before anything is built.
_MAX_DENSE_POSITION = 10**6


def phi(a: BinarySeq) -> EndPerm:
    """Isometric embedding of binary sequences into the strip model.

    With w the weight of `a`, phi translates by w outside the window
    [1 - w, last - w], where last is the final support position, and
    sends that window to the ones of `a` and then to its zeros before
    the final one, each in increasing order.  It is the shift by w
    followed by the fractional twists [i-th zero, w + i] for the zeros
    in increasing order, written in closed form, so its cost is linear
    in `last`.  The non-positive labels land exactly on the support of
    `a`, the offset and crossing norm both equal the weight, and
    crossing_norm(inverse(phi(b)) . phi(a)) recovers the l1 distance
    between `a` and `b`.  A last support position above
    `_MAX_DENSE_POSITION` raises ValueError.

    >>> f = phi(BinarySeq((3,)))
    >>> f.offset, f.lo, f.images
    (1, 0, (3, 1, 2))
    """
    if a.ones and a.ones[-1] > _MAX_DENSE_POSITION:
        raise ValueError(
            f"phi builds one window entry per position up to the last, {a.ones[-1]}; "
            f"positions above {_MAX_DENSE_POSITION} are refused"
        )
    w = a.weight
    return _canon(w, 1 - w, [*a.ones, *zero_stats(a)[1]])


# ---------------------------------------------------------------------------
# generator words


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class Nu:
    """A side-preserving generator letter."""

    perm: EndPerm

    def __post_init__(self) -> None:
        if not self.perm.is_side_preserving():
            raise ValueError("Nu letters must be side-preserving with offset 0")


@dataclass(frozen=True, slots=True)
class Shift:
    """A run of |step| unit shift letters: the translation by `step` != 0."""

    step: int

    def __post_init__(self) -> None:
        if not _is_int(self.step) or self.step == 0:
            raise ValueError(f"shift step must be a nonzero integer, got {self.step!r}")


Letter = Union[Nu, Shift]


@dataclass(frozen=True, slots=True)
class GenWord:
    """A word in the generating alphabet, applied left to right."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        for letter in self.letters:
            if not isinstance(letter, (Nu, Shift)):
                raise ValueError(f"not a generator letter: {letter!r}")

    @property
    def cost(self) -> int:
        """Word length in the unit alphabet: 1 per `Nu`, |step| per `Shift`."""
        return sum(abs(letter.step) if isinstance(letter, Shift) else 1 for letter in self.letters)

    def replay(self) -> EndPerm:
        """Compose the letters in order (first letter acts first).

        The steps of each maximal run of `Shift` letters are summed, and
        the sum r is folded into the next non-identity reshuffle p: p after
        the shift by r is EndPerm(r, p.lo - r, p.images), p's window moved
        down by r, since p has offset 0.  So a replay costs one window pass
        per reshuffle letter, whatever the shifts.  A run before an identity
        reshuffle (which has no window to move) stays pending, and a run
        left at the end is composed as one translation.
        """
        acc = identity()
        run = 0
        for letter in self.letters:
            if isinstance(letter, Shift):
                run += letter.step
                continue
            p = letter.perm
            if not p.images:
                continue
            acc = compose(EndPerm(run, p.lo - run, p.images) if run else p, acc)
            run = 0
        return compose(shift_power(run), acc) if run else acc


def _packing_images(sources: list[int]) -> list[int]:
    """The images over [1, max] of the side-preserving map sending the
    positive `sources` (increasing) to 1..k in order, displacing the
    remaining labels of [1, max] upward in order.  Built gap by gap: a
    label with j sources below it has k - j above it, so it moves up by
    k - j."""
    k = len(sources)
    images: list[int] = []
    prev = 0
    for j, src in enumerate(sources):
        images.extend(range(prev + 1 + k - j, src + k - j))
        images.append(j + 1)
        prev = src
    return images


def _pack_positive(sources: list[int]) -> EndPerm:
    """The map of `_packing_images`."""
    return _canon(0, 1, _packing_images(sources))


def _pack_nonpositive(sources: list[int]) -> EndPerm:
    """Side-preserving map sending the non-positive `sources` (increasing)
    to the top slots -k+1..0 in order, displacing the rest of [min, 0]
    downward in order: `_pack_positive` conjugated by i -> 1 - i, which
    reflects the sources and then reverses and reflects the images."""
    images = _packing_images([1 - s for s in reversed(sources)])
    return _canon(0, 1 - len(images), [1 - v for v in reversed(images)])


# The largest |offset| + window length `witness_factorization` takes; a
# label crossing the cut lies within that sum of it, so every list the
# witness builds is at most twice as long.  A difference of two sequences
# `phi` accepts has |offset| <= 10^6 and a window of at most 10^6 labels,
# and the largest measured, all ones up to 10^6 against the single one at
# 10^6, reached 1,999,999 and took 0.8 s and 440 MB of peak RSS.  A literal
# of its own: it bounds the witness's lists, and must not move unseen when
# `phi`'s bound does.
_MAX_WITNESS_SPAN = 2_000_000


def witness_factorization(perm: EndPerm) -> GenWord:
    """An explicit generator word replaying to `perm`.

    Strategy: line up the B-side labels destined for A just above the
    cut and shift them over, then line up the A-side labels destined for
    B just below the cut and shift them back, then finish with one
    side-preserving correction: u1, Shift(-k1), u2, Shift(k2), u3, less
    any trivial one.  The runs cost k1 + k2 = crossing_norm, the rest <= 3.

    The correction u3 = perm . stage^-1, with stage the first four
    steps, is read off the window.  Each step keeps the order of the
    labels perm sends to A, and of those it sends to B, and the stage ends
    with the first onto A and the second onto B.  As perm's window images
    fill [lo + t, hi + t], t the offset, each class meets the window in as
    many labels as under x -> x + t, so the stage, like perm, is x -> x + t
    outside the window.  So u3 fixes all else and sends lo + t, ..., hi + t
    to perm's non-positive window images, then its positive ones, in order.

    Raises ValueError when |offset| + window length exceeds
    `_MAX_WITNESS_SPAN`.
    """
    span = abs(perm.offset) + len(perm.images)
    if span > _MAX_WITNESS_SPAN:
        raise ValueError(
            f"the witness builds lists of |offset| + window length = {span} labels; "
            f"above {_MAX_WITNESS_SPAN} it is refused"
        )
    t, images = perm.offset, perm.images
    to_a, to_b = _crossers(perm)
    k1, k2 = len(to_a), len(to_b)

    u1 = _pack_positive(to_a)
    u2 = _pack_nonpositive([i - k1 for i in to_b])
    u3 = _canon(0, perm.lo + t, [v for v in images if v <= 0] + [v for v in images if v > 0])

    letters: list[Letter] = []
    if not u1.is_identity:
        letters.append(Nu(u1))
    if k1:
        letters.append(Shift(-k1))
    if not u2.is_identity:
        letters.append(Nu(u2))
    if k2:
        letters.append(Shift(k2))
    if not u3.is_identity:
        letters.append(Nu(u3))
    return GenWord(tuple(letters))


def word_length(perm: EndPerm) -> GenWord:
    """An optimal word for `perm` in the side-preserving maps S and the
    unit shift sigma: its `cost` is the word length.

    Shapes.  With c = crossing_norm(perm), a word holds at least c unit
    shifts (sigma has norm 1, an S letter 0, and the norm is subadditive),
    and the witness costs at most c + 3.  So a cheaper word has at most two
    S letters: it is sigma^e, s1, sigma^b, s2, sigma^a (first letter first,
    s1 or s2 maybe absent) with |a|, |e| <= c + 2, or, with neither, the
    translation by the offset t, whose witness is that one run.

    The S sigma^b S test.  Y = sigma^-a . perm . sigma^-e, so
    Y(i) = perm(i - e) - a, has offset b = t - a - e.  It lies in
    S sigma^b S exactly when it carries labels across the cut one way only:
    S letters keep sides and sigma^b moves labels one way, and the witness
    of such a Y packs and shifts only that way's crossers, at cost at most
    |b| + 2, or is Y alone when nothing crosses.  Y sends no label to A
    exactly when a < M(-e), M(p) the least value perm takes above p, and
    then b >= 0 by the flux identity (see `crossing_norm`); it sends none
    to B exactly when a >= P(-e), P(p) the greatest value at or below p,
    and then b <= 0.

    The choice of a.  Fix e and put s = t - e = a + b.  On a < M, where
    a <= s, |a| + |b| = |a| + s - a is flat for a >= 0 and falls as a rises
    below 0, so a = min(M - 1, 0) is best; on a >= P, a = max(P, 0) by the
    mirror argument.  One S letter serves when P <= s < M, at a = s.
    A chosen Y whose witness has fewer S letters than counted is a cheaper
    shape at (a + b, e) or (a, e + b), so the least shape cost is the
    length, and sigma^e, Y's witness, sigma^a attains it in at most five
    letters; when no shape costs less than c + 3, perm's witness does.

    The scan.  The window's images fill [lo + t, hi + t], so P and M are a
    prefix maximum and a suffix minimum of them on [lo, hi - 1], and
    P(p) = p + t, M(p) = p + 1 + t elsewhere, where the one-S-letter cost
    |e| + |t - e| + 1 is convex in e: of each run of such e the one nearest
    0 is scanned, and the stretch from the window to the cut is never read.
    Raises ValueError only where a witness it builds does: perm's own,
    or that of the chosen Y.
    """
    t, images, lo, hi = perm.offset, perm.images, perm.lo, perm.hi
    reach = crossing_norm(perm) + 2
    prefix_max = list(accumulate(images, max))
    suffix_min = list(accumulate(reversed(images), min))[::-1]
    runs = ((-reach, min(reach, -hi)), (max(-reach, 1 - lo), reach))
    nearest = [min(max(0, x), y) for x, y in runs if x <= y]
    inside = range(max(-reach, 1 - hi), min(reach, -lo) + 1)
    best, choice = reach + 1, None
    for e in sorted({*nearest, *inside}):
        p, s = -e, t - e
        top, bottom = (prefix_max[p - lo], suffix_min[p - lo + 1]) if lo <= p < hi else (s, s + 1)
        shapes = ((s, 1),) if top <= s < bottom else ((min(bottom - 1, 0), 2), (max(top, 0), 2))
        for a, letters in shapes:
            cost = abs(e) + abs(a) + abs(s - a) + letters
            if cost < best:
                best, choice = cost, (a, e)
    if choice is None:
        return witness_factorization(perm)
    a, e = choice
    core = compose(shift_power(-a), compose(perm, shift_power(-e)))
    head = (Shift(e),) if e else ()
    tail = (Shift(a),) if a else ()
    return GenWord(head + witness_factorization(core).letters + tail)


# ---------------------------------------------------------------------------
# exact word lengths by breadth-first search over canonical keys

# The largest support bound W a search takes.  The reshuffles of [-W, W]
# number (W+1)! * W!: 2,880 for W = 4, but 86,400 per state for W = 5.
_MAX_SUPPORT_BOUND = 4

# The most states one ball of a search may hold: a key takes about 270
# bytes, so an oracle query's two balls stay under 1 GB.  At W = 4 each
# layer is 8-10 times the one before; word_ball(4, 4) passes the cap.
_MAX_SEARCH_STATES = 1_000_000

# The search runs on the fields (offset, lo, images) of canonical EndPerms.
# A neighbour is formed and deduplicated as such a tuple; only `word_ball`
# builds EndPerm objects, one per state it returns.
_IDENTITY_KEY: _Key = (0, 0, ())


def _reshuffle_tables(support_bound: int) -> list[tuple[int, ...]]:
    """The non-identity side-preserving maps with window inside [-W, W],
    each as its tuple of images over [-W, W], sorted by canonical window.
    Callers keep W within `_check_bounds`."""
    w = support_bound
    keyed = []
    for neg in permutations(range(-w, 1)):
        for pos in permutations(range(1, w + 1)):
            table = neg + pos
            moved = [j for j, v in enumerate(table) if v != j - w]
            if moved:
                keyed.append((moved[0] - w, table[moved[0] : moved[-1] + 1], table))
    keyed.sort()
    return [table for _, _, table in keyed]


def side_preserving_alphabet(support_bound: int) -> list[EndPerm]:
    """All non-identity side-preserving maps with window inside
    [-support_bound, support_bound].

    The count grows like (W+1)! * W!, so a W outside 0 <= W <= 4 raises
    ValueError before any map is built.
    """
    _check_bounds(support_bound, 0)
    return [_canon(0, -support_bound, list(t)) for t in _reshuffle_tables(support_bound)]


def _check_bounds(support_bound: int, depth_bound: int) -> None:
    """Reject a negative depth bound, or a support bound W outside
    0 <= W <= `_MAX_SUPPORT_BOUND`."""
    if depth_bound < 0:
        raise ValueError(f"depth_bound must be nonnegative, got {depth_bound}")
    if not 0 <= support_bound <= _MAX_SUPPORT_BOUND:
        raise ValueError(
            f"support_bound={support_bound} lies outside [0, {_MAX_SUPPORT_BOUND}]: "
            "the reshuffles of [-W, W] number (W+1)! * W!"
        )


def _too_many_states() -> ValueError:
    return ValueError(f"the word-length search passed {_MAX_SEARCH_STATES} states in one ball")


def _grow(
    frontier: list[_Key],
    fresh: int,
    seen: dict[_Key, int],
    depth: int,
    tables: list[tuple[int, ...]],
    support_bound: int,
) -> tuple[list[_Key], int]:
    """One breadth-first layer: the keys one letter from `frontier` and
    absent from `seen`; each is recorded in `seen` at `depth`.

    Returns (nxt, fresh): the new keys, those a unit shift reached first
    and then those a reshuffle reached, and the number reached by a shift.
    Only the first `fresh` keys of `frontier` (the root, or the keys a
    shift reached) get the reshuffles, and of those only one per coset;
    every key gets both unit shifts.
    That is exact because the reshuffles form a group R: a key g = r.h
    reached by a reshuffle r from h has the same coset R.g = R.h, and
    either h got the reshuffles, or h was itself reached by a reshuffle
    and, by induction, an earlier key of R.h got them.  So every
    reshuffle of g is already in `seen`, at a depth <= depth(g), and the
    layers hold the same keys at the same depths as a search that
    reshuffles every key.

    A fresh key f of depth d is skipped when an earlier fresh key of R.f
    got the reshuffles.  That is exact too.  No key of R.f has a depth
    below d: by the argument above, a reshuffle would then have put f in
    `seen` by the end of layer d, which runs its reshuffles before its
    shifts, so f would not be fresh.  A key of R.f that a reshuffle
    reached at depth d has its source, of depth d - 1, in R.f, so there
    is none.  Hence the keys of R.f in `seen` before this layer are fresh
    keys of `frontier`.  Every reshuffle result already in `seen` goes
    into the set `covered`, so the first fresh key of each coset gets the
    reshuffles, its fresh coset mates land in `covered`, and they are
    skipped: their reshuffles are all in `seen` already and would append
    nothing.  So `nxt`, `fresh` and `seen` are the same, in the same
    order, as when every fresh key gets them.

    A letter acts on the left.  A reshuffle, given by its image table over
    [-W, W], rewrites the values in [-W, W]; the frame
    [min(lo, -W-t), max(hi, W-t)] holds g's window and the positions its
    translation carries into [-W, W] (for an empty window, stored at
    lo = 0, too), so it holds every such value once, and the result is
    trimmed back to canonical form.  A
    unit shift moves the offset and every image by the step; the ends stay
    non-translational, so the key stays canonical.

    Hence a window grows only under a reshuffle, and only to the part of
    the frame outside g's window, which lies in [-W-t, W-t].  Before the
    k-th letter from the identity |t| <= k - 1, so after k >= 1 letters
    the window lies inside [-(W+k-1), W+k-1]: the depth alone bounds
    every state.  Their number is not: once `seen` holds more than
    `_MAX_SEARCH_STATES` keys, checked after each source's reshuffles and
    after the shift pass, the layer raises ValueError.
    """
    w = support_bound
    shifted: list[_Key] = []
    reshuffled: list[_Key] = []
    covered: set[_Key] = set()
    for source in frontier[:fresh]:
        if source in covered:
            continue
        t, lo, images = source
        frame_lo = min(lo, -w - t)
        mid = _frame(t, lo, images, frame_lo, max(lo + len(images) - 1, w - t))
        n = len(mid)
        # (mid + table)[index] is the reshuffled image at each frame position
        lookup = itemgetter(*[n + v + w if -w <= v <= w else p for p, v in enumerate(mid)])
        for table in tables:
            key = _trim_key(t, frame_lo, lookup(mid + table))
            if key in seen:
                covered.add(key)
            else:
                seen[key] = depth
                reshuffled.append(key)
        if len(seen) > _MAX_SEARCH_STATES:
            raise _too_many_states()
    for t, lo, images in frontier:
        for step in (1, -1):
            key = (t + step, lo, tuple([v + step for v in images]))
            if key not in seen:
                seen[key] = depth
                shifted.append(key)
    if len(seen) > _MAX_SEARCH_STATES:
        raise _too_many_states()
    return shifted + reshuffled, len(shifted)


def word_ball(support_bound: int, depth_bound: int) -> dict[EndPerm, int]:
    """Exact word length for every element reachable within depth_bound.

    Breadth-first search from the identity over the reshuffles of
    [-support_bound, support_bound] and the unit shifts, one `_grow`
    layer per depth; nothing is pruned.  States are the canonical
    (offset, lo, images) keys, so a duplicate is dropped before any
    object is built, and each returned state is built by the EndPerm
    constructor, which checks it.  Raises ValueError on a negative depth
    bound, a support bound W outside 0 <= W <= 4, or a ball of more than
    `_MAX_SEARCH_STATES` states.
    """
    _check_bounds(support_bound, depth_bound)
    tables = _reshuffle_tables(support_bound)
    dist = {_IDENTITY_KEY: 0}
    frontier, fresh = [_IDENTITY_KEY], 1
    for depth in range(1, depth_bound + 1):
        frontier, fresh = _grow(frontier, fresh, dist, depth, tables, support_bound)
    return {EndPerm(t, lo, images): d for (t, lo, images), d in dist.items()}


def word_length_oracle(perm: EndPerm, support_bound: int, depth_bound: int) -> Optional[int]:
    """Least word length of `perm` over the reshuffles of
    [-support_bound, support_bound] and the unit shifts, or None when no
    word of length <= depth_bound reaches it.

    Meet in the middle: one ball grows from the identity and one from
    `perm`, always the one with the smaller frontier, by one `_grow`
    layer at a time.  The alphabet is closed under inverses, so the ball
    around `perm` uses the same letters.  While the balls of radii a and
    b are disjoint the length exceeds a + b, so the first layer that
    meets the other ball gives the length; no frontier is ever empty,
    since the shift by r has crossing norm r, so it and its product with
    `perm` first appear at radius r.  Two answers need no search:
    a `perm` whose window leaves [-(W+depth_bound-1), W+depth_bound-1],
    which no such word reaches (see `_grow`), gives None, and so does one
    whose crossing norm exceeds depth_bound, since every letter has
    crossing norm at most one.  No EndPerm is built.  Raises ValueError
    on a negative depth bound, a support bound W outside 0 <= W <= 4, or
    a ball of more than `_MAX_SEARCH_STATES` states.
    """
    _check_bounds(support_bound, depth_bound)
    target = (perm.offset, perm.lo, perm.images)
    if target == _IDENTITY_KEY:
        return 0
    reach = support_bound + depth_bound - 1
    if perm.images and (perm.lo < -reach or perm.hi > reach):
        return None
    # crossing_norm(perm) >= |offset|, so this also keeps every frame of
    # the ball around perm within O(W + depth) positions
    if crossing_norm(perm) > depth_bound:
        return None
    tables = _reshuffle_tables(support_bound)
    seen = ({_IDENTITY_KEY: 0}, {target: 0})
    frontiers = [[_IDENTITY_KEY], [target]]
    fresh = [1, 1]
    radii = [0, 0]
    while radii[0] + radii[1] < depth_bound:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        radii[side] += 1
        frontiers[side], fresh[side] = _grow(
            frontiers[side], fresh[side], seen[side], radii[side], tables, support_bound
        )
        other = seen[1 - side]
        if not other.keys().isdisjoint(frontiers[side]):
            return radii[0] + radii[1]
    return None


# ---------------------------------------------------------------------------
# serialization and rendering


def endperm_to_json(perm: EndPerm) -> dict:
    doc: dict = {"offset": perm.offset}
    if perm.images:
        doc["window"] = [perm.lo, perm.hi]
        doc["images"] = {str(i): perm(i) for i in perm.window_range()}
    return doc


_KINDS = {int: "an integer", str: "a string", bool: "a boolean", list: "a list", dict: "an object"}


def _fields(doc: object, what: str, required: dict, optional: dict = {}) -> None:
    """The one check of a JSON object's fields: `doc` is an object with
    every field of `required`, no field outside `required` and `optional`,
    and each field of the kind its map gives (int, str, bool, list or
    dict; a bool is never an int).  `what` names the object in messages."""
    if not isinstance(doc, dict) or not required.keys() <= doc.keys():
        names = " and ".join(f'"{n}"' for n in required)
        raise ValueError(f"{what}: expected an object with {names}")
    for name, value in doc.items():
        kind = required.get(name) or optional.get(name)
        if kind is None:
            unknown = doc.keys() - required.keys() - optional.keys()
            raise ValueError(f"{what}: unknown fields: {sorted(unknown)}")
        if not (_is_int(value) if kind is int else isinstance(value, kind)):
            raise ValueError(f'{what}: "{name}" must be {_KINDS[kind]}')


def _window_fields(doc: dict, body: str) -> Optional[tuple[int, int]]:
    """The window rules of a document `_fields` has checked: "window"
    comes with `body` and is a [lo, hi] pair of integers with lo <= hi.
    Returns (lo, hi), or None when neither is given."""
    if "window" not in doc and body not in doc:
        return None
    if "window" not in doc or body not in doc:
        raise ValueError(f'"window" and "{body}" must be given together')
    window = doc["window"]
    if len(window) != 2 or not all(map(_is_int, window)):
        raise ValueError('"window" must be a [lo, hi] pair of integers')
    lo, hi = window
    if lo > hi:
        raise ValueError(f'"window" must satisfy lo <= hi, got [{lo}, {hi}]')
    return lo, hi


def endperm_from_json(doc: object) -> EndPerm:
    _fields(doc, "permutation", {"offset": int}, {"window": list, "images": dict})
    window = _window_fields(doc, "images")
    offset = doc["offset"]
    if window is None:
        return shift_power(offset)
    lo, hi = window
    images_doc = doc["images"]
    # count first, so no range longer than the document is built
    if len(images_doc) < hi - lo + 1:
        raise ValueError(f'"images" must have a key for each position of [{lo}, {hi}]')
    keys = [str(i) for i in range(lo, hi + 1)]
    stray = sorted(images_doc.keys() - set(keys), key=str)
    if stray:
        raise ValueError(f'"images" keys {stray} are not canonical positions in [{lo}, {hi}]')
    images = [images_doc[key] for key in keys]
    if not all(map(_is_int, images)):
        raise ValueError('"images" values must be integers')
    return _canon(offset, lo, images)


def genword_to_json(word: GenWord) -> list:
    out = []
    for letter in word.letters:
        if isinstance(letter, Nu):
            out.append({"nu": endperm_to_json(letter.perm)})
        else:
            out.append({"shift": letter.step})
    return out


def format_endperm(perm: EndPerm) -> str:
    """Two-row table over the window plus the translation rule elsewhere."""
    t = perm.offset
    elsewhere = f"i -> i{t:+d} elsewhere" if t else "i -> i elsewhere"
    if not perm.images:
        return elsewhere
    header = "i      | " + "  ".join(str(i) for i in perm.window_range())
    values = "maps to| " + "  ".join(str(perm(i)) for i in perm.window_range())
    return "\n".join([header, values, elsewhere])
