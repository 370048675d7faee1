"""Executable acceptance checks for the package's headline guarantees.

Each check is deterministic given a seed, reports a one-line detail, and
carries a wall-clock budget in seconds.  `run_check` runs one check by
name; the `repro all` CLI command and the acceptance test module loop
over it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations
from operator import itemgetter
from random import Random
from typing import Callable

from . import endspace, gf2hom, qinf, shark

__all__ = ["CheckResult", "CheckSpec", "CHECKS", "run_check"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    budget: float

    @property
    def within_budget(self) -> bool:
        return self.seconds < self.budget


@dataclass(frozen=True)
class CheckSpec:
    name: str
    budget: float
    fn: Callable[[int], str]


class CheckFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# samplers

# Sizes of the random samplers below; the check details read them too.
_SEQ_MAX_ONES = 8
_SEQ_BITS = 5
_SEQ_MAX_POS = 1 << _SEQ_BITS
_LETTER_HALF_WIDTH = 3
_MAX_LETTERS = 8
_GRADED_SPAN = 4
_GRADED_MAX_OFFSET = 3
_SPLIT_SPAN = 3
_POINT_RADIUS = 20


def _random_point(rng: Random, n: int) -> list[int]:
    """A point of Z^n with iid uniform coordinates in [-R, R],
    R = `_POINT_RADIUS`, from one draw below (2R + 1) ** n: its n
    base-(2R + 1) digits, least significant first, each less R."""
    base = 2 * _POINT_RADIUS + 1
    code = rng.randrange(base**n)
    point = []
    for _ in range(n):
        code, digit = divmod(code, base)
        point.append(digit - _POINT_RADIUS)
    return point


def _random_seq(rng: Random) -> qinf.BinarySeq:
    """A sequence with a uniform number k of ones in [0, `_SEQ_MAX_ONES`],
    on a uniform k-subset of [1, `_SEQ_MAX_POS`].

    The positions are iid uniform draws of `_SEQ_BITS` bits, plus 1, kept
    until k of them are distinct.  That is exact: by symmetry, the first k
    distinct values of an iid uniform sequence are equally likely to be
    any k-subset."""
    size = rng.randrange(_SEQ_MAX_ONES + 1)
    ones: set[int] = set()
    while len(ones) < size:
        ones.add(rng.getrandbits(_SEQ_BITS) + 1)
    return qinf.BinarySeq(tuple(sorted(ones)))


# The window images of the reshuffles of [-W, W], the identity included:
# each side's labels permuted among themselves, (W+1)! * W! = 144 of them,
# in lexicographic order.
_RESHUFFLES = [
    neg + pos
    for neg in permutations(range(-_LETTER_HALF_WIDTH, 1))
    for pos in permutations(range(1, _LETTER_HALF_WIDTH + 1))
]

# The random letters, drawn uniformly: a unit shift with probability 1/2,
# each step equally likely, else a uniform reshuffle of [-W, W].  The
# `_SHIFT_LETTERS` shifts come first.
_SHIFT_LETTERS = len(_RESHUFFLES)
_LETTERS = [1] * (_SHIFT_LETTERS // 2) + [-1] * (_SHIFT_LETTERS // 2) + _RESHUFFLES


def _move(letter: int | tuple[int, ...]) -> int | itemgetter:
    """A shift letter's step, or, for a reshuffle table, the itemgetter
    that composes a frame of images with the letter on the right: given
    the images of -W..W in order, it returns, at index u + W, the image
    of table[u + W]."""
    if type(letter) is int:
        return letter
    return itemgetter(*(v + _LETTER_HALF_WIDTH for v in letter))


# `_LETTERS`, index by index, as `_random_word_element` applies them.
_MOVES = [_move(letter) for letter in _LETTERS]

# One draw codes a whole word: a letter count below _MAX_LETTERS + 1, then
# base-len(_LETTERS) digits for the letters.
_WORD_CODES = (_MAX_LETTERS + 1) * len(_LETTERS) ** _MAX_LETTERS


def _random_word_element(rng: Random) -> shark.EndPerm:
    """A word of up to `_MAX_LETTERS` letters, each uniform on `_LETTERS`
    (a shift step or a reshuffle table).

    The word is one draw below `_WORD_CODES`: its remainder mod
    _MAX_LETTERS + 1 is the letter count k, and the quotient, uniform on
    [0, len(_LETTERS) ** _MAX_LETTERS) and independent of k, gives k
    base-len(_LETTERS) digits, iid uniform: the letter indices.  The word
    is their product in the order decoded, L_1 L_2 ... L_k, so the last
    letter decoded acts first.  The letters are iid, so this word has the
    law of its reversal, the product with the first letter acting first.

    Each letter is applied as soon as it is decoded, on the right of a
    frame of images over [lower, lower + 2 reach], reach = W + k, starting
    from the identity at lower = -reach.  Outside the frame the map so far
    is the translation by S, the sum of the shifts applied.  A shift by s
    composes as p -> f(p + s), so it moves the lower end down by s and
    touches no image; a reshuffle composes as p -> f(table[p + W]) on
    [-W, W], so it rewrites that slice of the frame through its `_MOVES`
    itemgetter.  The frame stays exact: after a prefix with shift sum S,
    lower = -reach - S with |S| <= k, so [-W, W] is the slice
    [k + S, k + S + 2W] of the frame's 2 reach + 1 entries, and a reshuffle
    maps it onto itself.  The offset at the end is the total shift S.

    Only the reshuffles write images.  Let low and high be the least and
    the greatest start index of a slice a reshuffle wrote: every frame
    index i outside [low, high + 2W] still holds its start value
    i - reach, which is lower + i + S, so the map translates by S there.
    The canonical window therefore lies inside that span, and trimming
    the span alone gives the same `EndPerm` as trimming the whole frame.
    A word with no reshuffle leaves low = 2 reach, so its span is empty
    and `shark._canon` returns the translation by S.
    """
    code, count = divmod(rng.randrange(_WORD_CODES), _MAX_LETTERS + 1)
    base = len(_LETTERS)
    w = _LETTER_HALF_WIDTH
    reach = w + count
    lower = -reach
    images = list(range(lower, reach + 1))
    low, high = 2 * reach, -1
    for _ in range(count):
        code, j = divmod(code, base)
        if j < _SHIFT_LETTERS:
            lower -= _MOVES[j]
            continue
        a = -w - lower
        images[a : a + 2 * w + 1] = _MOVES[j](images[a : a + 2 * w + 1])
        if a < low:
            low = a
        if a > high:
            high = a
    return shark._canon(-reach - lower, lower + low, images[low : high + 2 * w + 1])


def _random_invertible_rows(rng: Random, n: int) -> list[int]:
    """A uniform random element of GL(n, 2), as n row bitmasks.

    Each row is drawn uniformly and kept only when it lies outside the
    span of the rows kept before it, tested by reducing it against their
    pivots, held in a list indexed by their highest set bits, as in
    `gf2hom.rank`.  A row reduces to zero exactly when it lies in that
    span, whichever bit each pivot is stored under.  Given the first i
    rows, the next is uniform on the 2**n - 2**i rows outside their span,
    so every invertible matrix has the same probability, the product of
    1 / (2**n - 2**i) over i < n.
    """
    rows: list[int] = []
    # slot b holds the pivot whose highest set bit is bit b - 1; slot 0,
    # where a row in the span ends, stays zero
    pivots = [0] * (n + 1)
    while len(rows) < n:
        row = reduced = rng.getrandbits(n)
        while p := pivots[b := reduced.bit_length()]:
            reduced ^= p
        if b:
            pivots[b] = reduced
            rows.append(row)
    return rows


def _random_graded_aut(rng: Random) -> gf2hom.GradedAut:
    d = 2
    if rng.random() < 0.15:
        return gf2hom.graded_shift(rng.randint(-_GRADED_MAX_OFFSET, _GRADED_MAX_OFFSET), d)
    lo = rng.randint(-_GRADED_SPAN, _GRADED_SPAN)
    hi = rng.randint(lo, _GRADED_SPAN)
    n = (hi - lo + 1) * d
    offset = rng.randint(-_GRADED_MAX_OFFSET, _GRADED_MAX_OFFSET)
    return gf2hom.GradedAut.from_rows(d, offset, lo, _random_invertible_rows(rng, n))


# ---------------------------------------------------------------------------
# the checks


def _check_zn_isometry(seed: int) -> str:
    rng = Random(f"{seed}:zn")
    pairs_per_dim = 1000
    for n in range(1, 6):
        primes = qinf.first_odd_primes(n)
        for _ in range(pairs_per_dim):
            u = _random_point(rng, n)
            v = _random_point(rng, n)
            want = sum(abs(a - b) for a, b in zip(u, v))
            got = qinf.l1_distance(qinf.zn_embed(primes, u), qinf.zn_embed(primes, v))
            if got != want:
                raise CheckFailure(f"dim {n}: embedded distance {got} != {want} for {u}, {v}")
    return f"{5 * pairs_per_dim} random pairs in dimensions 1..5, distances exact"


def _check_crossing_length_function(seed: int) -> str:
    rng = Random(f"{seed}:lenfn")
    trials = 10_000
    for _ in range(trials):
        g = _random_word_element(rng)
        h = _random_word_element(rng)
        ng, nh = shark.crossing_norm(g), shark.crossing_norm(h)
        if shark.crossing_norm(shark.inverse(g)) != ng:
            raise CheckFailure(f"norm not symmetric on {g}")
        ngh = shark.crossing_norm(shark.compose(g, h))
        if ngh > ng + nh:
            raise CheckFailure(f"triangle fails: |gh|={ngh} > {ng}+{nh}")
    return f"{trials} random pairs from <={_MAX_LETTERS} letters: symmetry and triangle exact"


def _phi_pairs(seed: int, count: int) -> list[tuple[qinf.BinarySeq, qinf.BinarySeq]]:
    rng = Random(f"{seed}:phi-pairs")
    return [(_random_seq(rng), _random_seq(rng)) for _ in range(count)]


def _check_phi_distance_identity(seed: int) -> str:
    pairs = _phi_pairs(seed, 1000)
    for a, b in pairs:
        diff = shark.compose(shark.inverse(shark.phi(b)), shark.phi(a))
        got = shark.crossing_norm(diff)
        want = qinf.l1_distance(a, b)
        if got != want:
            raise CheckFailure(f"crossing norm {got} != l1 distance {want} for {a}, {b}")
    return f"{len(pairs)} random sequence pairs: crossing norm equals l1 distance"


def _check_witness_sandwich(seed: int) -> str:
    pairs = _phi_pairs(seed, 1000)
    for a, b in pairs:
        diff = shark.compose(shark.inverse(shark.phi(b)), shark.phi(a))
        word = shark.witness_factorization(diff)
        if word.replay() != diff:
            raise CheckFailure(f"witness does not replay to the element for {a}, {b}")
        bound = qinf.l1_distance(a, b) + 3
        if word.cost > bound:
            raise CheckFailure(f"witness cost {word.cost} > distance+3 = {bound} for {a}, {b}")
        if len(word.letters) > 5:
            raise CheckFailure(f"witness has {len(word.letters)} > 5 letters for {a}, {b}")
    return f"{len(pairs)} random pairs: witness replays in <= 5 letters, cost <= distance + 3"


def _check_oracle_lower_bound(seed: int) -> str:
    ball = shark.word_ball(2, 4)
    for element, length in ball.items():
        if shark.crossing_norm(element) > length:
            raise CheckFailure(f"crossing norm exceeds word length {length} on {element}")
    unit = ball.get(shark.shift_power(1))
    if unit != 1:
        raise CheckFailure(f"unit shift should have word length 1, got {unit}")
    # the oracle against the ball: sampled in key order, so the draws do
    # not depend on the order the search lists its states in
    rng = Random(f"{seed}:oracle")
    elements = sorted(ball, key=lambda g: (g.offset, g.lo, g.images))
    inside, outside = 40, 10
    for element in rng.sample(elements, inside):
        got = shark.word_length_oracle(element, 2, 4)
        if got != ball[element]:
            raise CheckFailure(f"oracle gives {got}, ball {ball[element]} on {element}")
    rim = [g for g in elements if ball[g] == 4]
    letters = shark.side_preserving_alphabet(2) + [shark.shift_power(1), shark.shift_power(-1)]
    found = 0
    while found < outside:
        far = shark.compose(rng.choice(letters), rng.choice(rim))
        if far not in ball:
            got = shark.word_length_oracle(far, 2, 4)
            if got is not None:
                raise CheckFailure(f"oracle gives {got} beyond the ball on {far}")
            found += 1
    return (
        f"exhaustive ball: {len(ball)} elements within 4 letters, norm <= word length; "
        f"oracle matches the ball on {inside} of them and gives None on {outside} "
        "one letter beyond"
    )


def _random_split_aut(rng: Random, d: int) -> gf2hom.GradedAut:
    """An offset-zero automorphism, block-diagonal across the 0|1 cut."""
    lo, hi = rng.randint(-_SPLIT_SPAN, 0), rng.randint(1, _SPLIT_SPAN)
    n_minus = (1 - lo) * d
    minus = _random_invertible_rows(rng, n_minus)
    plus = _random_invertible_rows(rng, hi * d)
    return gf2hom.GradedAut.from_rows(d, 0, lo, minus + [r << n_minus for r in plus])


def _check_shift_homology_norm(seed: int) -> str:
    for d in (1, 2, 3):
        for m in (1, 2, 10, 1000, 10**6):
            for n in (m, -m):
                got = gf2hom.homology_norm(gf2hom.graded_shift(n, d))
                if got != d * m:
                    raise CheckFailure(f"block shift {n} at block dim {d}: norm {got} != {d * m}")
    rng = Random(f"{seed}:shiftconj")
    trials = 300
    for _ in range(trials):
        d = rng.randint(1, 3)
        n = rng.choice((1, -1)) * rng.randint(1, 12)
        h = _random_split_aut(rng, d)
        conjugate = h.compose(gf2hom.graded_shift(n, d)).compose(h.inverse())
        got = gf2hom.homology_norm(conjugate)
        if got != d * abs(n):
            raise CheckFailure(f"conjugate of block shift {n} by {h}: norm {got} != {d * abs(n)}")
    return (
        "block shifts by up to 10**6 at block dims 1..3: norm d|n|; "
        f"{trials} conjugates by split-preserving maps keep it"
    )


def _check_homology_length_function(seed: int) -> str:
    rng = Random(f"{seed}:homlen")
    trials = 1000
    for _ in range(trials):
        g = _random_graded_aut(rng)
        h = _random_graded_aut(rng)
        ng, nh = gf2hom.homology_norm(g), gf2hom.homology_norm(h)
        if gf2hom.homology_norm(g.inverse()) != ng:
            raise CheckFailure(f"homology norm not symmetric on {g}")
        ngh = gf2hom.homology_norm(g.compose(h))
        if ngh > ng + nh:
            raise CheckFailure(f"triangle fails: {ngh} > {ng}+{nh}")
    span = f"[-{_GRADED_SPAN},{_GRADED_SPAN}]"
    return f"{trials} random automorphism pairs, windows in {span}: symmetry and triangle exact"


# Whether each builtin table has an essential shift.
_TABLE_GOLDENS = {
    "shark_tank": True, "jacobs_ladder": True, "loch_ness": False,
    "cantor_tree": False, "blooming_cantor_tree": False, "spider": False,
}

# Standard shifts on builtin tables, as descriptor documents, with the mode
# of the first reason each verdict gives (None: not essential).
_SHIFT_GOLDENS = (
    ("shark_tank", "class", {
        "x": {"piece": "A", "class": "limits"}, "y": {"piece": "B", "class": "limits"},
        "block_genus": "zero",
        "block_maximal_classes": [{"class": "punctures", "multiplicity": "one"}]}),
    ("jacobs_ladder", "genus", {
        "x": {"piece": "A", "class": "ladder_ends"}, "y": {"piece": "B", "class": "ladder_ends"},
        "block_genus": "finite:1"}),
    ("spider", None, {
        "x": {"piece": "A", "class": "web"}, "y": {"piece": "B", "class": "web"},
        "block_genus": "zero",
        "block_maximal_classes": [{"class": "web", "multiplicity": "cantor"}]}),
)


def _check_classifier_goldens(seed: int) -> str:
    for name, want in _TABLE_GOLDENS.items():
        got = endspace.has_essential_shift(endspace.compile_builtin(name)).two_sided
        if got != want:
            raise CheckFailure(f"{name}: has_essential_shift = {got}, expected {want}")
    for name, want_mode, doc in _SHIFT_GOLDENS:
        verdict = endspace.classify_shift(
            endspace.compile_builtin(name), endspace.descriptor_from_json(doc)
        )
        mode = verdict.reasons[0].mode if verdict.essential else None
        if mode != want_mode:
            want = f"essential through {want_mode}" if want_mode else "not essential"
            raise CheckFailure(f"{name} standard shift should be {want}, first reason: {mode}")
    return "six builtin tables and three described shifts match the expected verdicts"


def _check_phi_support_law(seed: int) -> str:
    rng = Random(f"{seed}:support")
    trials = 1000
    for _ in range(trials):
        a = _random_seq(rng)
        got = shark.positive_images_of_nonpositives(shark.phi(a))
        if got != a.ones:
            raise CheckFailure(f"positive images of non-positives {got} != support {a.ones}")
    return f"{trials} random sequences: punctures land exactly on the support"


# Each budget is 20 times the check's slowest time in fresh `repro all`
# processes at seeds 0-9 (a shared 2-vCPU VM), rounded up to whole seconds
# with a floor of 1 s, so a regression of that size fails the run.
CHECKS: tuple[CheckSpec, ...] = (
    CheckSpec("zn_isometry", 5.0, _check_zn_isometry),
    CheckSpec("crossing_length_function", 9.0, _check_crossing_length_function),
    CheckSpec("phi_distance_identity", 2.0, _check_phi_distance_identity),
    CheckSpec("witness_sandwich", 4.0, _check_witness_sandwich),
    CheckSpec("oracle_lower_bound", 1.0, _check_oracle_lower_bound),
    CheckSpec("shift_homology_norm", 2.0, _check_shift_homology_norm),
    CheckSpec("homology_length_function", 3.0, _check_homology_length_function),
    CheckSpec("classifier_goldens", 1.0, _check_classifier_goldens),
    CheckSpec("phi_support_law", 1.0, _check_phi_support_law),
)


def run_check(name: str, seed: int) -> CheckResult:
    spec = next((c for c in CHECKS if c.name == name), None)
    if spec is None:
        raise ValueError(f"unknown check {name!r}; choose from {[c.name for c in CHECKS]}")
    start = time.perf_counter()
    try:
        detail = spec.fn(seed)
        passed = True
    except CheckFailure as failure:
        detail = str(failure)
        passed = False
    except Exception as err:
        # a crash inside one check is that check's failure, not the run's
        detail = f"{type(err).__name__}: {err}"
        passed = False
    elapsed = time.perf_counter() - start
    return CheckResult(spec.name, passed, detail, elapsed, spec.budget)
