import random
import tracemalloc
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from bigmcg import shark
from bigmcg.acceptance import _phi_pairs
from bigmcg.qinf import BinarySeq, l1_distance, zn_embed
from bigmcg.shark import (
    EndPerm,
    GenWord,
    Nu,
    Shift,
    _pack_nonpositive,
    _pack_positive,
    compose,
    crossing_norm,
    endperm_from_json,
    endperm_to_json,
    format_endperm,
    identity,
    inverse,
    phi,
    positive_images_of_nonpositives,
    shift_power,
    side_preserving_alphabet,
    witness_factorization,
    word_ball,
    word_length,
    word_length_oracle,
    zero_stats,
)

from strategies import (
    any_end_perms,
    binary_seqs,
    end_perms,
    far_end_perms,
    frac_twist,
    letters,
    side_perms,
)


def make(offset, mapping):
    """The EndPerm translating by `offset` except at the keys of `mapping`."""
    lo, hi = min(mapping), max(mapping)
    return shark._canon(offset, lo, [mapping.get(i, i + offset) for i in range(lo, hi + 1)])


# ---------------------------------------------------------------------------
# the permutation algebra


def test_compose_example():
    c = compose(frac_twist(1, 2), shift_power(1))
    assert c.offset == 1
    assert (c(0), c(1), c(2), c(5)) == (2, 1, 3, 6)
    assert (c.lo, c.hi) == (0, 1)


def test_inverse_example():
    inv = inverse(frac_twist(1, 3))
    assert (inv(1), inv(2), inv(3)) == (3, 1, 2)


def test_shift_and_twist_basics():
    assert shift_power(0) == identity()
    assert frac_twist(2, 2) == identity()
    tw = frac_twist(-1, 2)
    assert (tw(-1), tw(0), tw(1), tw(2)) == (0, 1, 2, -1)


def test_make_canonicalizes():
    assert make(0, {5: 5}) == identity()
    assert make(2, {1: 3, 2: 4}) == shift_power(2)
    p = make(0, {1: 2, 2: 1, 3: 3})
    assert (p.lo, p.hi) == (1, 2)


def test_constructor_rejects_noncanonical():
    with pytest.raises(ValueError, match="not minimal"):
        EndPerm(offset=0, lo=1, images=(1, 3, 2))  # low endpoint is translational
    with pytest.raises(ValueError, match="not minimal"):
        EndPerm(offset=2, lo=1, images=(4, 3, 5))  # high endpoint is translational
    with pytest.raises(ValueError, match="bijection"):
        EndPerm(offset=0, lo=1, images=(3, 2))  # not onto the shifted window
    with pytest.raises(ValueError, match="bijection"):
        EndPerm(offset=0, lo=1, images=(2, 2))  # repeats an image
    with pytest.raises(ValueError, match="lo = 0"):
        EndPerm(offset=1, lo=3, images=())
    with pytest.raises(ValueError, match="lo = 0"):
        EndPerm(0, -1)


def test_constructor_takes_the_fields_in_order_with_defaults():
    # frozenness, slots and hashing are in test_value_types
    perm = EndPerm(1, 0, (3, 1, 2))
    assert perm == EndPerm(offset=1, lo=0, images=(3, 1, 2))
    assert repr(perm) == "EndPerm(offset=1, lo=0, images=(3, 1, 2))"
    assert EndPerm() == EndPerm(0, 0, ()) == identity()
    assert EndPerm(offset=-2) == shift_power(-2)


def scan_range(*perms):
    """Points covering every operand's window, the points their offsets
    carry into or out of those windows, and the translations' flip zones."""
    pad = sum(abs(p.offset) for p in perms) + 3
    lo = min([0] + [p.lo for p in perms if p.images]) - pad
    hi = max([1] + [p.hi for p in perms if p.images]) + pad
    return range(lo, hi + 1)


# pure translations among the operands reach both shortcuts of `compose`
maps_and_shifts = st.one_of(any_end_perms(), st.integers(-3, 3).map(shift_power))


@given(maps_and_shifts, maps_and_shifts)
def test_compose_is_pointwise_composition(g, h):
    gh = compose(g, h)
    for i in scan_range(g, h, gh):
        assert gh(i) == g(h(i))


@given(end_perms(), end_perms(), end_perms())
def test_group_axioms(g, h, k):
    assert compose(compose(g, h), k) == compose(g, compose(h, k))
    assert compose(g, identity()) == g
    assert compose(identity(), g) == g
    assert compose(g, inverse(g)) == identity()
    assert compose(inverse(g), g) == identity()


@given(any_end_perms())
def test_inverse_is_pointwise_inverse(g):
    inv = inverse(g)
    for i in scan_range(g, inv):
        assert inv(g(i)) == i
        assert g(inv(i)) == i


def test_kernel_makes_no_pointwise_calls(monkeypatch):
    g = compose(frac_twist(-2, 3), shift_power(4))
    h = compose(shift_power(-7), frac_twist(5, 9))
    u = frac_twist(1, 4)

    def kernel():
        return (
            compose(g, h),
            compose(h, g),
            compose(shift_power(2), g),
            compose(g, shift_power(-3)),
            inverse(g),
            crossing_norm(h),
            shark._crossers(h),
            g.is_side_preserving(),
            u.is_side_preserving(),
            witness_factorization(h),
            witness_factorization(h).replay(),
        )

    expected = kernel()

    def pointwise(self, i):
        raise AssertionError("EndPerm.__call__ used by the kernel")

    monkeypatch.setattr(EndPerm, "__call__", pointwise)
    assert kernel() == expected


def side_preserving_by_scan(perm):
    """The pointwise definition: offset zero, and every label in a scan
    window covering the window stays on its side."""
    return perm.offset == 0 and all((i <= 0) == (perm(i) <= 0) for i in scan_range(perm))


@given(st.one_of(any_end_perms(), side_perms()))
def test_is_side_preserving_matches_scan(g):
    assert g.is_side_preserving() == side_preserving_by_scan(g)


# ---------------------------------------------------------------------------
# the crossing norm


def test_crossing_norm_examples():
    assert crossing_norm(identity()) == 0
    assert crossing_norm(shift_power(1)) == 1
    assert crossing_norm(shift_power(5)) == 5
    assert crossing_norm(shift_power(-5)) == 5


def test_crossing_norm_of_huge_shift():
    # the translation's crossings are counted by interval arithmetic
    for n in (10**9, -(10**9)):
        assert crossing_norm(shift_power(n)) == abs(n)
        assert crossing_norm(compose(frac_twist(-3, 4), shift_power(n))) == abs(n)


def crossing_by_scan(perm):
    """Independent oracle: count sign changes over a scan window covering
    the window and the translation's flip zone."""
    return sum(1 for i in scan_range(perm) if (i <= 0) != (perm(i) <= 0))


@given(any_end_perms())
def test_crossing_norm_matches_scan(g):
    assert crossing_norm(g) == crossing_by_scan(g)


def crossing_norm_two_halves(perm):
    """Oracle: both halves of the window counted, plus the translation's
    flip zone outside the window, bounds taken by min and max."""
    images, t = perm.images, perm.offset
    split = min(len(images), max(0, 1 - perm.lo))
    in_window = sum(v > 0 for v in images[:split]) + sum(v <= 0 for v in images[split:])
    z_lo, z_hi = shark._flip_zone(t)
    overlap = max(0, min(z_hi, perm.hi) - max(z_lo, perm.lo) + 1)
    return in_window + abs(t) - overlap


@given(any_end_perms())
def test_crossing_norm_matches_two_halves(g):
    assert crossing_norm(g) == crossing_norm_two_halves(g)


def test_crossing_norm_matches_two_halves_on_phi_differences():
    rng = random.Random(200)
    for _ in range(200):
        a, b = (BinarySeq.from_indices(rng.sample(range(1, 201), rng.randint(0, 12))) for _ in "ab")
        diff = compose(inverse(phi(b)), phi(a))
        assert crossing_norm(diff) == crossing_norm_two_halves(diff) == l1_distance(a, b)


# windows [lo, hi] of [-8, 8], two and five wide, on both sides of the cut
# and across it
small_windows = [(lo, hi) for lo in range(-8, 9) for hi in (lo + 1, lo + 4) if hi <= 8]
huge = 10**12


def test_cut_index_and_flip_overlap_match_min_max():
    perms = [identity(), shift_power(huge), shift_power(-huge)]
    perms += [frac_twist(lo, hi) for lo, hi in small_windows]
    perms += [frac_twist(lo, lo + 3) for lo in (huge, -huge)]
    for g in perms:
        assert shark._cut_index(g) == min(len(g.images), max(0, 1 - g.lo))
    # hi = lo - 1 is the empty window
    bounds = [(lo, hi) for lo in range(-8, 9) for hi in range(lo - 1, 9)]
    bounds += [(-huge, -huge + 3), (huge, huge + 3), (-huge, huge)]
    for t in [*range(-8, 9), huge, -huge]:
        z_lo, z_hi = shark._flip_zone(t)
        for lo, hi in bounds:
            want = max(0, min(z_hi, hi) - max(z_lo, lo) + 1)
            assert shark._flip_overlap(t, lo, hi) == want
        for lo, hi in small_windows:
            g = compose(shift_power(t), frac_twist(lo, hi))
            assert crossing_norm(g) == crossing_norm_two_halves(g)


def test_compose_frame_matches_min_max(monkeypatch):
    outers = [frac_twist(lo, hi) for lo, hi in small_windows]
    inners = [compose(shift_power(s), g) for s in range(-8, 9) for g in outers]
    frames = []
    canon = shark._canon

    def recording(t, lo, images):
        frames.append((lo, lo + len(images) - 1))
        return canon(t, lo, images)

    monkeypatch.setattr(shark, "_canon", recording)
    for outer in outers:
        for inner in inners:
            s = inner.offset
            del frames[:]
            compose(outer, inner)
            assert frames == [(min(inner.lo, outer.lo - s), max(inner.hi, outer.hi - s))]
    # a translation on either side takes no frame, however far it moves
    del frames[:]
    for g in outers:
        for s in (huge, -huge):
            assert compose(shift_power(s), g).lo == g.lo
            assert compose(g, shift_power(s)).lo == g.lo - s
    assert frames == []


def crossers_reference(perm):
    """The set-based scan: every window position plus the translation's
    flip zone, each label tested pointwise."""
    candidates = set(perm.window_range())
    t = perm.offset
    if t > 0:
        candidates.update(range(1 - t, 1))
    elif t < 0:
        candidates.update(range(1, 1 - t))
    to_a = sorted(i for i in candidates if i > 0 and perm(i) <= 0)
    to_b = sorted(i for i in candidates if i <= 0 and perm(i) > 0)
    return to_a, to_b


def test_crossers_examples():
    assert shark._crossers(identity()) == ([], [])
    assert shark._crossers(shift_power(3)) == ([], [-2, -1, 0])
    assert shark._crossers(shift_power(-2)) == ([1, 2], [])
    # the flip zone [-4, 0] straddles the window [-1, 1] of a twist
    g = compose(shift_power(5), frac_twist(-1, 1))
    assert shark._crossers(g) == crossers_reference(g) == ([], [-4, -3, -2, -1, 0])


@given(any_end_perms())
def test_crossers_match_reference(g):
    assert shark._crossers(g) == crossers_reference(g)


@given(binary_seqs(max_pos=200), binary_seqs(max_pos=200))
def test_crossers_match_reference_on_phi_differences(a, b):
    diff = compose(inverse(phi(b)), phi(a))
    assert shark._crossers(diff) == crossers_reference(diff)


@given(end_perms(), end_perms())
def test_crossing_norm_is_length_function(g, h):
    assert crossing_norm(inverse(g)) == crossing_norm(g)
    assert crossing_norm(compose(g, h)) <= crossing_norm(g) + crossing_norm(h)


@given(side_perms())
def test_side_preserving_has_norm_zero(u):
    assert u.is_side_preserving()
    assert crossing_norm(u) == 0


@given(end_perms())
def test_offset_bounded_by_norm(g):
    assert abs(g.offset) <= crossing_norm(g)


@given(end_perms())
def test_norm_zero_iff_side_preserving(g):
    assert (crossing_norm(g) == 0) == side_preserving_by_scan(g)


# ---------------------------------------------------------------------------
# sequence embedding


def test_zero_stats_examples():
    assert zero_stats(BinarySeq()) == (0, [])
    assert zero_stats(BinarySeq((3,))) == (2, [1, 2])
    assert zero_stats(BinarySeq((1, 2))) == (0, [])
    assert zero_stats(BinarySeq((2, 5))) == (3, [1, 3, 4])


@given(binary_seqs())
def test_zero_stats_counts_consistently(a):
    z, positions = zero_stats(a)
    assert len(positions) == z
    assert positions == sorted(positions)
    if a.ones:
        assert z == a.ones[-1] - a.weight
        assert all(0 < p < a.ones[-1] and p not in set(a.ones) for p in positions)


def zero_stats_by_scan(a):
    """The definition: every position in [1, last) that is not a one."""
    if not a.ones:
        return (0, [])
    ones = set(a.ones)
    positions = [j for j in range(1, a.ones[-1]) if j not in ones]
    return (len(positions), positions)


@given(binary_seqs(max_pos=200))
def test_zero_stats_matches_scan(a):
    assert zero_stats(a) == zero_stats_by_scan(a)


def puncture_permutation(a):
    """The cycle product returning shifted-through labels to the zero slots.

    For each zero of `a` before its final one, taken in increasing order,
    apply the fractional twist cycling [position of the i-th zero,
    weight + i]; the i = 1 twist acts first.
    """
    z, zero_positions = zero_stats(a)
    w = a.weight
    acc = identity()
    for i in range(1, z + 1):
        acc = compose(frac_twist(zero_positions[i - 1], w + i), acc)
    return acc


def twist_product_phi(a):
    """`phi` as the shift by the weight followed by the twist product:
    quadratic in the last support position, kept as the oracle for the
    closed form."""
    return compose(puncture_permutation(a), shift_power(a.weight))


def test_puncture_permutation_examples():
    assert puncture_permutation(BinarySeq()) == identity()
    assert puncture_permutation(BinarySeq((1, 2))) == identity()
    pi = puncture_permutation(BinarySeq((3,)))
    assert (pi(1), pi(2), pi(3)) == (3, 1, 2)


@given(binary_seqs())
def test_puncture_permutation_restores_zero_slots(a):
    z, positions = zero_stats(a)
    pi = puncture_permutation(a)
    for i in range(1, z + 1):
        assert pi(a.weight + i) == positions[i - 1]


def test_phi_examples():
    assert phi(BinarySeq()) == identity()
    assert phi(BinarySeq((1,))) == shift_power(1)
    f = phi(BinarySeq((3,)))
    assert (f(-1), f(0), f(1), f(2), f(3)) == (0, 3, 1, 2, 4)
    # the ones at 1 and 2 are translated, so the window starts at 0
    f = phi(BinarySeq((1, 2, 5)))
    assert (f.offset, f.lo, f.images) == (3, 0, (5, 3, 4))


def test_phi_refuses_a_window_over_the_dense_bound(monkeypatch):
    def no_window(a):
        raise AssertionError("built the window")

    bound = shark._MAX_DENSE_POSITION
    monkeypatch.setattr(shark, "zero_stats", no_window)
    with pytest.raises(ValueError, match=f"above {bound} are refused"):
        phi(BinarySeq((2, bound + 1)))


@given(binary_seqs(max_pos=200))
def test_phi_matches_twist_product(a):
    assert phi(a) == twist_product_phi(a)


@pytest.mark.parametrize(
    "a",
    [
        BinarySeq(),
        # ones from position 1 on are translated, so the window is trimmed
        BinarySeq((1,)),
        BinarySeq((1, 2, 5)),
        BinarySeq((1, 3, 4, 9)),
        BinarySeq((3**6,)),
        zn_embed((3,), (6,)),
        zn_embed((3, 5), (-6, 3)),
    ],
    ids=repr,
)
def test_phi_matches_twist_product_examples(a):
    assert phi(a) == twist_product_phi(a)


@given(binary_seqs())
def test_phi_support_law(a):
    assert positive_images_of_nonpositives(phi(a)) == a.ones


@given(binary_seqs())
def test_phi_norm_is_weight(a):
    f = phi(a)
    assert f.offset == a.weight
    assert crossing_norm(f) == a.weight


def test_distance_example():
    a, b = BinarySeq((2, 3, 5)), BinarySeq((2, 4))
    diff = compose(inverse(phi(b)), phi(a))
    assert l1_distance(a, b) == 3
    assert crossing_norm(diff) == 3


@given(binary_seqs(max_pos=32), binary_seqs(max_pos=32))
def test_phi_distance_identity(a, b):
    diff = compose(inverse(phi(b)), phi(a))
    assert crossing_norm(diff) == l1_distance(a, b)


# ---------------------------------------------------------------------------
# generator words and the witness


def test_letter_validation():
    with pytest.raises(ValueError):
        Nu(shift_power(1))
    with pytest.raises(ValueError):
        Nu(make(0, {0: 1, 1: 0}))  # crosses the cut
    # a shift letter is a run of any nonzero length; booleans and floats
    # are no integer steps, as in the JSON loaders
    for step in (0, True, 1.0, -1.0):
        with pytest.raises(ValueError):
            Shift(step)
    assert Shift(2).step == 2
    assert GenWord((Shift(-10**9),)).cost == 10**9


def test_replay_order_is_left_to_right():
    word = GenWord((Shift(1), Nu(frac_twist(1, 2))))
    assert word.replay() == compose(frac_twist(1, 2), shift_power(1))


def replay_by_letters(word):
    """Compose one letter at a time, each shift as its own translation:
    the oracle for the replay that folds runs of shifts."""
    acc = identity()
    for letter in word.letters:
        perm = letter.perm if isinstance(letter, Nu) else shift_power(letter.step)
        acc = compose(perm, acc)
    return acc


# long one-sign runs, runs that cancel, mixed runs of shifts, and run letters
shift_runs = st.one_of(
    st.integers(-60, 60).filter(bool).map(lambda k: [Shift(k)]),
    st.builds(lambda n, step: [Shift(step)] * n, st.integers(1, 60), st.sampled_from([1, -1])),
    st.integers(1, 5).map(lambda n: [Shift(1), Shift(-1)] * n),
    st.lists(st.sampled_from([Shift(1), Shift(-1)]), max_size=8),
)
nu_letters = side_perms().map(lambda u: [Nu(u)])


def words_of(parts):
    return st.lists(parts, max_size=8).map(
        lambda chunks: GenWord(tuple(letter for chunk in chunks for letter in chunk))
    )


@given(st.one_of(words_of(st.one_of(shift_runs, nu_letters)), words_of(shift_runs)))
# a run before an identity reshuffle, which has no window to fold it into
@example(GenWord((Shift(1), Shift(1), Nu(identity()), Nu(frac_twist(1, 3)))))
@example(GenWord((Shift(-1), Nu(identity()))))
# a run left at the end of the word
@example(GenWord((Nu(frac_twist(-2, 0)), Shift(-1), Shift(-1))))
# a run that cancels to zero before a reshuffle
@example(GenWord((Nu(frac_twist(1, 2)), Shift(1), Shift(-1), Nu(frac_twist(-1, 0)))))
# adjacent run letters, summed before the reshuffle
@example(GenWord((Shift(5), Shift(-2), Nu(frac_twist(1, 3)), Shift(-7))))
def test_replay_matches_letter_by_letter(word):
    assert word.replay() == replay_by_letters(word)


def test_replay_builds_no_endperm_per_shift(monkeypatch):
    # each run of shifts is folded into the reshuffle after it, so the
    # EndPerms a replay builds do not grow with the number of shift letters
    twist = frac_twist(1, 3)
    words = {n: GenWord((Shift(n // abs(n)),) * abs(n) + (Nu(twist),)) for n in (40, -40, 80, -80)}
    elements = {n: compose(twist, shift_power(n)) for n in words}
    built = []
    checked = EndPerm.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        checked(self, *args, **kwargs)

    monkeypatch.setattr(EndPerm, "__init__", counting)
    counts = {}
    for n, word in words.items():
        built.clear()
        assert word.replay() == elements[n]
        counts[n] = len(built)
    # each word is one run of shifts and then a reshuffle: the replay builds
    # the identity it starts from and the reshuffle with the run folded in,
    # and composing that with the identity builds nothing more
    assert counts == {40: 2, -40: 2, 80: 2, -80: 2}


def pack_nonpositive_gap_by_gap(sources):
    """Oracle: `_pack_nonpositive` built directly, gap by gap; a label with
    j sources below it moves down by j."""
    if not sources:
        return identity()
    k = len(sources)
    images = []
    prev = sources[0] - 1
    for j, src in enumerate(sources):
        images.extend(range(prev + 1 - j, src - j))
        images.append(j + 1 - k)
        prev = src
    images.extend(range(prev + 1 - k, 1 - k))
    return shark._canon(0, sources[0], images)


def pack_nonpositive_reference(sources):
    """The direct construction: the non-positive `sources` go to the top
    slots -k+1..0 in order, the rest of [min, 0] moves down in order."""
    k = len(sources)
    if k == 0:
        return identity()
    bottom = min(sources[0], -k + 1)
    rest = [i for i in range(bottom, 1) if i not in set(sources)]
    mapping = dict(zip(sources, range(-k + 1, 1)))
    mapping.update(zip(rest, range(bottom, -k + 1)))
    return make(0, mapping)


def pack_positive_reference(sources):
    """The direct construction: the positive `sources` go to the slots 1..k
    in order, the rest of [1, max] moves up in order."""
    k = len(sources)
    if k == 0:
        return identity()
    rest = [i for i in range(1, sources[-1] + 1) if i not in set(sources)]
    mapping = dict(zip(sources, range(1, k + 1)))
    mapping.update(zip(rest, range(k + 1, sources[-1] + 1)))
    return make(0, mapping)


@given(st.sets(st.integers(-40, 0), max_size=12))
@example(set())
@example({0})
@example({-2, -1, 0})
@example({-7, -1, 0})
@example({-40})
def test_pack_nonpositive_mirrors_pack_positive(sources):
    # the examples: no source, sources already packed at the top (the
    # identity), sources packed in part, and one far source
    sources = sorted(sources)
    assert _pack_nonpositive(sources) == pack_nonpositive_reference(sources)
    assert _pack_nonpositive(sources) == pack_nonpositive_gap_by_gap(sources)
    mirrored = sorted(1 - s for s in sources)
    assert _pack_positive(mirrored) == pack_positive_reference(mirrored)


def witness_by_composition(perm):
    """The witness with the stage built by `compose` and the correction
    u3 = perm . stage^-1 by `inverse` and `compose`, from the reference
    packs: the oracle for the one-pass correction."""
    to_a, to_b = shark._crossers(perm)
    k1, k2 = len(to_a), len(to_b)
    u1 = pack_positive_reference(to_a)
    stage = compose(shift_power(-k1), u1)
    u2 = pack_nonpositive_reference([i - k1 for i in to_b])
    stage = compose(shift_power(k2), compose(u2, stage))
    u3 = compose(perm, inverse(stage))
    letters = []
    if not u1.is_identity:
        letters.append(Nu(u1))
    letters.extend(Shift(-1) for _ in range(k1))
    if not u2.is_identity:
        letters.append(Nu(u2))
    letters.extend(Shift(1) for _ in range(k2))
    if not u3.is_identity:
        letters.append(Nu(u3))
    return GenWord(tuple(letters))


def unit_letters(word):
    """The word with each Shift(k) spelled as |k| unit shift letters."""
    letters = []
    for letter in word.letters:
        if isinstance(letter, Shift):
            letters.extend([Shift(1 if letter.step > 0 else -1)] * abs(letter.step))
        else:
            letters.append(letter)
    return GenWord(tuple(letters))


def assert_witness_matches_composition(perm):
    # the witness is the oracle's word with each run of unit shifts as one
    # letter: so at most five letters, no two shifts adjacent, same cost
    word, oracle = witness_factorization(perm), witness_by_composition(perm)
    assert unit_letters(word) == oracle
    assert len(word.letters) <= 5
    kinds = [type(letter) for letter in word.letters]
    assert (Shift, Shift) not in zip(kinds, kinds[1:])
    assert word.cost == oracle.cost


@given(any_end_perms())
def test_witness_matches_composition(g):
    assert_witness_matches_composition(g)


@given(binary_seqs(max_pos=200), binary_seqs(max_pos=200))
def test_witness_matches_composition_on_phi_differences(a, b):
    assert_witness_matches_composition(compose(inverse(phi(b)), phi(a)))


def coordinates_up_to(p, limit):
    """Every m whose line on the prime p ends at a position <= limit."""
    return [m for m in range(-8, 9) if max([0, *zn_embed((p,), (m,)).ones]) <= limit]


# points on the lines of 3, 5 and 7 whose last support position is at most 3^6
zn_points = st.tuples(*(st.sampled_from(coordinates_up_to(p, 3**6)) for p in (3, 5, 7)))


@given(zn_points, zn_points)
def test_witness_matches_composition_on_zn_differences(u, v):
    a, b = zn_embed((3, 5, 7), u), zn_embed((3, 5, 7), v)
    assert_witness_matches_composition(compose(inverse(phi(b)), phi(a)))


@pytest.mark.parametrize("k", range(-5, 6))
def test_witness_matches_composition_on_shifts(k):
    assert_witness_matches_composition(shift_power(k))


def test_witness_trivial_cases():
    assert witness_factorization(identity()).cost == 0
    w = witness_factorization(shift_power(1))
    assert w.replay() == shift_power(1)
    assert w.cost <= 4


@given(binary_seqs(max_pos=40), binary_seqs(max_pos=40))
def test_phi_differences_fit_the_witness_bound(a, b):
    # |offset| <= the larger weight and the window lies in [1 - w_a,
    # last - w_a], so a difference of points phi accepts (last positions
    # up to _MAX_DENSE_POSITION) stays within _MAX_WITNESS_SPAN
    diff = compose(inverse(phi(b)), phi(a))
    last = max(a.ones[-1:] + b.ones[-1:], default=0)
    assert abs(diff.offset) + len(diff.images) <= 2 * last
    assert shark._MAX_WITNESS_SPAN == 2 * shark._MAX_DENSE_POSITION


def test_witness_example():
    a, b = BinarySeq((2, 3)), BinarySeq((4,))
    diff = compose(inverse(phi(b)), phi(a))
    word = witness_factorization(diff)
    assert word.replay() == diff
    assert word.cost <= l1_distance(a, b) + 3 == 6


@given(end_perms(max_letters=10))
def test_witness_soundness(g):
    word = witness_factorization(g)
    assert word.replay() == g
    assert word.cost <= crossing_norm(g) + 3


@given(binary_seqs(max_pos=32), binary_seqs(max_pos=32))
def test_witness_cost_bound_on_embedded_pairs(a, b):
    diff = compose(inverse(phi(b)), phi(a))
    word = witness_factorization(diff)
    assert word.replay() == diff
    assert word.cost <= l1_distance(a, b) + 3


# ---------------------------------------------------------------------------
# word length in the side-preserving maps and the unit shift


def word_length_by_brute_force(perm):
    """Oracle: the least shape cost over every (a, e) in [-c-2, c+2]^2,
    each Y = sigma^-a . perm . sigma^-e composed and its crossers read off.
    Y needs no S letter when it is a translation, one when no label
    crosses, and two when labels cross in one direction only; a word that
    costs c + 3 always exists."""
    c = crossing_norm(perm)
    best = c + 3
    reach = range(-c - 2, c + 3)
    for a in reach:
        for e in reach:
            y = compose(shift_power(-a), compose(perm, shift_power(-e)))
            to_a, to_b = shark._crossers(y)
            if to_a and to_b:
                continue
            letters = 0 if not y.images else 1 if not (to_a or to_b) else 2
            best = min(best, abs(a) + abs(e) + abs(y.offset) + letters)
    return best


def assert_optimal_word(perm):
    """The rule's word replays to `perm` in at most five letters, costs
    between the crossing norm and the witness, and matches the brute force."""
    word = word_length(perm)
    assert word.replay() == perm
    assert len(word.letters) <= 5
    assert crossing_norm(perm) <= word.cost <= witness_factorization(perm).cost
    assert word.cost == word_length_by_brute_force(perm), perm
    return word.cost


def test_word_length_examples():
    assert word_length(identity()) == GenWord()
    assert word_length(shift_power(-9)) == GenWord((Shift(-9),))
    # the far twist is one S letter, whatever its distance from the cut
    twist = frac_twist(7, 8)
    assert word_length(twist) == GenWord((Nu(twist),))
    # phi of a single one: the unit shift, then one reshuffle
    assert word_length(phi(BinarySeq((9,)))).cost == 2
    assert_optimal_word(compose(shift_power(5), twist))


@given(st.one_of(end_perms(max_letters=10), far_end_perms(reach=8)))
def test_word_length_matches_brute_force(g):
    assert_optimal_word(g)


def test_word_length_matches_brute_force_on_phi_differences():
    excess = 0
    for a, b in _phi_pairs(0, 300):
        length = assert_optimal_word(compose(inverse(phi(b)), phi(a)))
        excess = max(excess, length - l1_distance(a, b))
    assert excess == 3


# the 32 elements of word_ball(2, 5) whose word length is c + 3 all have
# offset 0, crossing norm 2 and capped length 5
AT_THE_WITNESS_BOUND = [
    EndPerm(0, -1, (2, 0, 1, -1)),
    EndPerm(0, -2, (-1, 2, 0, 1, -2)),
    EndPerm(0, -2, (2, -1, 0, 1, -2)),
]


@pytest.mark.parametrize("perm", AT_THE_WITNESS_BOUND)
def test_word_length_reaches_the_witness_bound(perm):
    assert assert_optimal_word(perm) == crossing_norm(perm) + 3 == 5
    assert word_length(perm) == witness_factorization(perm)
    assert word_length_oracle(perm, 2, 5) == 5


@pytest.mark.parametrize("support_bound", [3, 4])
def test_word_length_equals_the_capped_length_at_depth_two(support_bound):
    # 698 and 14,114 elements
    for g, length in word_ball(support_bound, 2).items():
        assert word_length(g).cost == length, g


@pytest.mark.parametrize(
    "support_bound, depth, size, below", [(2, 5, 2420, 1799), (3, 3, 4676, 1236)]
)
def test_word_length_is_never_above_the_capped_length(support_bound, depth, size, below):
    # the capped alphabet is part of the paper's, so its lengths bound the
    # rule's from above; deeper balls reach elements the small reshuffles
    # spell only the long way
    ball = word_ball(support_bound, depth)
    lengths = [(word_length(g).cost, length) for g, length in ball.items()]
    assert all(rule <= capped for rule, capped in lengths)
    assert (len(ball), sum(rule < capped for rule, capped in lengths)) == (size, below)


def test_word_length_matches_the_oracle_where_its_word_fits():
    # an optimal word whose reshuffles lie in [-4, 4] is a word of the
    # W = 4 alphabet, so the oracle at that depth finds its cost; sampled
    # from the elements where the rule is below the W = 2 capped length
    ball = word_ball(2, 5)
    below = [g for g, length in ball.items() if word_length(g).cost < length]
    below.sort(key=lambda g: (g.offset, g.lo, g.images))
    fitting = 0
    for g in random.Random(0).sample(below, 40):
        word = word_length(g)
        windows = [letter.perm for letter in word.letters if isinstance(letter, Nu)]
        if all(-4 <= p.lo and p.hi <= 4 for p in windows):
            assert word_length_oracle(g, 4, word.cost) == word.cost, g
            fitting += 1
    assert fitting == 32


def test_word_length_and_witness_read_the_window_alone():
    # the stretch between a window and the cut is never built: a twist
    # 10**9 labels out is one S letter, and the 10**6 shift after a twist
    # costs its shift run and one letter
    tracemalloc.start()
    far = 10**9
    twist = EndPerm(0, far, (far + 1, far))
    assert word_length(twist) == witness_factorization(twist) == GenWord((Nu(twist),))
    shifted = compose(shift_power(10**6), frac_twist(7, 8))
    word = word_length(shifted)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert word.replay() == shifted and word.cost == 10**6 + 1
    assert peak < 10**6


def test_word_length_refuses_a_span_over_the_bound(monkeypatch):
    # only a witness the rule builds is refused, by its own check and before
    # it lists anything: the shift by -11 and the twist after the shift by 8
    # span 11 labels and are answered; the last element's core spans 11
    twists = (EndPerm(7, 0, (9, 8, 7)), EndPerm(8, 0, (10, 9, 8)))
    expected = [word_length_by_brute_force(perm) for perm in twists]
    assert expected[1] == 9
    monkeypatch.setattr(shark, "_MAX_WITNESS_SPAN", 10)
    crossers = shark._crossers

    def no_long_lists(perm):
        assert abs(perm.offset) + len(perm.images) <= 10, "built the lists"
        return crossers(perm)

    monkeypatch.setattr(shark, "_crossers", no_long_lists)
    assert word_length(shift_power(10)).cost == 10
    assert word_length(shift_power(-11)).cost == 11
    assert [word_length(perm).cost for perm in twists] == expected
    refused = compose(frac_twist(1, 2), compose(shift_power(11), frac_twist(-1, 0)))
    with pytest.raises(ValueError, match="above 10 it is refused"):
        word_length(refused)


@pytest.mark.parametrize("k", [*range(-5, 6), 10**6, -(10**6), 10**9])
def test_word_length_of_a_translation_is_its_witness(k):
    # the scan picks e = 0 and a = t: the witness's one run Shift(t), or no
    # letter, also past the bound, where that witness is refused
    word = word_length(shift_power(k))
    assert word == GenWord((Shift(k),) if k else ())
    if abs(k) <= shark._MAX_WITNESS_SPAN:
        assert word == witness_factorization(shift_power(k))


# ---------------------------------------------------------------------------
# exact word lengths over a capped alphabet


def test_alphabet_size():
    assert len(side_preserving_alphabet(0)) == 0
    assert len(side_preserving_alphabet(1)) == 1
    # (W+1)! * W! - 1 non-identity reshuffles for W = 2
    assert len(side_preserving_alphabet(2)) == 11


def test_alphabet_cap():
    # W <= 4: W = 4 has 5! * 4! - 1 reshuffles, W = 5 would have 86,399
    assert word_length_oracle(frac_twist(1, 4), 4, 1) == 1
    for refused in (
        lambda: word_length_oracle(identity(), 5, 2),
        lambda: word_ball(5, 0),
        lambda: side_preserving_alphabet(5),
    ):
        with pytest.raises(ValueError, match="support_bound=5"):
            refused()


def test_alphabet_cap_on_huge_support_bound():
    # W <= 4 is one comparison; (W+1)! * W! is never computed
    for search in (word_ball, lambda w, d: word_length_oracle(shift_power(1), w, d)):
        with pytest.raises(ValueError, match="support_bound=3000000"):
            search(3 * 10**6, 3)


def test_negative_bounds_are_rejected():
    for bound, args in (("depth_bound", (2, -1)), ("support_bound", (-1, 2))):
        with pytest.raises(ValueError, match=bound):
            word_ball(*args)
        # also where the answer needs no search
        with pytest.raises(ValueError, match=bound):
            word_length_oracle(identity(), *args)


def test_oracle_examples():
    assert word_length_oracle(identity(), 2, 3) == 0
    assert word_length_oracle(shift_power(1), 2, 3) == 1
    two_letter = compose(make(0, {-1: 0, 0: -1}), shift_power(1))
    assert word_length_oracle(two_letter, 2, 4) == 2


def test_oracle_shift_powers_are_exact():
    for k in range(5):
        assert word_length_oracle(shift_power(k), 2, 4) == k
        assert word_length_oracle(shift_power(-k), 2, 4) == k


def test_oracle_undecided():
    assert word_length_oracle(shift_power(9), 2, 4) is None


def test_oracle_sandwich_on_exhaustive_ball():
    ball = word_ball(2, 3)
    for element, length in ball.items():
        assert crossing_norm(element) <= length
    # every single generator sits at depth exactly 1
    for letter in side_preserving_alphabet(2):
        assert ball[letter] == 1
    assert ball[shift_power(1)] == 1
    assert ball[shift_power(-1)] == 1


def test_ball_size_at_support_bound_three_and_depth_four():
    ball = word_ball(3, 4)
    assert len(ball) == 23804
    assert all(crossing_norm(g) <= length for g, length in ball.items())


def test_ball_is_closed_under_inverse():
    ball = word_ball(2, 3)
    for element, length in ball.items():
        assert ball[inverse(element)] == length


def reference_bfs(support_bound, depth_bound):
    """Differential oracle: breadth-first search that builds every edge as
    an EndPerm by `compose` and prunes nothing.  A word length is the
    target's depth in this ball."""
    start = identity()
    letters = side_preserving_alphabet(support_bound) + [shift_power(1), shift_power(-1)]
    dist = {start: 0}
    frontier = [start]
    for depth in range(1, depth_bound + 1):
        nxt = []
        for g in frontier:
            for s in letters:
                h = compose(s, g)
                if h not in dist:
                    dist[h] = depth
                    nxt.append(h)
        frontier = nxt
    return dist


BALL_CASES = [(w, d) for w in range(3) for d in range(6)] + [(3, d) for d in range(4)] + [(2, 6)]


@pytest.mark.parametrize("support_bound, depth", BALL_CASES)
def test_ball_matches_reference(support_bound, depth):
    assert word_ball(support_bound, depth) == reference_bfs(support_bound, depth)


def grow_with_hand_built_frame(frontier, fresh, seen, depth, tables, support_bound):
    """Oracle: `_grow` with each frame written out by hand, the empty
    window as a case of its own."""
    w = support_bound
    shifted, reshuffled = [], []
    for t, lo, images in frontier[:fresh]:
        if images:
            frame_lo, hi = min(lo, -w - t), lo + len(images) - 1
            frame_hi = max(hi, w - t)
            mid = (
                *range(frame_lo + t, lo + t),
                *images,
                *range(hi + 1 + t, frame_hi + 1 + t),
            )
        else:
            frame_lo = -w - t
            mid = tuple(range(-w, w + 1))
        n = len(mid)
        lookup = itemgetter(*[n + v + w if -w <= v <= w else p for p, v in enumerate(mid)])
        for table in tables:
            key = shark._trim_key(t, frame_lo, lookup(mid + table))
            if key not in seen:
                seen[key] = depth
                reshuffled.append(key)
    for t, lo, images in frontier:
        for step in (1, -1):
            key = (t + step, lo, tuple(v + step for v in images))
            if key not in seen:
                seen[key] = depth
                shifted.append(key)
    return shifted + reshuffled, len(shifted)


def test_ball_at_the_largest_support_bound(monkeypatch):
    # BALL_CASES stop at W = 3: at W = 4, reference_bfs would compose each
    # of the 2,881 letters with each of the 2,881 states one letter out
    ball = word_ball(4, 2)
    monkeypatch.setattr(shark, "_grow", grow_with_hand_built_frame)
    assert ball == word_ball(4, 2)


def reshuffle_count(support_bound, depth, monkeypatch):
    """The number of reshuffle results `word_ball` trims."""
    images = []
    trim = shark._trim_key
    monkeypatch.setattr(shark, "_trim_key", lambda *args: images.append(args) or trim(*args))
    word_ball(support_bound, depth)
    return len(images)


def test_ball_reshuffles_only_shift_reached_states(monkeypatch):
    # a state r.g reached by a reshuffle has the coset R.(r.g) = R.g of a
    # state already listed, and of the states a shift reached only the
    # first of each coset in a layer is reshuffled, so word_ball(3, 2)
    # reshuffles only the root and the two states one shift away, which
    # have different offsets and so different cosets, each by all
    # 4! * 3! - 1 tables
    assert reshuffle_count(3, 2, monkeypatch) == 3 * 143


@pytest.mark.parametrize("support_bound, depth, cosets", [(2, 5, 148), (3, 3, 27)])
def test_ball_reshuffles_one_state_per_coset(support_bound, depth, cosets, monkeypatch):
    # reshuffling every state a shift reached would take 320 and 269
    # cosets' worth of tables here
    tables = len(side_preserving_alphabet(support_bound))
    assert reshuffle_count(support_bound, depth, monkeypatch) == cosets * tables


@pytest.mark.parametrize("support_bound, depth", [(1, 5), (2, 5), (3, 3), (4, 2)])
def test_grow_matches_reshuffling_every_fresh_key(support_bound, depth):
    # the reference reshuffles every key a shift reached; each layer must
    # hold the same keys in the same order, and `seen` the same depths
    two_letter = compose(make(0, {-1: 0, 0: -1}), shift_power(1))
    roots = [identity(), two_letter, frac_twist(0, 1), compose(shift_power(-2), frac_twist(-1, 1))]
    tables = shark._reshuffle_tables(support_bound)
    for root in roots:
        key = (root.offset, root.lo, root.images)
        seen, expected_seen = {key: 0}, {key: 0}
        grown = expected = ([key], 1)
        for layer in range(1, depth + 1):
            grown = shark._grow(*grown, seen, layer, tables, support_bound)
            expected = grow_with_hand_built_frame(
                *expected, expected_seen, layer, tables, support_bound
            )
            assert grown == expected, (root, layer)
            assert list(seen.items()) == list(expected_seen.items()), (root, layer)


@pytest.mark.parametrize("support_bound, depth", [c for c in BALL_CASES if c[1] >= 1])
def test_ball_windows_stay_within_depth(support_bound, depth):
    # k >= 1 letters leave the window inside [-(W+k-1), W+k-1], so the
    # search needs no window bound
    reach = support_bound + depth - 1
    for g in word_ball(support_bound, depth):
        assert not g.images or (-reach <= g.lo and g.hi <= reach), g


ORACLE_CASES = [(0, 5), (1, 4), (2, 3), (2, 4), (3, 1), (3, 2)]


@pytest.mark.parametrize("support_bound, depth", ORACLE_CASES)
def test_oracle_matches_reference(support_bound, depth, monkeypatch):
    rng = random.Random(f"{support_bound}:{depth}")
    # a ball one layer deeper holds targets the oracle cannot decide
    deeper = list(reference_bfs(support_bound, depth + 1))
    sample = rng.sample(deeper, min(60, len(deeper)))
    # windows inside [-reach, reach] are searched, the others are not
    reach = support_bound + depth - 1
    edge = frac_twist(reach - 1, reach)
    outside = frac_twist(reach, reach + 1)
    ball = reference_bfs(support_bound, depth)
    at_edge = [g for g in ball if g.images and (g.lo == -reach or g.hi == reach)]
    targets = sample + at_edge + [identity(), edge, outside, compose(outside, shift_power(1))]
    assert any(t.images and (t.lo < -reach or t.hi > reach) for t in targets)
    undecided = 0
    for target in targets:
        expected = ball.get(target)
        assert word_length_oracle(target, support_bound, depth) == expected, target
        undecided += expected is None
    assert undecided
    grown = []
    grow = shark._grow
    monkeypatch.setattr(shark, "_grow", lambda *args: grown.append(args) or grow(*args))
    assert word_length_oracle(edge, support_bound, depth) == ball.get(edge)
    assert grown, "a window that reaches the edge must be searched"


def test_oracle_builds_no_endperm(monkeypatch):
    two_letter = compose(make(0, {-1: 0, 0: -1}), shift_power(1))
    targets = [shift_power(3), two_letter, frac_twist(1, 2), shift_power(9)]
    built = []
    checked = EndPerm.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        checked(self, *args, **kwargs)

    monkeypatch.setattr(EndPerm, "__init__", counting)
    assert [word_length_oracle(t, 2, 4) for t in targets] == [3, 2, 1, None]
    assert built == []
    word_ball(1, 1)
    assert built


def test_oracle_rejects_far_targets_without_search(monkeypatch):
    # each letter moves the offset by at most one and the crossing norm
    # bounds word length, so these need no ball at all; a ball around a
    # target with offset t would build frames of about |t| positions
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr("bigmcg.shark._grow", no_search)
    far = 10**8
    swapped_far = make(far, {0: far + 1, 1: far})
    assert swapped_far.window_range() == range(0, 2)
    for target in (shift_power(far), shift_power(-far), swapped_far, shift_power(7)):
        assert word_length_oracle(target, 2, 6) is None
    # five letters keep every window inside [-6, 6]
    assert word_length_oracle(frac_twist(6, 7), 2, 5) is None


def test_search_refuses_a_ball_over_the_state_cap(monkeypatch):
    # word_ball(2, 1) holds 14 states: the identity, 11 reshuffles, 2 shifts
    monkeypatch.setattr(shark, "_MAX_SEARCH_STATES", 14)
    assert len(word_ball(2, 1)) == 14
    monkeypatch.setattr(shark, "_MAX_SEARCH_STATES", 13)
    with pytest.raises(ValueError, match="passed 13 states in one ball"):
        word_ball(2, 1)
    # the cap is checked inside a layer: 11 is passed before the shift pass
    monkeypatch.setattr(shark, "_MAX_SEARCH_STATES", 11)
    seen = {shark._IDENTITY_KEY: 0}
    with pytest.raises(ValueError, match="passed 11 states"):
        shark._grow([shark._IDENTITY_KEY], 1, seen, 1, shark._reshuffle_tables(2), 2)
    assert len(seen) == 12
    monkeypatch.setattr(shark, "_MAX_SEARCH_STATES", 50)
    with pytest.raises(ValueError, match="passed 50 states"):
        word_length_oracle(phi(BinarySeq((3,))), 2, 6)


# ---------------------------------------------------------------------------
# serialization and rendering


@given(end_perms())
def test_endperm_json_round_trip(g):
    assert endperm_from_json(endperm_to_json(g)) == g


def test_endperm_json_canonicalizes():
    doc = {"offset": 1, "window": [0, 2], "images": {"0": 2, "1": 1, "2": 3}}
    perm = endperm_from_json(doc)
    assert (perm.lo, perm.hi) == (0, 1)
    assert endperm_to_json(perm)["window"] == [0, 1]


def test_endperm_json_rejects_malformed():
    with pytest.raises(ValueError):
        endperm_from_json({"offset": 0, "window": [0, 1]})
    with pytest.raises(ValueError):
        endperm_from_json({"offset": 0, "window": [0, 1], "images": {"0": 1, "1": 1}})
    with pytest.raises(ValueError):
        endperm_from_json({"offset": 0, "window": [0, 1], "images": {"0": 1}})
    with pytest.raises(ValueError):
        endperm_from_json({"offset": "1"})
    # keys must be written canonically: "01" and "+1" are not "1"
    with pytest.raises(ValueError, match="'01'"):
        endperm_from_json({"offset": 0, "window": [1, 2], "images": {"01": 2, "2": 1}})
    with pytest.raises(ValueError, match=r"'\+1'"):
        endperm_from_json(
            {"offset": 0, "window": [1, 2], "images": {"1": 2, "+1": 2, "2": 1}}
        )
    with pytest.raises(ValueError):
        endperm_from_json({"offset": 0, "window": [0, 1], "images": {"0": 1, "2": 0}})
    with pytest.raises(ValueError):
        endperm_from_json({"offset": 0, "window": [0, 10**12], "images": {"0": 0}})


@pytest.mark.parametrize("value", ["1", True, 1.0, None])
def test_endperm_json_images_are_integers(value):
    with pytest.raises(ValueError, match='"images" values must be integers'):
        endperm_from_json({"offset": 0, "window": [0, 1], "images": {"0": value, "1": 0}})


def test_constructors_refuse_malformed_arguments():
    with pytest.raises(ValueError, match="not a generator letter: 1"):
        GenWord((Shift(1), 1))


def test_format_endperm():
    text = format_endperm(shift_power(2))
    assert "i -> i+2 elsewhere" in text
    text = format_endperm(frac_twist(1, 2))
    assert "1  2" in text and "2  1" in text
