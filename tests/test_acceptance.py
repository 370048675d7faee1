"""One test per acceptance check.

Run with `-s` to see the pass/fail line for every criterion.  The SEED
environment variable reseeds the randomized checks; the default is 0.
"""

from itertools import permutations
from random import Random

import pytest

from bigmcg import acceptance, gf2hom, shark


@pytest.mark.parametrize("name", [spec.name for spec in acceptance.CHECKS])
def test_acceptance_check(name):
    res = acceptance.run_check(name, seed=acceptance.default_seed())
    status = "PASS" if res.passed else "FAIL"
    print(f"[{status}] {res.name}: {res.detail} ({res.seconds:.2f}s)")
    assert res.passed, f"{res.name}: {res.detail}"
    assert res.within_budget, (
        f"{res.name} took {res.seconds:.2f}s, budget {res.budget:.0f}s"
    )


def test_crashing_check_is_recorded_as_fail(monkeypatch):
    crash = acceptance.CheckSpec("crash", 1.0, lambda seed: str(1 // seed))
    goldens = next(c for c in acceptance.CHECKS if c.name == "classifier_goldens")
    monkeypatch.setattr(acceptance, "CHECKS", (crash, goldens))
    crashed, after = [acceptance.run_check(spec.name, seed=0) for spec in acceptance.CHECKS]
    assert not crashed.passed
    assert crashed.detail == "ZeroDivisionError: integer division or modulo by zero"
    assert after.passed


def test_failure_detail_names_the_values(monkeypatch):
    monkeypatch.setattr(acceptance.qinf, "l1_distance", lambda a, b: -1)
    res = acceptance.run_check("zn_isometry", 0)
    assert not res.passed
    assert res.detail.startswith("dim 1: embedded distance -1 != ")


def draw_letters(rng):
    """The sampler's draws: a letter count, then one `_LETTERS` choice per
    letter."""
    count = rng.randint(0, acceptance._MAX_LETTERS)
    return [rng.choice(acceptance._LETTERS) for _ in range(count)]


def reference_word_element(rng):
    """Oracle: each letter a checked EndPerm, chained with `shark.compose`,
    taking the same draws from `rng` in the same order as the sampler."""
    w = acceptance._LETTER_HALF_WIDTH
    acc = shark.identity()
    for letter in draw_letters(rng):
        if isinstance(letter, int):
            letter = shark.shift_power(letter)
        else:
            letter = shark._canon(0, -w, letter)
        acc = shark.compose(letter, acc)
    return acc


def full_frame_word_element(rng):
    """Oracle: the same draws applied letter by letter over the frame
    [-(W+k), W+k] for k letters, one pass per letter."""
    w = acceptance._LETTER_HALF_WIDTH
    letters = draw_letters(rng)
    reach = w + len(letters)
    offset, images = 0, list(range(-reach, reach + 1))
    for letter in letters:
        if isinstance(letter, int):
            offset += letter
            images = [v + letter for v in images]
        else:
            images = [letter[v + w] if -w <= v <= w else v for v in images]
    return shark._canon(offset, -reach, images)


def test_reshuffles_are_the_side_preserving_maps_of_the_window():
    w = acceptance._LETTER_HALF_WIDTH
    letters = {shark._canon(0, -w, table) for table in acceptance._RESHUFFLES}
    assert len(acceptance._RESHUFFLES) == len(letters) == 144
    assert shark.identity() in letters
    assert all(g.is_side_preserving() for g in letters)
    # the sampler's draws index `_RESHUFFLES`, so its order fixes the words
    # every seed draws
    assert acceptance._RESHUFFLES == [
        neg + pos for neg in permutations(range(-w, 1)) for pos in permutations(range(1, w + 1))
    ]


def test_letters_are_half_shifts_half_reshuffles():
    letters = acceptance._LETTERS
    assert len(letters) == 288
    assert letters.count(1) == letters.count(-1) == 72
    tables = [letter for letter in letters if not isinstance(letter, int)]
    assert sorted(tables) == sorted(set(acceptance._RESHUFFLES)) and len(tables) == 144


def check_sampler_against(reference):
    ours, ref = Random(7), Random(7)
    for _ in range(5000):
        assert acceptance._random_word_element(ours) == reference(ref)
    assert ours.random() == ref.random()


def test_word_sampler_matches_composed_letters():
    check_sampler_against(reference_word_element)


def test_shift_sized_frame_matches_full_frame():
    check_sampler_against(full_frame_word_element)


@pytest.mark.parametrize("n", range(1, 13))
def test_random_invertible_rows(n):
    rng = Random(n)
    for _ in range(10):
        rows = acceptance._random_invertible_rows(rng, n)
        assert len(rows) == n
        assert all(0 <= row < 1 << n for row in rows)
        assert gf2hom.rank(rows) == n
