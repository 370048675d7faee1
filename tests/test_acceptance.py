"""One test per acceptance check.

Run with `-s` to see the pass/fail line for every criterion.  The SEED
environment variable reseeds the randomized checks; the default is 0.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from itertools import permutations, product
from pathlib import Path
from random import Random

import pytest

from bigmcg import acceptance, gf2hom, shark


@pytest.mark.parametrize("name", [spec.name for spec in acceptance.CHECKS])
def test_acceptance_check(name):
    res = acceptance.run_check(name, seed=int(os.environ.get("SEED", "0")))
    status = "PASS" if res.passed else "FAIL"
    print(f"[{status}] {res.name}: {res.detail} ({res.seconds:.2f}s)")
    assert res.passed, f"{res.name}: {res.detail}"
    assert res.within_budget, (
        f"{res.name} took {res.seconds:.2f}s, budget {res.budget:.0f}s"
    )


def test_benchmark_names_every_check(monkeypatch):
    # bench/run.py reports one timing per check name, in this order
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    assert workloads.CHECK_NAMES == tuple(spec.name for spec in acceptance.CHECKS)


# One traced pass of two items per workload, as `bench/run.py --trace 1` makes them; it
# prints each workload's item errors.  A child process, since `run.import_library`
# deletes and re-imports `bigmcg`.
BENCH_PASS = """
import json, sys
sys.path.insert(0, "bench")
from pace import Pace
from run import set_up
from spans import Tracer, traced_ops
from workloads import entry_points
errors = {}
with Pace() as pace:
    for workload in sys.argv[1:]:
        mods, work = set_up(workload, 0, 2)
        tracer = Tracer()
        ops = traced_ops(entry_points(mods), tracer, mods)
        errors[workload] = work.run_pass(ops, pace, 0, tracer).errors
print(json.dumps(errors))
"""


def test_benchmark_runs_against_the_library():
    # a library name the benchmark calls, or an answer its checks expect, that goes
    # missing fails here, not only in `bench/selftest.py`
    root = Path(__file__).resolve().parents[1]
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    proc = subprocess.run(
        [sys.executable, "-c", BENCH_PASS, *names],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {name: [] for name in names}


def test_crashing_check_is_recorded_as_fail(monkeypatch):
    crash = acceptance.CheckSpec("crash", 1.0, lambda seed: str(1 // seed))
    goldens = next(c for c in acceptance.CHECKS if c.name == "classifier_goldens")
    monkeypatch.setattr(acceptance, "CHECKS", (crash, goldens))
    crashed, after = [acceptance.run_check(spec.name, seed=0) for spec in acceptance.CHECKS]
    assert not crashed.passed
    assert crashed.detail == "ZeroDivisionError: integer division or modulo by zero"
    assert after.passed


def test_run_check_takes_the_seed_explicitly():
    with pytest.raises(TypeError):
        acceptance.run_check("classifier_goldens")


def test_golden_failure_names_the_shift_and_the_mode(monkeypatch):
    goldens = list(acceptance._SHIFT_GOLDENS)
    goldens[1] = ("jacobs_ladder", "class", goldens[1][2])
    monkeypatch.setattr(acceptance, "_SHIFT_GOLDENS", tuple(goldens))
    res = acceptance.run_check("classifier_goldens", 0)
    assert not res.passed
    assert res.detail == (
        "jacobs_ladder standard shift should be essential through class, first reason: genus"
    )


def test_failure_detail_names_the_values(monkeypatch):
    monkeypatch.setattr(acceptance.qinf, "l1_distance", lambda a, b: -1)
    res = acceptance.run_check("zn_isometry", 0)
    assert not res.passed
    assert res.detail.startswith("dim 1: embedded distance -1 != ")


def draw_letter_indices(rng):
    """The sampler's one draw, decoded: a letter count k from the remainder
    mod 9, then k base-288 digits of the quotient, the `_LETTERS` indices."""
    code, count = divmod(rng.randrange(9 * 288**8), 9)
    indices = []
    for _ in range(count):
        code, j = divmod(code, 288)
        indices.append(j)
    return indices


def draw_letters(rng):
    return [acceptance._LETTERS[j] for j in draw_letter_indices(rng)]


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


def shift_sized_frame_word_element(letters):
    """Oracle: the word of `letters` (shift steps and reshuffle tables) over
    the frame [-(W+s), W+s], s the number of shifts, carrying the shifts as
    a pending offset and rewriting the whole frame at each reshuffle."""
    w = acceptance._LETTER_HALF_WIDTH
    reach = w + sum(isinstance(letter, int) for letter in letters)
    images = list(range(-reach, reach + 1))
    offset = 0
    for letter in letters:
        if isinstance(letter, int):
            offset += letter
            continue
        lo, hi = -w - offset, w - offset
        table = [u - offset for u in letter]
        images = [table[v - lo] if lo <= v <= hi else v for v in images]
    return shark._canon(offset, -reach, [v + offset for v in images])


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
    assert acceptance._SHIFT_LETTERS == 144
    shifts = letters[: acceptance._SHIFT_LETTERS]
    assert shifts.count(1) == shifts.count(-1) == 72
    tables = letters[acceptance._SHIFT_LETTERS :]
    assert not any(isinstance(letter, int) for letter in tables)
    assert sorted(tables) == sorted(set(acceptance._RESHUFFLES)) and len(tables) == 144


class Fixed:
    """A stand-in for `Random` whose one `randrange` draw is `code`."""

    def __init__(self, code, below=None):
        self.code = code
        self.below = acceptance._WORD_CODES if below is None else below

    def randrange(self, n):
        assert n == self.below
        return self.code


def word_code(indices):
    """The sampler's draw that codes the word of `_LETTERS` indices."""
    return len(indices) + 9 * sum(j * 288**i for i, j in enumerate(indices))


def test_one_draw_codes_a_word():
    assert acceptance._WORD_CODES == 9 * 288**8
    assert acceptance._random_word_element(Fixed(0)) == shark.identity()
    # count 1, letter index 1: a unit shift up; count 2, letters 0 then 72
    assert acceptance._random_word_element(Fixed(1 + 9 * 1)) == shark.shift_power(1)
    assert acceptance._random_word_element(Fixed(2 + 9 * (0 + 288 * 72))) == shark.identity()
    # the largest code: eight copies of the last reshuffle
    w = acceptance._LETTER_HALF_WIDTH
    last = shark._canon(0, -w, acceptance._LETTERS[-1])
    eighth = shark.identity()
    for _ in range(8):
        eighth = shark.compose(last, eighth)
    assert acceptance._random_word_element(Fixed(acceptance._WORD_CODES - 1)) == eighth


def test_moves_move_positions_as_letters_move_values():
    w = acceptance._LETTER_HALF_WIDTH
    for move, letter in zip(acceptance._MOVES, acceptance._LETTERS, strict=True):
        if isinstance(letter, int):
            assert move == letter
            continue
        # slot u + W holds the position of value u; the letter sends value u
        # to letter[u + W], which then sits where u sat
        held = [f"p{u}" for u in range(-w, w + 1)]
        moved = move(held)
        assert sorted(moved) == sorted(held)
        for u in range(-w, w + 1):
            assert moved[letter[u + w] + w] == held[u + w]


def letter_lists(rng, count):
    """`count` lists of `_LETTERS` indices: the empty word, all-shift,
    all-reshuffle and 8-letter words, then random words of up to 8."""
    n, split = len(acceptance._LETTERS), acceptance._SHIFT_LETTERS
    lists = [[], [0] * 8, [split // 2] * 8]
    for k in range(1, 9):
        lists.append([rng.randrange(split) for _ in range(k)])
        lists.append([rng.randrange(split, n) for _ in range(k)])
    lists += [[rng.randrange(n) for _ in range(8)] for _ in range(200)]
    while len(lists) < count:
        lists.append([rng.randrange(n) for _ in range(rng.randint(0, 8))])
    return lists


def test_position_build_matches_shift_sized_frame():
    for indices in letter_lists(Random(11), 20_000):
        letters = [acceptance._LETTERS[j] for j in indices]
        built = acceptance._random_word_element(Fixed(word_code(indices)))
        assert built == shift_sized_frame_word_element(letters), indices


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


def rejection_invertible_rows(rng, n):
    """Oracle: whole random matrices until one has full rank; a matrix
    outside GL(n, 2) has rank below n, so this is uniform on GL(n, 2)."""
    while True:
        rows = [rng.getrandbits(n) for _ in range(n)]
        if gf2hom.rank(rows) == n:
            return rows


@pytest.mark.parametrize("n, order", [(2, 6), (3, 168)])
def test_row_by_row_draws_are_uniform_on_gl(n, order):
    # both samplers reach every invertible matrix and nothing else, each
    # about `per` times
    per = 60
    every = {
        rows for rows in product(range(1 << n), repeat=n) if gf2hom.rank(rows) == n
    }
    assert len(every) == order
    for sampler in (acceptance._random_invertible_rows, rejection_invertible_rows):
        rng = Random(f"gl{n}")
        counts = Counter(tuple(sampler(rng, n)) for _ in range(per * order))
        assert counts.keys() == every, sampler
        assert per // 2 <= min(counts.values()) and max(counts.values()) <= 2 * per, sampler


def test_one_draw_codes_a_point():
    for n in (1, 3, 5):
        below = 41**n
        assert acceptance._random_point(Fixed(0, below), n) == [-20] * n
        assert acceptance._random_point(Fixed(below - 1, below), n) == [20] * n
    # least significant digit first: 1 + 41 * 2 + 41**2 * 40
    assert acceptance._random_point(Fixed(1 + 41 * 2 + 41**2 * 40, 41**3), 3) == [-19, -18, 20]
