"""The four benchmark workloads: seeded input generation, per-item work and checks.

Every workload is a closed-loop batch job over a fixed input set: one caller,
and the next item starts when the previous one returns.  Inputs come only from
the seed; the library sees nothing but the generated inputs.  Each item's
answer is checked by a rule that does not call the function under test, and a
failed check or an exception counts as one failed item without stopping the
pass.

Sizes follow a fixed quantile schedule and the seed draws the contents: the
cost of a pass then depends little on the seed, which keeps runs on different
seeds comparable.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from random import Random
from types import SimpleNamespace
from typing import Any, Callable, Optional

from pace import Pace

# The nine acceptance checks, in the order `bigmcg repro all` runs them.
CHECK_NAMES = (
    "zn_isometry",
    "crossing_length_function",
    "phi_distance_identity",
    "witness_sandwich",
    "oracle_lower_bound",
    "shift_homology_norm",
    "homology_length_function",
    "classifier_goldens",
    "phi_support_law",
)

DEFAULT_ITEMS = {"embed": 200, "wordlen": 200, "homology": 200, "repro": len(CHECK_NAMES)}
WARMUP_ITEMS = 3


class CheckFailed(Exception):
    """An item produced a wrong answer."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _schedule(n: int, knots: tuple[tuple[float, float], ...]) -> list[float]:
    """n sizes at the fixed quantiles (i + 0.5) / n of a distribution whose
    quantile function interpolates the (quantile, size) knots on a log scale."""
    out = []
    for i in range(n):
        q = (i + 0.5) / n
        (q0, lo), (q1, hi) = next((a, b) for a, b in zip(knots, knots[1:]) if q <= b[0])
        out.append(lo * (hi / lo) ** ((q - q0) / (q1 - q0)))
    return out


def _digest(inputs: Any) -> str:
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# the library entry points a workload calls


def entry_points(mods: SimpleNamespace) -> dict[str, tuple[str, Callable]]:
    """Attribute name on `ops` -> (span name `layer.function`, callable)."""
    q, s, g = mods.qinf, mods.shark, mods.gf2hom
    return {
        "zn_embed": ("qinf.zn_embed", q.zn_embed),
        "phi": ("shark.phi", s.phi),
        "compose": ("shark.compose", s.compose),
        "inverse": ("shark.inverse", s.inverse),
        "crossing_norm": ("shark.crossing_norm", s.crossing_norm),
        "witness_factorization": ("shark.witness_factorization", s.witness_factorization),
        "replay": ("shark.replay", s.GenWord.replay),
        "word_ball": ("shark.word_ball", s.word_ball),
        "word_length_oracle": ("shark.word_length_oracle", s.word_length_oracle),
        "aut_compose": ("gf2hom.GradedAut.compose", g.GradedAut.compose),
        "aut_inverse": ("gf2hom.GradedAut.inverse", g.GradedAut.inverse),
        "homology_norm": ("gf2hom.homology_norm", g.homology_norm),
        "cli_run": ("cli.run", mods.cli.run),
    }


def plain_ops(mods: SimpleNamespace) -> SimpleNamespace:
    """The entry points themselves: the untraced path calls the library directly."""
    return SimpleNamespace(**{attr: fn for attr, (_, fn) in entry_points(mods).items()})


# ---------------------------------------------------------------------------
# passes


@dataclass
class PassResult:
    """One run over the input set.  Lists are aligned with the items."""

    elapsed_s: float  # wall time of the pass
    latencies_s: list[float]  # per item, at reference speed (see pace.py)
    failures: list[int]  # indices of the items that failed
    errors: list[str] = field(default_factory=list)
    reported_s: dict[int, float] = field(default_factory=dict)  # item index -> time the program reported, at reference speed


@dataclass
class ItemWorkload:
    """A fixed list of items, each run and checked by `run_item(ops, item)`.

    `run_item` raises on a wrong answer and may return a time the program
    reported for the item (the acceptance checks do).  With `per_pass`, pass
    k runs `per_pass(item, k)` in place of each item.
    """

    items: list
    warmup: list
    run_item: Callable[[SimpleNamespace, Any], Optional[float]]
    digest: str
    per_pass: Optional[Callable[[Any, int], Any]] = None

    def run_pass(self, ops: SimpleNamespace, pace: Pace, number: int, tracer: Any = None) -> PassResult:
        """Run every item once as pass `number`.  With a tracer, each item is
        a `bench.item` span."""
        run_item = self.run_item if tracer is None else tracer.wrap("bench.item", self.run_item)

        def attempt(item: Any) -> tuple[Optional[float], Optional[str]]:
            try:
                return run_item(ops, item), None
            except Exception as err:  # a failed item must not stop the pass
                return None, f"{type(err).__name__}: {err}"[:300]

        latencies: list[float] = []
        failures: list[int] = []
        errors: list[str] = []
        reported: dict[int, float] = {}
        start = time.perf_counter()
        for index, item in enumerate(self.items):
            if self.per_pass is not None:
                item = self.per_pass(item, number)
            (got, error), wall, at_reference = pace.timed(attempt, item)
            latencies.append(at_reference)
            if error is not None:
                failures.append(index)
                errors.append(error)
            elif got is not None:
                reported[index] = got * at_reference / wall
        return PassResult(time.perf_counter() - start, latencies, failures, errors, reported)

    def warm_up(self, ops: SimpleNamespace) -> None:
        for item in self.warmup:
            with contextlib.suppress(Exception):  # the timed passes count failures
                self.run_item(ops, item)


# ---------------------------------------------------------------------------
# embed: `shark dist` on zn_embed points, the paper's headline chain

PRIMES = (3, 5, 7)  # the first odd primes, one line per coordinate
# Last support position of the larger point, as (quantile, position) knots:
# most pairs under 343, a few up to 1458, where phi's quadratic cost sets the
# tail.  The flat stretches keep p50 and p95 inside one size class each, so
# they do not jump between classes from one seed to the next.
EMBED_SIZES = ((0.0, 10.0), (0.4, 81.0), (0.6, 81.0), (0.93, 343.0), (0.97, 343.0), (1.0, 1600.0))
EMBED_SMALLER = 3  # the other point's last position is about a third as far out


def _line_position(p: int, m: int) -> int:
    """Last support position of `prime_line_embed(p, m)`."""
    if m == 0:
        return 0
    return p ** m if m > 0 else 2 * p ** -m


def _coordinates_up_to(p: int, limit: int) -> list[int]:
    """Every m whose line position on prime p is at most `limit`."""
    out = [0]
    k = 1
    while p ** k <= limit:
        out.append(k)
        if 2 * p ** k <= limit:
            out.append(-k)
        k += 1
    return out


def make_embed(mods: SimpleNamespace, seed: int, n: int) -> ItemWorkload:
    """Pairs of points in dimensions 1..3.  The schedule fixes the lead
    coordinate of each point, and so its last support position and the cost
    of `phi`; the seed draws the dimension and the other coordinates, each
    below its point's lead."""
    rng = Random(f"{seed}:embed")
    leads = [
        (_line_position(p, m), c, m)
        for c, p in enumerate(PRIMES)
        for m in _coordinates_up_to(p, int(EMBED_SIZES[-1][1]))
        if m
    ]

    def nearest_lead(target: float) -> tuple[int, int, int]:
        return min(leads, key=lambda lead: (abs(math.log(lead[0] / target)), lead))

    def point(dim: int, lead: tuple[int, int, int]) -> tuple[int, ...]:
        pos, c, m = lead
        return tuple(
            m if j == c else rng.choice(_coordinates_up_to(p, pos - 1)) for j, p in enumerate(PRIMES[:dim])
        )

    items = []
    for target in _schedule(n, EMBED_SIZES):
        big = nearest_lead(target)
        small = nearest_lead(max(target / EMBED_SMALLER, EMBED_SIZES[0][1]))
        dim = rng.randint(max(big[1], small[1]) + 1, len(PRIMES))
        u, v = point(dim, big), point(dim, small)
        if rng.random() < 0.5:
            u, v = v, u
        dist = sum(abs(x - y) for x, y in zip(u, v))
        items.append((PRIMES[:dim], u, v, dist))
    warmup = items[:WARMUP_ITEMS]
    rng.shuffle(items)

    def run_item(ops: SimpleNamespace, item: tuple) -> None:
        primes, u, v, dist = item
        a = ops.zn_embed(primes, u)
        b = ops.zn_embed(primes, v)
        diff = ops.compose(ops.inverse(ops.phi(b)), ops.phi(a))
        norm = ops.crossing_norm(diff)
        word = ops.witness_factorization(diff)
        replayed = ops.replay(word)
        _expect(norm == dist, f"crossing norm {norm} != |u - v|_1 = {dist} for {u}, {v}")
        _expect(replayed == diff, f"witness does not replay to the difference for {u}, {v}")
        _expect(word.cost <= dist + 3, f"witness cost {word.cost} > {dist} + 3 for {u}, {v}")

    return ItemWorkload(items, warmup, run_item, _digest(items))


# ---------------------------------------------------------------------------
# wordlen: exact word lengths by bounded search over the capped alphabet

# (support_bound, depth) -> (queries per target word length 1, 2, ...,
# depth + 1; full ball enumerations) in a 200-item pass.  Words alternate a
# reshuffle and a unit shift, so they rarely shorten: most queries end at the
# depth of their length.  Words of length depth + 1 are drawn until one lies
# outside the ball, so all their queries exhaust it: the share of such
# queries is fixed, not drawn by the seed.  The counts put
# p50 inside the length-2 queries and p95 inside the (2, 5) ball enumerations
# and exhausting queries, whose cost the seed does not move.
WORDLEN_ITEMS = {(2, 5): ((40, 96, 24, 12, 5, 5), 9), (3, 2): ((6, 1, 1), 1)}


def make_wordlen(mods: SimpleNamespace, seed: int, n: int) -> ItemWorkload:
    """Oracle queries on random words of every length 1..depth+1, plus full
    ball enumerations.  Words of length depth+1 lie outside the ball, so
    their queries exhaust it.  The ball used to draw them is the benchmark's
    own breadth-first search, not the library's."""
    s = mods.shark
    rng = Random(f"{seed}:wordlen")
    items: list = []

    def scaled(count: int) -> int:
        return max(1, round(count * n / DEFAULT_ITEMS["wordlen"]))

    for (support_bound, depth), (counts, balls) in WORDLEN_ITEMS.items():
        letters = s.side_preserving_alphabet(support_bound)
        targets = []
        inside = {s.identity()}
        frontier = list(inside)
        for _ in range(depth):
            grown = [s.compose(letter, g) for g in frontier for letter in letters + [s.shift_power(1), s.shift_power(-1)]]
            frontier = [h for h in grown if h not in inside and not inside.add(h)]

        def word(length: int) -> Any:
            element = s.identity()
            shift_turn = rng.random() < 0.5
            for _ in range(length):
                letter = s.shift_power(rng.choice((1, -1))) if shift_turn else rng.choice(letters)
                element = s.compose(letter, element)
                shift_turn = not shift_turn
            return element

        for length, count in enumerate(counts, start=1):
            for _ in range(scaled(count)):
                element = word(length)
                while length > depth and element in inside:
                    element = word(length)
                targets.append((element, length))
                items.append(("query", support_bound, depth, element, length))
        within = tuple((element, length) for element, length in targets if length <= depth)
        items.extend(("ball", support_bound, depth, within, None) for _ in range(scaled(balls)))
    warmup = [item for item in items if item[0] == "query" and item[4] <= 1][:WARMUP_ITEMS]
    rng.shuffle(items)
    identity = s.identity()

    def run_item(ops: SimpleNamespace, item: tuple) -> None:
        kind, support_bound, depth, target, length = item
        if kind == "query":
            found = ops.word_length_oracle(target, support_bound, depth)
            if found is None:
                _expect(length > depth, f"undecided on a word of length {length} <= {depth}")
                return
            norm = s.crossing_norm(target)
            _expect(norm <= found <= length, f"word length {found} outside [{norm}, {length}]")
            return
        ball = ops.word_ball(support_bound, depth)
        _expect(ball.get(identity) == 0, "identity missing from the ball")
        for element, found in ball.items():
            norm = s.crossing_norm(element)
            _expect(norm <= found <= depth, f"ball length {found} outside [{norm}, {depth}]")
        for element, word_len in target:
            found = ball.get(element)
            _expect(
                found is not None and found <= word_len,
                f"a word of length {word_len} has ball length {found}",
            )

    digest_inputs = [(kind, sb, d, length, target) for kind, sb, d, target, length in items]
    return ItemWorkload(items, warmup, run_item, _digest(digest_inputs))


# ---------------------------------------------------------------------------
# homology: the graded norm on random automorphism pairs and block shifts

BLOCK_DIM = 2
# window blocks of the larger automorphism of a pair, with flat stretches
# around p50 and p95 as for embed; the other one has half as many blocks
WINDOW_BLOCKS = ((0.0, 8.0), (0.4, 16.0), (0.6, 16.0), (0.93, 40.0), (0.97, 40.0), (1.0, 64.0))
MAX_OFFSET = 8
# block shifts; the flat stretch at 240 holds p95 of the whole workload
SHIFT_SIZES = ((0.0, 10.0), (0.75, 240.0), (0.95, 240.0), (1.0, 400.0))


def _rank(rows: list[int]) -> int:
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
    return len(pivots)


def _random_aut(g: Any, rng: Random, blocks: int, offset: int) -> Any:
    n = blocks * BLOCK_DIM
    while True:
        rows = [rng.getrandbits(n) for _ in range(n)]
        if _rank(rows) == n:
            break
    lo = rng.randint(1 - blocks, 1)  # the window touches the 0|1 cut
    return g.GradedAut.from_rows(BLOCK_DIM, offset, lo, rows)


def make_homology(mods: SimpleNamespace, seed: int, n: int) -> ItemWorkload:
    """Pairs (g, h) with window sizes and offset sizes fixed by the schedule
    and contents, window positions and offset signs drawn by the seed,
    checked for symmetry and the triangle inequality; and pure block shifts,
    checked against d * |n|."""
    g = mods.gf2hom
    rng = Random(f"{seed}:homology")
    shifts = max(1, n // 5)
    items: list = []
    for i, size in enumerate(_schedule(n - shifts, WINDOW_BLOCKS)):
        blocks = round(size)
        offsets = [(i + k) % (MAX_OFFSET + 1) * rng.choice((1, -1)) for k in (0, 4)]
        first = _random_aut(g, rng, blocks, offsets[0])
        second = _random_aut(g, rng, max(round(WINDOW_BLOCKS[0][1]), blocks // 2), offsets[1])
        items.append(("pair", first, second))
    for size in _schedule(shifts, SHIFT_SIZES):
        items.append(("shift", g.graded_shift(round(size), BLOCK_DIM), round(size)))
    warmup = items[:WARMUP_ITEMS]
    rng.shuffle(items)

    def run_item(ops: SimpleNamespace, item: tuple) -> None:
        kind, first, second = item
        if kind == "shift":
            norm, want = ops.homology_norm(first), BLOCK_DIM * second  # second is the shift size
            _expect(norm == want, f"shift by {second}: norm {norm} != {want}")
            return
        n_first = ops.homology_norm(first)
        n_second = ops.homology_norm(second)
        n_inverse = ops.homology_norm(ops.aut_inverse(first))
        n_both = ops.homology_norm(ops.aut_compose(first, second))
        _expect(n_inverse == n_first, f"norm not symmetric: {n_inverse} != {n_first}")
        _expect(n_both <= n_first + n_second, f"triangle fails: {n_both} > {n_first} + {n_second}")

    return ItemWorkload(items, warmup, run_item, _digest(items))


# ---------------------------------------------------------------------------
# repro: `bigmcg repro all --seed <s> --json`, in process, one check per item


def make_repro(mods: SimpleNamespace, seed: int, n: int) -> ItemWorkload:
    """Each item runs one acceptance check through the CLI and returns the
    runtime the CLI reports for it.  Pass k runs the checks at CLI seed
    1000 * seed + k: how long a check takes depends on its seed, and an item's
    median over passes at several seeds moves less from one seed to the next
    than its time at one seed."""
    argv = ["repro", "all", "--json", "--seed"]
    items = list(CHECK_NAMES[:n])

    def per_pass(name: str, number: int) -> tuple[str, int]:
        return name, 1000 * seed + number

    def run_item(ops: SimpleNamespace, item: tuple[str, int]) -> float:
        name, cli_seed = item
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ops.cli_run(argv + [str(cli_seed), "--check", name])
        (result,) = json.loads(out.getvalue())
        _expect(result["name"] == name, f"asked for {name}, got {result['name']}")
        _expect(result["passed"] is True and code == 0, f"{name} at seed {cli_seed} failed: {result['detail']}")
        return float(result["seconds"])

    digest = _digest((argv, [per_pass(name, 0) for name in items]))
    return ItemWorkload(items, [per_pass("classifier_goldens", 0)], run_item, digest, per_pass)


WORKLOADS = {
    "embed": make_embed,
    "wordlen": make_wordlen,
    "homology": make_homology,
    "repro": make_repro,
}
