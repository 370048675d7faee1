#!/usr/bin/env python3
"""Survey the exact word-length ball of the reshuffles of [-W, W], W <= 4,
and the unit shifts.

Enumerates every element within the depth bound, prints the layer sizes,
and cross-tabulates word length against crossing norm.  The crossing
norm is a lower bound for word length (each generator crosses at most
once); the table shows how often the bound is attained and how large the
gap gets.
"""

import argparse
from collections import Counter

from bigmcg import shark


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--support-bound", type=int, default=2)
    parser.add_argument("--depth", type=int, default=4)
    args = parser.parse_args()

    try:
        ball = shark.word_ball(args.support_bound, args.depth)
    except ValueError as err:
        parser.error(str(err))
    layers = Counter(ball.values())
    alphabet = len(shark.side_preserving_alphabet(args.support_bound)) + 2

    print(f"alphabet: {alphabet} generators (support bound {args.support_bound})")
    print(f"ball size at depth {args.depth}: {len(ball)}")
    for depth in sorted(layers):
        print(f"  layer {depth}: {layers[depth]} elements")

    table: Counter = Counter()
    for perm, length in ball.items():
        table[(length, shark.crossing_norm(perm))] += 1

    max_norm = max((norm for _, norm in table), default=0)
    header = "  ".join(f"norm{n:>2}" for n in range(max_norm + 1))
    print(f"\n{'len':>4}  {header}  tight")
    for depth in sorted(layers):
        row = [table.get((depth, n), 0) for n in range(max_norm + 1)]
        tight = table.get((depth, depth), 0)
        cells = "  ".join(f"{c:>6}" for c in row)
        print(f"{depth:>4}  {cells}  {tight:>5}")

    gaps = Counter(length - norm for (length, norm), c in table.items() for _ in range(c))
    print("\nword length minus crossing norm:")
    for gap in sorted(gaps):
        print(f"  gap {gap}: {gaps[gap]} elements")


if __name__ == "__main__":
    main()
