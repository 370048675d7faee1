"""The real-size guards: each row runs `python -m bigmcg` in a child process under a
2,000,000 KB address-space limit and a timeout, so a refusal that starts to build a huge
window, or an answer that outgrows the limit, fails here even where in-process tests pass."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from bigmcg.endspace import _CANTOR_NOTE, table_to_json

from strategies import row_product, unit_triangular, wide_table

SRC = Path(__file__).resolve().parents[1] / "src"
LIMIT_BYTES = 2_000_000 * 1024
FAR = 10**9


def twist(offset, at):
    """The swap of the labels `at` and `at + 1`, then the shift by `offset`."""
    images = {str(at): at + 1 + offset, str(at + 1): at + offset}
    return {"offset": offset, "window": [at, at + 1], "images": images}


def split_window():
    """A 128-block window, block-diagonal across the 0|1 cut, each half a product of random
    unit lower and upper triangular matrices: the shift by 3 after a split map, of norm 2 * 3."""
    rng = Random(0)
    lower, upper = [row_product(*(unit_triangular(rng, 128, low) for low in (True, False)))
                    for _ in range(2)]
    rows = lower + [r << 128 for r in upper]
    matrix = [[r >> c & 1 for c in range(256)] for r in rows]
    return {"block_dim": 2, "offset": 3, "window": [-63, 64], "matrix": matrix}


NO_SPLIT = {"has_essential_shift": False, "witness": None, "notes": [_CANTOR_NOTE]}
FAR_TWIST_WITNESS = f"reshuffle:\n  i      | {FAR}  {FAR + 1}\n  maps to| {FAR + 1}  {FAR}\n"
FAR_TWIST_WITNESS += "  i -> i elsewhere"
DIST_TEN_ONES = {"crossing_norm": 12, "witness_cost": 15, "witness_bound": 15, "word_length": 13}
TEN_ONES = "--a 3,9,27,81,243,729,2187,6561,19683,59049 --b 6,18"
WORDLEN, WITNESS = "shark wordlen --perm {doc}", "shark witness --perm {doc}"
ESSENTIAL = "ends essential --table {doc} --json"

# name: (argv, document, exit code, stdout (None: unchecked) or part of the `error:` line,
# timeout in s).  `{doc}` names a file that holds the document, called first if callable,
# as it is if text and as JSON if not.
ROWS = {
    "wordlen_phi": ("shark wordlen --a 3", None, 0, "2", 60),
    "phi_1e5": ("shark phi --a 100000 --json", None, 0, None, 60),
    "phi_3_pow_20": ("shark phi --a 3486784401", None, 1, "above 1000000 are refused", 10),
    "big_prime": ("qinf embed --point 1 --primes 1000000000000000003", None, 1, "2147483648", 10),
    "far_coordinate": ("qinf embed --point 200000", None, 1, "exceeds 14000 bits", 10),
    "wide_point": ("qinf embed --point 7000,4666,4666,3500,3500,2800", None, 1, "134217728", 10),
    "witness_far_shift": (WITNESS, {"offset": FAR}, 1, "above 2000000 it is refused", 10),
    "deep_json": ("shark norm --perm {doc}", "[" * 100_000 + "\n", 1, "nested too deeply", 10),
    "witness_shift": (
        "shark witness --json --perm {doc}", {"offset": 10**6}, 0, [{"shift": 10**6}], 20
    ),
    "hom_256_rows": ("hom norm --json --aut {doc}", split_window, 0, {"homology_norm": 6}, 20),
    "wordlen_twist": (WORDLEN, twist(0, 7), 0, "1", 60),
    "wordlen_shifted_twist": (WORDLEN, twist(10**6, 7), 0, "1000001", 20),
    "wordlen_far_twist": (WORDLEN, twist(0, FAR), 0, "1", 20),
    "witness_far_twist": (WITNESS, twist(0, FAR), 0, FAR_TWIST_WITNESS, 20),
    "wordlen_far_shifted_twist": (WORDLEN, twist(FAR, 7), 0, str(FAR + 1), 20),
    "dist_ten_ones": (f"shark dist {TEN_ONES} --json", None, 0, DIST_TEN_ONES, 60),
    "pieces_1000": (ESSENTIAL, lambda: table_to_json(wide_table(1000, 4)), 0, NO_SPLIT, 20),
    "classes_20000": (ESSENTIAL, lambda: table_to_json(wide_table(20, 20_000)), 0, NO_SPLIT, 20),
}


@pytest.mark.parametrize("argv, doc, code, expected, timeout", ROWS.values(), ids=ROWS.keys())
def test_real_size(tmp_path, argv, doc, code, expected, timeout):
    path = tmp_path / "doc.json"
    doc = doc() if callable(doc) else doc
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "bigmcg", *(arg.format(doc=path) for arg in argv.split())],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES)),
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stdout == "" and proc.stderr.startswith("error: "), proc.stderr
        assert expected in proc.stderr
    elif expected is not None:
        assert proc.stderr == ""
        out = json.loads(proc.stdout) if "--json" in argv else proc.stdout.rstrip("\n")
        assert out == expected
