"""Command line front end.

Each command group loads its model module on first use: `qinf` and `shark`
load with this module, since the shared sequence and element parsers need
them, while `hom` loads `gf2hom`, `ends` loads `endspace` and `repro` loads
`acceptance` inside the commands that run them.  So the parser does not list
the builtin table names or the check names; the library's own lookups refuse
an unknown one.

Exit codes: 0 success, 1 validation or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from . import qinf, shark

if TYPE_CHECKING:
    from . import endspace

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_ERROR = 1


def _parse_int_list(text: str, what: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse {what} {text!r}: use comma-separated integers")


def _parse_seq(text: str) -> qinf.BinarySeq:
    return qinf.BinarySeq.from_indices(_parse_int_list(text, "sequence"))


def _load_json(path: str) -> object:
    try:
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path} is not valid JSON: {err}")
    except RecursionError:
        raise ValueError(f"{path} is nested too deeply to read")
    except (OSError, ValueError) as err:
        # ValueError: bytes that are not UTF-8, or an integer over Python's digit limit
        raise ValueError(f"cannot read {path}: {err}")


def _emit(doc: object) -> None:
    print(json.dumps(doc, indent=2, ensure_ascii=False))


def _print_value(args: argparse.Namespace, key: str, value: object) -> None:
    if args.json:
        _emit({key: value})
    else:
        print(value)


def _load_perm(args: argparse.Namespace) -> shark.EndPerm:
    if args.perm is not None and (args.a is not None or args.b is not None):
        raise ValueError("give either --perm FILE or --a SEQ [--b SEQ], not both")
    if args.perm:
        return shark.endperm_from_json(_load_json(args.perm))
    if args.a is not None and args.b is not None:
        a, b = _parse_seq(args.a), _parse_seq(args.b)
        return shark.compose(shark.inverse(shark.phi(b)), shark.phi(a))
    if args.a is not None:
        return shark.phi(_parse_seq(args.a))
    raise ValueError("give either --perm FILE or --a SEQ [--b SEQ]")


def _cmd_qinf_dist(args: argparse.Namespace) -> int:
    a, b = _parse_seq(args.a), _parse_seq(args.b)
    _print_value(args, "distance", qinf.l1_distance(a, b))
    return EXIT_OK


def _cmd_qinf_embed(args: argparse.Namespace) -> int:
    point = _parse_int_list(args.point, "point")
    if args.primes is not None:
        primes = _parse_int_list(args.primes, "primes")
    else:
        primes = list(qinf.first_odd_primes(len(point)))
    seq = qinf.zn_embed(primes, point)
    if args.json:
        _emit(seq.to_json())
    else:
        print(",".join(str(i) for i in seq.ones))
    return EXIT_OK


def _cmd_shark_phi(args: argparse.Namespace) -> int:
    perm = shark.phi(_parse_seq(args.a))
    if args.json:
        _emit(shark.endperm_to_json(perm))
    else:
        print(shark.format_endperm(perm))
    return EXIT_OK


def _cmd_shark_norm(args: argparse.Namespace) -> int:
    _print_value(args, "crossing_norm", shark.crossing_norm(_load_perm(args)))
    return EXIT_OK


def _cmd_shark_dist(args: argparse.Namespace) -> int:
    a, b = _parse_seq(args.a), _parse_seq(args.b)
    diff = shark.compose(shark.inverse(shark.phi(b)), shark.phi(a))
    norm = shark.crossing_norm(diff)
    word = shark.witness_factorization(diff)
    length = shark.word_length(diff).cost
    if args.json:
        _emit(
            {
                "crossing_norm": norm,
                "witness_cost": word.cost,
                "witness_bound": norm + 3,
                "word_length": length,
            }
        )
    else:
        print(f"crossing norm: {norm}")
        print(f"witness cost: {word.cost} (bound {norm + 3})")
        print(f"word length: {length}")
    return EXIT_OK


def _cmd_shark_witness(args: argparse.Namespace) -> int:
    perm = _load_perm(args)
    word = shark.witness_factorization(perm)
    if args.json:
        _emit(shark.genword_to_json(word))
    else:
        if not word.letters:
            print("empty word (identity)")
        for letter in word.letters:
            if isinstance(letter, shark.Shift):
                print(f"shift {letter.step:+d}")
            else:
                print("reshuffle:")
                for line in shark.format_endperm(letter.perm).splitlines():
                    print(f"  {line}")
    return EXIT_OK


def _cmd_shark_wordlen(args: argparse.Namespace) -> int:
    _print_value(args, "word_length", shark.word_length(_load_perm(args)).cost)
    return EXIT_OK


def _cmd_hom_norm(args: argparse.Namespace) -> int:
    from . import gf2hom

    aut = gf2hom.gradedaut_from_json(_load_json(args.aut))
    _print_value(args, "homology_norm", gf2hom.homology_norm(aut))
    return EXIT_OK


def _cmd_hom_shiftnorm(args: argparse.Namespace) -> int:
    from . import gf2hom

    aut = gf2hom.graded_shift(args.n, args.block_dim)
    _print_value(args, "homology_norm", gf2hom.homology_norm(aut))
    return EXIT_OK


def _load_table(args: argparse.Namespace) -> endspace.EndClassTable:
    from . import endspace

    if args.builtin is not None and args.table is not None:
        raise ValueError("give either --table FILE or --builtin NAME, not both")
    if args.builtin:
        return endspace.compile_builtin(args.builtin)
    if args.table:
        return endspace.table_from_json(_load_json(args.table))
    raise ValueError("give either --table FILE or --builtin NAME")


def _cmd_ends_validate(args: argparse.Namespace) -> int:
    from . import endspace

    table = _load_table(args)
    report = endspace.validate_table(table)
    if args.json:
        _emit(endspace.report_to_json(report))
    elif report.ok:
        print("ok")
    else:
        for violation in report.violations:
            print(f"violation [{violation.rule}]: {violation.detail}")
    return EXIT_OK if report.ok else EXIT_ERROR


def _format_split(label: str, w: endspace.EssentialWitness) -> str:
    what = f"class {w.class_id}" if w.mode == "class" else "genus"
    return f"{label}: {what} split, X={{{', '.join(w.side_x)}}} Y={{{', '.join(w.side_y)}}}"


def _cmd_ends_essential(args: argparse.Namespace) -> int:
    from . import endspace

    table = _load_table(args)
    result = endspace.has_essential_shift(table)
    if args.json:
        _emit(endspace.result_to_json(result))
    else:
        print("yes" if result.two_sided else "no")
        if result.witness is not None:
            print(_format_split("witness", result.witness))
        for note in result.notes:
            print(f"note: {note}")
    return EXIT_OK


def _cmd_ends_classify(args: argparse.Namespace) -> int:
    from . import endspace

    table = _load_table(args)
    desc = endspace.descriptor_from_json(_load_json(args.shift))
    verdict = endspace.classify_shift(table, desc)
    if args.json:
        _emit(endspace.verdict_to_json(verdict))
    else:
        print("essential" if verdict.essential else "not essential")
        for w in verdict.reasons:
            print(_format_split("reason", w))
        for note in verdict.notes:
            print(f"note: {note}")
    return EXIT_OK


def _cmd_ends_builtin(args: argparse.Namespace) -> int:
    from . import endspace

    table = endspace.compile_builtin(args.name)
    _emit(endspace.table_to_json(table))
    return EXIT_OK


def _cmd_repro_all(args: argparse.Namespace) -> int:
    from . import acceptance

    known = [spec.name for spec in acceptance.CHECKS]
    names = args.check or known
    for name in names:
        if name not in known:
            raise ValueError(f"unknown check {name!r}; choose from {known}")
    results = [acceptance.run_check(name, args.seed) for name in names]
    if args.json:
        _emit(
            [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "detail": r.detail,
                    "seconds": round(r.seconds, 3),
                    "budget": r.budget,
                    "within_budget": r.within_budget,
                }
                for r in results
            ]
        )
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            mark = "FAIL" if not r.passed else "PASS" if r.within_budget else "SLOW"
            print(
                f"[{mark}] {r.name:<{width}}  {r.seconds:6.2f}s / {r.budget:4.0f}s  {r.detail}"
            )
    ok = all(r.passed and r.within_budget for r in results)
    return EXIT_OK if ok else EXIT_ERROR


# Built on the first `run` and reused: one parser per process.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigmcg",
        description="length functions, embeddings, and shift classification on finite models",
    )
    top = parser.add_subparsers(dest="group", required=True)
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true")
    perm_flags = argparse.ArgumentParser(add_help=False)
    perm_flags.add_argument("--perm", help="path to an EndPerm JSON file")
    perm_flags.add_argument("--a", help="sequence; uses phi(a), or the difference with --b")
    perm_flags.add_argument("--b")

    qinf_p = top.add_parser("qinf", help="binary sequence space").add_subparsers(
        dest="command", required=True
    )
    p = qinf_p.add_parser("dist", help="l1 distance between two sequences", parents=[json_flag])
    p.add_argument("--a", required=True, help="comma-separated 1-positions, empty for zero")
    p.add_argument("--b", required=True)
    p.set_defaults(fn=_cmd_qinf_dist)
    p = qinf_p.add_parser(
        "embed", help="embed an integer tuple along prime lines", parents=[json_flag]
    )
    p.add_argument("--point", required=True, help="comma-separated integers")
    p.add_argument("--primes", help="comma-separated odd primes (default: first odd primes)")
    p.set_defaults(fn=_cmd_qinf_embed)

    shark_p = top.add_parser("shark", help="punctured strip model").add_subparsers(
        dest="command", required=True
    )
    p = shark_p.add_parser(
        "phi", help="embed a sequence as a strip mapping class", parents=[json_flag]
    )
    p.add_argument("--a", required=True)
    p.set_defaults(fn=_cmd_shark_phi)
    shark_p.add_parser(
        "norm", help="crossing norm of an element", parents=[perm_flags, json_flag]
    ).set_defaults(fn=_cmd_shark_norm)
    p = shark_p.add_parser(
        "dist", help="distance between two embedded sequences", parents=[json_flag]
    )
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(fn=_cmd_shark_dist)
    shark_p.add_parser(
        "witness", help="explicit generator word for an element", parents=[perm_flags, json_flag]
    ).set_defaults(fn=_cmd_shark_witness)
    shark_p.add_parser(
        "wordlen", help="word length in the paper's generators", parents=[perm_flags, json_flag]
    ).set_defaults(fn=_cmd_shark_wordlen)

    hom_p = top.add_parser("hom", help="graded homology model").add_subparsers(
        dest="command", required=True
    )
    p = hom_p.add_parser(
        "norm", help="homology norm of a graded automorphism", parents=[json_flag]
    )
    p.add_argument("--aut", required=True, help="path to a GradedAut JSON file")
    p.set_defaults(fn=_cmd_hom_norm)
    p = hom_p.add_parser(
        "shiftnorm", help="homology norm of a pure block shift", parents=[json_flag]
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--block-dim", type=int, default=2, dest="block_dim")
    p.set_defaults(fn=_cmd_hom_shiftnorm)

    ends_p = top.add_parser("ends", help="end-class tables").add_subparsers(
        dest="command", required=True
    )
    for name, fn, needs_shift in (
        ("validate", _cmd_ends_validate, False),
        ("essential", _cmd_ends_essential, False),
        ("classify", _cmd_ends_classify, True),
    ):
        p = ends_p.add_parser(name, parents=[json_flag])
        p.add_argument("--table", help="path to a table JSON file")
        p.add_argument("--builtin", help="name of a builtin table")
        if needs_shift:
            p.add_argument("--shift", required=True, help="path to a shift descriptor JSON file")
        p.set_defaults(fn=fn)
    p = ends_p.add_parser("builtin", help="print a builtin table as JSON")
    p.add_argument("--name", required=True, help="name of a builtin table (see README)")
    p.set_defaults(fn=_cmd_ends_builtin)

    repro_p = top.add_parser("repro", help="acceptance checks").add_subparsers(
        dest="command", required=True
    )
    p = repro_p.add_parser(
        "all", help="run the acceptance checks and print a table", parents=[json_flag]
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--check",
        action="append",
        help="run only the named check (repeatable; names in README)",
    )
    p.set_defaults(fn=_cmd_repro_all)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_err:
        # argparse exits 2 on bad usage; fold that into the error code
        return EXIT_OK if exit_err.code == 0 else EXIT_ERROR
    try:
        return args.fn(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())
