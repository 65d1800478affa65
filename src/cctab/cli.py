"""Command-line front end.

Pipeline: parse -> translate (which adds the computed bridges to the declared
ones in general mode) -> run the query under tabling -> print answers one per
line in table order, then optional stats / oracle-comparison lines.

Exit status: 0 on success, 1 when --oracle-check finds a mismatch, 2 on any
file, parse or runtime error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .engine import DEFAULT_BUDGET
from .errors import Error
from .fixtures import gen_fixture
from .oracle import bottom_up_eval, compare_answer_sets
from .syntax import parse_program, parse_query, print_program, print_term
from .tabling import Engine
from .terms import pred_of
from .translate import Mode, effective_bridges, translate


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cctab",
        description="Tabled evaluation of a Prolog subset via continuation-call translation.",
    )
    ap.add_argument("file", nargs="?", help="program file (omit when using --gen)")
    ap.add_argument("--query", help="goal to run, e.g. 'path(1, X)'")
    ap.add_argument(
        "--mode",
        choices=["general", "legacy"],
        default="general",
        help="translation mode (default: general)",
    )
    ap.add_argument(
        "--translate-only",
        action="store_true",
        help="print the translated program and exit (no query execution)",
    )
    ap.add_argument(
        "--show-bridges",
        action="store_true",
        help="print the effective bridge set, one name/arity per line, sorted",
    )
    ap.add_argument("--stats", action="store_true", help="print tabling counters after the query")
    ap.add_argument(
        "--oracle-check",
        action="store_true",
        help="compare the query's answer set against the bottom-up oracle",
    )
    ap.add_argument(
        "--depth",
        type=int,
        default=DEFAULT_BUDGET,
        metavar="N",
        help=f"resolution step budget (default {DEFAULT_BUDGET})",
    )
    ap.add_argument(
        "--gen",
        metavar="KIND:SIZE",
        help="generate a fixture program instead of reading a file (chain|cycle|grid)",
    )
    return ap


def _load_source(args) -> str:
    if args.gen:
        kind, sep, size = args.gen.partition(":")
        if not sep or not size.isdigit():
            raise Error(f"--gen expects KIND:SIZE, got {args.gen!r}")
        try:
            return gen_fixture(kind, int(size))
        except ValueError as e:
            raise Error(f"--gen: {e}") from None
    with open(args.file, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise Error(f"{args.file}: byte {e.start} is not UTF-8 ({e.reason})") from None
    # line breaks as a file opened in text mode reads them
    return text.replace("\r\n", "\n").replace("\r", "\n")


def run(args) -> int:
    if args.gen and args.file:
        raise Error("give either a program file or --gen, not both")
    if not args.gen and not args.file:
        raise Error("no program: give a file or --gen KIND:SIZE")
    if args.translate_only and args.query is not None:
        raise Error("--translate-only excludes query execution")
    if args.oracle_check and args.query is None:
        raise Error("--oracle-check needs --query")

    mode = Mode(args.mode)
    program = parse_program(_load_source(args))

    if args.show_bridges:
        for pred in sorted(effective_bridges(program, mode)):
            print(pred)

    translated = translate(program, mode)
    if args.translate_only:
        sys.stdout.write(print_program(translated))
        return 0
    if args.query is None:
        return 0

    goals = parse_query(args.query)
    if args.oracle_check and len(goals) != 1:
        raise Error("--oracle-check needs a single-goal query")
    if args.oracle_check and pred_of(goals[0]) not in program.tabled:
        raise Error(f"--oracle-check needs a tabled predicate, not {print_term(goals[0])}")
    engine = Engine(translated)
    for solution in engine.solve(goals, depth_budget=args.depth):
        print(", ".join(print_term(g) for g in solution.goals))
    if args.stats:
        print(engine.counters.stats_line())
    if args.oracle_check:
        facts = bottom_up_eval(program)
        equal, missing, extra = compare_answer_sets(
            engine.space, facts, pred_of(goals[0]), call=goals[0]
        )
        if equal:
            print("OK")
        else:
            for t in missing:
                print(f"missing: {print_term(t)}")
            for t in extra:
                print(f"extra: {print_term(t)}")
            return 1
    return 0


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s: %(message)s")
    args = build_arg_parser().parse_args(argv)
    try:
        return run(args)
    except (Error, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
