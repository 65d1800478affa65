"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; under default capture they appear in the captured-output section.
"""

import random
import time
from contextlib import contextmanager

from cctab import (
    Mode,
    PredId,
    bottom_up_eval,
    compare_answer_sets,
    find_bridges,
    gen_fixture,
    parse_program,
    parse_query,
    print_program,
    print_term,
    translate,
)
from cctab.tabling import Engine

from conftest import answers, make_engine, read_fixture, read_golden


@contextmanager
def criterion(n, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_golden_translation():
    with criterion(1, "golden translation"):
        t0 = time.time()
        mixed = parse_program(read_fixture("mixed_loop.pl"))
        general_out = print_program(translate(mixed, Mode.GENERAL))
        assert general_out == read_golden("mixed_loop.general.pl")
        reach = parse_program(read_fixture("reach.pl"))
        legacy_out = print_program(translate(reach, Mode.LEGACY))
        assert legacy_out == read_golden("reach.legacy.pl")
        assert time.time() - t0 < 1.0


def test_criterion_2_lost_answer_regression():
    with criterion(2, "lost-answer regression"):
        src = read_fixture("mixed_loop.pl")
        assert set(answers(make_engine(src), "t(A)")) == {"t(0)", "t(1)"}
        assert set(answers(make_engine(src, Mode.LEGACY), "t(A)")) == {"t(0)"}


def test_criterion_3_bridge_detection():
    with criterion(3, "bridge detection"):
        assert find_bridges(parse_program(read_fixture("mixed_loop.pl"))) == {PredId("p", 1)}
        assert find_bridges(parse_program(read_fixture("reach.pl"))) == set()


def test_criterion_4_cycle_termination():
    with criterion(4, "termination on cycles"):
        for size in (3, 10, 100):
            nodes = size + 1
            src = gen_fixture("cycle", size)
            eng = make_engine(src)
            t0 = time.time()
            got = answers(eng, "path(X, Y)")
            elapsed = time.time() - t0
            assert len(got) == len(set(got)) == nodes * nodes
            facts = bottom_up_eval(parse_program(src))
            equal, missing, extra = compare_answer_sets(
                eng.space, facts, PredId("path", 2), call=parse_query("path(X, Y)")[0]
            )
            assert equal, (missing, extra)
            if size == 100:
                assert elapsed < 10.0, f"cycle-100 took {elapsed:.1f}s"


def test_criterion_5_randomized_oracle_equivalence():
    with criterion(5, "randomized oracle equivalence"):
        t0 = time.time()
        rng = random.Random(20260810)
        base = read_fixture("reach.pl")
        for trial in range(100):
            n = rng.randint(1, 12)
            edges = [
                (i, j) for i in range(1, n + 1) for j in range(1, n + 1) if rng.random() < 0.3
            ]
            src = base + "".join(f"edge({a}, {b}).\n" for a, b in edges)
            if not edges:
                src += "edge(1, 1).\n"  # keep edge/2 defined
            eng = make_engine(src)
            call = parse_query("path(X, Y)")[0]
            list(eng.solve(call))
            equal, missing, extra = compare_answer_sets(
                eng.space, bottom_up_eval(parse_program(src)), PredId("path", 2), call=call
            )
            assert equal, (trial, missing, extra)
        assert time.time() - t0 < 60.0


def test_criterion_6_suspension_once_counter():
    with criterion(6, "suspension-once counter"):
        fixtures = [
            read_fixture("mixed_loop.pl"),
            gen_fixture("cycle", 3),
            gen_fixture("cycle", 10),
            gen_fixture("chain", 8),
            gen_fixture("grid", 3),
        ]
        for src in fixtures:
            eng = make_engine(src)
            query = "t(A)" if ":- table t/1." in src else "path(X, Y)"
            list(eng.solve(parse_query(query)))
            assert eng.counters.suspensions == sum(
                e.suspension_total for e in eng.space.entries
            )
        eng = make_engine(read_fixture("mixed_loop.pl"))
        list(eng.solve(parse_query("t(A)")))
        assert eng.counters.suspensions == 1
        assert eng.counters.resumptions == 2


def test_criterion_7_completion_purity():
    with criterion(7, "completion purity"):
        for src, query in [
            (read_fixture("mixed_loop.pl"), "t(A)"),
            (gen_fixture("cycle", 4), "path(X, Y)"),
        ]:
            eng = make_engine(src)
            first = answers(eng, query)
            snap = eng.counters.snapshot()
            second = answers(eng, query)
            assert first == second
            assert eng.counters.slg_resolutions == snap.slg_resolutions


def test_criterion_8_identity_translation():
    with criterion(8, "identity translation"):
        rng = random.Random(42)
        lines = []
        preds = ["alpha", "beta", "gamma", "delta"]
        for i in range(50):
            p = rng.choice(preds)
            if i % 3 == 0:
                lines.append(f"{p}({i}).")
            else:
                lines.append(f"{p}(X) :- {rng.choice(preds)}(X).")
        program = parse_program("\n".join(lines) + "\n")
        assert len(program.clauses) == 50
        for mode in (Mode.GENERAL, Mode.LEGACY):
            out = translate(program, mode)
            assert out.clauses == program.clauses
            assert out.tabled == program.tabled and out.bridges == program.bridges


def test_criterion_9_chain_benchmark():
    with criterion(9, "chain benchmark"):
        src = gen_fixture("chain", 512)
        eng = make_engine(src)
        t0 = time.time()
        count = sum(1 for _ in eng.solve(parse_query("path(X, Y)")))
        elapsed = time.time() - t0
        assert count == 512 * 513 // 2 == 131328
        assert elapsed < 30.0, f"chain-512 took {elapsed:.1f}s"
