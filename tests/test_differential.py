"""Seeded differential test: random programs with bridges against the oracle.

Each program has 1-3 tabled predicates tI/2 and 1-3 plain helpers hJ/2 over
e/2 facts on at most 6 nodes, and each clause body makes one to three calls,
chained through fresh variables, so a resumed continuation may have one or
two more continuations after it.  Four calls a body are not drawn: with four
in every body, single programs took 5-7 s, because duplicate derivations
through helpers multiply with every call, and this test should stay near 10 s.
Tabled clauses call e/2, tabled predicates and helpers; helpers call only
e/2 and tabled predicates, never another helper, so every SLD path between
two tabled calls is finite and every program terminates.  Bodies mix in
comparison guards, `W is Z mod n + 1` and `Y = Z`, always over variables an
earlier goal has bound, so every clause is range-restricted and the
bottom-up oracle applies.

Properties checked for the queries tI(X, Y), tI(1, Y) and tI(X, 2):
  * general-mode answers equal the oracle's (compare_answer_sets);
  * a re-query gives the same answers with no new slg_ resolutions;
  * legacy-mode answers are a subset of the general-mode ones;
  * the general translation run under the original scheme's read policy
    (reads_incomplete) gives the same solutions, in the same order, and the
    same counters as under its own, after every query and re-query: the
    complete translation needs only the original scheme's runtime support;
  * no query raises: find_bridges marks every helper that a tabled
    predicate reaches and that reaches a tabled predicate, so general and
    legacy mode both answer every query.
"""

import random
from dataclasses import replace

from cctab import (
    Engine,
    Mode,
    bottom_up_eval,
    compare_answer_sets,
    find_bridges,
    parse_program,
    parse_query,
    print_term,
    translate,
)
from cctab.oracle import oracle_answers_for
from cctab.terms import pred_of

from conftest import make_engine

SEED = 20091
PROGRAMS = 150
GUARDS = ("<", ">", "=<", "\\=")


def random_clause(rng, head, callees, n):
    """One range-restricted clause head(X, Y) :- ... making one to three calls,
    chained through fresh variables (X to Z, Z or W to V, then on to Y).

    Helpers are not tabled, so their duplicate derivations multiply through
    every call after them; three calls a body keep the derivation counts small.
    """
    body = [f"{rng.choice(callees)}(X, Z)"]
    bound = ["X", "Z"]
    if rng.random() < 0.4:
        a, b = rng.sample(bound, 2)
        body.append(f"{a} {rng.choice(GUARDS)} {b}")
    elif rng.random() < 0.4:
        body.append(f"W is Z mod {n} + 1")
        bound.append("W")
    if rng.random() < 0.4:
        body.append(f"{rng.choice(callees)}({rng.choice(bound[1:])}, V)")
        bound.append("V")
    last = rng.choice(bound[1:])
    if rng.random() < 0.25:
        body.append(f"Y = {last}")
    else:
        body.append(f"{rng.choice(callees)}({last}, Y)")
    if rng.random() < 0.2:
        body.append(f"{rng.choice(bound)} {rng.choice(GUARDS)} Y")
    return f"{head}(X, Y) :- {', '.join(body)}."


def random_program(rng) -> str:
    n = rng.randint(2, 6)
    tabled = [f"t{i}" for i in range(rng.randint(1, 3))]
    helpers = [f"h{j}" for j in range(rng.randint(1, 3))]
    lines = [f":- table {t}/2." for t in tabled]
    edges = {(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(1, 2 * n))}
    lines += [f"e({a}, {b})." for a, b in sorted(edges)]
    # e/2 listed twice: a base call is as likely as any one other callee
    for t in tabled:
        for _ in range(rng.randint(1, 3)):
            lines.append(random_clause(rng, t, ["e", "e"] + tabled + helpers, n))
    for h in helpers:
        for _ in range(rng.randint(1, 2)):
            lines.append(random_clause(rng, h, ["e", "e"] + tabled, n))
    return "\n".join(lines) + "\n"


def printed(engine, goal):
    return [print_term(s.goals[0]) for s in engine.solve([goal])]


def check_program(src: str) -> None:
    """Asserts the properties for every query of one program."""
    program = parse_program(src)
    facts = bottom_up_eval(program)
    general = make_engine(src)
    legacy = make_engine(src, Mode.LEGACY)
    original = Engine(replace(translate(program, Mode.GENERAL), reads_incomplete=True))
    for t in sorted(p.name for p in program.tabled):
        for query in (f"{t}(X, Y)", f"{t}(1, Y)", f"{t}(X, 2)"):
            (goal,) = parse_query(query)
            got = printed(general, goal)
            equal, missing, extra = compare_answer_sets(general.space, facts, pred_of(goal), goal)
            assert equal, f"{query}: missing {missing}, extra {extra}\n{src}"
            want = sorted(print_term(f) for f in oracle_answers_for(facts, goal))
            assert sorted(got) == want, f"{query}: solutions differ from the table\n{src}"
            assert printed(original, goal) == got, f"{query}: original scheme differs\n{src}"
            assert original.counters == general.counters, f"{query}: original scheme\n{src}"
            before = general.counters.slg_resolutions
            assert printed(general, goal) == got, f"{query}: re-query differs\n{src}"
            assert general.counters.slg_resolutions == before, f"{query}: re-query resolved\n{src}"
            assert printed(original, goal) == got, f"{query}: original re-query differs\n{src}"
            assert original.counters == general.counters, f"{query}: original re-query\n{src}"
            lost = set(printed(legacy, goal)) - set(got)
            assert not lost, f"legacy {query}: answers beyond general mode {lost}\n{src}"


def test_random_programs_with_bridges_match_the_oracle():
    rng = random.Random(SEED)
    with_bridges = 0
    for _ in range(PROGRAMS):
        src = random_program(rng)
        with_bridges += bool(find_bridges(parse_program(src)))
        check_program(src)
    # the generator must exercise bridges
    assert with_bridges >= PROGRAMS // 3
