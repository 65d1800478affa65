"""Observable behaviour of the tabling engine, pinned as one digest.

The digest covers the differential test's 150 seeded programs and a set of
fixed programs (the fixture files, generated graphs and the resumption shapes
of test_tabling), each run in both modes.  For every query it takes in the
solutions in order with their bindings, or the error a query raised; after
each program it takes in every table in creation order (call, status and
answers in insertion order) and all eight counters.  A change to the engine's
hot path must leave all of it as it was.  The expected value was computed
before resumption ran in place on the generator's machine.
"""

import dataclasses
import hashlib
import random

from cctab import Error, Mode, gen_fixture, parse_program, parse_query, print_term
from cctab.tabling import COMPLETE

from conftest import make_engine, read_fixture
from test_differential import PROGRAMS, SEED, random_program
from test_tabling import HAND_WRITTEN_CONTINUATIONS, RESUMPTION_SHAPES, hand_written

EXPECTED = "f39bf9c11c0c2105"

REACH_EDGES = "edge(1, 2).\nedge(2, 3).\nedge(3, 1).\nedge(3, 4).\n"


def fixed_programs(mode):
    """(source, queries) of the programs beside the random ones."""
    yield read_fixture("mixed_loop.pl"), ["t(A)", "t(1)", "t(A)"]
    yield read_fixture("reach.pl") + REACH_EDGES, ["path(X, Y)", "path(4, Y)", "path(X, 1)"]
    yield gen_fixture("chain", 12), ["path(X, Y)", "path(3, Y)"]
    yield gen_fixture("cycle", 8), ["path(X, Y)", "path(X, 2)"]
    yield gen_fixture("grid", 3), ["path(X, Y)"]
    for src, query in RESUMPTION_SHAPES.values():
        yield src, [query, query]
    yield hand_written(HAND_WRITTEN_CONTINUATIONS, mode), ["p(A, B)"]


def random_programs():
    rng = random.Random(SEED)
    for _ in range(PROGRAMS):
        src = random_program(rng)
        tabled = sorted(p.name for p in parse_program(src).tabled)
        yield src, [q for t in tabled for q in (f"{t}(X, Y)", f"{t}(1, Y)", f"{t}(X, 2)")]


def run_program(h, src, queries, mode):
    eng = make_engine(src, mode)
    for query in queries:
        h.update(f"?- {query}\n".encode())
        try:
            for s in eng.solve(parse_query(query)):
                line = ", ".join(f"{n} = {print_term(v)}" for n, v in s.bindings.items())
                h.update(f"{line}; {print_term(s.goals[0])}\n".encode())
        except Error as e:
            h.update(f"{type(e).__name__}: {e}\n".encode())
    for e in eng.space.entries:
        done = "complete" if e.status == COMPLETE else "evaluating"
        h.update(f"{print_term(e.call)} {done}:".encode())
        for rec in e.answers:
            h.update(print_term(e.term_of(rec)).encode() + b";")
        h.update(b"\n")
    h.update(repr(dataclasses.asdict(eng.counters)).encode() + b"\n")


def behaviour_digest() -> str:
    h = hashlib.sha256()
    for mode in Mode:
        for src, queries in [*fixed_programs(mode), *random_programs()]:
            run_program(h, src, queries, mode)
    return h.hexdigest()[:16]


def test_behaviour_digest_is_pinned():
    assert behaviour_digest() == EXPECTED
