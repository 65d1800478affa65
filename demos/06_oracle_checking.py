#!/usr/bin/env python3
# The bottom-up evaluator is an independent oracle: it computes the least
# fixpoint by naive iteration, with none of the machinery being tested
# (no translation, no suspension, no tables).  Agreement between the two
# evaluators on terminating programs is the central correctness property.
#
# Run: python demos/06_oracle_checking.py

import random

from cctab import (
    Engine,
    Mode,
    PredId,
    bottom_up_eval,
    compare_answer_sets,
    parse_program,
    parse_query,
    translate,
)

RULES = """\
:- table path/2.

path(X, Z) :- edge(X, Y), path(Y, Z).
path(X, Z) :- edge(X, Z).
"""

rng = random.Random(4)
checked = 0
for trial in range(25):
    n = rng.randint(2, 10)
    edges = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
             if rng.random() < 0.3] or [(1, 1)]
    source = RULES + "".join(f"edge({a}, {b}).\n" for a, b in edges)
    program = parse_program(source)

    engine = Engine(translate(program, Mode.GENERAL))
    query = parse_query("path(X, Y)")[0]
    engine_count = sum(1 for _ in engine.solve(query))

    facts = bottom_up_eval(program)
    equal, missing, extra = compare_answer_sets(
        engine.space, facts, PredId("path", 2), call=query
    )
    assert equal, (missing, extra)
    checked += engine_count

print(f"25 random graphs, {checked} answers total: engine and oracle agree on all")

# The oracle also rejects programs it cannot evaluate soundly.
from cctab import RangeRestrictionError

try:
    bottom_up_eval(parse_program("ghost(X) :- anything(Y).\nanything(1).\n"))
except RangeRestrictionError as e:
    print(f"non-range-restricted clause rejected: {e}")
