#!/usr/bin/env python3
# The lost-answer regression, end to end.
#
# Query t(A) over:
#
#     :- table t/1.
#     t(A) :- p(B), A is B + 1.
#     t(0).
#     p(B) :- t(B), B < 1.
#
# Declaratively t(0) and t(1) both hold.  Under the legacy translation the
# tabled call inside p/1 suspends with nothing saved, so "B < 1, A is B + 1,
# answer(...)" is gone when t(0) finally arrives: t(1) is never derived.
# The general translation saves that frame chain and finds both.
#
# Run: python demos/04_lost_answers.py

from cctab import (
    Engine,
    Mode,
    PredId,
    bottom_up_eval,
    compare_answer_sets,
    parse_program,
    parse_query,
    print_term,
    translate,
)

SOURCE = """\
:- table t/1.

t(A) :- p(B), A is B + 1.
t(0).

p(B) :- t(B), B < 1.
"""

program = parse_program(SOURCE)
facts = bottom_up_eval(program)
print("declarative truth (bottom-up fixpoint):",
      sorted(print_term(t) for t in facts[PredId("t", 1)]))

for mode in (Mode.LEGACY, Mode.GENERAL):
    # general mode marks p/1 as a bridge itself; legacy mode ignores bridges
    engine = Engine(translate(program, mode))
    got = [print_term(s.goals[0]) for s in engine.solve(parse_query("t(A)"))]
    equal, missing, _ = compare_answer_sets(engine.space, facts, PredId("t", 1))
    verdict = "complete" if equal else f"missing {[print_term(t) for t in missing]}"
    print(f"{mode.value:8} mode answers: {got}  ->  {verdict}")
    if mode is Mode.GENERAL:
        c = engine.counters
        print(f"         one consumer suspended, resumed once per answer: "
              f"suspensions={c.suspensions} resumptions={c.resumptions}")
