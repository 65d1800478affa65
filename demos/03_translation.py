#!/usr/bin/env python3
# The source-to-source translation, in both modes.
#
# The legacy translation instruments tabled calls only when they occur
# directly inside a tabled clause.  The general translation additionally
# duplicates every bridge clause as a wrapper that threads a continuation
# argument, so suspension can capture the whole frame chain between a
# consumer and its generator.
#
# Run: python demos/03_translation.py

from cctab import Mode, parse_program, print_program, translate

MIXED = """\
:- table t/1.

t(A) :- p(B), A is B + 1.
t(0).

p(B) :- t(B), B < 1.
"""

program = parse_program(MIXED)

print("=== legacy mode (bridge declarations ignored) ===")
print(print_program(translate(program, Mode.LEGACY)))
# Note the problem: p/1 is untouched, so the tabled call inside it reaches
# slg/1 with no continuation to save.  Everything after that call in the
# suspended branch is unrecoverable.

# The general translation runs the bridge analysis itself: p/1 lies between
# t/1 and t/1 on a call path, so it becomes a bridge without a declaration.
print("=== general mode (p/1 marked as a bridge) ===")
print(print_program(translate(program, Mode.GENERAL)))
# p/1 is kept verbatim for callers outside tabled execution, and p_bridge/3
# carries the pending continuation:
#   - slg_t passes slg_t0(Id, [A], p(B), []) into p_bridge;
#   - p_bridge suspends via slgcall with p_bridge0(..., Cont) whose last
#     slot is that outer continuation;
#   - on resumption p_bridge0 runs "B < 1" and then call/1 invokes the
#     outer continuation, rebuilding the whole suspended environment.

print("=== identity on undeclared programs ===")
plain = parse_program("a(1).\nb(X) :- a(X).\n")
for mode in Mode:
    # the same clauses; the output records only the mode's read policy
    out = translate(plain, mode)
    assert out.clauses is plain.clauses and out.reads_incomplete is (mode is Mode.LEGACY)
print("a program with no declarations translates to itself in both modes")
