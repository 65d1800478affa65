#!/usr/bin/env python3
# Which plain predicates need their environments saved when a consumer
# suspends?  Those whose frames can sit between a tabled generator and a
# consumer: every plain predicate that some tabled predicate reaches in the
# call graph and that reaches some tabled predicate.  This demo builds the
# call graph and computes that set.
#
# Run: python demos/02_bridge_analysis.py

from cctab import build_call_graph, find_bridges, parse_program

MIXED = """\
:- table t/1.

t(A) :- p(B), A is B + 1.
t(0).

p(B) :- t(B), B < 1.
"""

REACH = """\
:- table path/2.

path(X, Z) :- edge(X, Y), path(Y, Z).
path(X, Z) :- edge(X, Z).
"""


def report(name, source):
    program = parse_program(source)
    graph = build_call_graph(program)
    print(f"--- {name} ---")
    print("call graph edges (built-ins excluded):")
    for a, b in sorted(graph.edges):
        print(f"  {a} -> {b}")
    bridges = find_bridges(program)
    shown = ", ".join(str(b) for b in sorted(bridges)) or "none"
    print(f"bridge predicates: {shown}")
    print()


# t/1 loops through the plain helper p/1: p/1 is reachable from t/1 and
# reaches t/1 back, so its frame can sit between a generator and a consumer.
report("mixed loop", MIXED)

# path/2 recurses only through itself; edge/2 never calls back, so the
# bridge set is empty and the translation adds no wrappers at all.
report("reachability", REACH)

# h/2 lies on no cycle, but t0/2 reaches it and it reaches t1/2, so a
# consumer of t1 can suspend with h's frame above it: h/2 is a bridge.
report("helper between two tabled predicates", """\
:- table t0/2.
:- table t1/2.

t0(X, Y) :- h(X, Y).
h(X, Y) :- t1(X, Y).
t1(X, Y) :- e(X, Y).
t1(X, Y) :- e(X, Z), t1(Z, Y).
e(1, 2).
""")

# The set is deliberately generous, never minimal: marking too much
# merely duplicates code.  Here helper/1 is marked although a human can see
# the loop never runs.
OVERMARK = MIXED + "\nt(X) :- helper(X).\nhelper(X) :- t(X), fail.\n"
print("over-approximation example:",
      ", ".join(str(b) for b in sorted(find_bridges(parse_program(OVERMARK)))))
