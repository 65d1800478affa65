"""Resumption through resume plans.

A stored continuation gets a resume plan at its first resumption when every
clause it runs in place has a linear head that a ground instance of the
pending call fills without unification.  Such an answer then follows the
plan: it fills the head maps, and the guards, call(Cont) chains, answer/2
goals and machine tails run from them.  Everything observable must equal
what an engine with no plans gives, every resumption on the generic path:
the printed solutions in order, the tables and all the counters, also when
the step budget runs out partway.
"""

import dataclasses

import pytest

import cctab.tabling
from cctab import Error, Mode, gen_fixture, parse_query, print_term
from cctab.tabling import Engine

from conftest import make_engine, read_fixture
from test_behaviour_digest import fixed_programs, random_programs
from test_tabling import table_digest


def run(eng, queries, budget=None, plans=True) -> list:
    """Per query, its printed solutions in order, ended by the error it
    raised, if any; then the tables and the counters.  Without plans, the
    plan builder builds none."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        if not plans:
            mp.setattr(Engine, "_resume_plan", lambda self, term, nvars, steps: None)
        for query in queries:
            got = []
            try:
                kwargs = {} if budget is None else {"depth_budget": budget}
                for s in eng.solve(parse_query(query), **kwargs):
                    got.append(", ".join(print_term(g) for g in s.goals))
            except Error as e:
                got.append(f"{type(e).__name__}: {e}")
            out.append(got)
    return [*out, table_digest(eng), dataclasses.asdict(eng.counters)]


def same_without_plans(src, queries, mode, budget=None) -> list:
    """Run the queries cold and then again, on an engine and on one with no
    plans; assert equal results and return the engine's."""
    queries = [*queries, *queries]
    got = run(make_engine(src, mode), queries, budget)
    assert got == run(make_engine(src, mode), queries, budget, plans=False), (queries, src)
    return got


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_fixed_programs_resume_as_without_plans(mode):
    for src, queries in fixed_programs(mode):
        same_without_plans(src, queries, mode)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_differential_corpus_resumes_as_without_plans(mode):
    for src, queries in random_programs():
        same_without_plans(src, queries, mode)


def generic_resumptions(monkeypatch) -> list:
    """For each resumption from now on, whether it took the generic path:
    whether it unified anything."""
    taken = []
    unified = [0]
    real_resume = Engine._resume
    real_unify_stored = cctab.tabling.unify_stored

    def unify_stored(*args):
        unified[0] += 1
        return real_unify_stored(*args)

    def resume(self, m, stored, ans):
        before = unified[0]
        try:
            return real_resume(self, m, stored, ans)
        finally:
            taken.append(unified[0] > before)

    monkeypatch.setattr(cctab.tabling, "unify_stored", unify_stored)
    monkeypatch.setattr(Engine, "_resume", resume)
    return taken


# (program, query, its answers, how many of its resumptions take the generic
# path, of how many); the generator ids in answer/2 follow the query's
NOT_PLANNED = {
    # p(f(X), X) is not ground; p(g(1), 2) follows the plan
    "nonground": (":- table r/2.\n:- table p/2.\np(f(X), X).\np(g(1), 2).\n"
                  "r(A, B) :- p(A, B).\n", "r(A, B)", ["r(f(_G), _G)", "r(g(1), 2)"], 1, 2),
    # the pending call p(X, X) repeats a variable, and the hand-written head
    # of k does not, so only a unification can refuse the answer p(1, 2)
    "repeated": (":- table r/2.\n:- table p/2.\np(1, 1).\np(X, X) :- answer(1, p(1, 2)).\n"
                 "p(2, 2).\nr(A, B) :- slgcall(k(0, [], p(X, X), [])).\n"
                 "k(Id, [], p(A, B), []) :- answer(Id, r(A, B)).\n", "r(A, B)",
                 ["r(1, 1)", "r(2, 2)"], 3, 3),
    # the pending call p(Y, f(Y)) has a compound argument that holds a
    # variable, which equals no ground argument, so every answer is unified
    # and p(2, f(3)) is refused
    "compound": (":- table r/1.\n:- table p/2.\np(1, f(1)).\n"
                 "p(X, f(X)) :- answer(1, p(2, f(3))).\np(a, f(a)).\n"
                 "r(Y) :- slgcall(k(0, [], p(Y, f(Y)), [])).\n"
                 "k(Id, [], p(A, B), []) :- answer(Id, r(A)).\n", "r(Y)", ["r(1)", "r(a)"], 3, 3),
    # X is f(Z) in the continuation, a compound that holds a variable
    "bound_compound": (":- table t/2.\n:- table p/2.\np(1, 2).\np(3, 4).\n"
                       "t(X, Y) :- X = f(Z), p(Z, Y).\n", "t(A, B)", ["t(f(1), 2)", "t(f(3), 4)"],
                       2, 2),
    # hand-written answers to p(1, Y), generator 1, that are not instances of
    # it: a wrong constant, a wrong functor, a wrong arity; p(1, 2) is one
    "non_instance": (":- table r/1.\n:- table p/2.\np(1, Y) :- answer(1, p(2, 3)).\n"
                     "p(1, Y) :- answer(1, q(1, 3)).\np(1, Y) :- answer(1, p(1)).\n"
                     "p(1, 2).\nr(Y) :- p(1, Y).\n", "r(Y)", ["r(2)"], 3, 4),
    # the hand-written head k(Id, [], p(A, A), []) repeats a variable, so
    # only a unification can refuse the answer p(1, 2)
    "nonlinear": (":- table r/1.\n:- table p/2.\np(1, 1).\np(1, 2).\np(2, 2).\n"
                  "r(A) :- slgcall(k(0, [], p(A, B), [])).\n"
                  "k(Id, [], p(A, A), []) :- answer(Id, r(A)).\n", "r(A)", ["r(1)", "r(2)"], 3, 3),
}


@pytest.mark.parametrize("case", list(NOT_PLANNED))
def test_cases_a_plan_does_not_cover(case, monkeypatch):
    src, query, want, generic, total = NOT_PLANNED[case]
    taken = generic_resumptions(monkeypatch)
    got = same_without_plans(src, [query], Mode.GENERAL)
    assert got[0] == got[1] == want
    # the engine with plans runs first, then the one without; a re-query
    # reads the complete tables and resumes nothing
    assert len(taken) == 2 * total and (taken[:total].count(True), taken[total:]) == (
        generic, [True] * total)


# hop/2 is a bridge with no guard, so in general mode its continuation's
# call(Cont) runs the tabled clause's continuation in place, through a plan
HOP_BRIDGE = """:- table r/2.
e(1, 2).
e(2, 3).
e(3, 1).
r(X, Y) :- e(X, Y).
r(X, Y) :- hop(X, Y).
hop(X, Y) :- e(X, Z), r(Z, Y).
"""


# (program, query, its answers or None, its resumptions); every resumption
# follows a plan, and the same answers come with none
PLANNED = {
    "chain8": (gen_fixture("chain", 8), "path(X, Y)", None, 49),
    "hop_bridge": (HOP_BRIDGE, "r(X, Y)", None, 18),
    # g/2 is a bridge whose continuation holds [Y], a variable that no answer
    # binds; `is` binds it before call(Cont) runs the answer clause in place
    "bridge_is": (":- table t/2.\ne(1, 2).\ne(2, 3).\nt(X, Y) :- e(X, Y).\n"
                  "t(X, Y) :- g(X, Y).\ng(X, Y) :- t(X, W), Y is W + 1, Y < 5.\n",
                  "t(A, B)", ["t(1, 2)", "t(2, 3)", "t(1, 3)", "t(2, 4)", "t(1, 4)"], 5),
    # the bridge h/2's guard Y < 3 fails for t(2, 3) and t(3, 4)
    "guard_fails": (":- table t/2.\ne(1, 2).\ne(2, 3).\ne(3, 4).\nt(X, Y) :- e(X, Y).\n"
                    "t(X, Y) :- h(X, Y).\nh(X, Y) :- t(X, Y), Y < 3.\n",
                    "t(A, B)", ["t(1, 2)", "t(2, 3)", "t(3, 4)"], 3),
    # the answer clause's guard `is` binds its [Y], a new variable, which
    # its answer/2 then holds, so the answer is frozen
    "is_fresh": (":- table t/2.\ne(1, 2).\ne(2, 3).\nt(X, Y) :- e(X, Y).\n"
                 "t(X, Y) :- t(X, W), Y is W + 1, Y < 5.\n",
                 "t(A, B)", ["t(1, 2)", "t(2, 3)", "t(1, 3)", "t(2, 4)", "t(1, 4)"], 5),
    # the tail e(W, Y) goes to the machine, and the fact binds its new Y
    "tail_fact": (":- table t/2.\n:- table p/2.\np(1, 2).\np(2, 3).\ne(2, 5).\ne(3, 6).\n"
                  "e(3, 7).\nt(X, Y) :- p(X, W), e(W, Y).\n",
                  "t(A, B)", ["t(1, 5)", "t(2, 6)", "t(2, 7)"], 2),
    # the tail is slgcall/1 of an incomplete t/2, which suspends: the trail
    # that trail_at_suspend counts includes the binding of the new [Z]
    "tail_suspends": (":- table t/2.\ne(1, 2).\ne(2, 3).\ne(3, 1).\nt(X, Y) :- e(X, Y).\n"
                      "t(X, Z) :- h(X, Y), t(Y, Z).\nh(X, Y) :- t(X, Y), Y < 3.\n",
                      "t(A, B)", ["t(1, 2)", "t(2, 3)", "t(3, 1)", "t(1, 3)", "t(3, 2)", "t(3, 3)"],
                      14),
    # hand-written: k's [B] is met first at a depth with no guard, whose
    # call(Cont) goes on into m, and again in m, whose tail suspends; the
    # variables made for it at each depth reach trail_at_suspend
    "loose_through_call": (":- table r/2.\n:- table p/1.\n:- table q/1.\np(1).\np(2).\nq(3).\n"
                           "r(A, B) :- slgcall(k(0, [B], p(A), m(0, [B], p(A), []))).\n"
                           "k(Id, [B], p(A), Cont) :- call(Cont).\n"
                           "m(Id, [B], p(A), []) :- slgcall(n(Id, [A], q(B), [])).\n"
                           "n(Id, [A], q(B), []) :- answer(Id, r(A, B)).\n",
                           "r(A, B)", ["r(1, 3)", "r(2, 3)"], 4),
    # each answer of t/2 is stored by the machine from q/2's facts, frozen,
    # and then built again by a plan with its key's hash preset (from an
    # atom and an integer, or computed from the compound f(c)): a wrong hash
    # would store it twice
    "keys_as_frozen": (":- table t/2.\n:- table p/2.\np(a, 1).\np(b, f(c)).\np(2, g).\n"
                       "t(X, Y) :- p(X, Y).\nt(X, Y) :- q(X, Y).\n"
                       "q(a, 1).\nq(b, f(c)).\nq(2, g).\n",
                       "t(X, Y)", ["t(a, 1)", "t(b, f(c))", "t(2, g)"], 3),
    # a hand-written answer clause whose guard binds B, a variable not in its
    # head, which its answer/2 then holds
    "guard_var": (":- table r/1.\n:- table p/1.\np(1).\np(2).\n"
                  "r(B) :- slgcall(k(0, [], p(A), [])).\n"
                  "k(Id, [], p(A), []) :- B is A + 1, answer(Id, r(B)).\n",
                  "r(B)", ["r(2)", "r(3)"], 2),
}


@pytest.mark.parametrize("case", list(PLANNED))
def test_resumptions_through_plans_alone(case, monkeypatch):
    src, query, want, total = PLANNED[case]
    taken = generic_resumptions(monkeypatch)
    got = same_without_plans(src, [query], Mode.GENERAL)
    assert want is None or got[0] == got[1] == want
    # the engine with plans runs first, then the one without
    assert len(taken) == 2 * total and taken == [False] * total + [True] * total


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_without_plans_every_resumption_is_generic(mode, monkeypatch):
    # the reference the tests above compare with: were a plan left in it, they
    # would compare plans with plans
    taken = generic_resumptions(monkeypatch)
    for src, queries in fixed_programs(mode):
        run(make_engine(src, mode), queries, plans=False)
    assert len(taken) > 100 and all(taken)


# two tables in the style of the mixed benchmark workload: t0 loops through
# the bridge h0 (guard Z < 3) and reaches t1 through the bridge g0 (`is`,
# then >); t1 also calls t0
TWO_TABLES = """:- table t0/2.
:- table t1/2.
t0(X, Y) :- e0(X, Y).
t0(X, Z) :- h0(X, Y), e0(Y, Z).
h0(X, Z) :- t0(X, Z), Z < 3.
t0(X, Y) :- g0(X, Y).
g0(X, Y) :- t1(X, W), Y is W + 1, X > Y.
t1(X, Y) :- e1(X, Y).
t1(X, Y) :- t0(Y, X).
e0(1, 2).
e0(2, 3).
e1(3, 1).
"""


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("src, query", [
    (gen_fixture("chain", 8), "path(X, Y)"),
    (read_fixture("mixed_loop.pl"), "t(A)"),
    (HOP_BRIDGE, "r(X, Y)"),
    (TWO_TABLES, "t0(X, Y)"),
], ids=["chain8", "mixed_loop", "hop_bridge", "two_tables"])
def test_step_budget_runs_out_where_it_does_without_plans(src, query, mode):
    # every budget up to the first that answers the query, which must also
    # answer it without plans
    budget = 0
    while any(line.startswith("ResourceLimitError")
              for out in same_without_plans(src, [query], mode, budget)[:2] for line in out):
        budget += 1
    assert budget >= 8
