"""Resumption through resume plans.

A stored continuation whose resumption can only end in answer/2 gets a resume
plan at its first resumption.  A ground answer that is an instance of the
pending call then follows the plan instead of being unified.  Everything
observable must equal what an engine with no plans gives, every resumption
on the generic path: the printed solutions in order, the tables and all the
counters, also when the step budget runs out partway.
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
    # g/2 is a bridge whose continuation holds [Y], which `is` binds after
    # the resumption, so no answer binds it
    "bridge_is": (":- table t/2.\ne(1, 2).\ne(2, 3).\nt(X, Y) :- e(X, Y).\n"
                  "t(X, Y) :- g(X, Y).\ng(X, Y) :- t(X, W), Y is W + 1, Y < 5.\n",
                  "t(A, B)", ["t(1, 2)", "t(2, 3)", "t(1, 3)", "t(2, 4)", "t(1, 4)"], 5, 5),
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


@pytest.mark.parametrize("src, query, resumptions", [
    (gen_fixture("chain", 8), "path(X, Y)", 49),
    (HOP_BRIDGE, "r(X, Y)", 18),
], ids=["chain8", "hop_bridge"])
def test_resumptions_through_plans_alone(src, query, resumptions, monkeypatch):
    taken = generic_resumptions(monkeypatch)
    run(make_engine(src), [query])
    assert len(taken) == resumptions and not any(taken)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("src, query", [
    (gen_fixture("chain", 8), "path(X, Y)"),
    (read_fixture("mixed_loop.pl"), "t(A)"),
    (HOP_BRIDGE, "r(X, Y)"),
], ids=["chain8", "mixed_loop", "hop_bridge"])
def test_step_budget_runs_out_where_it_does_without_plans(src, query, mode):
    # every budget up to the first that answers the query, which must also
    # answer it without plans
    budget = 0
    while any(line.startswith("ResourceLimitError")
              for out in same_without_plans(src, [query], mode, budget)[:2] for line in out):
        budget += 1
    assert budget >= 8
