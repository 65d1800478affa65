"""Resumption through resume plans.

A stored continuation gets a resume plan at its first resumption when every
clause it runs in place has a linear head that a ground instance of the
pending call fills without unification.  Such an answer then follows the
plan: it fills the head maps, and the guards, call(Cont) chains, answer/2
goals and machine tails run from them.  Any other resumption unifies the
answer with the pending call and hands the stored term to the machine.
Everything observable must equal what the reference, machine_resume, gives
when it resumes every continuation that way: the printed solutions in
order, the tables and all the counters, also when the step budget runs out
partway.

A continuation clause whose body ends in a fact join, a goal over ground
facts and then answer/2, runs that join in place when it follows a plan.
It must give what the machine gives when it runs those two goals.
"""

import dataclasses
import importlib

import pytest

import cctab.tabling
from cctab import Error, Mode, Struct, gen_fixture, parse_query, print_term
from cctab.engine import instantiate, unify_stored
from cctab.tabling import Engine

from conftest import HERE, answers, make_engine, read_fixture
from invariants import check
from test_behaviour_digest import fixed_programs, random_programs
from test_read_path import read_unifications, same_as_unifying_reader
from test_tabling import table_digest


def machine_resume(self, m, stored, ans):
    """The reference for Engine._resume: unify the answer with the pending
    call, then hand the stored term to the machine, which resolves it
    against its clause and runs that clause's body goal by goal."""
    store = m.store
    term = stored.term
    # a record in the table's own form: a ground answer's tuple, or its term
    ans_nvars = 0 if type(ans) is tuple else stored.table.index[ans]
    ans = stored.table.term_of(ans)
    varmap = [None] * stored.nvars
    if ans_nvars:
        # the answer is the stored side, so a variable of the continuation
        # is bound to the answer's new variable
        ok = unify_stored(instantiate(term.args[2], varmap, store), ans,
                          [None] * ans_nvars, None, store)
    else:
        ok = unify_stored(ans, term.args[2], varmap, None, store)
    if ok:
        m.goals = (instantiate(term, varmap, store), None)
    return ok


def run(eng, queries, budget=None, plans=True, joins=True) -> list:
    """Per query, its printed solutions in order, ended by the error it
    raised, if any; then the tables and the counters.  Without plans, every
    resumption is machine_resume's; without joins, every fact join is handed
    to the machine."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        if not plans:
            mp.setattr(Engine, "_resume", machine_resume)
        if not joins:
            mp.setattr(Engine, "_join", lambda self, m, clause, hmap: False)
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
    plans, which resumes through machine_resume; assert equal results and
    return the engine's."""
    queries = [*queries, *queries]
    got = run(make_engine(src, mode), queries, budget)
    assert got == run(make_engine(src, mode), queries, budget, plans=False), (queries, src)
    return got


def same_without_joins(src, queries, mode, budget=None) -> list:
    """As same_without_plans, against an engine whose fact joins all go to
    the machine."""
    queries = [*queries, *queries]
    got = run(make_engine(src, mode), queries, budget)
    assert got == run(make_engine(src, mode), queries, budget, joins=False), (queries, src)
    return got


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_fixed_programs_resume_as_without_plans(mode):
    for src, queries in fixed_programs(mode):
        same_without_plans(src, queries, mode)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_differential_corpus_resumes_as_without_plans(mode):
    for src, queries in random_programs():
        same_without_plans(src, queries, mode)


def unplanned_resumptions(monkeypatch) -> list:
    """For each resumption of the engine from now on, whether it did not
    follow a plan: whether it unified the answer with the pending call.  An
    engine with no plans replaces Engine._resume, so its resumptions are not
    recorded."""
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


# (program, query, its answers, how many of its resumptions follow no plan,
# of how many); the generator ids in answer/2 follow the query's
NOT_PLANNED = {
    # p(f(X), X) is not ground, so its record is its term, which is
    # unified; p(g(1), 2), a tuple after it, follows the plan
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
    # it: a wrong constant, a wrong functor, a wrong arity; each is recorded
    # as its term and unified, and p(1, 2), an instance, follows the plan
    "non_instance": (":- table r/1.\n:- table p/2.\np(1, Y) :- answer(1, p(2, 3)).\n"
                     "p(1, Y) :- answer(1, q(1, 3)).\np(1, Y) :- answer(1, p(1)).\n"
                     "p(1, 2).\nr(Y) :- p(1, Y).\n", "r(Y)", ["r(2)"], 3, 4),
    # the bridge h/1's continuation follows its plan for p(1, 2) and
    # p(1, 3), whose resumption stores p(5, 5), no instance of p(1, Z), as
    # its term: p(5, 5) is unified, and p(1, 4) follows the plan again
    "cleared_after_plan": (":- table p/2.\np(1, 2).\np(1, Y) :- h(Z), q(Z, Y).\n"
                           "h(Z) :- p(1, Z).\nq(2, 3).\nq(3, Y) :- answer(0, p(5, 5)).\n"
                           "q(3, 4).\n", "p(1, Y)", ["p(1, 2)", "p(1, 3)", "p(1, 4)"], 1, 4),
    # the hand-written head k(Id, [], p(A, A), []) repeats a variable, so
    # only a unification can refuse the answer p(1, 2)
    "nonlinear": (":- table r/1.\n:- table p/2.\np(1, 1).\np(1, 2).\np(2, 2).\n"
                  "r(A) :- slgcall(k(0, [], p(A, B), [])).\n"
                  "k(Id, [], p(A, A), []) :- answer(Id, r(A)).\n", "r(A)", ["r(1)", "r(2)"], 3, 3),
    # hand-written: the pending call p is an atom
    "atom_pending": (":- table r/1.\n:- table p/0.\np.\nr(X) :- slgcall(k(0, [], p, [])).\n"
                     "k(Id, [], p, []) :- answer(Id, r(1)).\n", "r(X)", ["r(1)"], 1, 1),
}


@pytest.mark.parametrize("case", list(NOT_PLANNED))
def test_cases_a_plan_does_not_cover(case, monkeypatch):
    src, query, want, unplanned, total = NOT_PLANNED[case]
    taken = unplanned_resumptions(monkeypatch)
    got = same_without_plans(src, [query], Mode.GENERAL)
    assert got[0] == got[1] == want
    # a re-query reads the complete tables and resumes nothing
    assert len(taken) == total and taken.count(True) == unplanned


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
    # hand-written: the atom guard true succeeds, and fail refuses every answer
    "atom_guard": (":- table r/1.\n:- table p/1.\np(1).\np(2).\n"
                   "r(A) :- slgcall(k(0, [], p(A), [])).\n"
                   "k(Id, [], p(A), []) :- true, answer(Id, r(A)).\n",
                   "r(A)", ["r(1)", "r(2)"], 2),
    "atom_guard_fails": (":- table r/1.\n:- table p/1.\np(1).\np(2).\n"
                         "r(A) :- slgcall(k(0, [], p(A), [])).\n"
                         "k(Id, [], p(A), []) :- fail, answer(Id, r(A)).\n",
                         "r(A)", [], 2),
    # hand-written: C is first met in the answer, which gets a new variable
    # for it each time
    "answer_var": (":- table r/2.\n:- table p/1.\np(1).\np(2).\n"
                   "r(A, C) :- slgcall(k(0, [], p(A), [])).\n"
                   "k(Id, [], p(A), []) :- answer(Id, r(A, C)).\n",
                   "r(A, B)", ["r(1, _G)", "r(2, _G)"], 2),
}


@pytest.mark.parametrize("case", list(PLANNED))
def test_resumptions_through_plans_alone(case, monkeypatch):
    src, query, want, total = PLANNED[case]
    taken = unplanned_resumptions(monkeypatch)
    got = same_without_plans(src, [query], Mode.GENERAL)
    assert want is None or got[0] == got[1] == want
    assert taken == [False] * total


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_without_plans_nothing_runs_in_place(mode, monkeypatch):
    # the reference the tests above compare with: were a plan, a join or an
    # answer built in place left in it, they would compare it with itself
    in_place = []
    for name in ("_resume_plan", "_join", "_put_answer"):
        monkeypatch.setattr(Engine, name, lambda *args, name=name: in_place.append(name))
    resumptions = 0
    for src, queries in fixed_programs(mode):
        eng = make_engine(src, mode)
        run(eng, queries, plans=False)
        resumptions += eng.counters.resumptions
    assert resumptions > 100 and in_place == []


def resumptions_by_record(monkeypatch) -> list:
    """For each resumption of the engine from now on, its record and how it
    went on: "tp" for a tuple that followed its continuation's plan, "tu"
    for a tuple unified (its continuation has no plan), "Tu" for a term
    record, unified."""
    records = []
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
            records.append(("t" if type(ans) is tuple else "T") + "pu"[unified[0] > before])

    monkeypatch.setattr(cctab.tabling, "unify_stored", unify_stored)
    monkeypatch.setattr(Engine, "_resume", resume)
    return records


# p records p(1, 2) and p(1, 3) as tuples while continuations wait in the
# arena, each paired with both tuples; then h's answer p(1, _G) is recorded
# as its term beside them.  In legacy mode h reads p's incomplete table,
# binding p(1, 2) from its tuple, and p(1, _G) is stored before that read
# goes on to p(1, 3); p(1, 4) and p(1, 5) are tuples queued after it
CLEARED_UNDER_QUEUED = """:- table p/2.
p(1, 2).
p(1, 3).
p(X, Y) :- p(X, Z), q(Z, Y).
p(X, Y) :- h(X, Y).
h(X, Y) :- p(X, Z), r(Z, Y).
q(2, 4).
q(3, 5).
r(2, W).
"""


@pytest.mark.parametrize("mode, want, resumed, unified", [
    (Mode.GENERAL, ["p(1, 2)", "p(1, 3)", "p(1, 4)", "p(1, 5)", "p(1, _G)"],
     "tp tp tu tu tp tu tp tu Tu Tu", []),
    (Mode.LEGACY, ["p(1, 2)", "p(1, 3)", "p(1, _G)", "p(1, 4)", "p(1, 5)"],
     "tp tp Tu tp tp", ["evaluating"]),
], ids=["general", "legacy"])
def test_a_term_record_among_queued_tuples(mode, want, resumed, unified, monkeypatch):
    got = same_without_plans(CLEARED_UNDER_QUEUED, ["p(X, Y)"], mode)
    assert got[0] == got[1] == want
    # the unifying reader's transcripts run invariants.check after each query
    same_as_unifying_reader(CLEARED_UNDER_QUEUED, ["p(X, Y)", "p(X, Y)"], mode)
    records = resumptions_by_record(monkeypatch)
    reads = read_unifications(monkeypatch)
    eng = make_engine(CLEARED_UNDER_QUEUED, mode)
    assert answers(eng, "p(X, Y)") == want
    check(eng.space)
    # each tuple whose continuation has a plan follows it, also when it is
    # resumed after the term record; the term record alone is unified
    assert " ".join(records) == resumed
    # legacy reads of the incomplete table unify the term record; then the
    # caller's read of the complete table unifies it, and binds the tuples
    assert reads == unified + ["complete"]
    (entry,) = eng.space.entries
    assert [type(rec) is tuple for rec in entry.answers] == [a != "p(1, _G)" for a in want]


# a record is written once: p(1, _G), stored second, is a term, and each
# ground answer stored after it, directly or by a resumption, is a tuple;
# the suspended p(X, Z) is resumed by the tuples queued after the term
# record through its plan
WRITTEN_ONCE = """:- table p/2.
p(1, 2).
p(1, X).
p(1, 3).
p(X, Y) :- p(X, Z), q(Z, Y).
q(2, 4).
q(3, 5).
q(4, 6).
"""


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_tuples_queued_after_a_term_record_follow_their_plan(mode, monkeypatch):
    want = ["p(1, 2)", "p(1, _G)", "p(1, 3)", "p(1, 4)", "p(1, 5)", "p(1, 6)"]
    got = same_without_plans(WRITTEN_ONCE, ["p(X, Y)"], mode)
    assert got[0] == got[1] == want
    records = resumptions_by_record(monkeypatch)
    eng = make_engine(WRITTEN_ONCE, mode)
    assert answers(eng, "p(X, Y)") == want
    assert records == ["tp", "Tu", "tp", "tp", "tp", "tp"]
    (entry,) = eng.space.entries
    assert [type(rec) is tuple for rec in entry.answers] == [a != "p(1, _G)" for a in want]


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


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_programs_join_as_the_machine_does(mode):
    for src, queries in [*fixed_programs(mode), *random_programs()]:
        same_without_joins(src, queries, mode)


def machine_tails(monkeypatch) -> list:
    """For each resumption from now on, whether it handed goals to the
    machine."""
    handed = []
    real_resume = Engine._resume

    def resume(self, m, stored, ans):
        go_on = real_resume(self, m, stored, ans)
        handed.append(go_on)
        return go_on

    monkeypatch.setattr(Engine, "_resume", resume)
    return handed


LEFT_RECURSIVE = """:- table path/2.
e(1, 2).
e(2, 3).
e(3, 4).
e(4, 2).
path(X, Y) :- e(X, Y).
path(X, Y) :- path(X, Z), e(Z, Y).
"""

# (program, query, its answers, how many resumptions hand goals to the
# machine with joins and without, of how many)
JOINS = {
    "left_recursive": (LEFT_RECURSIVE, "path(A, B)",
                       ["path(1, 2)", "path(2, 3)", "path(3, 4)", "path(4, 2)", "path(1, 3)",
                        "path(2, 4)", "path(3, 2)", "path(4, 3)", "path(1, 4)", "path(2, 2)",
                        "path(3, 3)", "path(4, 4)"], (0, 12), 12),
    # the bridge h0's continuation goes on into e0(Y, Z), answer(Id, t0(X, Z))
    "two_tables": (None, "t0(X, Y)", None, (0, 2), 15),
    # p's answer binds W, a constant of the join; the fact binds the loose Y
    "constant": (":- table t/2.\n:- table p/2.\np(1, 2).\np(2, 3).\ne(2, 5).\ne(3, 6).\n"
                 "e(3, 7).\ne(4, 2).\nt(X, Y) :- p(X, W), e(W, Y).\n",
                 "t(A, B)", ["t(1, 5)", "t(2, 6)", "t(2, 7)"], (0, 2), 2),
    # both arguments of the join are bound, the first indexes e/2's facts
    "bound": (":- table t/2.\n:- table p/2.\np(1, 2).\np(2, 3).\np(3, 1).\ne(2, 1).\ne(2, 4).\n"
              "e(3, 1).\ne(1, 3).\nt(X, Y) :- p(X, Y), e(Y, X).\n",
              "t(A, B)", ["t(1, 2)", "t(3, 1)"], (0, 3), 3),
    # the join's second argument is a constant of the clause
    "constant_second": (":- table t/2.\n:- table p/1.\np(1).\np(2).\ne(2, 1).\ne(3, 2).\n"
                        "e(4, 1).\nt(X, Z) :- p(X), e(Z, 1).\n",
                        "t(A, B)", ["t(1, 2)", "t(1, 4)", "t(2, 2)", "t(2, 4)"], (0, 2), 2),
    # hand-written: B first occurs in the join, and the fact's value fills
    # its slot, with no variable made for it
    "new_variable": (":- table r/1.\n:- table p/1.\np(1).\np(2).\ne(1, a).\ne(2, b).\ne(1, c).\n"
                     "r(B) :- slgcall(k(0, [], p(A), [])).\n"
                     "k(Id, [], p(A), []) :- e(A, B), answer(Id, r(B)).\n",
                     "r(B)", ["r(a)", "r(c)", "r(b)"], (0, 2), 2),
    # hand-written: the loose B is bound by no goal, so each answer is
    # frozen with a variable
    "unbound_in_answer": (":- table r/2.\n:- table p/1.\np(1).\np(2).\ne(1, a).\ne(2, b).\n"
                          "r(B, C) :- slgcall(k(0, [B], p(A), [])).\n"
                          "k(Id, [B], p(A), []) :- e(A, C), answer(Id, r(B, C)).\n",
                          "r(B, C)", ["r(_G, a)", "r(_G, b)"], (0, 2), 2),
    # a non-ground answer is recorded as its term: it is unified, and the
    # machine runs its join; p(g, 3), a tuple, follows the plan
    "nonground_answer": (":- table t/2.\n:- table p/2.\np(f(V), 2).\np(g, 3).\ne(2, 5).\n"
                         "e(3, 6).\nt(X, Y) :- p(X, W), e(W, Y).\n",
                         "t(A, B)", ["t(f(_G), 5)", "t(g, 6)"], (1, 2), 2),
    # hand-written: the machine counts a call of slg_e/2 as an SLG resolution
    "slg_facts": (":- table r/1.\n:- table p/1.\np(1).\np(2).\nslg_e(1, a).\nslg_e(2, b).\n"
                  "r(B) :- slgcall(k(0, [], p(A), [])).\n"
                  "k(Id, [], p(A), []) :- slg_e(A, B), answer(Id, r(B)).\n",
                  "r(B)", ["r(a)", "r(b)"], (0, 2), 2),
    # the join e(W, W) repeats the loose W, unbound: the machine checks it
    "repeated": (":- table t/1.\n:- table p/1.\np(1).\ne(3, 3).\ne(3, 4).\ne(5, 5).\n"
                 "t(W) :- p(X), e(W, W).\n", "t(W)", ["t(3)", "t(5)"], (1, 1), 1),
    # hand-written: X and Y both stand for the stored B, so both join
    # arguments hold the same unbound variable
    "aliased": (":- table r/2.\n:- table p/1.\np(1).\ne(3, 3).\ne(3, 4).\n"
                "r(A, B) :- slgcall(k(0, [B, B], p(A), [])).\n"
                "k(Id, [X, Y], p(A), []) :- e(X, Y), answer(Id, r(A, X)).\n",
                "r(A, B)", ["r(1, 3)"], (1, 1), 1),
    # hand-written: X and Y both stand for the stored B, and the join binds
    # the variable X holds, which the answer reads through Y
    "aliased_answer": (":- table r/2.\n:- table p/1.\np(1).\ne(1, 3).\ne(1, 4).\ne(2, 5).\n"
                       "r(A, B) :- slgcall(k(0, [B, B], p(A), [])).\n"
                       "k(Id, [X, Y], p(A), []) :- e(A, X), answer(Id, r(A, Y)).\n",
                       "r(A, B)", ["r(1, 3)", "r(1, 4)"], (0, 1), 1),
    # e(X, X) is not ground, so e/2 is not a predicate of ground facts
    "nonground_fact": (":- table t/2.\n:- table p/2.\np(1, 2).\ne(2, 5).\ne(X, X).\n"
                       "t(X, Y) :- p(X, W), e(W, Y).\n", "t(A, B)", ["t(1, 5)", "t(1, 2)"],
                       (1, 1), 1),
    # the join's argument f(W) is a compound
    "compound_argument": (":- table t/2.\n:- table p/2.\np(1, 2).\ne(f(2), 5).\n"
                          "t(X, Y) :- p(X, W), e(f(W), Y).\n", "t(A, B)", ["t(1, 5)"], (1, 1), 1),
    # the answer binds W to the compound f(2)
    "compound_value": (":- table t/2.\n:- table p/2.\np(1, f(2)).\np(3, 2).\ne(f(2), 5).\n"
                       "e(2, 6).\nt(X, Y) :- p(X, W), e(W, Y).\n",
                       "t(A, B)", ["t(1, 5)", "t(3, 6)"], (1, 2), 2),
    # e/2 has a rule
    "rule": (":- table t/2.\n:- table p/2.\np(1, 2).\ne(2, 5).\ne(X, Y) :- Y is X + 7.\n"
             "t(X, Y) :- p(X, W), e(W, Y).\n", "t(A, B)", ["t(1, 5)", "t(1, 9)"], (1, 1), 1),
    # flag/0 has arity 0
    "arity_0": (":- table t/1.\n:- table p/1.\np(1).\np(2).\nflag.\nt(X) :- p(X), flag.\n",
                "t(X)", ["t(1)", "t(2)"], (2, 2), 2),
}


@pytest.mark.parametrize("case", list(JOINS))
def test_fact_joins(case, monkeypatch):
    src, query, want, (machine, without), total = JOINS[case]
    handed = machine_tails(monkeypatch)
    got = same_without_joins(src or TWO_TABLES, [query], Mode.GENERAL)
    assert want is None or got[0] == got[1] == want
    # the engine with joins runs first, then the one without; a re-query
    # reads the complete tables and resumes nothing
    assert len(handed) == 2 * total
    assert (handed[:total].count(True), handed[total:].count(True)) == (machine, without)


def test_a_planned_join_unifies_nothing(monkeypatch):
    # the same program as the planned case tail_fact, whose join runs in place
    src, query, want, total = PLANNED["tail_fact"]
    taken = unplanned_resumptions(monkeypatch)
    handed = machine_tails(monkeypatch)
    assert answers(make_engine(src), query) == want
    assert taken == [False] * total and handed == [False] * total


UNKNOWN = ":- table t/2.\n:- table p/2.\np(1, 2).\np(2, 3).\nt(X, Y) :- p(X, W), nope(W, Y).\n"


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("src, query", [
    (LEFT_RECURSIVE, "path(X, Y)"),
    (TWO_TABLES, "t0(X, Y)"),
    (JOINS["constant"][0], "t(A, B)"),
    (UNKNOWN, "t(A, B)"),
    (JOINS["arity_0"][0], "t(X)"),
], ids=["left_recursive", "two_tables", "constant", "unknown", "arity_0"])
def test_step_budget_runs_out_where_it_does_without_joins(src, query, mode):
    # every budget up to the first that answers the query or raises another
    # error, which must do the same without joins
    budget = 0
    while any(line.startswith("ResourceLimitError")
              for out in same_without_joins(src, [query], mode, budget)[:2] for line in out):
        budget += 1
    assert budget >= 8


def test_an_unknown_predicate_in_a_tail_is_an_existence_error():
    out = same_without_joins(UNKNOWN, ["t(A, B)"], Mode.GENERAL)
    assert out[0] == ["ExistenceError: unknown predicate nope/2"]


# (program, query, its answers, how many on_answer calls are given a ground
# answer's argument tuple with plans and without, of how many); the
# machine's calls give none, and with plans every resumption follows one
GROUND = {
    # g/2's `is` binds its loose [Y] to an integer
    "is": PLANNED["bridge_is"][:3] + ((3, 0), 5),
    # the join's fact binds the loose Y
    "join": JOINS["constant"][:3] + ((3, 0), 5),
    # the hand-written guard binds the loose B to an atom, but the answer
    # holds B's variable, so it is frozen
    "atom": (":- table r/2.\n:- table p/1.\np(1).\np(2).\n"
             "r(A, B) :- slgcall(k(0, [B], p(A), [])).\n"
             "k(Id, [B], p(A), []) :- B = c, answer(Id, r(A, B)).\n",
             "r(A, B)", ["r(1, c)", "r(2, c)"], (0, 0), 4),
    # p's answers hold the compounds f(c) and f(d): they are frozen
    "answer_compound": (":- table r/2.\n:- table p/2.\np(1, f(c)).\np(2, f(d)).\n"
                        "r(A, B) :- slgcall(k(0, [], p(A, B), [])).\n"
                        "k(Id, [], p(A, B), []) :- answer(Id, r(A, B)).\n",
                        "r(A, B)", ["r(1, f(c))", "r(2, f(d))"], (0, 0), 4),
    # the hand-written guard binds the loose B to f(C), which holds a
    # variable, so the answers are frozen
    "bound_compound": (":- table r/2.\n:- table p/1.\np(1).\np(2).\n"
                       "r(A, B) :- slgcall(k(0, [B], p(A), [])).\n"
                       "k(Id, [B], p(A), []) :- B = f(C), answer(Id, r(A, B)).\n",
                       "r(A, B)", ["r(1, f(_G))", "r(2, f(_G))"], (0, 0), 4),
    # the hand-written answer r(A, c) is ground but no instance of the call
    # r(X, b): each is recorded as its term, and the read finds none
    "non_instance": (":- table r/2.\n:- table p/1.\np(1).\np(2).\n"
                     "r(A, B) :- slgcall(k(0, [], p(A), [])).\n"
                     "k(Id, [], p(A), []) :- answer(Id, r(A, c)).\n",
                     "r(X, b)", [], (2, 0), 4),
}


@pytest.mark.parametrize("case", list(GROUND))
def test_answers_ground_through_bound_variables(case, monkeypatch):
    src, query, want, (ground, without), total = GROUND[case]
    told = []
    real = Engine.on_answer

    def on_answer(self, machine, id_t, answer, args=None):
        told.append(args is not None)
        return real(self, machine, id_t, answer, args)

    monkeypatch.setattr(Engine, "on_answer", on_answer)
    got = same_without_plans(src, [query], Mode.GENERAL)
    assert got[0] == got[1] == want
    # the engine with plans runs first, then the one without
    assert len(told) == 2 * total
    assert (told[:total].count(True), told[total:].count(True)) == (ground, without)


def test_preset_answer_hashes_equal_fresh_ones(monkeypatch):
    # freeze presets a stored term's hash from Struct.__hash__'s tokens, a
    # leaf being its own token: answers that mix atoms, negative integers and
    # a compound must hash as a fresh copy of the same term does.  The call
    # t(X, Y, X) repeats a variable, so its table has no pattern and keeps
    # terms: each planned answer is frozen, the flat ones by on_answer from
    # their argument tuples; p's table keeps tuples
    src = (":- table t/3.\n:- table p/2.\np(1, 2).\np(b, 3).\np(-1, 2).\n"
           "e(2, a).\ne(3, -4).\ne(2, f(b)).\nt(z, Y, z).\nt(X, Y, X) :- p(X, W), e(W, Y).\n")
    put = []
    real = Engine._put_answer

    def _put_answer(self, m, clause, hmap):
        put.append(clause)
        return real(self, m, clause, hmap)

    monkeypatch.setattr(Engine, "_put_answer", _put_answer)
    eng = make_engine(src)
    assert answers(eng, "t(X, Y, X)") == ["t(z, _G, z)", "t(1, a, 1)", "t(1, f(b), 1)",
                                          "t(b, -4, b)", "t(-1, a, -1)", "t(-1, f(b), -1)"]
    assert len(put) == 5
    stored = [t for e in eng.space.entries for t in e.answers if type(t) is Struct]
    assert len(stored) == 6  # t's 6 answers; p's 3 are tuples
    for t in stored:
        assert hash(t) == hash(Struct(t.functor, t.args))


@pytest.mark.parametrize("workload, resumptions", [
    ("chain", 2209), ("mixed", 2304), ("modules", 11536),
])
def test_bench_workloads_resume_through_plans_alone(workload, resumptions, monkeypatch):
    # the machine resumes any continuation a plan does not cover; on the
    # benchmark workloads at seed 1 (their counts are the ones CI pins) it
    # must resume none, and no planned tail may reach it either
    monkeypatch.syspath_prepend(HERE.parent / "bench")
    wl = importlib.import_module("workloads").build(workload, 1)
    taken = unplanned_resumptions(monkeypatch)
    handed = machine_tails(monkeypatch)
    eng = make_engine(wl.program)
    for query in wl.queries:
        for _ in eng.solve(parse_query(query)):
            pass
    assert eng.counters.resumptions == resumptions
    assert taken == [False] * resumptions and handed == [False] * resumptions
