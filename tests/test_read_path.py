"""Table reads by substitution.

Each table has a call pattern, made with it and never changed: where its
call's variables are, or None when the call repeats a variable or holds
one inside a compound argument.  A ground instance of the call is recorded
as the tuple of its values there, any other answer as its term, and a
record is written once.  A read of a tuple binds the live call's variables
straight from its values.  When such a read of a complete table ends the
query, its further tuples become solutions straight from the table, up to
a term record, which the read unifies.  Every
observable result must equal what a reader that unifies each whole answer
against the call gives: solutions, their order, their binding names and
the counters.  invariants.check runs after every query.
"""

from itertools import islice
from types import SimpleNamespace

import pytest

import cctab.engine
import cctab.tabling
from cctab import (Atom, Error, Int, Mode, Struct, Var, gen_fixture, parse_query, parse_term,
                   print_term)
from cctab.engine import DEFAULT_BUDGET, Machine, StoredIterCP
from cctab.tabling import COMPLETE, EVALUATING, call_pattern
from cctab.terms import canonical_variant, vars_of

from conftest import make_engine, read_fixture
from invariants import check
from test_behaviour_digest import fixed_programs, random_programs


class AnswerTerms:
    """A table's answer records as their terms, each built when it is read,
    so that a read sees the table grow."""

    def __init__(self, entry):
        self.entry = entry

    def __len__(self):
        return len(self.entry.answers)

    def __getitem__(self, i):
        return self.entry.term_of(self.entry.answers[i])


class NvarsByTerm:
    """A table's index looked up by answer term: the term's number of
    variables, none for the term of a tuple, which is ground."""

    def __init__(self, entry):
        self.entry = entry

    def __getitem__(self, term):
        return self.entry.index.get(term, 0)


class UnifyingReader(StoredIterCP):
    """The read path without substitutions: every answer is unified, as
    for a table with no call pattern."""

    __slots__ = ()

    def __init__(self, target, table, mark, rest, live):
        # the same, growing table, seen as terms
        table = SimpleNamespace(answers=AnswerTerms(table), index=NvarsByTerm(table), pattern=None)
        super().__init__(target, table, mark, rest, live)


def transcript(eng, goals, unifying=False, depth_budget=DEFAULT_BUDGET) -> list:
    """The solutions of goals, each as its bindings (name, value) and goals,
    or the error the query raised; then the --stats line.  With unifying,
    every table read unifies whole answers."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        if unifying:
            mp.setattr(cctab.tabling, "StoredIterCP", UnifyingReader)
        try:
            for s in eng.solve(goals, depth_budget):
                out.append(([(n, print_term(v)) for n, v in s.bindings.items()],
                            [print_term(g) for g in s.goals]))
        except Error as e:
            out.append(f"{type(e).__name__}: {e}")
    check(eng.space)
    out.append(eng.counters.stats_line())
    return out


def same_as_unifying_reader(src, queries, mode) -> list:
    """Run the queries, then re-query every complete table, on an engine and
    on one whose reads unify; assert equal transcripts and return the
    engine's."""
    eng, ref = make_engine(src, mode), make_engine(src, mode)
    got = []
    for goals in [parse_query(q) for q in queries]:
        got.append(transcript(eng, goals))
        assert got[-1] == transcript(ref, goals, unifying=True), goals
    for entry in list(eng.space.entries):
        if entry.status == COMPLETE:
            goals = [canonical_variant(entry.call)]  # its variables _0, _1, ...
            got.append(transcript(eng, goals))
            assert got[-1] == transcript(ref, goals, unifying=True), goals
    return got


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_fixed_programs_read_as_the_unifying_reader(mode):
    for src, queries in fixed_programs(mode):
        same_as_unifying_reader(src, queries, mode)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_differential_corpus_reads_as_the_unifying_reader(mode):
    for src, queries in random_programs():
        same_as_unifying_reader(src, queries, mode)


# (program, query, its answers); each is read cold and then re-read
EDGE_CASES = {
    # a repeated call variable: one substitution value, two arguments
    "repeated": (":- table p/2.\np(1, 1).\np(1, 2).\np(2, 2).\np(3, X).\n", "p(X, X)",
                 ["p(1, 1)", "p(2, 2)", "p(3, 3)"]),
    # a bound compound argument: the substitution holds the values of Z and Y
    "compound": (":- table q/2.\nq(f(1), a).\nq(f(2), b).\nq(g(1), c).\nq(f(X), X).\n",
                 "q(f(Z), Y)", ["q(f(1), a)", "q(f(2), b)", "q(f(_G), _G)"]),
    # non-ground answers are unified, and their variables print as _G
    "nonground": (":- table p/2.\np(a, X).\np(b, c).\np(X, f(X, Y)).\n", "p(Z, Y)",
                  ["p(a, _G)", "p(b, c)", "p(_G, f(_G, _G))"]),
    # a hand-written answer/2 stores p(2, 3) in p(1, B)'s table: not an
    # instance of the call, so it is stored as its term, and the read
    # unifies it beside the tuples of the others
    "non_instance": (":- table p/2.\np(1, Y) :- answer(0, p(2, 3)).\np(1, 2).\np(X, 4).\n",
                     "p(1, Y)", ["p(1, 2)", "p(1, 4)"]),
    # the same, stored while p(1, Z) reads the table: in legacy mode the
    # reader of the incomplete table unifies it and binds the tuples after it
    "cleared_mid_read": (":- table p/2.\np(1, 2).\np(1, Y) :- h(Z), q(Z, Y).\nh(Z) :- p(1, Z).\n"
                         "q(2, 3).\nq(3, Y) :- answer(0, p(5, 5)).\nq(3, 4).\n",
                         "p(1, Y)", ["p(1, 2)", "p(1, 3)", "p(1, 4)"]),
}


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_read_edge_cases(case, mode):
    src, query, want = EDGE_CASES[case]
    got = same_as_unifying_reader(src, [query, query], mode)
    for run in got[:2]:
        assert [goals[0] for _bindings, goals in run[:-1]] == want


def test_edge_case_substitutions():
    # p(X, X) and q(f(Z), Y) have no pattern, so every answer is a term; the
    # others keep theirs, each ground instance a tuple, and the non-ground
    # answers of p(Z, Y) and p(1, Y)'s p(2, 3) and p(5, 5) terms beside them
    kinds = {}
    for case in EDGE_CASES:
        src, query, _ = EDGE_CASES[case]
        eng = make_engine(src)
        list(eng.solve(parse_query(query)))
        (entry,) = eng.space.entries
        assert (entry.pattern is None) == (case in ("repeated", "compound"))
        kinds[case] = "".join("t" if type(rec) is tuple else "T" for rec in entry.answers)
    assert kinds == {"repeated": "TTT", "compound": "TTT", "nonground": "TtT",
                     "non_instance": "Ttt", "cleared_mid_read": "ttTt"}


# call -> its pattern as (functor, arity, positions of the variables), or
# None; answers that are instances of it and answers that are not
CALL_PATTERNS = {
    # the EDGE_CASES calls
    "repeated": ("p(X, X)", None),
    "compound": ("q(f(Z), Y)", None),
    "nonground": ("p(Z, Y)", ("p", 2, (0, 1)), ["p(1, 2)", "p(a, f(b))"],
                  ["q(1, 2)", "p(1)", "7", "p(a, X)"]),
    "non_instance": ("p(1, Y)", ("p", 2, (1,)), ["p(1, 2)", "p(1, f(a))"],
                     ["p(2, 3)", "q(1, 3)", "p(1)", "p(f(1), 1)"]),
    # other shapes: a ground compound argument, two ground arguments, no
    # variable, variables on either side of a ground argument, a variable
    # also inside a compound, and an atom
    "ground_compound": ("q(f(1), Y)", ("q", 2, (1,)), ["q(f(1), a)"], ["q(f(2), a)", "q(1, a)"]),
    "two_ground": ("r(1, X, b)", ("r", 3, (1,)), ["r(1, 2, b)", "r(1, b, b)"],
                   ["r(1, 2, c)", "r(2, 2, b)"]),
    "ground": ("p(1, a)", ("p", 2, ()), ["p(1, a)"], ["p(1, b)", "p(a, 1)"]),
    "gapped": ("r(X, a, Y)", ("r", 3, (0, 2)), ["r(1, a, 2)", "r(b, a, f(c))"], ["r(1, b, 2)"]),
    "shared": ("p(X, f(X))", None),
    "atom": ("p", None),
}


@pytest.mark.parametrize("case", list(CALL_PATTERNS))
def test_call_patterns(case):
    call, want, *answers = CALL_PATTERNS[case]
    if case in EDGE_CASES:
        assert call == EDGE_CASES[case][1]
    frozen = canonical_variant(parse_term(call))
    pattern = call_pattern(frozen)
    if want is None:
        assert pattern is None
        return
    instances, others = answers
    assert (pattern.functor, pattern.arity, pattern.places) == want
    # Engine.on_answer's one instance test, each answer given to a fresh
    # table of the call: an instance is recorded as its values at the
    # places, any other answer whole, and the pattern made with the table
    # stays
    eng = make_engine("")
    machine = Machine(eng.index, runtime=eng)
    for a in instances + others:
        entry = eng.space.new_generator(frozen)
        made = entry.pattern
        term = parse_term(a)
        for _ in vars_of(term):  # a store variable, unbound, for each of its variables
            machine.store.new_var()
        eng.on_answer(machine, Int(entry.id), term)
        assert entry.pattern is made, a
        if a in instances:
            assert entry.answers == [tuple(term.args[i] for i in pattern.places)]
        else:
            assert entry.answers == [term]


@pytest.mark.parametrize("other", ["p(1, X)", "p(2, 3)", "q(1, 2)"],
                         ids=["nonground", "non_instance", "functor"])
def test_a_record_is_written_once(other):
    # answers to a table of p(1, Y) given to Engine.on_answer: those before
    # and after one that is no ground instance are tuples, that one is its
    # term, and no record is rewritten
    eng = make_engine("")
    machine = Machine(eng.index, runtime=eng)
    entry = eng.space.new_generator(canonical_variant(parse_term("p(1, Y)")))
    made = entry.pattern
    answers = ["p(1, 2)", "p(1, 3)", other, "p(1, 4)"]
    records = []
    for a in answers:
        term = parse_term(a)
        for _ in vars_of(term):  # a store variable, unbound, for each of its variables
            machine.store.new_var()
        eng.on_answer(machine, Int(entry.id), term)
        records.append(entry.answers[-1])
        assert all(rec is old for rec, old in zip(entry.answers, records)), a
    assert entry.pattern is made
    assert [type(rec) is tuple for rec in entry.answers] == [True, True, False, True]
    assert [print_term(entry.term_of(rec)) for rec in entry.answers] == answers
    assert list(entry.index.values()) == [0, 0, len(vars_of(parse_term(other))), 0]


def test_an_open_call_keeps_each_answers_arguments_as_its_substitution():
    # p(Z, Y) has its variables as arguments, so a read binds them to the
    # ground answer p(b, c)'s own arguments, cold and again, from its tuple:
    # also beside the term records of the non-ground answers
    for src in [":- table p/2.\np(a, d).\np(b, c).\n", EDGE_CASES["nonground"][0]]:
        eng = make_engine(src)
        for _ in range(2):
            sols = list(eng.solve(parse_query("p(Z, Y)")))
            (entry,) = eng.space.entries
            t, s = entry.term_of(entry.answers[1]), sols[1]
            assert entry.answers[1] == (t.args[0], t.args[1]) and print_term(t) == "p(b, c)"
            assert entry.index[entry.answers[1]] == 0
            assert s.bindings["Z"] is t.args[0] and s.bindings["Y"] is t.args[1]


def test_nonground_answer_binds_fresh_variables():
    src, query, _ = EDGE_CASES["nonground"]
    eng = make_engine(src)
    for _ in range(2):
        sols = list(eng.solve(parse_query(query)))
        z, y = sols[2].bindings["Z"], sols[2].bindings["Y"]
        assert print_term(y) == "f(_G, _G)" and y.args[0] is z and y.args[1] is not z
        check(eng.space)


def read_unifications(monkeypatch) -> list:
    """For each unify_stored call that a table read makes from now on, the
    status of the table it reads at the time."""
    unified = []
    inside = []
    real_unify_stored = cctab.engine.unify_stored
    real_try_next = StoredIterCP.try_next

    def unify_stored(*args):
        if inside:
            unified.append(inside[-1].table.status)
        return real_unify_stored(*args)

    def try_next(self, m):
        inside.append(self)
        try:
            return real_try_next(self, m)
        finally:
            inside.pop()

    monkeypatch.setattr(cctab.engine, "unify_stored", unify_stored)
    monkeypatch.setattr(StoredIterCP, "try_next", try_next)
    return unified


def test_legacy_read_of_an_incomplete_table_binds_by_pattern(monkeypatch):
    unified = read_unifications(monkeypatch)
    eng = make_engine(read_fixture("mixed_loop.pl"), Mode.LEGACY)
    statuses = []
    real_on_slg = cctab.tabling.Engine.on_slg

    def on_slg(self, machine, goal, rest):
        result = real_on_slg(self, machine, goal, rest)
        statuses.append(self.space.entries[0].status)
        return result

    monkeypatch.setattr(cctab.tabling.Engine, "on_slg", on_slg)
    assert [g[0] for _b, g in transcript(eng, parse_query("t(A)"))[:-1]] == ["t(0)"]
    # the evaluation reads its own incomplete table, then the caller the complete one
    assert statuses == [EVALUATING, EVALUATING, COMPLETE]
    assert unified == []
    monkeypatch.undo()
    src = read_fixture("mixed_loop.pl")
    same_as_unifying_reader(src, ["t(A)", "t(A)"], Mode.LEGACY)


def test_a_term_record_stored_during_a_legacy_read_is_unified_alone(monkeypatch):
    unified = read_unifications(monkeypatch)
    src, query, want = EDGE_CASES["cleared_mid_read"]
    eng = make_engine(src, Mode.LEGACY)
    assert [goals[0] for _b, goals in transcript(eng, parse_query(query))[:-1]] == want
    # p(5, 5), stored as its term while p(1, 3) is read, is unified, by the
    # read of the incomplete table and again by the complete read; p(1, 2),
    # p(1, 3) and p(1, 4) are bound from their tuples each time
    assert unified == [EVALUATING, COMPLETE]


def test_rereading_a_complete_table_unifies_nothing(monkeypatch):
    unified = read_unifications(monkeypatch)
    eng = make_engine(gen_fixture("chain", 12))
    first = transcript(eng, parse_query("path(X, Y)"))
    # path(X, Y) has a pattern: every read binds the answers' arguments
    assert len(first) - 1 == 78
    for _ in range(2):
        assert transcript(eng, parse_query("path(X, Y)")) == first
        assert transcript(eng, parse_query("path(A, B)"))[:-1] == [
            ([("A", x), ("B", y)], goals) for [(_, x), (_, y)], goals in first[:-1]]
    assert unified == []


# -- reads that end the query ----------------------------------------------------
#
# Once a read of a complete table that has a pattern has given a solution
# with no goal after it, and the query's variables are the read's live
# variables, in order, Engine.solve makes the table's further tuples
# solutions itself; the read's choice point binds only the first, and each
# term record, after which the direct read goes on.

CHAIN, CYCLE = gen_fixture("chain", 4), gen_fixture("cycle", 3)
# the non-ground answer path(0, _G) is recorded as its term, fifth of eleven
CHAIN_TERM = CHAIN + "path(0, Y).\n"

# query -> its program, and how many answers the table reads of a re-query bind:
# the first and each term record when the tuples are read directly, else all
ENDING_READS = {
    "path(X, Y)": (CHAIN, 1),
    "path(1, Y)": (CHAIN, 1),
    "path(A, B)": (CHAIN_TERM, 2),  # the direct read stops at path(0, _G), and goes on
    "Y = 3, path(X, Y)": (CHAIN, 2),  # Y is no live variable of the read
    "W = V, path(X, Y)": (CHAIN, 10),  # nor are W and V
    "Z = f(X), path(X, Y)": (CHAIN, 10),  # nor Z
    "path(X, Y), true": (CHAIN, 10),  # a goal runs after the read
    "true, path(X, Y)": (CHAIN, 1),  # the atom goal is built as itself
    "path(X, X)": (CYCLE, 4),  # the table has no pattern
    # A and B are the read's live variables, in the other order
    "rev(A, B)": (CHAIN + "rev(X, Y) :- path(Y, X).\n", 10),
    # A and B are no live variables of the four reads above edge/2's choice point
    "edge(A, B), path(B, Y)": (CHAIN, 6),
}


def read_binds(monkeypatch) -> list:
    """The number of StoredIterCP retries from now on that bind an answer,
    as a one-element list."""
    binds = [0]
    real_try_next = StoredIterCP.try_next

    def try_next(self, m):
        bound = real_try_next(self, m)
        binds[0] += bound
        return bound

    monkeypatch.setattr(StoredIterCP, "try_next", try_next)
    return binds


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("query", list(ENDING_READS))
def test_reads_that_end_the_query(query, mode, monkeypatch):
    src, want_binds = ENDING_READS[query]
    got = same_as_unifying_reader(src, [query, query], mode)
    eng = make_engine(src, mode)
    goals = parse_query(query)
    assert transcript(eng, goals) == got[0]
    binds = read_binds(monkeypatch)
    assert transcript(eng, goals) == got[1]
    assert binds[0] == want_binds


def test_a_goal_held_by_a_query_variable_ends_a_read_as_its_value(monkeypatch):
    # only a goal list given to Engine.solve can hold a variable as a goal:
    # bound to true, it is built from its value; G is no live variable of
    # the read, so the read binds every answer
    g = Var(0, "G")
    goals = [Struct("=", (g, Atom("true"))), g, Struct("path", (Var(1, "X"), Var(2, "Y")))]
    eng, ref = make_engine(CHAIN), make_engine(CHAIN)
    want = transcript(ref, goals, unifying=True)
    assert want[0] == ([("G", "true"), ("X", "1"), ("Y", "2")], ["true = true", "true",
                                                                   "path(1, 2)"])
    assert transcript(eng, goals) == want
    again = transcript(ref, goals, unifying=True)
    binds = read_binds(monkeypatch)
    assert transcript(eng, goals) == again and binds[0] == 10


def test_a_legacy_read_of_an_incomplete_table_binds_every_answer(monkeypatch):
    # a read of an incomplete table ends a query only in legacy mode, and
    # only in the middle of an evaluation, which gives no solution; its
    # status is set by hand to show the machine read it to the end
    eng = make_engine(CHAIN, Mode.LEGACY)
    goals = parse_query("path(X, Y)")
    want = transcript(eng, goals)
    (entry,) = [e for e in eng.space.entries if e.call == canonical_variant(goals[0])]
    binds = read_binds(monkeypatch)
    entry.status = EVALUATING
    try:
        got = [([(n, print_term(v)) for n, v in s.bindings.items()],
                [print_term(g) for g in s.goals]) for s in eng.solve(goals)]
    finally:
        entry.status = COMPLETE
    assert got == want[:-1] and binds[0] == 10
    assert transcript(eng, goals) == want


@pytest.mark.parametrize("query", ["path(X, Y)", "edge(A, B), path(B, Y)"])
def test_a_step_budget_runs_out_where_the_unifying_reader_runs_out(query):
    # at every budget, cold and again, up to one that lets the query finish
    goals = parse_query(query)
    for requery in (False, True):
        budget = 0
        while True:
            eng, ref = make_engine(CHAIN), make_engine(CHAIN)
            if requery:
                assert transcript(eng, goals) == transcript(ref, goals, unifying=True)
            got = transcript(eng, goals, depth_budget=budget)
            assert got == transcript(ref, goals, unifying=True, depth_budget=budget), budget
            if not str(got[-2]).startswith("ResourceLimitError"):
                break
            budget += 1
        assert budget > 0


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_a_query_closed_partway_then_run_again(mode):
    goals = parse_query("path(X, Y)")
    for k in range(11):
        eng, ref = make_engine(CHAIN, mode), make_engine(CHAIN, mode)
        with pytest.MonkeyPatch.context() as mp:
            run = eng.solve(goals)
            assert len(list(islice(run, k))) == k
            run.close()
            mp.setattr(cctab.tabling, "StoredIterCP", UnifyingReader)
            run = ref.solve(goals)
            assert len(list(islice(run, k))) == k
            run.close()
        check(eng.space)
        assert transcript(eng, goals) == transcript(ref, goals, unifying=True), k
