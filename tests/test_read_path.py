"""Reads of completed tables by substitution.

A read of a complete table binds the live call's variables to the values
they take in each answer, computed at the answer's first read.  Every
observable result must equal what a reader that unifies each whole answer
against the call gives: solutions, their order, their binding names and the
counters.  TableSpace.check() runs after every query.
"""

import pytest

import cctab.engine
import cctab.tabling
from cctab import Error, Mode, gen_fixture, parse_query, print_term
from cctab.engine import StoredIterCP
from cctab.tabling import COMPLETE, EVALUATING
from cctab.terms import canonical_variant

from conftest import make_engine, read_fixture
from test_behaviour_digest import fixed_programs, random_programs


class UnifyingReader(StoredIterCP):
    """The read path without substitutions: every answer is unified."""

    __slots__ = ()

    def __init__(self, target, stored, mark, rest, substs=None, live=None):
        super().__init__(target, stored, mark, rest)


def transcript(eng, goals, unifying=False) -> list:
    """The solutions of goals, each as its bindings (name, value) and goals,
    or the error the query raised; then the --stats line.  With unifying,
    every table read unifies whole answers."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        if unifying:
            mp.setattr(cctab.tabling, "StoredIterCP", UnifyingReader)
        try:
            for s in eng.solve(goals):
                out.append(([(n, print_term(v)) for n, v in s.bindings.items()],
                            [print_term(g) for g in s.goals]))
        except Error as e:
            out.append(f"{type(e).__name__}: {e}")
    eng.space.check()
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
    # instance of the call, so it never unifies and has no substitution
    "non_instance": (":- table p/2.\np(1, Y) :- answer(0, p(2, 3)).\np(1, 2).\np(X, 4).\n",
                     "p(1, Y)", ["p(1, 2)", "p(1, 4)"]),
}


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_read_edge_cases(case, mode):
    src, query, want = EDGE_CASES[case]
    got = same_as_unifying_reader(src, [query, query], mode)
    for run in got[:2]:
        assert [goals[0] for _bindings, goals in run[:-1]] == want


def test_edge_case_substitutions():
    def substs(case):
        src, query, _ = EDGE_CASES[case]
        eng = make_engine(src)
        list(eng.solve(parse_query(query)))
        (entry,) = eng.space.entries
        return [sub if sub is False else [print_term(v) for v in sub] for sub in entry.substs]

    assert substs("repeated") == [["1"], ["2"], ["3"]]
    assert substs("compound") == [["1", "a"], ["2", "b"], False]
    assert substs("nonground") == [False, ["b", "c"], False]
    assert substs("non_instance") == [False, ["2"], ["4"]]


def test_an_open_call_keeps_each_answers_arguments_as_its_substitution():
    # p(Z, Y) has its unbound variables as arguments, once each and in order;
    # p(X, X) repeats one, so its substitutions are lists of their own
    got = []
    for case in ("nonground", "repeated"):
        src, query, _ = EDGE_CASES[case]
        eng = make_engine(src)
        list(eng.solve(parse_query(query)))
        (entry,) = eng.space.entries
        got.append([sub is t.args for sub, (t, _n) in zip(entry.substs, entry.answers) if sub])
    assert got == [[True], [False, False, False]]


def test_nonground_answer_binds_fresh_variables():
    src, query, _ = EDGE_CASES["nonground"]
    eng = make_engine(src)
    for _ in range(2):
        sols = list(eng.solve(parse_query(query)))
        z, y = sols[2].bindings["Z"], sols[2].bindings["Y"]
        assert print_term(y) == "f(_G, _G)" and y.args[0] is z and y.args[1] is not z
        eng.space.check()


def test_legacy_read_of_an_incomplete_table_unifies(monkeypatch):
    readers = []

    class Recording(StoredIterCP):
        __slots__ = ()

        def __init__(self, target, stored, *args):
            super().__init__(target, stored, *args)
            readers.append(self.substs is None)

    monkeypatch.setattr(cctab.tabling, "StoredIterCP", Recording)
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
    assert readers == [True, False]
    monkeypatch.undo()
    src = read_fixture("mixed_loop.pl")
    same_as_unifying_reader(src, ["t(A)", "t(A)"], Mode.LEGACY)


def test_rereading_a_complete_table_unifies_nothing(monkeypatch):
    calls = []
    inside = []
    real_unify_stored = cctab.engine.unify_stored
    real_try_next = StoredIterCP.try_next

    def unify_stored(*args):
        if inside:
            calls.append(args)
        return real_unify_stored(*args)

    def try_next(self, m):
        inside.append(self)
        try:
            return real_try_next(self, m)
        finally:
            inside.pop()

    monkeypatch.setattr(cctab.engine, "unify_stored", unify_stored)
    monkeypatch.setattr(StoredIterCP, "try_next", try_next)
    eng = make_engine(gen_fixture("chain", 12))
    first = transcript(eng, parse_query("path(X, Y)"))
    # the first read unifies each answer once and keeps its substitution
    assert len(first) - 1 == len(calls) == 78
    calls.clear()
    for _ in range(2):
        assert transcript(eng, parse_query("path(X, Y)")) == first
        assert transcript(eng, parse_query("path(A, B)"))[:-1] == [
            ([("A", x), ("B", y)], goals) for [(_, x), (_, y)], goals in first[:-1]]
    assert calls == []
