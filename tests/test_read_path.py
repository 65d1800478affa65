"""Table reads by substitution.

Each table has a call pattern, made with it: where its call's variables
are, or None when the call repeats a variable or holds one inside a
compound argument.  A read of a ground answer from a table that keeps its
pattern binds the live call's variables straight from the answer's
arguments.  Every observable result must equal what a reader that unifies
each whole answer against the call gives: solutions, their order, their
binding names and the counters.  TableSpace.check() runs after every query.
"""

from types import SimpleNamespace

import pytest

import cctab.engine
import cctab.tabling
from cctab import Error, Mode, gen_fixture, parse_query, parse_term, print_term
from cctab.engine import StoredIterCP
from cctab.tabling import COMPLETE, EVALUATING, call_pattern, is_instance
from cctab.terms import canonical_variant

from conftest import make_engine, read_fixture
from test_behaviour_digest import fixed_programs, random_programs


class UnifyingReader(StoredIterCP):
    """The read path without substitutions: every answer is unified, as
    for a table with no call pattern."""

    __slots__ = ()

    def __init__(self, target, table, mark, rest, live):
        # the same, growing list and index
        table = SimpleNamespace(answers=table.answers, index=table.index, pattern=None)
        super().__init__(target, table, mark, rest, live)


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
    # instance of the call, so it clears the pattern, and every answer unifies
    "non_instance": (":- table p/2.\np(1, Y) :- answer(0, p(2, 3)).\np(1, 2).\np(X, 4).\n",
                     "p(1, Y)", ["p(1, 2)", "p(1, 4)"]),
    # the same, stored while p(1, Z) reads the table: in legacy mode the
    # reader of the incomplete table unifies the answers after it
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
    # p(X, X) and q(f(Z), Y) never have a pattern; p(Z, Y) loses its own to
    # the non-ground answer p(a, _G), and p(1, Y) to the answer p(2, 3) or
    # p(5, 5)
    kept = []
    for case in EDGE_CASES:
        src, query, _ = EDGE_CASES[case]
        eng = make_engine(src)
        list(eng.solve(parse_query(query)))
        (entry,) = eng.space.entries
        assert (call_pattern(entry.call) is None) == (case in ("repeated", "compound"))
        kept.append(entry.pattern is not None)
    assert kept == [False, False, False, False, False]


# call -> its pattern as (functor, arity, positions of the variables), or
# None; answers that are instances of it and answers that are not
CALL_PATTERNS = {
    # the EDGE_CASES calls
    "repeated": ("p(X, X)", None),
    "compound": ("q(f(Z), Y)", None),
    "nonground": ("p(Z, Y)", ("p", 2, (0, 1)), ["p(1, 2)", "p(a, f(b))"], ["q(1, 2)", "p(1)", "7"]),
    "non_instance": ("p(1, Y)", ("p", 2, (1,)), ["p(1, 2)", "p(1, f(a))"],
                     ["p(2, 3)", "q(1, 3)", "p(1)", "p(f(1), 1)"]),
    # other shapes: a ground compound argument, two ground arguments, no
    # variable, a variable also inside a compound, and an atom
    "ground_compound": ("q(f(1), Y)", ("q", 2, (1,)), ["q(f(1), a)"], ["q(f(2), a)", "q(1, a)"]),
    "two_ground": ("r(1, X, b)", ("r", 3, (1,)), ["r(1, 2, b)", "r(1, b, b)"],
                   ["r(1, 2, c)", "r(2, 2, b)"]),
    "ground": ("p(1, a)", ("p", 2, ()), ["p(1, a)"], ["p(1, b)", "p(a, 1)"]),
    "shared": ("p(X, f(X))", None),
    "atom": ("p", None),
}


@pytest.mark.parametrize("case", list(CALL_PATTERNS))
def test_call_patterns(case):
    call, want, *answers = CALL_PATTERNS[case]
    if case in EDGE_CASES:
        assert call == EDGE_CASES[case][1]
    pattern = call_pattern(canonical_variant(parse_term(call)))
    if want is None:
        assert pattern is None
        return
    instances, others = answers
    assert (pattern.functor, pattern.arity, pattern.places) == want
    assert [is_instance(pattern, parse_term(a)) for a in instances + others] == (
        [True] * len(instances) + [False] * len(others))


def test_an_open_call_keeps_each_answers_arguments_as_its_substitution():
    # p(Z, Y) has its variables as arguments, so a read binds them to the
    # ground answer p(b, c)'s own arguments, cold and again: by pattern while
    # every answer is ground, by unification once p(a, _G) has cleared it
    for src, kept in [(":- table p/2.\np(a, d).\np(b, c).\n", True),
                      (EDGE_CASES["nonground"][0], False)]:
        eng = make_engine(src)
        for _ in range(2):
            sols = list(eng.solve(parse_query("p(Z, Y)")))
            (entry,) = eng.space.entries
            t, s = entry.answers[1], sols[1]
            assert entry.index[t] == 0 and print_term(t) == "p(b, c)"
            assert (entry.pattern is not None) == kept
            assert s.bindings["Z"] is t.args[0] and s.bindings["Y"] is t.args[1]


def test_nonground_answer_binds_fresh_variables():
    src, query, _ = EDGE_CASES["nonground"]
    eng = make_engine(src)
    for _ in range(2):
        sols = list(eng.solve(parse_query(query)))
        z, y = sols[2].bindings["Z"], sols[2].bindings["Y"]
        assert print_term(y) == "f(_G, _G)" and y.args[0] is z and y.args[1] is not z
        eng.space.check()


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


def test_a_pattern_cleared_during_a_legacy_read_unifies_the_rest(monkeypatch):
    unified = read_unifications(monkeypatch)
    src, query, want = EDGE_CASES["cleared_mid_read"]
    eng = make_engine(src, Mode.LEGACY)
    assert [goals[0] for _b, goals in transcript(eng, parse_query(query))[:-1]] == want
    # p(1, 2) and p(1, 3) are bound by pattern; p(5, 5), stored while p(1, 3)
    # is read, and p(1, 4) are unified, then all four by the complete read
    assert unified == [EVALUATING] * 2 + [COMPLETE] * 4


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
