import dataclasses
import hashlib
import random
import re

import pytest

import cctab.tabling
from cctab import (
    Engine,
    InstantiationError,
    Int,
    Mode,
    PredId,
    ResourceLimitError,
    Struct,
    TablingError,
    TypeMismatchError,
    Var,
    bottom_up_eval,
    canonical_variant,
    compare_answer_sets,
    find_bridges,
    gen_fixture,
    parse_program,
    parse_query,
    parse_term,
    print_term,
    translate,
)
from cctab.engine import Machine, solve as sld_solve
from cctab.oracle import oracle_answers_for
from cctab.terms import pred_of
from cctab.tabling import COMPLETE, DROPPED, EVALUATING, StoredCont, TableSpace

from conftest import (HERE, answers, make_engine, memory_error_at_answer, read_fixture,
                      run_limited)
from test_differential import PROGRAMS, SEED, random_program


def test_mixed_loop_general_finds_both_answers(mixed_loop_src):
    eng = make_engine(mixed_loop_src)
    assert answers(eng, "t(A)") == ["t(0)", "t(1)"]  # table insertion order


def test_mixed_loop_legacy_loses_second_answer(mixed_loop_src):
    eng = make_engine(mixed_loop_src, Mode.LEGACY)
    assert answers(eng, "t(A)") == ["t(0)"]


def test_mixed_loop_counters(mixed_loop_src):
    eng = make_engine(mixed_loop_src)
    list(eng.solve(parse_query("t(A)")))
    assert eng.counters.suspensions == 1
    assert eng.counters.resumptions == 2
    assert eng.counters.generators == 1
    assert eng.counters.answers == 2


def test_suspensions_match_stored_continuations(mixed_loop_src):
    eng = make_engine(mixed_loop_src)
    list(eng.solve(parse_query("t(A)")))
    assert eng.counters.suspensions == sum(e.suspension_total for e in eng.space.entries)


def test_two_cycle_reachability_answer_set():
    eng = make_engine(gen_fixture("cycle", 1))
    got = set(answers(eng, "path(X, Y)"))
    assert got == {"path(1, 1)", "path(1, 2)", "path(2, 1)", "path(2, 2)"}


def test_duplicate_answers_collapse():
    # on a cycle every pair is derivable many ways; the table keeps one copy
    eng = make_engine(gen_fixture("cycle", 2))
    got = answers(eng, "path(X, Y)")
    assert len(got) == len(set(got)) == 9
    for entry in eng.space.entries:
        keys = {k for k in entry.index}
        assert len(entry.answers) == len(keys)


def test_completed_requery_is_pure_table_read(mixed_loop_src):
    eng = make_engine(mixed_loop_src)
    first = answers(eng, "t(A)")
    snap = eng.counters.snapshot()
    second = answers(eng, "t(A)")
    assert first == second
    assert eng.counters.slg_resolutions == snap.slg_resolutions
    assert eng.counters.generators == snap.generators
    assert eng.counters.suspensions == snap.suspensions


def test_completion_empties_continuations(mixed_loop_src):
    eng = make_engine(mixed_loop_src)
    list(eng.solve(parse_query("t(A)")))
    for entry in eng.space.entries:
        assert entry.status == COMPLETE
        assert entry.continuations == {}
    assert eng.space.stack == []


def test_slg_on_non_tabled_predicate_errors(mixed_loop_src):
    eng = make_engine(mixed_loop_src)
    with pytest.raises(TablingError, match="not a tabled predicate"):
        list(eng.solve(Struct("slg", (parse_term("nosuch(X)"),))))


def test_bridge_predicate_keeps_its_interface(mixed_loop_src):
    # p/1 stays callable from plain code; the tabled call inside it works
    eng = make_engine(mixed_loop_src)
    assert answers(eng, "p(B)") == ["p(0)"]


def test_mutually_recursive_tabled_predicates_complete_together():
    src = """:- table p/1.
:- table q/1.

p(0).
p(X) :- q(Y), X is Y + 1, X < 5.
q(X) :- p(X).
"""
    eng = make_engine(src)
    got = answers(eng, "p(X)")
    assert sorted(got) == ["p(0)", "p(1)", "p(2)", "p(3)", "p(4)"]
    # q's variant was evaluated in the same group and is complete too
    q_entries = [e for e in eng.space.entries if e.call.functor == "q"]
    assert q_entries and all(e.status == COMPLETE for e in q_entries)
    assert sorted(print_term(t) for t in q_entries[0].answers) == [
        "q(0)",
        "q(1)",
        "q(2)",
        "q(3)",
        "q(4)",
    ]


def test_non_recursive_tabled_call_completes_alone():
    eng = make_engine(":- table t/1.\nt(X) :- q(X).\nq(1).\nq(2).\n")
    assert answers(eng, "t(X)") == ["t(1)", "t(2)"]
    assert eng.counters.suspensions == 0
    assert eng.counters.resumptions == 0  # empty worklist end to end


def test_resumption_count_matches_oracle_derivation():
    # each stored continuation is resumed once per answer of its table entry
    for size in (2, 3, 6):
        src = gen_fixture("chain", size)
        eng = make_engine(src)
        list(eng.solve(parse_query("path(X, Y)")))
        facts = bottom_up_eval(parse_program(src))
        expected = 0
        for entry in eng.space.entries:
            oracle_set = oracle_answers_for(facts, entry.call)
            assert len(entry.answers) == len(oracle_set)
            expected += entry.suspension_total * len(oracle_set)
        assert eng.counters.resumptions == expected


def test_pure_suspension_when_no_answers_yet(mixed_loop_src):
    # the consumer of t/1 suspends before any answer exists; its immediate
    # consumption contributes nothing and both resumptions come later
    eng = make_engine(mixed_loop_src)
    list(eng.solve(parse_query("t(A)")))
    entry = eng.space.entries[0]
    assert entry.suspension_total == 1
    assert eng.counters.resumptions == len(entry.answers) * entry.suspension_total


def test_continuation_copies_are_immutable():
    src = """:- table t/1.

t(1).
t(2).
t(X) :- h(X).
h(X) :- t(Y), X is Y * 10, X < 100.
"""
    eng = make_engine(src)
    captured = {}
    space = eng.space

    orig_suspend = Engine._suspend

    def spy(self, machine, cont, owner, entry):
        r = orig_suspend(self, machine, cont, owner, entry)
        stored = list(entry.continuations.values())[-1]
        captured[id(stored)] = (stored, print_term(stored.term))
        return r

    Engine._suspend = spy
    try:
        got = answers(eng, "t(X)")
    finally:
        Engine._suspend = orig_suspend
    assert sorted(got) == ["t(1)", "t(10)", "t(2)", "t(20)"]
    assert captured
    for stored, before in captured.values():
        assert print_term(stored.term) == before


def test_answer_into_completed_table_errors(mixed_loop_src):
    eng = make_engine(mixed_loop_src)
    list(eng.solve(parse_query("t(A)")))
    m = Machine(eng.index, runtime=eng)
    goal = Struct("answer", (Int(0), parse_term("t(9)")))
    with pytest.raises(TablingError, match="complete"):
        eng.on_answer(m, goal, None)


def test_complete_with_pending_work_errors():
    space = TableSpace()
    entry = space.new_generator(parse_term("t(_)"))
    stored = StoredCont(parse_term("c(0, [], t(0), [])"), 0, entry, entry)
    arena = [(stored, parse_term("t(0)"))]
    space.arenas.append(arena)
    with pytest.raises(TablingError, match="pending"):
        space.complete(entry)


def test_finishing_a_completed_group_errors(mixed_loop_src):
    # a generator's choice point finishes its group once; its entry is then complete
    eng = make_engine(mixed_loop_src)
    list(eng.solve(parse_query("t(A)")))
    entry = eng.space.entries[0]
    assert entry.status == COMPLETE
    with pytest.raises(TablingError) as info:
        eng._finish_group(entry)
    assert str(info.value) == "internal: generator completed while its choice point was live"
    eng.space.check()


def test_malformed_continuation_arity():
    # a continuation needs Id, Bindings and Pending: both translations' arities pass
    eng = make_engine(":- table t/1.\nt(0).\n")
    m = Machine(eng.index, runtime=eng)
    for cont in ("5", "k(1, [])"):
        bad = Struct("slgcall", (parse_term(cont),))
        with pytest.raises(TablingError) as info:
            eng.on_slgcall(m, bad, None)
        assert str(info.value) == f"malformed continuation term: {cont}"


@pytest.mark.parametrize("translated, run", [
    (Mode.LEGACY, Mode.GENERAL),
    (Mode.GENERAL, Mode.LEGACY),
], ids=["legacy-translation-general-engine", "general-translation-legacy-engine"])
def test_mode_mismatch_names_the_translation_mode(translated, run):
    # the program records its translation's read policy; a contradicting mode
    # is refused before any query
    program = translate(parse_program(gen_fixture("chain", 2)), translated)
    with pytest.raises(TablingError) as info:
        Engine(program, mode=run)
    assert str(info.value) == f"a {translated.value} translation cannot run in {run.value} mode"
    assert Engine(program, mode=translated).reads_incomplete is (translated is Mode.LEGACY)


def test_legacy_mode_sound_on_bridge_free_programs():
    # the original scheme works when tabled calls occur only inside tabled
    # clause bodies; a cyclic reachability query is its home turf
    src = gen_fixture("cycle", 3)
    eng = make_engine(src, Mode.LEGACY)
    got = sorted(answers(eng, "path(X, Y)"))
    facts = bottom_up_eval(parse_program(src))
    want = sorted(print_term(t) for t in facts[PredId("path", 2)])
    assert got == want


def test_legacy_live_read_with_fact_first_clause_order():
    # with the fact first, the snapshot read sees t(0) and the derived t(1)
    # still lands in the table: the loss depends on clause order
    src = """:- table t/1.

t(0).
t(A) :- p(B), A is B + 1.

p(B) :- t(B), B < 1.
"""
    eng = make_engine(src, Mode.LEGACY)
    assert sorted(answers(eng, "t(A)")) == ["t(0)", "t(1)"]


def test_variant_specific_tables():
    eng = make_engine(gen_fixture("chain", 3))
    assert answers(eng, "path(2, X)") == ["path(2, 3)", "path(2, 4)"]
    assert answers(eng, "path(X, 4)") == ["path(3, 4)", "path(2, 4)", "path(1, 4)"]
    # the two queries built distinct generators
    calls = {canonical_variant(e.call) for e in eng.space.entries}
    assert canonical_variant(parse_term("path(2, X)")) in calls
    assert canonical_variant(parse_term("path(X, 4)")) in calls


def test_slgcall_on_completed_table_consumes_without_suspending():
    eng = make_engine(gen_fixture("chain", 2))
    list(eng.solve(parse_query("path(2, X)")))
    before = eng.counters.snapshot()
    # path(1, X) evaluates fresh but consumes the completed path(2, _) table
    got = answers(eng, "path(1, X)")
    assert sorted(got) == ["path(1, 2)", "path(1, 3)"]
    assert eng.counters.suspensions == before.suspensions
    assert eng.counters.resumptions == before.resumptions


def test_conjunctive_query_mixes_plain_and_tabled_goals():
    # backtracking over edge/2 opens one tabled variant per binding of X
    src = gen_fixture("chain", 3)
    eng = make_engine(src)
    got = [
        tuple(print_term(g) for g in s.goals)
        for s in eng.solve(parse_query("edge(1, X), path(X, Y)"))
    ]
    assert got == [("edge(1, 2)", "path(2, 3)"), ("edge(1, 2)", "path(2, 4)")]


def test_query_variables_reported_in_bindings():
    eng = make_engine(gen_fixture("chain", 2))
    sols = list(eng.solve(parse_query("path(1, X)")))
    assert [print_term(s.bindings["X"]) for s in sols] == ["2", "3"]


def test_stats_line_format(mixed_loop_src):
    eng = make_engine(mixed_loop_src)
    list(eng.solve(parse_query("t(A)")))
    line = eng.counters.stats_line()
    assert line == (
        f"suspensions=1 resumptions=2 e_cells={eng.counters.e_cells} "
        f"h_cells={eng.counters.h_cells} "
        f"trail_at_suspend={eng.counters.trail_at_suspend} generators=1 answers=2"
    )
    fields = [kv.split("=")[0] for kv in line.split()]
    assert fields == [
        "suspensions",
        "resumptions",
        "e_cells",
        "h_cells",
        "trail_at_suspend",
        "generators",
        "answers",
    ]


def test_capture_sizes_counted(mixed_loop_src):
    eng = make_engine(mixed_loop_src)
    list(eng.solve(parse_query("t(A)")))
    # one stored continuation: p_bridge0(Id, [], t(B), slg_t0(Id, [A], p(B), []))
    assert eng.counters.e_cells == 1  # the empty binding list
    assert eng.counters.h_cells == 10  # pending t(B) plus the nested continuation
    assert eng.counters.trail_at_suspend > 0


def test_engine_recovers_after_failed_query(mixed_loop_src):
    from cctab import ResourceLimitError

    eng = make_engine(mixed_loop_src)
    with pytest.raises(ResourceLimitError):
        list(eng.solve(parse_query("t(A)"), depth_budget=10))
    assert eng.space.stack == [] and eng.space.arenas == []
    assert answers(eng, "t(A)") == ["t(0)", "t(1)"]


def test_tabling_primitive_outside_engine_errors():
    from cctab.engine import solve
    from cctab import ExistenceError

    with pytest.raises(ExistenceError, match="tabling primitive"):
        list(solve(parse_query("slg(foo(X))"), parse_program("foo(1).")))


# Exact work counters and table contents, pinned: a change to the engine's hot
# path must do the same tabling work in the same order.
PINNED = [
    (lambda: gen_fixture("chain", 48), "path(X, Y)",
     dict(suspensions=95, resumptions=2209, e_cells=285, h_cells=380, generators=49,
          answers=2304, slg_resolutions=2258), 1176, "9b6fffcc29c84dc7"),
    (lambda: gen_fixture("cycle", 20), "path(X, Y)",
     dict(suspensions=42, resumptions=882, e_cells=126, h_cells=168, generators=22,
          answers=882, slg_resolutions=904), 441, "a2050a3d42e35fec"),
    (lambda: read_fixture("mixed_loop.pl"), "t(A)",
     dict(suspensions=1, resumptions=2, e_cells=1, h_cells=10, generators=1,
          answers=2, slg_resolutions=2), 2, "0809ac5c047899c1"),
]


def table_digest(eng) -> str:
    """Digest of every variant and its answers, in creation and insertion order."""
    h = hashlib.sha256()
    for e in eng.space.entries:
        h.update(print_term(e.call).encode() + b"\n")
        for t in eng.answer_terms(e.call):
            h.update(print_term(t).encode() + b";")
        h.update(b"\n")
    return h.hexdigest()[:16]


@pytest.mark.parametrize("make_src, query, counts, n_answers, digest", PINNED,
                         ids=["chain48", "cycle20", "mixed_loop"])
def test_pinned_counters_and_answer_order(make_src, query, counts, n_answers, digest):
    eng = make_engine(make_src())
    assert len(answers(eng, query)) == n_answers
    got = {k: getattr(eng.counters, k) for k in counts}
    assert got == counts
    assert table_digest(eng) == digest


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("n", [8, 16, 32])
def test_chain_counters_in_closed_form(n, mode):
    # the work of path(X, Y) on chain-n as a function of n alone: a change in
    # the algorithm's complexity shows here, where no timing would
    eng = make_engine(gen_fixture("chain", n), mode)
    assert len(answers(eng, "path(X, Y)")) == n * (n + 1) // 2
    general = mode is Mode.GENERAL
    assert dataclasses.asdict(eng.counters) == dict(
        suspensions=2 * n - 1, resumptions=(n - 1) ** 2, e_cells=3 * (2 * n - 1),
        h_cells=(4 if general else 3) * (2 * n - 1), trail_at_suspend=3 * (2 * n - 1) + 1,
        generators=n + 1, answers=n * n,
        slg_resolutions=(n - 1) ** 2 + n + 1 if general else n + 1)


def test_non_ground_tabled_answer_prints_fresh_variable():
    eng = make_engine(":- table p/2.\np(a, X).\np(b, c).\n")
    assert answers(eng, "p(a, Y)") == ["p(a, _G)"]
    assert answers(eng, "p(Z, Y)") == ["p(a, _G)", "p(b, c)"]
    eng = make_engine(":- table p/2.\np(a, X) :- q(X).\nq(W).\n")
    assert answers(eng, "p(a, Y)") == answers(eng, "p(a, Y)") == ["p(a, _G)"]


def test_interrupted_query_leaves_table_space_consistent(monkeypatch):
    class InterruptAt500(cctab.tabling.Budget):
        def __init__(self, steps):
            super().__init__(steps)
            self.spent = 0

        def spend(self):
            self.spent += 1
            if self.spent == 500:
                raise KeyboardInterrupt
            super().spend()

    eng = make_engine(gen_fixture("cycle", 20))
    monkeypatch.setattr(cctab.tabling, "Budget", InterruptAt500)
    with pytest.raises(KeyboardInterrupt):
        answers(eng, "path(X, Y)")
    monkeypatch.undo()
    assert eng.space.stack == [] and eng.space.arenas == []
    assert len(answers(eng, "path(X, Y)")) == 441


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_out_of_memory_is_a_resource_limit(mode, monkeypatch):
    # a complete table made before the failed query survives it
    src = gen_fixture("chain", 12)
    eng, fresh = make_engine(src, mode), make_engine(src, mode)
    assert answers(eng, "path(3, Y)") == answers(fresh, "path(3, Y)")
    memory_error_at_answer(monkeypatch, 30)
    with pytest.raises(ResourceLimitError, match="^out of memory$") as info:
        answers(eng, "path(X, Y)")
    assert info.value.__suppress_context__
    assert eng.space.stack == [] and eng.space.arenas == []
    eng.space.check()
    monkeypatch.undo()
    assert answers(eng, "path(X, Y)") == answers(fresh, "path(X, Y)")
    eng.space.check()


def test_a_second_out_of_memory_is_a_resource_limit(monkeypatch):
    # the handler unmaps the address space held back for it, and the next
    # query maps it again, for the next failure
    src = gen_fixture("chain", 12)
    eng, fresh = make_engine(src), make_engine(src)
    for query in ("path(X, Y)", "path(2, Y)"):
        memory_error_at_answer(monkeypatch, 5)
        with pytest.raises(ResourceLimitError, match="^out of memory$"):
            answers(eng, query)
        monkeypatch.undo()
        assert cctab.tabling._reserve == []
        eng.space.check()
        assert answers(eng, "path(9, Y)") == answers(fresh, "path(9, Y)")
        assert len(cctab.tabling._reserve) == 1
    assert answers(eng, "path(X, Y)") == answers(fresh, "path(X, Y)")


def test_a_query_runs_without_the_reserve_when_no_address_space_is_left(monkeypatch):
    def no_space(*args):
        raise OSError("no address space")

    monkeypatch.setattr(cctab.tabling, "_reserve", [])
    monkeypatch.setattr(cctab.tabling.mmap, "mmap", no_space)
    eng = make_engine(gen_fixture("chain", 3))
    assert answers(eng, "path(2, Y)") == ["path(2, 3)", "path(2, 4)"]
    assert cctab.tabling._reserve == []


@pytest.mark.parametrize("query, error, text", [
    ("slg(X)", InstantiationError, "slg/1: unbound call"),
    ("slg(3)", TypeMismatchError, "slg/1: integer is not a callable term"),
], ids=["unbound", "integer"])
def test_slg_of_a_non_callable_errors(query, error, text):
    eng = make_engine(":- table p/1.\np(1).\n")
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        answers(eng, query)
    eng.space.check()


def replace_answer(entry, text, nvars):
    """Store the term text, with nvars variables, in place of entry's second
    answer."""
    t = canonical_variant(parse_term(text))
    del entry.index[entry.answers[1]]
    entry.index[t] = nvars
    entry.answers[1] = t


# One corruption per invariant TableSpace.check() tests, made after a query
# that leaves one complete table, p(A), with two answers; and the error it
# must raise.
CORRUPTIONS = {
    "open_stack": (lambda space, entry: space.stack.append(entry),
                   "check: stack [0], 0 open arenas"),
    "not_indexed": (lambda space, entry: space.variant_index.clear(),
                    "check: p(A) is not indexed to its entry"),
    "evaluating": (lambda space, entry: setattr(entry, "status", EVALUATING),
                   "check: p(A) is evaluating"),
    "unindexed_answer": (lambda space, entry: entry.index.clear(),
                         "check: p(A) has 2 answers, 0 indexed"),
    "unindexed_term": (lambda space, entry: entry.answers.__setitem__(1, parse_term("q(2)")),
                       "check: p(A) does not index q(2)"),
    "non_instance": (lambda space, entry: replace_answer(entry, "q(2)", 0),
                     "check: p(A) keeps its pattern but holds q(2)"),
    "nonground": (lambda space, entry: replace_answer(entry, "p(X)", 1),
                  "check: p(A) keeps its pattern but holds p(_0)"),
    "dropped_indexed": (lambda space, entry: setattr(entry, "status", DROPPED),
                        "check: variant_index holds an entry that is not complete"),
}


@pytest.mark.parametrize("case", list(CORRUPTIONS))
def test_table_space_check_finds_each_corruption(case):
    corrupt, text = CORRUPTIONS[case]
    eng = make_engine(":- table p/1.\np(1).\np(2).\n")
    assert answers(eng, "p(X)") == ["p(1)", "p(2)"]
    eng.space.check()
    corrupt(eng.space, eng.space.entries[0])
    with pytest.raises(TablingError, match=f"^{re.escape(text)}$"):
        eng.space.check()


REQUERY_AFTER_CYCLIC_TERM = """
import sys
sys.path.insert(0, sys.argv[1])
from conftest import answers, make_engine
from cctab import TypeMismatchError

eng = make_engine(":- table t/1.\\n:- table u/1.\\nt(X) :- u(X).\\nt(X) :- X = f(X).\\nu(a).\\n")
for _ in range(2):
    try:
        answers(eng, "t(X)")
    except TypeMismatchError as e:
        print(e)
    print(eng.space.stack, eng.space.arenas)
print(answers(eng, "u(X)"))
"""


def test_cyclic_answer_purges_the_table_space():
    # in a limited child process: copying a cyclic term never ends
    proc = run_limited("-c", REQUERY_AFTER_CYCLIC_TERM, str(HERE))
    error = "cyclic term: X is bound to a term that contains it\n[] []\n"
    assert (proc.returncode, proc.stdout, proc.stderr[-300:]) == (0, error * 2 + "['u(a)']\n", "")


def test_complete_keeps_outer_generators_on_the_stack():
    space = TableSpace()
    first = space.new_generator(parse_term("t(_)"))
    second = space.new_generator(parse_term("u(_)"))
    space.complete(second)
    assert space.stack == [first]
    assert (first.status, first.pos) == (EVALUATING, 0)
    assert (second.status, second.pos) == (COMPLETE, None)


# t0 reaches t2 only through the plain helper h, so t2's group completes while
# t0 is still evaluating below it on the completion stack.
INDEPENDENT_THROUGH_HELPER = """:- table t0/2.
:- table t2/2.
e(1, 2).
e(2, 1).
t0(X, Y) :- h(X, Y).
h(X, Y) :- t2(X, Y).
t2(X, Y) :- e(X, Y).
t2(X, Y) :- t2(X, Z), e(Z, Y).
"""


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_independent_tabled_call_through_a_helper(mode):
    eng = make_engine(INDEPENDENT_THROUGH_HELPER, mode)
    assert answers(eng, "t0(X, Y)") == ["t0(1, 2)", "t0(2, 1)", "t0(1, 1)", "t0(2, 2)"]
    facts = bottom_up_eval(parse_program(INDEPENDENT_THROUGH_HELPER))
    assert compare_answer_sets(eng.space, facts, PredId("t0", 2), parse_term("t0(X, Y)"))[0]
    assert eng.space.stack == []


# h/2 lies on no cycle through a tabled predicate, but t0 reaches it and it
# reaches t1, so find_bridges marks it.  Run as a plain predicate, h would let
# t0 run slg/1 on t1(X, Y) as a leader of its own while t1(X, Y) consumes
# t1(2, Y), which t0's group is still evaluating, so that group could not
# complete and general mode would refuse the query.
HELPER_ON_NO_CYCLE = """:- table t0/2.
:- table t1/2.
e(1, 2).
e(2, 1).
t0(X, Y) :- e(X, Z), t1(Z, Y).
t0(X, Y) :- h(X, Y).
h(X, Y) :- t1(X, Y).
t1(X, Y) :- e(X, Y).
t1(X, Y) :- e(X, Z), t1(Z, Y).
"""


def _matches_oracle(src):
    eng = make_engine(src)
    answers(eng, "t0(X, Y)")
    facts = bottom_up_eval(parse_program(src))
    return compare_answer_sets(eng.space, facts, PredId("t0", 2), parse_term("t0(X, Y)"))[0]


def test_helper_on_no_cycle_is_a_bridge_and_answers():
    assert find_bridges(parse_program(HELPER_ON_NO_CYCLE)) == {PredId("h", 2)}
    assert _matches_oracle(HELPER_ON_NO_CYCLE)


def test_helper_on_no_cycle_with_a_bridge_declaration():
    assert _matches_oracle(":- bridge h/2.\n" + HELPER_ON_NO_CYCLE)


# h/2 makes three tabled calls a body, so the same continuation is captured
# again and again for one generator; each variant is stored once.
DUPLICATE_CONTINUATIONS = """:- table t0/2.
:- table t1/2.
t0(X, Y) :- h(X, Y).
t0(X, Y) :- e(X, Y).
h(X, Y) :- t1(X, Z), t1(Z, W), t1(W, Y).
h(X, Y) :- e(X, Z), t0(Z, Y).
t1(X, Y) :- e(X, Y).
t1(X, Y) :- h(X, Z), t0(Z, Y).
e(1, 2). e(2, 3). e(3, 4). e(4, 1). e(1, 3).
"""


@pytest.mark.parametrize("mode, suspensions, resumptions",
                         [(Mode.GENERAL, 152, 620), (Mode.LEGACY, 1, 4)], ids=["general", "legacy"])
def test_duplicate_continuations_are_stored_once(mode, suspensions, resumptions):
    eng = make_engine(DUPLICATE_CONTINUATIONS, mode)
    assert len(answers(eng, "t1(X, Y)")) == 16
    assert (eng.counters.suspensions, eng.counters.resumptions) == (suspensions, resumptions)
    assert eng.counters.suspensions == sum(e.suspension_total for e in eng.space.entries)
    assert all(not e.continuations for e in eng.space.entries)
    facts = bottom_up_eval(parse_program(DUPLICATE_CONTINUATIONS))
    assert compare_answer_sets(eng.space, facts, PredId("t1", 2), parse_term("t1(X, Y)"))[0]


# t reaches itself through two bridges, h and g, each ending in guards and
# call(Cont), so a resumption of g's continuation with an answer of t runs
# g's guards, h's guards and t's continuation clause in turn; the guards
# reject some answers (Y > 2 and Y < 5).  The source terminates under plain
# SLD resolution too.
GUARDED_BRIDGES = """:- table t/2.
e(1, 2).
e(2, 3).
e(3, 4).
e(4, 5).
e(2, 5).
e(1, 4).
t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, Z), h(Z, Y).
h(X, Y) :- g(X, Y), Y < 5.
g(X, Y) :- t(X, W), Y is W + 0, Y > 2.
"""


# The smallest step budgets that answer each query: one step per resolved goal,
# a resumed continuation clause included, so a resumption may neither drop nor
# add one, and neither may a goal run in place.
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("make_src, query, budgets", [
    (lambda: gen_fixture("chain", 48), "path(X, Y)",
     {Mode.GENERAL: (4806, 1176), Mode.LEGACY: (4806, 1176)}),
    (lambda: gen_fixture("cycle", 20), "path(X, Y)",
     {Mode.GENERAL: (1938, 441), Mode.LEGACY: (1938, 441)}),
    (lambda: read_fixture("mixed_loop.pl"), "t(A)", {Mode.GENERAL: (15, 2), Mode.LEGACY: (8, 1)}),
    (lambda: GUARDED_BRIDGES, "t(X, Y)", {Mode.GENERAL: (122, 8), Mode.LEGACY: (100, 8)}),
], ids=["chain48", "cycle20", "mixed_loop", "guarded_bridges"])
def test_minimal_step_budget(mode, make_src, query, budgets):
    budget, n_answers = budgets[mode]
    goals = parse_query(query)
    eng = make_engine(make_src(), mode)
    assert len(list(eng.solve(goals, depth_budget=budget))) == n_answers
    eng = make_engine(make_src(), mode)
    with pytest.raises(ResourceLimitError):
        list(eng.solve(goals, depth_budget=budget - 1))


# Shapes of resumption, each in both modes:
#   nonground: the answers p(f(X), X) resumed into r/2's consumer are not
#     ground, so the oracle refuses p/2 and plain SLD resolution of the source
#     (which terminates here) is the reference;
#   aliased: the consumer saves W and Y while they are one unbound variable,
#     so binding W after the resumption binds Y; the oracle refuses W = Y
#     on two unbound sides, so plain SLD resolution is the reference again;
#   constrep: pending calls p(X, X, a) and p(X, 3, a);
#   bridge: h/2 is a bridge, so in general mode a resumed clause ends in
#     call(Cont) and its continuation carries the previous one;
#   chain3: three tabled calls a body, continuations three deep.
RESUMPTION_SHAPES = {
    "nonground": (""":- table r/2.
:- table p/2.
p(f(X), X).
p(g(1), 2).
r(A, B) :- p(A, B), s(B).
s(2).
s(3).
""", "r(A, B)"),
    "aliased": (""":- table r/2.
:- table p/2.
p(1, 2).
p(2, 3).
e(2, 5).
e(3, 6).
r(X, Y) :- W = Y, p(X, Z), e(Z, W).
""", "r(A, B)"),
    "constrep": (""":- table r/1.
:- table p/3.
p(1, 1, a).
p(1, 2, a).
p(2, 2, b).
p(3, 3, a).
p(X, Y, a) :- p(Y, X, a).
r(X) :- p(X, X, a), p(X, 3, a).
""", "r(A)"),
    "bridge": (""":- table t/2.
e(1, 2).
e(2, 3).
e(3, 1).
t(X, Y) :- e(X, Y).
t(X, Y) :- t(X, Z), h(Z, Y).
h(X, Z) :- t(X, W), e(W, Z).
h(X, Y) :- e(X, Y), X < Y.
""", "t(A, B)"),
    "chain3": (""":- table t/2.
e(1, 2).
e(2, 3).
e(3, 4).
t(X, Y) :- t(X, Z), t(Z, W), t(W, Y).
t(X, Y) :- e(X, Y).
""", "t(A, B)"),
}


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("shape", list(RESUMPTION_SHAPES))
def test_resumption_shapes_match_the_reference(shape, mode):
    src, query = RESUMPTION_SHAPES[shape]
    (goal,) = parse_query(query)
    eng = make_engine(src, mode)
    got = answers(eng, query)
    assert eng.counters.resumptions > 0
    program = parse_program(src)
    if shape in ("nonground", "aliased"):
        names = [a.name for a in goal.args]
        want = {print_term(Struct(goal.functor, tuple(s[n] for n in names)))
                for s in sld_solve(goal, program)}
    else:
        facts = bottom_up_eval(program)
        assert compare_answer_sets(eng.space, facts, pred_of(goal), goal)[0]
        want = {print_term(t) for t in oracle_answers_for(facts, goal)}
    assert sorted(got) == sorted(want)


# Hand-written continuations (generator 0 is p(_, _)) whose one clause head is
# not the captured term's pattern, so resuming one must unify the two as
# resolving the term against the clause would: a captured variable that holds
# an answer against a compound (kb), captured constants and compounds against
# other ones (kc, kf), a repeated head variable (kr), and an unbound captured
# variable, which takes the head variable's name (kn).
HAND_WRITTEN_CONTINUATIONS = """:- table p/2.
:- table q/1.
q(1).
q(2).
q(a).
q(f(3)).
e(1).
e(2).
e(a).
e(f(1, x)).
e(f(2, y)).
e(g(1, z)).
p(Y, b) :- slgcall(kb(0, [X], q(X){prev})).
kb(Id, [f(Y)], q(X){prev}) :- answer(Id, p(Y, b)).
p(Y, c) :- e(X), slgcall(kc(0, [X], q(Y){prev})).
kc(Id, [1], q(Y){prev}) :- answer(Id, p(Y, c)).
p(Y, Z) :- e(X), slgcall(kf(0, [X], q(Y){prev})).
kf(Id, [f(1, Z)], q(Y){prev}) :- answer(Id, p(Y, Z)).
p(Y, r) :- e(X), slgcall(kr(0, [X], q(Y){prev})).
kr(Id, [Y], q(Y){prev}) :- answer(Id, p(Y, r)).
p(Y, n) :- slgcall(kn(0, [W], q(Y){prev})).
kn(Id, [V], q(Y){prev}) :- answer(Id, p(g(Y, V), n)).
"""


def hand_written(src: str, mode: Mode) -> str:
    """src with each continuation term given the arity mode expects."""
    return src.replace("{prev}", ", []" if mode is Mode.GENERAL else "")


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_hand_written_continuation_heads(mode):
    eng = make_engine(hand_written(HAND_WRITTEN_CONTINUATIONS, mode), mode)
    (goal,) = parse_query("p(A, B)")
    assert answers(eng, "p(A, B)") == [
        "p(3, b)", "p(1, c)", "p(2, c)", "p(a, c)", "p(f(3), c)",
        "p(1, x)", "p(2, x)", "p(a, x)", "p(f(3), x)", "p(1, r)", "p(2, r)", "p(a, r)",
        "p(g(1, _G), n)", "p(g(2, _G), n)", "p(g(a, _G), n)", "p(g(f(3), _G), n)",
    ]
    assert [print_term(t) for t in eng.answer_terms(goal)][-4:] == [
        "p(g(1, V), n)", "p(g(2, V), n)", "p(g(a, V), n)", "p(g(f(3), V), n)",
    ]
    assert (eng.counters.resumptions, eng.counters.slg_resolutions) == (80, 2)


ONE_CLAUSE_OR_NONE = """:- table p/1.
:- table q/1.
q(1).
p(X) :- slgcall(k(0, [], q(X){prev})).
"""


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("clauses", [0, 2])
def test_resumed_continuation_needs_exactly_one_clause(mode, clauses):
    clause = "k(Id, [], q(X){prev}) :- answer(Id, p(X)).\n"
    eng = make_engine(hand_written(ONE_CLAUSE_OR_NONE + clause * clauses, mode), mode)
    arity = 4 if mode is Mode.GENERAL else 3
    with pytest.raises(TablingError, match=rf"^continuation predicate k/{arity} has {clauses} "):
        answers(eng, "p(X)")
    assert eng.space.stack == [] and eng.space.arenas == []


def _resumption_depths(monkeypatch) -> list:
    """For each resumption from now on, how many clauses its resume plan runs
    in place: its stored continuation's clause and one per call(Cont)
    descent; 0 when it has no plan."""
    depths = []
    resume = Engine._resume

    def recorded(self, m, stored, ans):
        try:
            return resume(self, m, stored, ans)
        finally:
            depths.append(len(stored.plan[1]) if stored.plan else 0)

    monkeypatch.setattr(Engine, "_resume", recorded)
    return depths


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_two_bridge_levels_resume_in_place(mode, monkeypatch):
    depths = _resumption_depths(monkeypatch)
    eng = make_engine(GUARDED_BRIDGES, mode)
    got = answers(eng, "t(X, Y)")
    assert got == ["t(1, 2)", "t(2, 3)", "t(3, 4)", "t(4, 5)", "t(2, 5)", "t(1, 4)",
                   "t(1, 3)", "t(2, 4)"]
    program = parse_program(GUARDED_BRIDGES)
    (goal,) = parse_query("t(X, Y)")
    assert compare_answer_sets(eng.space, bottom_up_eval(program), pred_of(goal), goal)[0]
    sld = {print_term(Struct("t", (s["X"], s["Y"]))) for s in sld_solve(goal, program)}
    assert sorted(got) == sorted(sld)
    # general mode resumes g's continuation into h's and on into t's; legacy
    # mode runs the helpers as plain predicates and resumes nothing
    assert max(depths, default=0) == (3 if mode is Mode.GENERAL else 0)


# V is never bound, so k's guard raises: when its continuation is resumed in
# general mode, where k/2 is a bridge, and in plain resolution in legacy mode.
RAISING_GUARD = """:- table t/2.
:- table u/2.
e(1, 2).
e(2, 3).
t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, Z), t(Z, Y).
u(X, Y) :- k(X, Y).
k(X, Y) :- t(X, Y), W is V + Y, W > 0.
"""


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_guard_that_raises_purges_the_tables(mode):
    eng = make_engine(RAISING_GUARD, mode)
    for _ in range(2):
        with pytest.raises(InstantiationError, match="^unbound variable in arithmetic"):
            answers(eng, "u(X, Y)")
        assert eng.space.stack == [] and eng.space.arenas == []
    assert answers(eng, "t(X, Y)") == ["t(1, 2)", "t(2, 3)", "t(1, 3)"]


# Hand-written continuations k/3 or k/4 (generator 0 is p(_)) carrying the
# goal their clause calls last: a tabling primitive, a one-clause predicate
# (also through call/1), a two-clause one, built-ins that fail or succeed,
# an unbound variable and an integer.  Each answers, or fails with the error,
# as the machine would.  The program also has one clause each for answer/2,
# call/1 and >/2, which the machine never resolves, and neither may a
# resumption that runs in place.
HAND_WRITTEN_CALLS = """:- table p/1.
:- table q/1.
answer(Id, A) :- fail.
call(G) :- fail.
X > Y :- fail.
q(1).
q(2).
k(Id, [Cont], q(X){prev}) :- X > 0, call(Cont).
one(X) :- answer(0, p(h(X))).
two(X) :- answer(0, p(f(X))).
two(X) :- answer(0, p(g(X))).
p(X) :- slgcall(k(0, [{cont}], q(X){prev})).
"""


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("cont, expected, resumptions", [
    ("answer(0, p(X))", ["p(1)", "p(2)"], 2),
    ("one(X)", ["p(h(1))", "p(h(2))"], 2),
    ("call(one(X))", ["p(h(1))", "p(h(2))"], 2),
    ("two(X)", ["p(f(1))", "p(g(1))", "p(f(2))", "p(g(2))"], 2),
    ("X > 5", [], 2),
    ("X > 1", (TablingError, "internal: translated clause body succeeded"), 2),
    ("C", (InstantiationError, "call/1: unbound goal"), 1),
    ("7", (TypeMismatchError, "call/1: integer is not callable"), 1),
], ids=["primitive", "one_clause", "call", "two_clauses", "failing_builtin",
        "succeeding_builtin", "unbound", "integer"])
def test_hand_written_call_continuations(mode, cont, expected, resumptions):
    src = hand_written(HAND_WRITTEN_CALLS, mode).replace("{cont}", cont)
    eng = make_engine(src, mode)
    if isinstance(expected, list):
        assert answers(eng, "p(X)") == expected
    else:
        error, text = expected
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            answers(eng, "p(X)")
        assert eng.space.stack == [] and eng.space.arenas == []
    assert (eng.counters.resumptions, eng.counters.slg_resolutions) == (resumptions, 2)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("old, new, cont, expected", [
    ("[Cont]", "[Cont, Cont]", "one(X), one(X)", ["p(h(1))", "p(h(2))"]),
    ("[Cont]", "[Cont, Cont]", "one(X), one(f(X))", []),
    ("X > 0,", "Cont = one(X),", "one(X)", ["p(h(1))", "p(h(2))"]),
    ("X > 0,", "Cont = one(X),", "one(f(X))", []),
], ids=["repeated_equal", "repeated_different", "guard_equal", "guard_different"])
def test_continuation_variable_used_before_the_call(mode, old, new, cont, expected):
    # Cont occurs again in k's head or in a guard, so the goal it holds must
    # meet that occurrence before it is called
    src = hand_written(HAND_WRITTEN_CALLS, mode).replace(old, new).replace("{cont}", cont)
    eng = make_engine(src, mode)
    assert answers(eng, "p(X)") == expected


INTERLEAVED = {
    Mode.GENERAL: (17, 18, 51, 68, 35, 14, 26, 32),
    Mode.LEGACY: (17, 18, 51, 51, 35, 14, 26, 14),
}


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_interleaved_queries_with_one_closed_early(mode):
    # each query's machine holds the generators it opened, so a query paused
    # at a solution must leave none open for the other to meet
    eng = make_engine(gen_fixture("chain", 6), mode)
    a = eng.solve(parse_query("path(1, X), path(X, Y)"))
    b = eng.solve(parse_query("path(X, 4)"))
    got = [print_term(next(a).goals[1]), print_term(next(b).goals[0]),
           print_term(next(a).goals[1])]
    b.close()
    got += [print_term(s.goals[1]) for s in a]
    assert got == [
        "path(2, 3)", "path(3, 4)", "path(2, 4)", "path(2, 5)", "path(2, 6)", "path(2, 7)",
        "path(3, 4)", "path(3, 5)", "path(3, 6)", "path(3, 7)", "path(4, 5)", "path(4, 6)",
        "path(4, 7)", "path(5, 6)", "path(5, 7)", "path(6, 7)",
    ]
    assert answers(eng, "path(X, 4)") == ["path(3, 4)", "path(2, 4)", "path(1, 4)"]
    assert dataclasses.astuple(eng.counters) == INTERLEAVED[mode]
    assert eng.space.stack == [] and eng.space.arenas == []


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("make_src, query, generators", [
    (lambda: gen_fixture("chain", 48), "path(X, Y)", 49),
    (lambda: read_fixture("mixed_loop.pl"), "t(A)", 1),
], ids=["chain48", "mixed_loop"])
def test_one_machine_per_query(mode, make_src, query, generators, monkeypatch):
    built = []

    class Counted(Machine):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    eng = make_engine(make_src(), mode)
    monkeypatch.setattr(cctab.tabling, "Machine", Counted)
    assert answers(eng, query)
    assert (len(built), eng.counters.generators) == (1, generators)


# Hand-written translated clauses: slg_q/2's body succeeds, where a
# translation's generator clause always ends in a failing answer/2.
SUCCEEDING_GENERATOR = """slg_p(p(X), Id) :- slgcall(k(Id, [], q(X){prev})).
k(Id, [], q(X){prev}) :- answer(Id, p(X)).
slg_q(q(X), Id).
"""


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("query, generators", [("slg(q(X))", 1), ("slg(p(X))", 2)],
                         ids=["slg", "slgcall"])
def test_succeeding_generator_clause_is_an_internal_error(mode, query, generators):
    eng = Engine(parse_program(hand_written(SUCCEEDING_GENERATOR, mode)))
    with pytest.raises(TablingError, match="^internal: translated clause body succeeded$"):
        list(eng.solve(parse_query(query)))
    assert eng.space.stack == [] and eng.space.arenas == []
    assert eng.space.variant_index == {}
    assert (eng.counters.generators, eng.counters.slg_resolutions) == (generators, generators)


# p(X)'s evaluation never ends: each answer of q runs into loop/1, so the
# budget stops the query and drops p's and q's generators (ids 0 and 1).
DROPPED_BY_BUDGET = """:- table p/1.
:- table q/1.
q(1).
q(2).
p(X) :- q(X), loop(X).
loop(X) :- loop(X).
k(Id, [], q(X), []) :- answer(Id, p(X)).
"""


@pytest.mark.parametrize("query, prim", [("answer(0, p(7))", "answer/2"),
                                         ("slgcall(k(0, [], q(X), []))", "slgcall/1")],
                         ids=["answer", "slgcall"])
def test_dropped_generator_is_refused(query, prim):
    eng = make_engine(DROPPED_BY_BUDGET)
    with pytest.raises(ResourceLimitError):
        list(eng.solve(parse_query("p(X)"), depth_budget=2000))
    generators = eng.counters.generators
    with pytest.raises(TablingError, match=f"^{prim}: generator 0 was dropped by a failed query$"):
        list(eng.solve(parse_query(query)))
    assert eng.space.entries[0].answers == [] and eng.counters.generators == generators
    assert eng.space.stack == [] and eng.space.arenas == []


def check_evaluation_invariants(space):
    """The invariants that let the runtime read a generator's arena and stack
    position without testing them: an arena is open while any generator is
    evaluating, and the completion stack holds exactly the evaluating
    entries, each at its position and depending on none above it."""
    assert space.arenas or not space.stack
    for pos, e in enumerate(space.stack):
        assert (e.pos, e.status) == (pos, EVALUATING)
        assert e.deplink <= e.pos
    stacked = sum(e.pos is not None for e in space.entries)
    assert stacked == len(space.stack)


def invariant_programs():
    """(source, query) pairs: the differential test's seeded programs, the
    generated graphs and the mixed loop."""
    rng = random.Random(SEED)
    for _ in range(PROGRAMS):
        src = random_program(rng)
        for t in sorted(p.name for p in parse_program(src).tabled):
            yield src, f"{t}(X, Y)"
    for kind in ("chain", "cycle", "grid"):
        for size in (3, 6):
            yield gen_fixture(kind, size), "path(X, Y)"
    yield read_fixture("mixed_loop.pl"), "t(A)"


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_evaluation_invariants_hold_at_every_primitive(mode, monkeypatch):
    calls = []
    for name in ("on_slg", "on_slgcall", "on_answer"):
        real = getattr(Engine, name)

        def hook(self, machine, goal, rest, *more, real=real):
            check_evaluation_invariants(self.space)
            calls.append(real.__name__)
            result = real(self, machine, goal, rest, *more)
            check_evaluation_invariants(self.space)
            return result

        monkeypatch.setattr(Engine, name, hook)
    for src, query in invariant_programs():
        eng = make_engine(src, mode)
        for _ in range(2):  # a cold query, then a re-query
            list(eng.solve(parse_query(query)))
            eng.space.check()
    assert len(calls) > 10_000
