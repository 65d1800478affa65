import pytest

from cctab import (
    Mode,
    PredId,
    RangeRestrictionError,
    ResourceLimitError,
    bottom_up_eval,
    canonical_variant,
    compare_answer_sets,
    gen_fixture,
    parse_program,
    parse_query,
    parse_term,
    print_term,
)
from cctab.oracle import _eval_builtin_goal, oracle_answers_for

from conftest import make_engine, read_fixture


def names(facts, pred):
    return sorted(print_term(t) for t in facts.get(pred, ()))


def test_mixed_loop_fixpoint(mixed_loop_src):
    facts = bottom_up_eval(parse_program(mixed_loop_src))
    assert names(facts, PredId("t", 1)) == ["t(0)", "t(1)"]
    assert names(facts, PredId("p", 1)) == ["p(0)"]


def test_two_cycle_fixpoint():
    facts = bottom_up_eval(parse_program(gen_fixture("cycle", 1)))
    assert names(facts, PredId("path", 2)) == [
        "path(1, 1)",
        "path(1, 2)",
        "path(2, 1)",
        "path(2, 2)",
    ]


def test_empty_program():
    assert bottom_up_eval(parse_program("")) == {}


def test_monotone_and_idempotent():
    src = gen_fixture("chain", 3)
    p = parse_program(src)
    sizes = []

    # re-run with increasing caps; the naive store only ever grows
    for cap in (1, 2, 3, 50):
        try:
            facts = bottom_up_eval(p, cap=cap)
        except ResourceLimitError:
            continue
        sizes.append(sum(len(s) for s in facts.values()))
    assert sizes == sorted(sizes)
    full = bottom_up_eval(p)
    again = bottom_up_eval(p, cap=100)
    assert full == again  # one extra round adds nothing


def test_non_range_restricted_clause_named():
    with pytest.raises(RangeRestrictionError, match=r"free\(X\)"):
        bottom_up_eval(parse_program("free(X) :- q(Y).\nq(1).\n"))


def test_unbound_arithmetic_rejected():
    with pytest.raises(RangeRestrictionError):
        bottom_up_eval(parse_program("bad(X) :- X is Y + 1.\n"))


def test_call_is_evaluated_as_its_goal():
    facts = bottom_up_eval(parse_program(
        "p(X) :- call(q(X)).\nr(X) :- q(X), call(s(X, Y)), call(call(Y)).\n"
        "q(1).\nq(2).\ns(1, t).\ns(2, u).\nu.\n"
    ))
    assert names(facts, PredId("p", 1)) == ["p(1)", "p(2)"]
    assert names(facts, PredId("r", 1)) == ["r(2)"]


@pytest.mark.parametrize("body", ["call(G), q(X)", "q(X), call(X)"], ids=["unbound", "integer"])
def test_call_of_an_unbound_or_integer_goal_rejected(body):
    message = r"\(call/1 of an unbound or non-callable goal\): p\(X\) :- "
    with pytest.raises(RangeRestrictionError, match=message):
        bottom_up_eval(parse_program(f"p(X) :- {body}.\nq(1).\n"))


def test_iteration_cap():
    # a counter that grows forever is not bounded-term-size
    src = "n(0).\nn(X) :- n(Y), X is Y + 1.\n"
    with pytest.raises(ResourceLimitError, match="cap"):
        bottom_up_eval(parse_program(src), cap=50)


def test_builtins_in_bodies():
    src = """val(1).
val(4).
ok(X) :- val(X), X < 3.
eq(X) :- val(X), X =:= 4.
diff(X) :- val(X), X \\= 1.
double(Y) :- val(X), Y is X * 2.
"""
    facts = bottom_up_eval(parse_program(src))
    assert names(facts, PredId("ok", 1)) == ["ok(1)"]
    assert names(facts, PredId("eq", 1)) == ["eq(4)"]
    assert names(facts, PredId("diff", 1)) == ["diff(4)"]
    assert names(facts, PredId("double", 1)) == ["double(2)", "double(8)"]


def test_ground_enough_builtins_in_bodies():
    src = """val(1).
val(4).
yes(X) :- val(X), true.
no(X) :- val(X), fail.
four(X) :- val(X), X is 2 + 2.
copy(X) :- val(Y), X = Y.
back(Y) :- val(X), X = Y.
"""
    facts = bottom_up_eval(parse_program(src))
    assert names(facts, PredId("yes", 1)) == ["yes(1)", "yes(4)"]
    assert names(facts, PredId("no", 1)) == []
    assert names(facts, PredId("four", 1)) == ["four(4)"]  # is/2 with a bound left side
    assert names(facts, PredId("copy", 1)) == ["copy(1)", "copy(4)"]  # only the right side ground
    assert names(facts, PredId("back", 1)) == ["back(1)", "back(4)"]  # only the left side ground


@pytest.mark.parametrize("src, message", [
    ("p(X) :- X = Y.\n", r"\(=/2 with both sides unbound\): p\(X\) :- X = Y\.$"),
    ("p(X) :- q(X), X \\= Y.\nq(1).\n", r"\(\\=/2 on unbound operands\): p\(X\) :- "),
], ids=["unify", "not_unify"])
def test_builtin_on_unbound_operands_rejected(src, message):
    with pytest.raises(RangeRestrictionError, match=message):
        bottom_up_eval(parse_program(src))


def test_unsupported_builtin_goal_rejected():
    # bottom_up_eval passes only engine built-ins here; a goal outside them is refused
    clause = parse_program("p :- foo.\n").clauses[0]
    message = r"^unsupported goal foo in clause: p :- foo\.$"
    with pytest.raises(RangeRestrictionError, match=message):
        list(_eval_builtin_goal(parse_term("foo"), {}, clause))


def test_oracle_answers_for_variant_filter():
    facts = bottom_up_eval(parse_program(gen_fixture("chain", 3)))
    subset = oracle_answers_for(facts, parse_term("path(2, X)"))
    assert sorted(print_term(t) for t in subset) == ["path(2, 3)", "path(2, 4)"]
    shared = oracle_answers_for(facts, parse_term("path(X, X)"))
    assert shared == set()
    # a fact of another type, functor or arity at an argument does not match
    facts = bottom_up_eval(parse_program("q(f(1)).\nq(g(1)).\nq(f(1, 2)).\nq(1).\nq(a).\n"))
    assert oracle_answers_for(facts, parse_term("q(f(X))")) == {parse_term("q(f(1))")}


# -- engine comparison --------------------------------------------------------------


def test_general_mode_agrees_with_oracle(mixed_loop_src):
    eng = make_engine(mixed_loop_src)
    list(eng.solve(parse_query("t(A)")))
    facts = bottom_up_eval(parse_program(mixed_loop_src))
    equal, missing, extra = compare_answer_sets(eng.space, facts, PredId("t", 1))
    assert equal and not missing and not extra


def test_legacy_mode_mismatch_reports_missing(mixed_loop_src):
    eng = make_engine(mixed_loop_src, Mode.LEGACY)
    list(eng.solve(parse_query("t(A)")))
    facts = bottom_up_eval(parse_program(mixed_loop_src))
    equal, missing, extra = compare_answer_sets(eng.space, facts, PredId("t", 1))
    assert not equal
    assert [print_term(t) for t in missing] == ["t(1)"]
    assert extra == []


def test_random_graph_transitive_closure_agrees():
    import random

    rng = random.Random(97)
    edges = [(i, j) for i in range(1, 9) for j in range(1, 9) if rng.random() < 0.3]
    src = read_fixture("reach.pl") + "".join(f"edge({a}, {b}).\n" for a, b in edges)
    eng = make_engine(src)
    q = parse_query("path(X, Y)")[0]
    list(eng.solve(q))
    facts = bottom_up_eval(parse_program(src))
    equal, missing, extra = compare_answer_sets(eng.space, facts, PredId("path", 2), call=q)
    assert equal, (missing, extra)


def test_grid_fixture_agrees_with_oracle():
    src = gen_fixture("grid", 3)
    eng = make_engine(src)
    q = parse_query("path(X, Y)")[0]
    count = sum(1 for _ in eng.solve(q))
    facts = bottom_up_eval(parse_program(src))
    equal, missing, extra = compare_answer_sets(eng.space, facts, PredId("path", 2), call=q)
    assert equal, (missing, extra)
    assert count == len(facts[PredId("path", 2)]) > 0


SEVERAL = ":- table p/2.\n:- table q/0.\np(a, b).\np(b, b).\nq.\n"


def test_compare_picks_the_most_general_entry():
    eng = make_engine(SEVERAL)
    facts = bottom_up_eval(parse_program(SEVERAL))
    for query in ("p(a, X)", "p(X, X)", "p(X, Y)"):
        list(eng.solve(parse_query(query)))
    general = eng.space.variant_index.get(canonical_variant(parse_term("p(X, Y)")))
    general.answers.append(parse_term("p(z, z)"))  # only this entry reports it
    assert compare_answer_sets(eng.space, facts, PredId("p", 2)) == (
        False, [], [parse_term("p(z, z)")])


# with no call given, the table is looked up by pred's most general call
@pytest.mark.parametrize("queries", [["p(a, X)", "p(X, X)"]], ids=["none"])
def test_compare_without_a_unique_most_general_entry_errors(queries):
    eng = make_engine(SEVERAL)
    facts = bottom_up_eval(parse_program(SEVERAL))
    for query in queries:
        list(eng.solve(parse_query(query)))
    with pytest.raises(RangeRestrictionError, match=r"^no completed table entry for p\(_0, _1\)$"):
        compare_answer_sets(eng.space, facts, PredId("p", 2))


def test_compare_requires_completed_entry(mixed_loop_src):
    eng = make_engine(mixed_loop_src)
    facts = bottom_up_eval(parse_program(mixed_loop_src))
    with pytest.raises(RangeRestrictionError):
        compare_answer_sets(eng.space, facts, PredId("t", 1), call=parse_term("t(X)"))
