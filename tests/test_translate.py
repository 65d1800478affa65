import random
import re

import pytest

from cctab import (
    Mode,
    PredId,
    Program,
    Struct,
    TranslateError,
    effective_bridges,
    find_bridges,
    get_lbinds,
    parse_program,
    parse_query,
    parse_term,
    print_program,
    print_term,
    split_following,
    translate,
)
from cctab.terms import canonical_clause, pred_of, vars_of, vars_of_all

from conftest import FIXTURES, read_fixture, read_golden
from test_differential import SEED, random_program


def general(src: str) -> Program:
    return translate(parse_program(src), Mode.GENERAL)


def legacy(src: str) -> Program:
    return translate(parse_program(src), Mode.LEGACY)


# -- golden translations -------------------------------------------------------


def test_golden_mixed_loop_general():
    assert print_program(general(read_fixture("mixed_loop.pl"))) == read_golden(
        "mixed_loop.general.pl"
    )


def test_golden_mixed_loop_legacy():
    assert print_program(legacy(read_fixture("mixed_loop.pl"))) == read_golden(
        "mixed_loop.legacy.pl"
    )


def test_golden_reach_legacy():
    assert print_program(legacy(read_fixture("reach.pl"))) == read_golden("reach.legacy.pl")


def test_golden_reach_general():
    assert print_program(general(read_fixture("reach.pl"))) == read_golden("reach.general.pl")


# -- the bridge set -----------------------------------------------------------------


def test_translate_absorbs_a_bridge_union_already_made():
    # A caller may pass a program whose declared bridges already hold
    # find_bridges' result, as bench/run.py does; find_bridges ignores the
    # declarations, so translate gives the same program.
    rng = random.Random(SEED)
    sources = [f.read_text() for f in sorted(FIXTURES.glob("*.pl"))]
    sources += [random_program(rng) for _ in range(40)]
    for src in sources:
        p = parse_program(src)
        unioned = Program(p.clauses, p.tabled, p.bridges | find_bridges(p))
        assert translate(p, Mode.GENERAL) == translate(unioned, Mode.GENERAL), src
        assert effective_bridges(p, Mode.GENERAL) == unioned.bridges
        assert effective_bridges(p, Mode.LEGACY) == p.bridges


# -- split_following --------------------------------------------------------------


def goals(text):
    return parse_query(text)


def test_split_at_leftmost_bridge():
    body = goals("p(B), A is B + 1")
    prefix, pivot, suffix = split_following(body, frozenset(), {PredId("p", 1)})
    assert prefix == []
    assert print_term(pivot) == "p(B)"
    assert [print_term(g) for g in suffix] == ["A is B + 1"]


def test_split_at_tabled_call_after_prefix():
    body = goals("edge(X, Y), path(Y, Z)")
    prefix, pivot, suffix = split_following(body, {PredId("path", 2)}, frozenset())
    assert [print_term(g) for g in prefix] == ["edge(X, Y)"]
    assert print_term(pivot) == "path(Y, Z)"
    assert suffix == []


def test_split_without_pivot():
    body = goals("edge(X, Z)")
    prefix, pivot, suffix = split_following(body, {PredId("path", 2)}, frozenset())
    assert pivot is None
    assert prefix == body
    assert suffix == []


def test_split_commits_to_first_pivot():
    body = goals("t(X), t(Y)")
    _, pivot, suffix = split_following(body, {PredId("t", 1)}, frozenset())
    assert print_term(pivot) == "t(X)"
    assert [print_term(g) for g in suffix] == ["t(Y)"]


# -- get_lbinds --------------------------------------------------------------------


def test_lbinds_mixed_loop_clause():
    head = parse_term("c(t(A), p(B), x(A, B))")  # one clause's terms, sharing vars
    t_head, pivot, after = head.args
    binds = get_lbinds([t_head], pivot, [Struct("is", (after.args[0], after.args[1]))])
    assert [v.name for v in binds] == ["A"]


def test_lbinds_reach_clause():
    packed = parse_term("c(path(X, Z), edge(X, Y), path(Y, Z), answer(path(X, Z)))")
    head, prefix, pivot, end = packed.args
    binds = get_lbinds([head, prefix], pivot, [end])
    assert [v.name for v in binds] == ["X"]


def test_lbinds_excludes_pivot_vars():
    packed = parse_term("c(p(B), t(B), lt(B))")
    head, pivot, after = packed.args
    assert get_lbinds([head], pivot, [after]) == []


def test_lbinds_first_occurrence_order():
    packed = parse_term("c(h(U, W), a(W, V), t(Z), g(V, U, W))")
    head, prefix, pivot, after = packed.args
    assert [v.name for v in get_lbinds([head, prefix], pivot, [after])] == ["U", "W", "V"]


# -- identity and shape ---------------------------------------------------------------


def _random_plain_program(rng, n_clauses):
    lines = []
    preds = ["a", "b", "c", "d", "e"]
    for _ in range(n_clauses):
        p = rng.choice(preds)
        if rng.random() < 0.4:
            lines.append(f"{p}({rng.randint(0, 9)}).")
        else:
            q = rng.choice(preds)
            lines.append(f"{p}(X) :- {q}(X).")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mode", [Mode.GENERAL, Mode.LEGACY])
def test_identity_on_undeclared_programs(mode):
    rng = random.Random(23)
    for _ in range(20):
        p = parse_program(_random_plain_program(rng, rng.randint(1, 12)))
        out = translate(p, mode)
        assert out.clauses == p.clauses
        assert not out.tabled and not out.bridges


def test_translated_output_reparses():
    for src in (read_fixture("mixed_loop.pl"), read_fixture("reach.pl")):
        out = print_program(general(src))
        again = parse_program(out)
        assert [canonical_clause(c) for c in again.clauses] == [
            canonical_clause(c) for c in general(src).clauses
        ]


def test_no_naked_tabled_body_goals():
    # except inside the verbatim copies of bridge clauses, which keep the
    # non-tabled entry point intact
    for src in (read_fixture("mixed_loop.pl"), read_fixture("reach.pl")):
        original = parse_program(src)
        bridges = effective_bridges(original, Mode.GENERAL)
        for clause in general(src).clauses:
            if clause.pred() in bridges:
                continue
            for goal in clause.body:
                assert pred_of(goal) not in original.tabled


def test_bridge_clauses_kept_verbatim():
    original = parse_program(read_fixture("mixed_loop.pl"))
    out = general(read_fixture("mixed_loop.pl"))
    bridge_clause = original.clauses_for(PredId("p", 1))[0]
    assert canonical_clause(bridge_clause) in [canonical_clause(c) for c in out.clauses]


def test_closed_continuations():
    # continuation clauses carry every variable their bodies need
    for src in (read_fixture("mixed_loop.pl"), read_fixture("reach.pl")):
        out = general(src)
        for clause in out.clauses:
            name = clause.pred().name
            if re.fullmatch(r"(slg_\w+?|\w+?_bridge)\d+", name):
                head_ids = {v.id for v in vars_of(clause.head)}
                body_ids = {v.id for v in vars_of_all(clause.body)}
                assert body_ids <= head_ids


def test_answer_terminated_chains():
    out = general(read_fixture("mixed_loop.pl"))
    enders = {}
    for clause in out.clauses:
        last = clause.body[-1]
        enders.setdefault(clause.pred().name, []).append(pred_of(last))
    assert enders["slg_t"] == [PredId("p_bridge", 3), PredId("answer", 2)]
    assert enders["slg_t0"] == [PredId("answer", 2)]
    assert enders["p_bridge"] == [PredId("slgcall", 1)]
    assert enders["p_bridge0"] == [PredId("call", 1)]


def test_multi_pivot_clause_chain():
    src = """:- table d/2.
:- table e/2.
:- table f/2.

d(X, Z) :- e(X, Y), f(Y, Z), X < Z.
e(1, 2).
f(2, 3).
"""
    out = print_program(translate(parse_program(src), Mode.GENERAL))
    assert "slg_d(d(X, Z), Id) :- slgcall(slg_d0(Id, [Z], e(X, Y), []))." in out
    assert "slg_d0(Id, [Z], e(X, Y), []) :- slgcall(slg_d1(Id, [X], f(Y, Z), []))." in out
    assert "slg_d1(Id, [X], f(Y, Z), []) :- X < Z, answer(Id, d(X, Z))." in out


def test_bridge_chain_threads_same_id_and_nests_continuations():
    src = """:- table t/1.

t(0).
t(X) :- a(X).
a(X) :- b(Y), X is Y + 1, X < 4.
b(Y) :- t(Y).
"""
    out = print_program(general(src))
    assert "a_bridge(a(X), Id, Cont) :- b_bridge(b(Y), Id, a_bridge0(Id, [X], b(Y), Cont))." in out
    assert "b_bridge(b(Y), Id, Cont) :- slgcall(b_bridge0(Id, [], t(Y), Cont))." in out
    assert "b_bridge0(Id, [], t(Y), Cont) :- call(Cont)." in out


def test_tabled_fact_translation():
    out = print_program(legacy(":- table t/1.\nt(0).\n"))
    assert "slg_t(t(0), Id) :- answer(Id, t(0))." in out


def test_zero_clause_tabled_predicate_warns(caplog):
    with caplog.at_level("WARNING", logger="cctab.translate"):
        out = translate(parse_program(":- table ghost/1.\nq(0).\n"), Mode.GENERAL)
    assert "ghost/1" in caplog.text
    assert "ghost(A) :- slg(ghost(A))." in print_program(out)


def test_higher_order_tabled_call_rejected():
    src = ":- table t/1.\nt(0).\nq(X) :- call(t(X)).\n"
    with pytest.raises(TranslateError, match="higher-order call"):
        translate(parse_program(src), Mode.GENERAL)


def test_generated_name_collision_rejected():
    src = ":- table t/1.\nt(0).\nslg_t(9).\n"
    with pytest.raises(TranslateError, match="collides"):
        translate(parse_program(src), Mode.GENERAL)


# -- mode coincidence -----------------------------------------------------------------


def _legacyize(term, tabled_names):
    if not isinstance(term, Struct):
        return term
    args = term.args
    m = re.fullmatch(r"slg_([a-z]+)(\d+)", term.functor)
    functor = term.functor
    if m and m.group(1) in tabled_names:
        functor = f"{m.group(1)}_cont{m.group(2)}"
        args = args[:3]
    return Struct(functor, tuple(_legacyize(a, tabled_names) for a in args))


def test_modes_coincide_without_bridges():
    rng = random.Random(31)
    for _ in range(15):
        lines = [":- table pa/2."]
        lines.append("pa(X, Z) :- base(X, Y), pa(Y, Z).")
        lines.append("pa(X, Z) :- base(X, Z).")
        for _ in range(rng.randint(1, 4)):
            lines.append(f"base({rng.randint(0, 5)}, {rng.randint(0, 5)}).")
        src = "\n".join(lines) + "\n"
        p = parse_program(src)
        assert find_bridges(p) == set()
        gen = translate(p, Mode.GENERAL)
        leg = translate(p, Mode.LEGACY)
        stripped = [
            canonical_clause(
                type(c)(_legacyize(c.head, {"pa"}), tuple(_legacyize(g, {"pa"}) for g in c.body))
            )
            for c in gen.clauses
        ]
        assert stripped == [canonical_clause(c) for c in leg.clauses]
