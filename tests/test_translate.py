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
    parse_program,
    print_clause,
    print_program,
    translate,
)
from cctab.engine import compile_index
from cctab.terms import pred_of, vars_of

from conftest import FIXTURES, answers, make_engine, read_fixture, read_golden
from test_differential import SEED, random_program
from test_syntax import canonical_clause


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


# -- cutting a body at its tabled and bridge calls ---------------------------------
# Each cut ends a clause in a call that carries a continuation; the binding
# list of that continuation holds the variables bound before the cut and used
# after it (the final answer/2 or call(Cont) included), except those of the
# call itself, in first-occurrence order.


def chain(src: str) -> list:
    return print_program(general(src)).splitlines()


def test_split_at_leftmost_bridge():
    out = chain(read_fixture("mixed_loop.pl"))  # t(A) :- p(B), A is B + 1.
    assert "slg_t(t(A), Id) :- p_bridge(p(B), Id, slg_t0(Id, [A], p(B), []))." in out
    assert "slg_t0(Id, [A], p(B), []) :- A is B + 1, answer(Id, t(A))." in out


def test_split_at_tabled_call_after_prefix():
    out = chain(read_fixture("reach.pl"))  # path(X, Z) :- edge(X, Y), path(Y, Z).
    assert "slg_path(path(X, Z), Id) :- edge(X, Y), slgcall(slg_path0(Id, [X], path(Y, Z), []))." in out
    assert "slg_path0(Id, [X], path(Y, Z), []) :- answer(Id, path(X, Z))." in out


def test_split_without_pivot():
    out = chain(read_fixture("reach.pl"))  # path(X, Z) :- edge(X, Z).
    assert "slg_path(path(X, Z), Id) :- edge(X, Z), answer(Id, path(X, Z))." in out
    assert [line for line in out if line.startswith("slg_path1")] == []


def test_split_commits_to_first_pivot():
    out = chain(":- table t/1.\n:- table u/2.\nu(X, Y) :- t(X), t(Y).\n")
    assert "slg_u(u(X, Y), Id) :- slgcall(slg_u0(Id, [Y], t(X), []))." in out
    assert "slg_u0(Id, [Y], t(X), []) :- slgcall(slg_u1(Id, [X], t(Y), []))." in out
    assert "slg_u1(Id, [X], t(Y), []) :- answer(Id, u(X, Y))." in out


def test_lbinds_mixed_loop_clause():
    out = general(read_fixture("mixed_loop.pl"))
    conts = [c.head for c in out.clauses if c.pred() == PredId("slg_t0", 4)]
    assert [[v.name for v in vars_of(h.args[1])] for h in conts] == [["A"]]


def test_lbinds_reach_clause():
    out = general(read_fixture("reach.pl"))
    conts = [c.head for c in out.clauses if c.pred() == PredId("slg_path0", 4)]
    assert [[v.name for v in vars_of(h.args[1])] for h in conts] == [["X"]]


def test_lbinds_excludes_pivot_vars():
    # B is used after the cut, by answer/2, but travels inside t(B)
    out = chain(":- table p/1.\n:- table t/1.\np(B) :- t(B), lt(B).\n")
    assert "slg_p(p(B), Id) :- slgcall(slg_p0(Id, [], t(B), []))." in out
    assert "slg_p0(Id, [], t(B), []) :- lt(B), answer(Id, p(B))." in out


# a generated name skips a source predicate's (slg_p0) or a clause variable's (Id)
@pytest.mark.parametrize("clauses, want", [
    ("p(B) :- t(B), lt(B).\nslg_p0(x).\n",
     "slg_p(p(B), Id) :- slgcall(slg_p1(Id, [], t(B), []))."),
    ("p(Id) :- t(Id), lt(Id).\n",
     "slg_p(p(Id), Id0) :- slgcall(slg_p0(Id0, [], t(Id), []))."),
], ids=["predicate", "variable"])
def test_generated_names_avoid_source_names(clauses, want):
    assert want in chain(":- table p/1.\n:- table t/1.\n" + clauses)


def test_lbinds_first_occurrence_order():
    out = chain(":- table h/2.\n:- table t/1.\nh(U, W) :- a(W, V), t(Z), g(V, U, W).\n")
    assert "slg_h(h(U, W), Id) :- a(W, V), slgcall(slg_h0(Id, [U, W, V], t(Z), []))." in out


def test_clause_ids_with_a_gap_index_and_answer():
    # the continuation keeps the source ids: W (id 2) occurs only before the
    # cut, so slg_t0's clause has no variable 2 and compile_index names it _G
    src = (":- table t/2.\nt(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), f(W, V), t(V, Y).\n"
           "e(1,2). e(2,3). f(2,2). f(3,1).\n")
    program = general(src)
    (cont,) = [c for c in program.clauses if c.pred() == PredId("slg_t0", 4)]
    assert print_clause(cont) == "slg_t0(Id, [X], t(V, Y), []) :- answer(Id, t(X, Y))."
    (entry,) = compile_index(program)[("slg_t0", 4)][0]
    assert entry[2:] == (5, ["X", "Y", "_G", "V", "Id"])
    assert sorted(answers(make_engine(src), "t(1, Y)")) == ["t(1, 2)", "t(1, 3)"]


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
        assert out.reads_incomplete is (mode is Mode.LEGACY)


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
    bridge_clause = [c for c in original.clauses if c.pred() == PredId("p", 1)][0]
    assert canonical_clause(bridge_clause) in [canonical_clause(c) for c in out.clauses]


def test_closed_continuations():
    # continuation clauses carry every variable their bodies need
    for src in (read_fixture("mixed_loop.pl"), read_fixture("reach.pl")):
        out = general(src)
        for clause in out.clauses:
            name = clause.pred().name
            if re.fullmatch(r"(slg_\w+?|\w+?_bridge)\d+", name):
                head_ids = {v.id for v in vars_of(clause.head)}
                body_ids = {v.id for g in clause.body for v in vars_of(g)}
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
    # once, from the reader; translate adds no second warning of its own
    with caplog.at_level("WARNING"):
        out = translate(parse_program(":- table ghost/1.\nq(0).\n"), Mode.GENERAL)
    assert [r.getMessage() for r in caplog.records if "ghost/1" in r.getMessage()] == [
        "directive for undefined predicate ghost/1"]
    assert "ghost(A) :- slg(ghost(A))." in print_program(out)


def test_higher_order_tabled_call_rejected():
    src = ":- table t/1.\nt(0).\nq(X) :- call(t(X)).\n"
    with pytest.raises(TranslateError, match="higher-order call"):
        translate(parse_program(src), Mode.GENERAL)


def test_generated_name_collision_rejected():
    for src, name in [
        (":- table t/1.\nt(0).\nslg_t(9).\n", "slg_t"),
        (":- table t/1.\n:- bridge h/1.\nt(X) :- h(X).\nh(1).\nh_bridge(9).\n", "h_bridge"),
    ]:
        with pytest.raises(TranslateError,
                           match=f"^generated name {name} collides with a source predicate$"):
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
