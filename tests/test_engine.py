import random
import re

import pytest

from cctab import (
    Atom,
    ExistenceError,
    InstantiationError,
    Int,
    Mode,
    ResourceLimitError,
    Struct,
    TypeMismatchError,
    Var,
    canonical_variant,
    parse_program,
    parse_query,
    parse_term,
    print_term,
    translate,
    unify,
)
from cctab.engine import BUILTINS, SOLUTION, BindingStore, ClauseCP, Machine, compile_index, solve
from cctab.terms import term_size, walk_subterms


def fresh_store_terms(text):
    """Parse a term and re-home its variables in a fresh store."""
    store = BindingStore()
    t = parse_term(text)
    from cctab.engine import instantiate
    from cctab.terms import vars_of

    mapping = {}
    for v in vars_of(t):
        mapping[v.id] = store.new_var(v.name)
    dense = [None] * (max(mapping) + 1 if mapping else 0)
    for k, v in mapping.items():
        dense[k] = v
    return store, instantiate(t, dense) if mapping else t


# -- unification ------------------------------------------------------------------


def test_unify_binds_both_sides():
    store = BindingStore()
    x, y = store.new_var("X"), store.new_var("Y")
    a = Struct("f", (x, Atom("a")))
    b = Struct("f", (Atom("b"), y))
    assert unify(a, b, store)
    assert store.walk(x) == Atom("b")
    assert store.walk(y) == Atom("a")


def test_unify_failure_restores_store():
    store = BindingStore()
    x = store.new_var("X")
    assert not unify(Struct("f", (x, Atom("a"))), Struct("f", (Atom("b"), Atom("c"))), store)
    assert store.walk(x) == x
    assert store.trail == []


def test_unify_variant_to_instance():
    store = BindingStore()
    y, z, z2 = store.new_var("Y"), store.new_var("Z"), store.new_var("Z2")
    assert unify(Struct("path", (y, z)), Struct("path", (Atom("b"), z2)), store)
    assert store.walk(y) == Atom("b")
    assert store.resolve(z) == store.resolve(z2)


def test_unify_shared_variable():
    store = BindingStore()
    x = store.new_var("X")
    assert unify(Struct("f", (x, x)), Struct("f", (Atom("a"), Atom("a"))), store)
    assert not unify(Struct("g", (x,)), Struct("g", (Atom("b"),)), store)


def test_unify_a_variable_with_itself_binds_nothing():
    # two Var objects with one id are one variable: a binding to itself would loop walk
    store = BindingStore()
    x = store.new_var("X")
    assert unify(Struct("f", (x,)), Struct("f", (Var(x.id, "X"),)), store)
    assert store.trail == [] and store.walk(x) is x


# -- built-ins ---------------------------------------------------------------------


def test_is_evaluates_sum():
    store = BindingStore()
    a = store.new_var("A")
    assert BUILTINS[("is", 2)]((a, Struct("+", (Int(0), Int(1)))), store)
    assert store.walk(a) == Int(1)


def test_comparison():
    store = BindingStore()
    assert BUILTINS[("<", 2)]((Int(0), Int(1)), store)
    assert not BUILTINS[("<", 2)]((Int(1), Int(1)), store)


def test_is_unbound_operand_raises():
    store = BindingStore()
    a, x = store.new_var("A"), store.new_var("X")
    with pytest.raises(InstantiationError):
        BUILTINS[("is", 2)]((a, Struct("+", (x, Int(1)))), store)


# `is` evaluates its right side first; then it binds an unbound left side,
# reached through any chain of bindings, compares an integer by value and
# fails on anything else
@pytest.mark.parametrize("query, want", [
    ("W is 1 + 2", ["3"]),
    ("W = V, V is 1 + 2", ["3"]),
    ("W = 3, W is 1 + 2", ["3"]),
    ("W = 1, 3 is W + 2", ["1"]),
    ("W = 4, W is 1 + 2", []),
    ("W = a, W is 1", []),
    ("W = f(V), W is 1", []),
    ("W = a, W is V", InstantiationError),
    # a bound compound operand, once and twice over: no cycle
    ("X = 1 + 2, W is X * 3", ["9"]),
    ("X = 1 + 2, Y = X * X, W is Y - X", ["6"]),
])
def test_is_left_side(query, want):
    solutions = solve(parse_query(query), parse_program("x."))
    if want is InstantiationError:
        with pytest.raises(InstantiationError, match="^unbound variable in arithmetic"):
            list(solutions)
    else:
        assert [print_term(s["W"]) for s in solutions] == want


def test_arithmetic_type_and_zero_divisor():
    store = BindingStore()
    with pytest.raises(TypeMismatchError):
        BUILTINS[("is", 2)]((store.new_var("A"), Atom("a")), store)
    for op in ("//", "mod"):
        with pytest.raises(TypeMismatchError, match="^zero divisor$"):
            BUILTINS[("is", 2)]((store.new_var("B"), Struct(op, (Int(1), Int(0)))), store)


def test_arith_operators():
    store = BindingStore()
    for text, value in [("7 // 2", 3), ("7 mod 2", 1), ("2 * 3 - 1", 5)]:
        v = store.new_var("V")
        assert BUILTINS[("is", 2)]((v, parse_term(text)), store)
        assert store.walk(v) == Int(value)


def test_not_unifiable():
    store = BindingStore()
    x = store.new_var("X")
    assert BUILTINS[("\\=", 2)]((Atom("a"), Atom("b")), store)
    assert not BUILTINS[("\\=", 2)]((x, Atom("b")), store)
    assert store.walk(x) == x  # probe bindings undone


# -- SLD solving -------------------------------------------------------------------

FACTS = """edge(a, b).
edge(a, c).
edge(b, d).
"""


def test_solution_order_follows_clause_order():
    p = parse_program(FACTS)
    got = [print_term(s["X"]) for s in solve(parse_query("edge(a, X)"), p)]
    assert got == ["b", "c"]


def test_conjunction_and_builtin():
    p = parse_program(FACTS)
    got = [
        (print_term(s["X"]), print_term(s["Y"]))
        for s in solve(parse_query("edge(a, X), edge(X, Y)"), p)
    ]
    assert got == [("b", "d")]


def test_arithmetic_goal():
    got = list(solve(parse_query("A is 0 + 1"), parse_program("x.")))
    assert [print_term(s["A"]) for s in got] == ["1"]


def test_failed_comparison_has_no_solutions():
    assert list(solve(parse_query("B = 1, B < 1"), parse_program("x."))) == []


def test_unknown_predicate_error_names_pred():
    with pytest.raises(ExistenceError, match="nosuch/2"):
        list(solve(parse_query("nosuch(a, X)"), parse_program(FACTS)))


def test_ground_clause_with_a_body():
    # a ground head unifies without a varmap and its body is pushed uncopied
    p = parse_program("p :- q, r(a).\nq.\nr(a).\ns(b) :- r(a).\n")
    assert list(solve(parse_query("p"), p)) == [{}]
    assert [print_term(s["X"]) for s in solve(parse_query("s(X)"), p)] == ["b"]


def test_plain_solve_refuses_tabling_primitives():
    src = ":- table t/1.\nt(0).\n"
    translated = translate(parse_program(src), Mode.GENERAL)
    with pytest.raises(ExistenceError, match="slg/1 outside a tabling engine"):
        list(solve(parse_query("t(X)"), translated))


@pytest.mark.parametrize("expr, shown", [("a + 1", "a"), ("foo(1, 2)", "foo(1, 2)")])
def test_arithmetic_errors_print_the_term(expr, shown):
    p = parse_program(f"q(X) :- X is {expr}.\n")
    with pytest.raises(TypeMismatchError) as info:
        list(solve(parse_query("q(X)"), p))
    assert str(info.value) == f"not an integer expression: {shown}"


def test_depth_budget_stops_runaway_recursion():
    p = parse_program("loop(X) :- loop(X).")
    with pytest.raises(ResourceLimitError):
        list(solve(parse_query("loop(1)"), p, depth_budget=5000))


def test_recursion_deeper_than_host_stack():
    # 3000 nested calls: would overflow a recursive interpreter, not this one
    p = parse_program(
        "count(0).\ncount(N) :- N > 0, M is N - 1, count(M).\n"
    )
    assert len(list(solve(parse_query("count(3000)"), p))) == 1


def test_backtracking_restores_store():
    p = parse_program(FACTS)
    from cctab.engine import Budget, Machine, compile_index, instantiate

    m = Machine(compile_index(p))
    x = m.store.new_var("X")
    m.push_goals([Struct("edge", (Atom("a"), x))])
    seen = 0
    while True:
        event = m.run()
        if event == "solution":
            seen += 1
        else:
            break
    assert seen == 2
    assert m.store.trail == []
    assert all(b is None for b in m.store.bindings)


@pytest.mark.parametrize(
    "copy",
    [
        BindingStore.resolve,
        lambda store, t: store.freeze(t)[0],
        lambda store, t: canonical_variant(t),
    ],
    ids=["resolve", "freeze", "canonical_variant"],
)
def test_deep_list_terms_survive_resolve(copy):
    store = BindingStore()
    t = parse_term("[" + ", ".join(str(i) for i in range(2000)) + "]")
    assert copy(store, t) == t


def test_trail_discipline():
    store = BindingStore()
    mark = store.mark()
    xs = [store.new_var() for _ in range(5)]
    for x in xs:
        store.bind(x, Atom("v"))
    created = len(store.trail) - mark
    store.undo_to(mark)
    assert created == 5
    assert all(store.walk(x) == x for x in xs)


def test_meta_call():
    p = parse_program(FACTS)
    got = [print_term(s["X"]) for s in solve(parse_query("G = edge(a, X), call(G)"), p)]
    assert got == ["b", "c"]


def test_call_unbound_raises():
    with pytest.raises(InstantiationError):
        list(solve(parse_query("call(G)"), parse_program("x.")))


@pytest.mark.parametrize("goal, error, text", [
    (None, InstantiationError, "unbound variable called as a goal"),
    (Int(3), TypeMismatchError, "integer called as a goal: 3"),
], ids=["unbound", "integer"])
def test_machine_run_refuses_a_goal_that_is_not_callable(goal, error, text):
    # a goal pushed through the library: an unbound variable or an integer
    m = Machine(compile_index(parse_program("p(1).\n")))
    m.push_goals([m.store.new_var("G") if goal is None else goal])
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        m.run()


# -- clause selection by first argument ---------------------------------------------


def _sols(program, query, var):
    return [print_term(s[var]) for s in solve(parse_query(query), parse_program(program))]


def test_first_argument_constants_and_variables_interleaved():
    p = "p(a, 1).\np(X, 2).\np(b, 3).\np(a, 4).\np(Y, 5).\n"
    assert _sols(p, "p(a, N)", "N") == ["1", "2", "4", "5"]
    assert _sols(p, "p(b, N)", "N") == ["2", "3", "5"]
    assert _sols(p, "p(c, N)", "N") == ["2", "5"]
    assert _sols(p, "p(f(a), N)", "N") == ["2", "5"]
    assert _sols(p, "p(K, N)", "N") == ["1", "2", "3", "4", "5"]


def test_first_argument_integer_is_not_atom():
    p = "p(1, int).\np(a, atom).\np(2, two).\n"
    assert _sols(p, "p(1, T)", "T") == ["int"]
    assert _sols(p, "p(a, T)", "T") == ["atom"]
    assert _sols(p, "p(3, T)", "T") == []


def test_first_argument_compounds_keyed_by_functor_and_arity():
    p = "r(f(X), one).\nr(f(X, Y), two).\nr(g(X), three).\nr(Z, any).\nr(f(b), four).\n"
    assert _sols(p, "r(f(a), T)", "T") == ["one", "any"]
    assert _sols(p, "r(f(b), T)", "T") == ["one", "any", "four"]
    assert _sols(p, "r(f(a, b), T)", "T") == ["two", "any"]
    assert _sols(p, "r(g(c), T)", "T") == ["three", "any"]
    assert _sols(p, "r(f, T)", "T") == ["any"]


def test_first_argument_nil_and_cons():
    p = (
        "s([], nil).\ns([H|T], cons).\n"
        "len([], 0).\nlen([H|T], N) :- len(T, M), N is M + 1.\n"
    )
    assert _sols(p, "s([], X)", "X") == ["nil"]
    assert _sols(p, "s([a], X)", "X") == ["cons"]
    assert _sols(p, "s(L, X)", "X") == ["nil", "cons"]
    assert _sols(p, "len([a, b, c], N)", "N") == ["3"]


def test_first_argument_index_picks_the_clauses_tried():
    # the machine's choice point holds only the clauses whose first argument
    # can match the call's, in source order
    index = compile_index(parse_program("p(1, a).\np(X, c).\np(2, b).\n"))
    one, var, two = index[("p", 2)][0]
    for query, want in [("p(2, Y)", [var, two]), ("p(Z, Y)", [one, var, two]),
                        ("p(f(1), Y)", [var])]:
        m = Machine(index)
        m.start(parse_query(query))
        assert m.run() == SOLUTION
        (cp,) = m.cps
        assert type(cp) is ClauseCP and cp.clauses == want, query


def test_first_argument_bound_through_a_variable():
    p = "p(a, 1).\np(b, 2).\np(X, 3).\n"
    assert _sols(p, "K = b, p(K, N)", "N") == ["2", "3"]


def test_unbound_first_argument_tries_every_clause_in_source_order():
    p = "p(a, 1).\np(f(x), 2).\np(X, 3).\np(1, 4).\np([], 5).\np([H|T], 6).\n"
    got = [(print_term(s["K"]), print_term(s["N"]))
           for s in solve(parse_query("p(K, N)"), parse_program(p))]
    assert [n for _, n in got] == ["1", "2", "3", "4", "5", "6"]
    assert got[0] == ("a", "1") and got[4] == ("[]", "5")


def test_clause_variable_names_survive_head_unification():
    # the query variable B is bound to the clause variable, whose name prints
    assert _sols("q(a, K).\nr(K, c).\n", "q(A, B), r(B, C)", "B") == ["K"]
    assert _sols("q(a, K).\nr(J, c).\n", "q(A, B), r(B, C)", "B") == ["J"]
    assert _sols("q(A, K) :- s(K).\ns(M).\n", "q(A, B)", "B") == ["M"]


# -- arithmetic depth ---------------------------------------------------------------


def test_deeply_nested_arithmetic_evaluates():
    p = parse_program("q(X) :- X is " + " + ".join(["1"] * 5000) + ".\n")
    deep = parse_term(" - ".join(["1"] * 3000) + " * 2")
    store = BindingStore()
    try:
        got = [print_term(s["X"]) for s in solve(parse_query("q(X)"), p)]
        equal = BUILTINS[("=:=", 2)]((deep, Int(-2999)), store)
    except RecursionError:
        got = equal = "RecursionError"  # caught: pytest would print every frame
    assert got == ["5000"] and equal is True
    store, expr = fresh_store_terms("1 + 2 * (3 - X)")
    with pytest.raises(InstantiationError):
        BUILTINS[("is", 2)]((store.new_var("V"), expr), store)


# -- the frozen copy as variant key -----------------------------------------------


def _random_term(rng, leaves, depth):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(leaves)
    args = tuple(_random_term(rng, leaves, depth - 1) for _ in range(rng.randint(1, 3)))
    return Struct(rng.choice(["f", "g", "."]), args)


def _rebuild(t, leaf):
    if type(t) is Struct:
        return Struct(t.functor, tuple(_rebuild(a, leaf) for a in t.args))
    return leaf(t)


def _hide(rng, store, t):
    """t with some subterms replaced by fresh store variables bound to them."""
    if type(t) is Struct:
        t = Struct(t.functor, tuple(_hide(rng, store, a) for a in t.args))
    if rng.random() < 0.25:
        v = store.new_var("H")
        store.bind(v, t)
        return v
    return t


def _deref(store, t):
    t = store.walk(t)
    if type(t) is Struct:
        return Struct(t.functor, tuple(_deref(store, a) for a in t.args))
    return t


def _are_variants(a, b):
    """Whether a bijection between the variables of a and b maps a onto b."""
    fwd, back = {}, {}
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if type(x) is Var and type(y) is Var:
            if fwd.setdefault(x.id, y.id) != y.id or back.setdefault(y.id, x.id) != x.id:
                return False
        elif type(x) is Struct and type(y) is Struct:
            if x.functor != y.functor or len(x.args) != len(y.args):
                return False
            todo.extend(zip(x.args, y.args))
        elif type(x) is Var or type(y) is Var or x != y:
            return False
    return True


def _first_occurrence_ids(t):
    out = []
    todo = [t]
    while todo:
        x = todo.pop()
        if type(x) is Var and x.id not in out:
            out.append(x.id)
        elif type(x) is Struct:
            todo.extend(reversed(x.args))
    return out


def test_frozen_copy_is_the_variant_key():
    rng = random.Random(1009)
    outcomes = set()
    for _ in range(400):
        store = BindingStore()
        xs = [store.new_var(n) for n in "ABCDE"]
        ys = [store.new_var(n) for n in "VWXYZ"]
        a = _random_term(rng, [Atom("a"), Atom("b"), Int(0), Int(1), *xs[:3]], 4)
        kind = rng.randrange(3)
        if kind == 0:  # a renaming of a: a variant
            rename = dict(zip((x.id for x in xs), rng.sample(ys, len(xs))))
            b = _rebuild(a, lambda t: rename.get(t.id, t) if type(t) is Var else t)
        elif kind == 1:  # two variables merged: an instance, a variant only if they never meet
            b = _rebuild(a, lambda t: ys[0] if t in xs[:2] else t)
        else:
            b = _random_term(rng, [Atom("a"), Atom("b"), Int(0), Int(1), *ys[:3]], 4)
        a, b = _hide(rng, store, a), _hide(rng, store, b)
        variants = _are_variants(_deref(store, a), _deref(store, b))
        outcomes.add((kind, variants))
        sizes, ids = ([-1], [-1]), ({}, {})  # a frozen compound's sizes go after the -1
        (fa, na), (fb, nb) = store.freeze(a, sizes[0], ids[0]), store.freeze(b, sizes[1], ids[1])
        # hashed while copied: the hash is set before anything hashes the copy
        assert all(type(f) is not Struct or f._hash is not None for f in (fa, fb))
        assert (fa == fb) is variants
        assert (canonical_variant(store.resolve(a)) == canonical_variant(store.resolve(b))) is variants
        if variants:
            assert hash(fa) == hash(fb) and na == nb
        for t, frozen, n, got_sizes, got_ids in zip((a, b), (fa, fb), (na, nb), sizes, ids):
            assert _first_occurrence_ids(frozen) == list(range(n))
            resolved = store.resolve(t)
            args = resolved.args if type(resolved) is Struct else ()
            assert got_sizes == [-1, *(term_size(x) for x in args)]
            unbound = {x.id: x for x in walk_subterms(resolved) if type(x) is Var}
            assert list(got_ids) == _first_occurrence_ids(resolved)  # in renumbering order
            assert [(w.id, w.name) for w in got_ids.values()] == [
                (k, unbound[i].name) for k, i in enumerate(got_ids)]
            assert _deref(store, frozen) == frozen  # no store variable left behind
            fresh = canonical_variant(store.resolve(t))
            assert frozen == fresh and hash(frozen) == hash(fresh)
            variables = [x for x in walk_subterms(t) if type(x) is Var]
            if not variables:
                assert frozen is t  # ground: kept, not copied
                outcomes.add("kept")
            elif any(store.walk(x) is not x for x in variables):
                assert frozen is not t
                outcomes.add("copied")
    assert {(0, True), (1, True), (1, False), (2, False), "kept", "copied"} <= outcomes


# X is bound to the second argument, which holds X; the third is copied or evaluated
@pytest.mark.parametrize("text, run", [
    ("t(X, f(X), X)", "freeze"),
    ("t(X, f(g(a, X)), p(b, X))", "freeze"),
    ("t(X, f(g(a, X)), p(b, X))", "resolve"),
    ("t(X, X + 1, X)", "is"),
    ("t(X, 1 + (2 * X), 3 - X)", "is"),
], ids=["freeze", "freeze-nested", "resolve-nested", "is", "is-nested"])
def test_cyclic_term_is_an_error(text, run):
    store, t = fresh_store_terms(text)
    store.bind(t.args[0], t.args[1])
    with pytest.raises(TypeMismatchError,
                       match="^cyclic term: X is bound to a term that contains it$"):
        if run == "is":
            BUILTINS[("is", 2)]((store.new_var("Y"), t.args[2]), store)
        else:
            getattr(store, run)(t.args[2])


def test_shared_bound_subterms_are_not_cyclic():
    store, t = fresh_store_terms("g(X, h(X), Y, Z)")
    x, y, z = t.args[0], t.args[2], t.args[3]
    store.bind(z, Int(1))
    store.bind(x, Struct("f", (Atom("a"), z)))
    store.bind(y, x)
    want = parse_term("g(f(a, 1), h(f(a, 1)), f(a, 1), 1)")
    assert store.resolve(t) == want
    assert store.freeze(t) == (want, 0)


@pytest.mark.parametrize("copy", [BindingStore.resolve, lambda store, t: store.freeze(t)[0]],
                         ids=["resolve", "freeze"])
def test_deep_list_through_bound_tails_survives(copy):
    store = BindingStore()
    t = tail = store.new_var("T")
    for i in range(2000):
        nxt = store.new_var("T")
        store.bind(tail, Struct(".", (Int(i), nxt)))
        tail = nxt
    store.bind(tail, Atom("[]"))
    assert copy(store, t) == parse_term("[" + ", ".join(str(i) for i in range(2000)) + "]")
