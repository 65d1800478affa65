"""Solutions of a query, and the instantiate they are built with.

Engine.solve dereferences each query variable once, resolves only a compound
value, builds the query goals, and builds a solution's bindings when they are
read.  Every solution must equal what a reference solve gives that resolves
every query variable and builds the bindings at once.  instantiate builds a
compound with no compound argument in one loop and hands the first compound
argument to its stack loop; it must equal the stack loop alone, kept below as
a reference.
"""

import random

import pytest

from cctab import Error, Mode, gen_fixture, parse_program, parse_query, print_term, translate
from cctab.engine import (DEFAULT_BUDGET, SOLUTION, BindingStore, Budget, Machine,
                          instantiate)
from cctab.tabling import Engine
from cctab.terms import Atom, Int, Struct, Var, walk_subterms

from conftest import make_engine, read_fixture
from test_behaviour_digest import fixed_programs, random_programs


class ReferenceEngine(Engine):
    """Builds each solution as whole: every query variable resolved, the
    bindings dict and the goals, as (bindings, goals)."""

    def solve(self, goals, depth_budget=DEFAULT_BUDGET):
        machine = Machine(self.index, runtime=self, budget=Budget(depth_budget))
        named, live = machine.start(goals)
        resolve = machine.store.resolve
        try:
            while machine.run() == SOLUTION:
                values = [resolve(v) for v in live]
                yield ({name: values[i] for name, i in named.items()},
                       [instantiate(g, values) for g in goals])
        except GeneratorExit:
            raise
        except BaseException:
            self._purge_incomplete()
            raise


def solutions(eng, goals, reference=False) -> list:
    """Each solution as (bindings, goals), with bindings a list of (name,
    value) pairs in the dict's order, or the error the query raised; then the
    --stats line."""
    out = []
    try:
        for s in eng.solve(goals):
            bindings, goals_out = s if reference else (s.bindings, s.goals)
            out.append((list(bindings.items()), goals_out))
    except Error as e:
        out.append(f"{type(e).__name__}: {e}")
    out.append(eng.counters.stats_line())
    return out


def printed(run) -> list:
    return [s if type(s) is str else ([(n, print_term(v)) for n, v in s[0]],
                                      [print_term(g) for g in s[1]]) for s in run]


def same_as_reference(src, queries, mode) -> list:
    """Run each query twice, cold then from the tables, on an engine and on a
    ReferenceEngine; assert equal solutions, printed and as terms."""
    program = translate(parse_program(src), mode)
    eng, ref = Engine(program), ReferenceEngine(program)
    runs = []
    for goals in [parse_query(q) for q in queries for _ in range(2)]:
        got, want = solutions(eng, goals), solutions(ref, goals, reference=True)
        assert printed(got) == printed(want), goals
        assert got == want, goals  # the same terms: variable ids included
        runs.append(got)
    return runs


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_fixed_programs_solve_as_the_reference(mode):
    for src, queries in fixed_programs(mode):
        same_as_reference(src, queries, mode)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_differential_corpus_solves_as_the_reference(mode):
    for src, queries in random_programs():
        same_as_reference(src, queries, mode)


REACH = read_fixture("reach.pl") + "edge(1, 2).\nedge(2, 3).\nedge(3, 1).\nedge(3, 4).\n"
NONGROUND = ":- table p/2.\np(a, X).\np(b, c).\np(X, f(X, Y)).\n"

# (program, query, the first solution's bindings, printed)
SOLUTION_CASES = {
    # _ is no binding; each _ is its own variable
    "anonymous": (REACH, "path(_, Y)", [("Y", "2")]),
    "only_anonymous": (REACH, "path(_, _)", []),
    # a repeated query variable is one binding
    "repeated": (REACH, "path(X, X)", [("X", "1")]),
    # unbound values print as _G, and a compound value is resolved
    "unbound": (NONGROUND, "p(Z, Y)", [("Z", "a"), ("Y", "_G")]),
    "compound": (NONGROUND, "p(b, Y), X = g(Y, W)", [("Y", "c"), ("X", "g(c, W)"), ("W", "W")]),
    "nested": (REACH, "path(1, Y), X = f(g(Y), [Y, Z])",
               [("Y", "2"), ("X", "f(g(2), [2, Z])"), ("Z", "Z")]),
    "alias": (REACH, "X = Y, path(1, Y)", [("X", "2"), ("Y", "2")]),
}


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("case", list(SOLUTION_CASES))
def test_solution_cases(case, mode):
    src, query, first = SOLUTION_CASES[case]
    runs = same_as_reference(src, [query], mode)
    for run in runs:
        assert printed(run)[0][0] == first


def test_nonground_solution_shares_its_variables():
    for run in same_as_reference(NONGROUND, ["p(Z, Y)"], Mode.GENERAL):
        (_, z), (_, y) = run[2][0]
        assert print_term(y) == "f(_G, _G)" and y.args[0] is z and y.args[1] is not z
        assert run[2][1][0].args == (z, y)


def test_bindings_are_built_when_read():
    eng = make_engine(NONGROUND)
    (s, *_rest) = eng.solve(parse_query("p(Z, Y)"))
    first = s.bindings
    assert first == s.bindings and first is not s.bindings
    assert list(first) == ["Z", "Y"]


def count_resolve(monkeypatch) -> list:
    calls = []
    real = BindingStore.resolve

    def resolve(self, term):
        calls.append(term)
        return real(self, term)

    monkeypatch.setattr(BindingStore, "resolve", resolve)
    return calls


def test_rereading_a_complete_table_resolves_nothing(monkeypatch):
    calls = count_resolve(monkeypatch)
    eng = make_engine(gen_fixture("chain", 12))
    first = solutions(eng, parse_query("path(X, Y)"))
    assert len(first) - 1 == 78
    calls.clear()
    for _ in range(3):
        assert solutions(eng, parse_query("path(X, Y)")) == first
    assert calls == []
    # a compound value is resolved, once
    assert printed(solutions(eng, parse_query("path(12, Y), X = f(Y)")))[:-1] == [
        ([("Y", "13"), ("X", "f(13)")], ["path(12, 13)", "f(13) = f(13)"])]
    assert len(calls) == 1


# -- instantiate: the flat loop against the stack loop ----------------------------


def stack_instantiate(term, varmap, store=None, names=None):
    """instantiate as one stack loop over every compound: the reference."""
    if type(term) is Var:
        v = varmap[term.id]
        if v is None:
            v = varmap[term.id] = store.new_var(names[term.id] if names else "_G")
        return v
    if type(term) is not Struct:
        return term
    stack: list = []
    functor, args, built, i = term.functor, term.args, [], 0
    while True:
        n = len(args)
        while i < n:
            a = args[i]
            i += 1
            ta = type(a)
            if ta is Var:
                v = varmap[a.id]
                if v is None:
                    v = varmap[a.id] = store.new_var(names[a.id] if names else "_G")
                built.append(v)
            elif ta is Struct:
                stack.append((functor, args, built, i))
                functor, args, built, i = a.functor, a.args, [], 0
                n = len(args)
            else:
                built.append(a)
        t = Struct(functor, tuple(built))
        if not stack:
            return t
        functor, args, built, i = stack.pop()
        built.append(t)


NVARS = 5


def random_leaf(rng):
    k = rng.randrange(3)
    if k == 0:
        return Var(rng.randrange(NVARS), "V")
    return Atom(rng.choice("abc")) if k == 1 else Int(rng.randrange(4))


def random_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return random_leaf(rng)
    return Struct(rng.choice("fg"), tuple(random_term(rng, depth - 1)
                                          for _ in range(rng.randint(1, 4))))


def shaped_terms(rng):
    """Flat compounds, and compounds with one compound argument at the first,
    a middle and the last position, then nested ones."""
    inner = Struct("h", (Var(1, "V"), Var(3, "V")))
    for arity in (1, 2, 3, 4):
        flat = [random_leaf(rng) for _ in range(arity)]
        yield Struct("f", tuple(flat))
        for k in sorted({0, arity // 2, arity - 1}):
            yield Struct("f", tuple(flat[:k] + [inner] + flat[k + 1:]))
    yield Struct("f", (Var(0, "V"), Struct("g", (Var(0, "V"), inner)), Var(2, "V"), inner))
    yield Var(4, "V")
    yield Atom("a")


def run_instantiate(fn, term, slots, with_names):
    """fn(term, ...) on a fresh store with two variables, through a varmap
    whose slots are None (unfilled), "var" (a store variable) or "struct" (a
    compound over one); returns (result, varmap ids, names in the result,
    store size)."""
    store = BindingStore()
    old = [store.new_var("Old0"), store.new_var("Old1")]
    varmap = [None if s is None else old[k % 2] if s == "var" else Struct("s", (old[k % 2],))
              for k, s in enumerate(slots)]
    names = [f"N{k}" for k in range(NVARS)] if with_names else None
    full = None not in varmap
    out = fn(term, varmap, None if full else store, names)
    ids = [v if v is None else v.id if type(v) is Var else print_term(v) for v in varmap]
    seen = [t.name for t in walk_subterms(out) if type(t) is Var]
    return out, ids, seen, len(store.bindings)


def test_flat_instantiate_matches_the_stack_loop():
    rng = random.Random(20091017)
    terms = list(shaped_terms(rng)) + [random_term(rng, 4) for _ in range(400)]
    for term in terms:
        for with_names in (False, True):
            for _ in range(3):
                slots = [rng.choice([None, None, "var", "struct"]) for _ in range(NVARS)]
                got = run_instantiate(instantiate, term, slots, with_names)
                assert got == run_instantiate(stack_instantiate, term, slots, with_names), \
                    print_term(term)
            full = run_instantiate(instantiate, term, ["var"] * NVARS, with_names)
            assert full == run_instantiate(stack_instantiate, term, ["var"] * NVARS, with_names)


def test_flat_instantiate_numbers_new_variables_in_order():
    store = BindingStore()
    term = Struct("f", (Var(2, "C"), Atom("a"), Var(0, "A"), Var(2, "C"), Int(1)))
    out = instantiate(term, [None] * 3, store, ["A", "B", "C"])
    assert [(v.id, v.name) for v in out.args if type(v) is Var] == [(0, "C"), (1, "A"), (0, "C")]
    assert len(store.bindings) == 2
