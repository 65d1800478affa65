"""SLD resolution over a clause database.

An explicit goal-stack machine: Prolog recursion never consumes host stack,
so chain-shaped fixtures thousands of clauses deep are safe.  Backtracking is
trail-based.  The machine reports two events to its caller: a solution, or
the exhaustion of its search space.  A tabling runtime evaluates each new
generator on the calling machine, as a choice point below its clauses.
"""

from __future__ import annotations

import operator

from .errors import (
    ExistenceError,
    InstantiationError,
    ResourceLimitError,
    TablingError,
    TypeMismatchError,
)
from .syntax import print_term
from .terms import (Atom, Int, Program, Struct, Term, Var, copy_term, cyclic_term_error, pred_key,
                    var_names)

DEFAULT_BUDGET = 10_000_000

SOLUTION = "solution"
EXHAUSTED = "exhausted"


class Budget:
    __slots__ = ("left",)

    def __init__(self, steps=DEFAULT_BUDGET):
        self.left = steps

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise ResourceLimitError("resolution step budget exceeded")


class BindingStore:
    """Variable assignments plus an undo trail."""

    __slots__ = ("bindings", "trail")

    def __init__(self):
        self.bindings: list = []
        self.trail: list = []

    def new_var(self, name="_G") -> Var:
        v = Var(len(self.bindings), name)
        self.bindings.append(None)
        return v

    def walk(self, t: Term) -> Term:
        bindings = self.bindings
        while type(t) is Var:
            b = bindings[t.id]
            if b is None:
                return t
            t = b
        return t

    def bind(self, v: Var, t: Term):
        self.bindings[v.id] = t
        self.trail.append(v.id)

    def mark(self) -> int:
        return len(self.trail)

    def undo_to(self, mark: int):
        bindings = self.bindings
        trail = self.trail
        while len(trail) > mark:
            bindings[trail.pop()] = None

    def resolve(self, term: Term) -> Term:
        """Copy of term with all bindings applied; unbound variables stay.
        An atom, integer or unbound variable is returned itself."""
        t = self.walk(term)
        if type(t) is not Struct:
            return t
        return copy_term(t, lambda v: v, self.walk)

    def freeze(self, term: Term, sizes: list = None, ids: dict = None) -> tuple:
        """(copy, nvars): term with all bindings applied and its unbound
        variables renumbered 0..nvars-1 in first-occurrence order, keeping names.

        Two terms are variants exactly when their frozen copies are equal, so
        the copy is also the term's variant key, and its hash is computed in
        the same pass (see Struct.__hash__).  A ground subterm that reaches no
        bound variable is kept, not copied.  copy_term with the variable
        policy inlined, walking the arguments as vars_of does; a bound
        variable met again inside its own compound value is a cyclic term, a
        TypeMismatchError.  When sizes is a list and the copy is a compound,
        the cells (term_size) of each of its arguments are appended to it,
        counted in the same pass.  When ids is a dict, it receives each
        unbound variable's id, mapped to its renumbered Var, in the order of
        the renumbering.
        """
        bindings = self.bindings
        if ids is None:
            ids = {}  # original variable id -> its renumbered Var
        t = self.walk(term)
        if type(t) is Var:
            ids[t.id] = w = Var(0, t.name)
            return w, 1
        if type(t) is not Struct:
            return t, 0
        toks = [t.functor, len(t.args)]  # Struct.__hash__'s tokens, in its order
        if sizes is not None:
            first = len(sizes)
            sizes.extend([1] * len(t.args))
        structs = 1  # compounds met so far: the cells met are len(toks) - structs
        active: set = set()  # ids of the bound variables whose compound value is being copied
        stack: list = []  # (term, built, unchanged, via, arguments) of the enclosing compounds
        s, built, same, via, it = t, [], True, None, iter(t.args)
        while True:
            for a in it:
                ta = type(a)
                through = None  # the bound variable a compound argument is reached through
                if ta is Var:
                    same = False
                    v = a
                    while type(a) is Var:
                        b = bindings[a.id]
                        if b is None:
                            break
                        a = b
                    ta = type(a)
                    if ta is Var:
                        w = ids.get(a.id)
                        if w is None:
                            w = ids[a.id] = Var(len(ids), a.name)
                        built.append(w)
                        toks.append(w)
                        continue
                    if ta is Struct:
                        if v.id in active:
                            raise cyclic_term_error(v)
                        active.add(v.id)
                        through = v.id
                if ta is Struct:
                    if sizes is not None and not stack:
                        cells = len(toks) - structs  # before this argument of the copy
                    structs += 1
                    stack.append((s, built, same, via, it))
                    s, built, same, via, it = a, [], True, through, iter(a.args)
                    toks.append(a.functor)
                    toks.append(len(a.args))
                    break
                built.append(a)
                toks.append(a)
            else:
                if not same:
                    s = Struct(s.functor, tuple(built))
                if via is not None:
                    active.discard(via)
                if not stack:
                    s._hash = hash(tuple(toks))
                    return s, len(ids)
                done, kept = s, same
                s, built, same, via, it = stack.pop()
                built.append(done)
                same = same and kept
                if sizes is not None and not stack:
                    sizes[first + len(built) - 1] = len(toks) - structs - cells


def unify(a: Term, b: Term, store: BindingStore) -> bool:
    """Unify a and b; on failure the store is restored untouched.  A pair of
    compounds met again is skipped: with no occurs check, two cyclic terms lead
    back to a pair under way, which holds if the rest of the walk does."""
    mark = store.mark()
    walk = store.walk
    stack = [(a, b)]
    met = set()  # (id(x), id(y)) of the compound pairs descended into
    while stack:
        x, y = stack.pop()
        x = walk(x)
        y = walk(y)
        if x is y:
            continue
        tx = type(x)
        ty = type(y)
        if tx is Var:
            if ty is Var and x.id == y.id:
                continue
            store.bind(x, y)
            continue
        if ty is Var:
            store.bind(y, x)
            continue
        if tx is not ty:
            store.undo_to(mark)
            return False
        if tx is Struct:
            if x.functor != y.functor or len(x.args) != len(y.args):
                store.undo_to(mark)
                return False
            pair = (id(x), id(y))
            if pair not in met:
                met.add(pair)
                stack.extend(zip(x.args, y.args))
        elif x != y:  # atoms or integers
            store.undo_to(mark)
            return False
    return True


def unify_stored(live: Term, stored: Term, varmap: list, names, store: BindingStore) -> bool:
    """Unify a live term with a stored term whose variable ids are below nvars.

    varmap has nvars slots; varmap[i] is the live term stored variable i
    stands for, None until it is first met.  The stored term is never copied.
    A first occurrence facing a bound live subterm takes it without a binding.
    One facing an unbound live variable becomes a new store variable named
    names[i] ("_G" when names is None) that the live variable is bound to, as
    unification against a renamed copy would do.  On failure the store is
    restored.
    """
    bindings = store.bindings
    trail = store.trail
    mark = len(trail)
    stack = [(live, stored)]
    while stack:
        x, y = stack.pop()
        while type(x) is Var:
            b = bindings[x.id]
            if b is None:
                break
            x = b
        ty = type(y)
        if ty is Var:
            v = varmap[y.id]
            if v is None:
                if type(x) is Var:
                    v = Var(len(bindings), names[y.id] if names else "_G")
                    bindings.append(None)
                    bindings[x.id] = v
                    trail.append(x.id)
                    x = v
                varmap[y.id] = x
                continue
            if unify(x, v, store):
                continue
            break
        if x is y:
            continue
        tx = type(x)
        if tx is Var:
            # an empty varmap means a ground stored term, bound as it is
            bindings[x.id] = instantiate(y, varmap, store, names) if ty is Struct and varmap else y
            trail.append(x.id)
            continue
        if tx is not ty:
            break
        if tx is Struct:
            if x.functor != y.functor or len(x.args) != len(y.args):
                break
            stack.extend(zip(x.args, y.args))
        elif x != y:  # atoms or integers
            break
    else:
        return True
    store.undo_to(mark)
    return False


def instantiate(term: Term, varmap: list, store: BindingStore = None, names=None) -> Term:
    """Rebuild a stored term, whose variable ids are below nvars, through varmap.

    A slot that is still None gets a new store variable named names[i] ("_G"
    when names is None); slots already filled are shared, never copied.
    Iterative: compound arguments are descended through an explicit stack,
    which is set up only at the first compound argument; a compound with
    none, as most solutions of a re-read are, is built in one loop (freeze
    has no such loop: it did not pay there).  This is copy_term with the
    variable policy inlined: it copies every clause body, resumed
    continuation and solution, and a call per variable there costs
    measurable solve time.
    """
    if type(term) is Var:
        v = varmap[term.id]
        if v is None:
            v = varmap[term.id] = store.new_var(names[term.id] if names else "_G")
        return v
    if type(term) is not Struct:
        return term
    functor, args, built = term.functor, term.args, []
    for a in args:
        ta = type(a)
        if ta is Var:
            v = varmap[a.id]
            if v is None:
                v = varmap[a.id] = store.new_var(names[a.id] if names else "_G")
            built.append(v)
        elif ta is Struct:
            break
        else:
            built.append(a)
    else:
        return Struct(functor, tuple(built))
    # the stack loop goes on from the first compound argument, args[len(built)]
    stack: list = []  # (functor, args, built, next index) of the enclosing compounds
    i = len(built)
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


# -- arithmetic and built-ins ----------------------------------------------------


def eval_arith(t: Term, walk) -> int:
    """Value of an integer expression whose variables walk dereferences (a
    BindingStore.walk); iterative, so any nesting depth is safe.  A bound
    variable met again inside its own compound value is a cyclic term, a
    TypeMismatchError, as in BindingStore.freeze."""
    t = walk(t)
    if type(t) is Int:
        return t
    if type(t) is Struct and len(t.args) == 2:
        a = walk(t.args[0])
        b = walk(t.args[1])
        if type(a) is Int and type(b) is Int:
            return _arith_op(t, a, b)
    values: list = []
    active: set = set()  # ids of the bound variables whose compound value is being evaluated
    todo: list = [(t, False, None)]  # (term, its operands are evaluated, variable it came through)
    while todo:
        x, ready, via = todo.pop()
        if ready:
            b = values.pop()
            values.append(_arith_op(x, values.pop(), b))
            active.discard(via)
            continue
        v = x
        x = walk(x)
        if type(x) is Int:
            values.append(x)
        elif type(x) is Var:
            raise InstantiationError("unbound variable in arithmetic expression")
        elif type(x) is Struct and len(x.args) == 2:
            if type(v) is Var:
                if v.id in active:
                    raise cyclic_term_error(v)
                active.add(v.id)
                via = v.id
            todo.append((x, True, via))
            todo.append((x.args[1], False, None))
            todo.append((x.args[0], False, None))
        else:
            raise TypeMismatchError(f"not an integer expression: {print_term(x)}")
    return values[0]


def _arith_op(t: Struct, a: int, b: int) -> int:
    op = t.functor
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "//":  # truncates toward zero
        if b == 0:
            raise TypeMismatchError("zero divisor")
        return a // b if (a < 0) == (b < 0) else -(-a // b)
    if op == "mod":
        if b == 0:
            raise TypeMismatchError("zero divisor")
        return a % b
    raise TypeMismatchError(f"not an integer expression: {print_term(t)}")


def _bi_is(args, store):
    return unify(args[0], Int(eval_arith(args[1], store.walk)), store)


def _bi_compare(op):
    def run(args, store):
        walk = store.walk
        return op(eval_arith(args[0], walk), eval_arith(args[1], walk))

    return run


def _bi_unify(args, store):
    return unify(args[0], args[1], store)


def _bi_not_unify(args, store):
    mark = store.mark()
    if unify(args[0], args[1], store):
        store.undo_to(mark)
        return False
    return True


# the arithmetic comparisons, by name; the oracle evaluates them with these too
COMPARISONS = {"<": operator.lt, "=<": operator.le, ">": operator.gt, ">=": operator.ge,
               "=:=": operator.eq}

BUILTINS = {
    ("true", 0): lambda args, store: True,
    ("fail", 0): lambda args, store: False,
    ("is", 2): _bi_is,
    **{(name, 2): _bi_compare(op) for name, op in COMPARISONS.items()},
    ("=", 2): _bi_unify,
    ("\\=", 2): _bi_not_unify,
}


TABLING_PRIMS = {("slg", 1), ("slgcall", 1), ("answer", 2)}

# (name, arity) of every predicate the machine resolves itself, not by clauses
ENGINE_PREDS = frozenset((*BUILTINS, *TABLING_PRIMS, ("call", 1)))


def compile_index(program: Program) -> dict:
    """(name, arity) -> (clauses, by_first, var_first).

    Each clause is (head, body, nvars, var_names), in source order: its
    variable ids are below nvars, not necessarily every one of them used, and
    var_names names each id ("_G" for an unused one).  by_first
    maps a first-argument key (an atom or integer itself, or the (functor,
    arity) of a compound) to the clauses that can match a call whose first
    argument has that key: the clauses with that key or with a variable there,
    in source order.  var_first holds the variable-first clauses alone, for
    keys no clause has.  Built in one pass over the clauses.
    """
    index: dict = {}
    for c in program.clauses:
        head = c.head
        names = var_names((head, *c.body))
        entry = (head, c.body, len(names), names)
        pred = pred_key(head)
        clauses, by_first, var_first = index.setdefault(pred, ([], {}, []))
        clauses.append(entry)
        if pred[1] == 0:
            continue
        key = first_arg_key(head.args[0])
        if key is None:
            var_first.append(entry)
            for bucket in by_first.values():
                bucket.append(entry)
        elif key in by_first:
            by_first[key].append(entry)
        else:
            by_first[key] = var_first + [entry]
    return index


def first_arg_key(t: Term):
    """Index key of a dereferenced first argument; None for a variable."""
    tt = type(t)
    if tt is Struct:
        return (t.functor, len(t.args))
    return None if tt is Var else t


# -- choice points -----------------------------------------------------------------


class ClauseCP:
    __slots__ = ("goal", "clauses", "i", "mark", "rest")

    def __init__(self, goal, clauses, mark, rest):
        self.goal = goal
        self.clauses = clauses
        self.i = 0
        self.mark = mark
        self.rest = rest

    def try_next(self, m: "Machine") -> bool:
        store = m.store
        store.undo_to(self.mark)
        clauses = self.clauses
        while self.i < len(clauses):
            head, body, nvars, names = clauses[self.i]
            self.i += 1
            varmap = [None] * nvars
            if not unify_stored(self.goal, head, varmap, names, store):
                continue
            goals = self.rest
            for g in reversed(body):
                goals = (instantiate(g, varmap, store, names) if nvars else g, goals)
            m.goals = goals
            return True
        return False


class StoredIterCP:
    """Iterate a table's answers, binding a live term to each in turn.

    table is the table's entry: its answer records, in insertion order, are
    read at every retry, as legacy mode reads incomplete tables.  live holds
    the ids of the live term's unbound variables, in the order its variant
    numbers them.  A tuple record holds a ground instance's values at the
    variables of the table's call pattern (tabling.call_pattern), and binds
    each live variable to its value, one binding and one trail entry each,
    as unify_stored would.  Any other record is an answer term, which is
    unified, with as many new variables as its index entry says it has.
    """

    __slots__ = ("target", "table", "i", "mark", "rest", "live")

    def __init__(self, target, table, mark, rest, live):
        self.target = target
        self.table = table
        self.i = 0
        self.mark = mark
        self.rest = rest
        self.live = live

    def try_next(self, m: "Machine") -> bool:
        store = m.store
        bindings = store.bindings
        trail = store.trail
        mark = self.mark
        while len(trail) > mark:  # store.undo_to(mark), inline
            bindings[trail.pop()] = None
        answers = self.table.answers
        while self.i < len(answers):
            rec = answers[self.i]
            self.i += 1
            if type(rec) is tuple:
                for v, x in zip(self.live, rec):
                    bindings[v] = x
                trail.extend(self.live)
            elif not unify_stored(self.target, rec, [None] * self.table.index[rec], None, store):
                continue
            m.goals = self.rest
            return True
        return False


# -- the machine -------------------------------------------------------------------


class Machine:
    """One SLD computation: goal stack, choice points, trail."""

    def __init__(self, index, runtime=None, budget=None):
        self.index = index
        self.store = BindingStore()
        self.goals = None  # cons cells (goal, rest), None = empty
        self.cps: list = []
        self.runtime = runtime
        self.budget = budget if budget is not None else Budget()
        self.counters = runtime.counters if runtime is not None else None  # for slg_resolutions
        self.gen_mark = None  # trail mark where the innermost open generator began, or None
        self._resume_by_backtracking = False

    def push_goals(self, goals):
        for g in reversed(list(goals)):
            self.goals = (g, self.goals)

    def start(self, goals) -> tuple:
        """Push a copy of the query goals with one fresh store variable per
        query variable.

        Returns ({name: query variable id} for the named query variables in
        first-occurrence order, live), where live[i] is the store variable of
        query variable i (None for an id no query variable has).
        """
        live: dict = {}  # query variable id -> its store variable
        new_var = self.store.new_var

        def var(v: Var) -> Var:
            w = live.get(v.id)
            if w is None:
                w = live[v.id] = new_var(v.name)
            return w

        self.push_goals([copy_term(g, var) for g in goals])
        by_id = [live.get(i) for i in range(max(live, default=-1) + 1)]
        return {w.name: i for i, w in live.items() if w.name != "_"}, by_id

    def backtrack(self) -> bool:
        """Resume the newest choice point that has an alternative left; when
        none has, undo every binding and return False."""
        cps = self.cps
        while cps:
            if cps[-1].try_next(self):
                return True
            cps.pop()
        self.store.undo_to(0)
        return False

    def run(self):
        """Run until a solution or exhaustion; returns SOLUTION or EXHAUSTED."""
        if self._resume_by_backtracking:
            self._resume_by_backtracking = False
            if not self.backtrack():
                return EXHAUSTED
        while True:
            if self.goals is None:
                if self.gen_mark is not None:
                    # a generator's goals end with its clause body, which must fail
                    raise TablingError("internal: translated clause body succeeded")
                self._resume_by_backtracking = True
                return SOLUTION
            goal, rest = self.goals
            self.budget.spend()
            goal = self.store.walk(goal)
            tg = type(goal)
            if tg is Var:
                raise InstantiationError("unbound variable called as a goal")
            if tg is Int:
                raise TypeMismatchError(f"integer called as a goal: {goal}")
            if tg is Atom:
                key = (goal, 0)
                args = ()
            else:
                key = (goal.functor, len(goal.args))
                args = goal.args

            fn = BUILTINS.get(key)
            if fn is not None:
                if fn(args, self.store):
                    self.goals = rest
                    continue
                if not self.backtrack():
                    return EXHAUSTED
                continue

            if key == ("call", 1):
                target = self.store.walk(args[0])
                if type(target) is Var:
                    raise InstantiationError("call/1: unbound goal")
                if type(target) is Int:
                    raise TypeMismatchError("call/1: integer is not callable")
                self.goals = (target, rest)
                continue

            if key in TABLING_PRIMS:
                if self.runtime is None:
                    raise ExistenceError(
                        f"tabling primitive {key[0]}/{key[1]} outside a tabling engine"
                    )
                # a hook returns True once it has set the goals to run, False to backtrack
                if key == ("slg", 1):
                    go_on = self.runtime.on_slg(self, goal, rest)
                elif key == ("slgcall", 1):
                    go_on = self.runtime.on_slgcall(self, goal, rest)
                else:
                    go_on = self.runtime.on_answer(self, *args)
                if not go_on and not self.backtrack():
                    return EXHAUSTED
                continue

            pred = self.index.get(key)
            if pred is None:
                raise ExistenceError(f"unknown predicate {key[0]}/{key[1]}")
            clauses, by_first, var_first = pred
            if by_first:
                first = first_arg_key(self.store.walk(args[0]))
                if first is not None:
                    clauses = by_first.get(first, var_first)
            if self.counters is not None and key[0].startswith("slg_"):
                self.counters.slg_resolutions += 1
            self.cps.append(ClauseCP(goal, clauses, self.store.mark(), rest))
            if not self.backtrack():
                return EXHAUSTED


def solve(goals, program: Program, depth_budget: int = DEFAULT_BUDGET):
    """Enumerate solutions of a goal (or goal list) under plain SLD resolution.

    Yields one dict per solution mapping the query's variable names to their
    (resolved) values, in SLD order: leftmost goal, textual clause order.
    """
    if isinstance(goals, (Atom, Struct, Var, Int)):
        goals = [goals]
    machine = Machine(compile_index(program), budget=Budget(depth_budget))
    named, live = machine.start(goals)
    while machine.run() == SOLUTION:
        yield {name: machine.store.resolve(live[i]) for name, i in named.items()}
