"""Bottom-up naive least-fixpoint evaluator.

Ground-truth oracle for answer sets: repeatedly applies every clause to the
ground facts derived so far until nothing new appears.  Deliberately naive
(recomputes each round) so its correctness is obvious; a first-argument
index keeps matching affordable on hundred-node graphs.
"""

from __future__ import annotations

from .engine import BUILTINS, COMPARISONS, eval_arith
from .errors import InstantiationError, RangeRestrictionError, ResourceLimitError, TypeMismatchError
from .syntax import print_clause, print_term
from .terms import (
    Atom,
    Clause,
    Int,
    PredId,
    Program,
    Struct,
    Term,
    Var,
    canonical_variant,
    copy_term,
    pred_of,
    walk_subterms,
)

DEFAULT_CAP = 100_000


def _subst(t: Term, env: dict) -> Term:
    return copy_term(t, lambda v: env.get(v.id, v))


def _is_ground(t: Term) -> bool:
    return not any(type(x) is Var for x in walk_subterms(t))


def _match(pattern: Term, fact: Term, env: dict):
    """One-way match of a pattern (vars allowed) against a ground fact; a
    variable env binds stands for its value, which is ground.

    Returns an extended copy of env, or None.
    """
    out = env
    stack = [(pattern, fact)]
    while stack:
        p, f = stack.pop()
        if type(p) is Var:
            bound = out.get(p.id)
            if bound is None:
                if out is env:
                    out = dict(env)
                out[p.id] = f
                continue
            p = bound
        if type(p) is not type(f):
            return None
        if type(p) is Struct:
            if p.functor != f.functor or len(p.args) != len(f.args):
                return None
            stack.extend(zip(p.args, f.args))
        elif p != f:  # atoms or integers
            return None
    return out


def _arith(t: Term, env: dict, clause: Clause) -> int:
    """Value of an integer expression under env, by the engine's evaluator."""
    try:
        return eval_arith(t, lambda x: env.get(x.id, x) if type(x) is Var else x)
    except (InstantiationError, TypeMismatchError) as e:
        # an unbound variable here means the clause is not range-restricted
        raise RangeRestrictionError(f"{e} in clause: {print_clause(clause)}") from None


class _FactStore:
    """Per-predicate ground facts with a first-argument index."""

    def __init__(self):
        self.by_pred: dict = {}  # PredId -> set of Term
        self.first_arg: dict = {}  # (PredId, first-arg atom/int payload) -> list

    def add(self, pred: PredId, fact: Term) -> bool:
        bucket = self.by_pred.setdefault(pred, set())
        if fact in bucket:
            return False
        bucket.add(fact)
        if type(fact) is Struct:
            a0 = fact.args[0]
            if type(a0) is not Struct:
                self.first_arg.setdefault((pred, a0), []).append(fact)
        return True

    def candidates(self, pred: PredId, goal: Term, env: dict):
        if type(goal) is Struct:
            a0 = _subst(goal.args[0], env)
            if type(a0) in (Atom, Int):
                return self.first_arg.get((pred, a0), ())
        return self.by_pred.get(pred, ())


def _eval_builtin_goal(goal: Term, env: dict, clause: Clause):
    """Yield extended envs for a built-in goal; raise when not ground enough."""
    name = goal.functor if type(goal) is Struct else goal.name
    args = goal.args if type(goal) is Struct else ()
    if name == "true":
        yield env
        return
    if name == "fail":
        return
    if name == "is":
        value = Int(_arith(args[1], env, clause))
        lhs = _subst(args[0], env)
        if type(lhs) is Var:
            out = dict(env)
            out[lhs.id] = value
            yield out
        elif lhs == value:
            yield env
        return
    if name in COMPARISONS:
        a = _arith(args[0], env, clause)
        b = _arith(args[1], env, clause)
        if COMPARISONS[name](a, b):
            yield env
        return
    if name == "=":
        a = _subst(args[0], env)
        b = _subst(args[1], env)
        if _is_ground(a):
            out = _match(b, a, env)
        elif _is_ground(b):
            out = _match(a, b, env)
        else:
            raise RangeRestrictionError(
                f"clause not range-restricted (=/2 with both sides unbound): "
                f"{print_clause(clause)}"
            )
        if out is not None:
            yield out
        return
    if name == "\\=":
        a = _subst(args[0], env)
        b = _subst(args[1], env)
        if not (_is_ground(a) and _is_ground(b)):
            raise RangeRestrictionError(
                f"clause not range-restricted (\\=/2 on unbound operands): "
                f"{print_clause(clause)}"
            )
        if a != b:
            yield env
        return
    raise RangeRestrictionError(f"unsupported goal {name} in clause: {print_clause(clause)}")


def _goal_envs(goal: Term, env: dict, store: _FactStore, clause: Clause):
    """Yield the extensions of env under which goal holds in the current facts.

    call/1 is evaluated as the goal it calls, once env has substituted it.
    """
    while type(goal) is Struct and goal.functor == "call" and len(goal.args) == 1:
        goal = _subst(goal.args[0], env)
        if type(goal) not in (Atom, Struct):
            raise RangeRestrictionError(
                f"clause not range-restricted (call/1 of an unbound or non-callable goal): "
                f"{print_clause(clause)}"
            )
    pred = pred_of(goal)
    if (pred.name, pred.arity) in BUILTINS:
        yield from _eval_builtin_goal(goal, env, clause)
        return
    for fact in store.candidates(pred, goal, env):
        out = _match(goal, fact, env)
        if out is not None:
            yield out if out is not env else dict(env)


def _derive(clause: Clause, store: _FactStore):
    """All ground head instances derivable from the current facts."""
    envs = [{}]
    for goal in clause.body:
        envs = [out for env in envs for out in _goal_envs(goal, env, store, clause)]
        if not envs:
            return
    for env in envs:
        head = _subst(clause.head, env)
        if not _is_ground(head):
            raise RangeRestrictionError(
                f"clause not range-restricted (head variable never bound): "
                f"{print_clause(clause)}"
            )
        yield head


def bottom_up_eval(program: Program, cap: int = DEFAULT_CAP) -> dict:
    """Least fixpoint of the immediate-consequence operator.

    Returns {PredId: set of ground Terms}.  Raises ResourceLimitError when
    the fixpoint is not reached within cap rounds.
    """
    store = _FactStore()
    for _round in range(cap):
        grew = False
        for clause in program.clauses:
            for head in list(_derive(clause, store)):
                if store.add(clause.pred(), head):
                    grew = True
        if not grew:
            return dict(store.by_pred)
    raise ResourceLimitError(f"oracle iteration cap exceeded ({cap} rounds)")


def oracle_answers_for(facts: dict, call: Term) -> set:
    """Oracle facts matching a call pattern (the queried variant)."""
    return {fact for fact in facts.get(pred_of(call), ()) if _match(call, fact, {}) is not None}


def compare_answer_sets(space, facts: dict, pred: PredId, call: Term = None):
    """Compare the answers of call's completed table in the TableSpace space
    against the oracle's; with no call, of pred's most general call.

    Returns (equal, missing, extra); missing/extra are sorted lists of terms
    the engine lacks / has beyond the oracle's set for the queried variant.
    """
    from .tabling import COMPLETE

    if call is None:
        args = tuple(Var(i, f"_{i}") for i in range(pred.arity))
        call = Struct(pred.name, args) if args else Atom(pred.name)
    entry = space.variant_index.get(canonical_variant(call))
    if entry is None or entry.status != COMPLETE:
        raise RangeRestrictionError(f"no completed table entry for {print_term(call)}")
    engine_set = {entry.term_of(rec) for rec in entry.answers}
    oracle_set = oracle_answers_for(facts, entry.call)
    missing = sorted(oracle_set - engine_set, key=print_term)
    extra = sorted(engine_set - oracle_set, key=print_term)
    return (not missing and not extra, missing, extra)
