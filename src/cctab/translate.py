"""Source-to-source translation for tabled execution.

Two modes:

* GENERAL: tabled clauses become slg_P/2 clauses ending in answer/2, with a
  continuation predicate per tabled/bridge call site; bridge clauses are kept
  verbatim and duplicated as P_bridge/3 clauses that thread an incoming
  continuation and end in call(Cont).  Continuation terms carry four
  arguments: (Id, Bindings, PendingCall, PrevCont).  The bridges are the
  declared ones plus those find_bridges marks (effective_bridges).
* LEGACY: the original continuation-call translation.  Bridge declarations
  are ignored, only tabled calls inside tabled clauses are instrumented, and
  continuation terms carry three arguments (no PrevCont).  Correct only when
  every tabled call occurs directly inside a tabled clause body; kept as a
  contrast mode for the regression fixtures.

The output records the read policy the runtime takes from it: reads_incomplete
is True in legacy mode, whose tabled calls read incomplete tables.

The clauses a source clause becomes keep its variable ids, with Id and Cont
above them: their ids are below nvars, but a cut may leave some unused.
"""

from __future__ import annotations

import enum

from . import bridges as bridge_analysis
from .errors import TranslateError
from .terms import (
    Atom,
    Clause,
    Program,
    Struct,
    Var,
    mk_list,
    pred_key,
    pred_of,
    var_names,
    vars_of,
)


EMPTY_CONT = Atom("[]")


class Mode(enum.Enum):
    GENERAL = "general"
    LEGACY = "legacy"


class _ContNamer:
    """Unique, deterministic continuation predicate names: <base><k>."""

    def __init__(self, reserved):
        self.reserved = set(reserved)
        self.counters: dict = {}

    def next(self, base: str) -> str:
        k = self.counters.get(base, 0)
        name = f"{base}{k}"
        while name in self.reserved:
            k += 1
            name = f"{base}{k}"
        self.counters[base] = k + 1
        self.reserved.add(name)
        return name


def _fresh_var(names, name):
    """A new variable of the clause whose var_names are names, called name or,
    if that is taken, name0, name1, ...; its name is appended to names."""
    taken = set(names)
    candidate = name
    k = 0
    while candidate in taken:
        candidate = f"{name}{k}"
        k += 1
    v = Var(len(names), candidate)
    names.append(candidate)
    return v


def _interface_clause(name: str, arity: int) -> Clause:
    args = tuple(Var(i, chr(ord("A") + i) if i < 26 else f"V{i + 1}") for i in range(arity))
    head = Struct(name, args) if args else Atom(name)
    return Clause(head, (Struct("slg", (head,)),))


def _check_higher_order(program: Program, pivots):
    for clause in program.clauses:
        for goal in clause.body:
            if isinstance(goal, Struct) and goal.functor == "call" and len(goal.args) == 1:
                target = pred_of(goal.args[0])
                if target is not None and target in pivots:
                    raise TranslateError(
                        f"higher-order call to tabled predicate not supported: "
                        f"call({target}) in a clause of {clause.pred()}"
                    )


def _check_name_collisions(names, tabled, bridges):
    for pred in sorted(tabled):
        if f"slg_{pred.name}" in names:
            raise TranslateError(f"generated name slg_{pred.name} collides with a source predicate")
    for pred in sorted(bridges):
        if f"{pred.name}_bridge" in names:
            raise TranslateError(
                f"generated name {pred.name}_bridge collides with a source predicate"
            )


def effective_bridges(program: Program, mode: Mode) -> frozenset:
    """The bridge set a mode works with: in general mode the declared bridges
    plus those find_bridges computes, in legacy mode the declared ones alone."""
    if mode is Mode.LEGACY:
        return program.bridges
    return program.bridges | bridge_analysis.find_bridges(program)


def translate(program: Program, mode: Mode) -> Program:
    """Translate a program for tabled execution.

    Non-tabled, non-bridge predicates pass through unchanged; with no
    declarations at all the program is returned with its read policy set.
    The bridges are effective_bridges(program, mode), and none in legacy
    mode.  The output carries no directives: it is ordinary source over
    slg/1, slgcall/1, answer/2 and call/1, with reads_incomplete set in legacy.
    """
    legacy = mode is Mode.LEGACY
    tabled = program.tabled
    bridges = frozenset() if legacy else effective_bridges(program, mode)
    if not tabled and not bridges:
        return Program(program.clauses, tabled, program.bridges, legacy)

    _check_higher_order(program, tabled | bridges)
    by_key: dict = {}  # (name, arity) -> its clauses; keys in first-definition order
    for c in program.clauses:
        by_key.setdefault(pred_key(c.head), []).append(c)
    names = {name for name, _ in by_key}
    _check_name_collisions(names, tabled, bridges)

    # predicates are (name, arity) keys from here: a PredId hashes through a Python call
    tabled_keys = {(p.name, p.arity) for p in tabled}
    pivot_keys = tabled_keys | {(p.name, p.arity) for p in bridges}

    namer = _ContNamer(names)
    order = list(by_key) + sorted(tabled_keys - by_key.keys())

    out: list = []
    for key in order:
        name = key[0]
        clauses = by_key.get(key, [])
        if key not in pivot_keys:
            out.extend(clauses)
            continue
        if key in tabled_keys:
            cont_base = f"{name}_cont" if legacy else f"slg_{name}"
            out.append(_interface_clause(*key))
        else:
            cont_base = f"{name}_bridge"
            out.extend(clauses)  # a bridge keeps its plain clauses
        mains, conts = [], []
        for clause in clauses:
            head, body = clause.head, clause.body
            cnames = var_names((head, *body))
            id_var = _fresh_var(cnames, "Id")
            if key in tabled_keys:
                cont_prev = EMPTY_CONT
                chain_head = Struct(f"slg_{name}", (head, id_var))
                end_goal = Struct("answer", (id_var, head))
            else:
                cont_prev = _fresh_var(cnames, "Cont")
                chain_head = Struct(f"{name}_bridge", (head, id_var, cont_prev))
                end_goal = Struct("call", (cont_prev,))
            goal_vars = [vars_of(g) for g in (head, *body, end_goal)]
            spans: dict = {}  # id -> [first, last goal position, var], in first-occurrence order
            for pos, vs in enumerate(goal_vars):
                for v in vs:
                    spans.setdefault(v.id, [pos, pos, v])[1] = pos
            chain, goals = [], []
            for i, goal in enumerate(body, 1):
                p = pred_key(goal)
                if p not in pivot_keys:
                    goals.append(goal)
                    continue
                # save what is bound before the cut and used after it; the
                # call's own variables travel in the pending-call slot
                in_call = {v.id for v in goal_vars[i]}
                lbinds = [v for k, (first, last, v) in spans.items()
                          if first < i < last and k not in in_call]
                args = (id_var, mk_list(lbinds), goal, cont_prev)  # legacy: no PrevCont
                cont = Struct(namer.next(cont_base), args[:3] if legacy else args)
                if p in tabled_keys:
                    goals.append(Struct("slgcall", (cont,)))
                else:
                    goals.append(Struct(f"{p[0]}_bridge", (goal, id_var, cont)))
                chain.append(Clause(chain_head, tuple(goals)))
                chain_head, goals = cont, []
            goals.append(end_goal)
            chain.append(Clause(chain_head, tuple(goals)))
            mains.append(chain[0])
            conts.extend(chain[1:])
        out.extend(mains)
        out.extend(conts)
    return Program(tuple(out), frozenset(), frozenset(), legacy)
