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
"""

from __future__ import annotations

import enum
import logging

from . import bridges as bridge_analysis
from .errors import TranslateError
from .terms import (
    Atom,
    Clause,
    PredId,
    Program,
    Struct,
    Term,
    Var,
    mk_list,
    normalize_clause,
    pred_key,
    pred_of,
    var_names,
    vars_of,
    vars_of_all,
)

log = logging.getLogger(__name__)

EMPTY_CONT = Atom("[]")


class Mode(enum.Enum):
    GENERAL = "general"
    LEGACY = "legacy"


def split_following(body, tabled, bridges):
    """Split a body at the leftmost tabled-or-bridge call.

    Returns (prefix, pivot, suffix); pivot is None (with suffix empty and
    prefix == body) when no such call exists.
    """
    for i, goal in enumerate(body):
        p = pred_of(goal)
        if p is not None and (p in tabled or p in bridges):
            return list(body[:i]), goal, list(body[i + 1 :])
    return list(body), None, []


def get_lbinds(before, pivot, after):
    """Variables to save in a continuation's binding list.

    Those occurring both before the pivot (clause head included) and after it
    (final answer/2 or call(Cont) goal included), except variables of the
    pivot call itself, which travel inside the pending-call slot.  Ordered by
    first occurrence in the clause.
    """
    after_ids = {v.id for v in vars_of_all(after)}
    pivot_ids = {v.id for v in vars_of(pivot)}
    return [v for v in vars_of_all(before) if v.id in after_ids and v.id not in pivot_ids]


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


def trans_body(head_tr, body, id_var, cont_prev, end_goal, ctx):
    """Translate one clause body into a chain of clauses.

    The first clause covers the prefix up to the first tabled/bridge call;
    each later one is a continuation clause; the last body ends in end_goal.
    Returns (main_clause, continuation_clauses).
    """
    chunks = []
    current_head = head_tr
    remaining = list(body)
    consumed = []  # goals before the current chunk, for the binding lists
    while True:
        prefix, pivot, suffix = split_following(remaining, ctx.tabled, ctx.bridges)
        if pivot is None:
            chunks.append((current_head, prefix + [end_goal]))
            break
        before = [ctx.orig_head] + consumed + prefix
        after = suffix + [end_goal]
        lbinds = get_lbinds(before, pivot, after)
        cont_name = ctx.namer.next(ctx.cont_base)
        args = (id_var, mk_list(lbinds), pivot, cont_prev)  # legacy: no PrevCont
        cont = Struct(cont_name, args if ctx.mode is Mode.GENERAL else args[:3])
        p = pred_of(pivot)
        if p in ctx.tabled:
            call_goal = Struct("slgcall", (cont,))
        else:
            call_goal = Struct(f"{p.name}_bridge", (pivot, id_var, cont))
        chunks.append((current_head, prefix + [call_goal]))
        current_head = cont
        consumed = consumed + prefix + [pivot]
        remaining = suffix
    normalized = [normalize_clause(h, b) for h, b in chunks]
    return normalized[0], normalized[1:]


class _Ctx:
    def __init__(self, mode, tabled, bridges, namer):
        self.mode = mode
        self.tabled = tabled
        self.bridges = bridges  # empty in legacy mode
        self.namer = namer
        self.orig_head: Term = Atom("[]")
        self.cont_base = ""


def _interface_clause(pred: PredId) -> Clause:
    args = tuple(Var(i, chr(ord("A") + i) if i < 26 else f"V{i + 1}") for i in range(pred.arity))
    head = Struct(pred.name, args) if args else Atom(pred.name)
    return normalize_clause(head, [Struct("slg", (head,))])


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
    declarations at all the program is returned as-is.  The bridges are
    effective_bridges(program, mode), and none in legacy mode.  The output
    carries no directives: it is ordinary source over slg/1, slgcall/1,
    answer/2 and call/1.
    """
    tabled = program.tabled
    bridges = effective_bridges(program, mode) if mode is Mode.GENERAL else frozenset()
    if not tabled and not bridges:
        return program

    _check_higher_order(program, tabled | bridges)
    by_key: dict = {}  # (name, arity) -> its clauses; keys in first-definition order
    for c in program.clauses:
        by_key.setdefault(pred_key(c.head), []).append(c)
    names = {name for name, _ in by_key}
    _check_name_collisions(names, tabled, bridges)

    by_pred = {PredId(*key): clauses for key, clauses in by_key.items()}
    for pred in sorted(tabled):
        if pred not in by_pred:
            log.warning("tabled predicate %s has no clauses", pred)

    namer = _ContNamer(names)
    order = list(by_pred) + [p for p in sorted(tabled) if p not in by_pred]

    out: list = []
    for pred in order:
        clauses = by_pred.get(pred, [])
        if pred not in tabled and pred not in bridges:
            out.extend(clauses)
            continue
        ctx = _Ctx(mode, tabled, bridges, namer)
        if pred in tabled:
            ctx.cont_base = f"slg_{pred.name}" if mode is Mode.GENERAL else f"{pred.name}_cont"
            out.append(_interface_clause(pred))
        else:
            ctx.cont_base = f"{pred.name}_bridge"
            out.extend(clauses)  # a bridge keeps its plain clauses
        mains, conts = [], []
        for clause in clauses:
            cnames = var_names((clause.head, *clause.body))
            id_var = _fresh_var(cnames, "Id")
            if pred in tabled:
                head_tr = Struct(f"slg_{pred.name}", (clause.head, id_var))
                cont_prev = EMPTY_CONT
                end_goal = Struct("answer", (id_var, clause.head))
            else:
                cont_prev = _fresh_var(cnames, "Cont")
                head_tr = Struct(f"{pred.name}_bridge", (clause.head, id_var, cont_prev))
                end_goal = Struct("call", (cont_prev,))
            ctx.orig_head = clause.head
            main, more = trans_body(head_tr, clause.body, id_var, cont_prev, end_goal, ctx)
            mains.append(main)
            conts.extend(more)
        out.extend(mains)
        out.extend(conts)
    return Program(tuple(out), frozenset(), frozenset())
