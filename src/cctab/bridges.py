"""Call-graph construction and the bridge predicates.

A bridge predicate is a non-tabled predicate whose activation records can sit
between a tabled generator and one of its consumers, so its environment must
be captured when the consumer suspends.  Such an activation is called, through
the call graph, from some tabled predicate and calls some tabled predicate, so
the set below marks every non-tabled predicate that is reachable from a tabled
predicate and reaches a tabled predicate.  It therefore contains every
non-tabled predicate on a call path between two tabled predicates, and it only
grows when a call edge is added.  Marking too much only duplicates code, never
changes answers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import ENGINE_PREDS
from .terms import PredId, Program, pred_key


@dataclass(frozen=True)
class CallGraph:
    nodes: tuple  # PredId, sorted
    edges: tuple  # (caller: PredId, callee: PredId), sorted


def build_call_graph(program: Program) -> CallGraph:
    # Predicates are (name, arity) tuples while scanning, which sort as PredId
    # does; each node becomes one PredId at the end, shared by its edges.  The
    # predicates the engine resolves itself are no nodes.
    nodes = set()
    edges = set()
    for clause in program.clauses:
        caller = pred_key(clause.head)
        nodes.add(caller)
        for goal in clause.body:
            callee = pred_key(goal)
            if callee is None or callee in ENGINE_PREDS:
                continue
            nodes.add(callee)
            edges.add((caller, callee))
    ids = {key: PredId(*key) for key in sorted(nodes)}
    return CallGraph(tuple(ids.values()), tuple((ids[a], ids[b]) for a, b in sorted(edges)))


def _reachable(starts, succ: dict) -> set:
    """Predicates reachable from any of starts via one or more edges."""
    out: set = set()
    frontier = [p for start in starts for p in succ.get(start, ())]
    while frontier:
        p = frontier.pop()
        if p in out:
            continue
        out.add(p)
        frontier.extend(succ.get(p, ()))
    return out


def find_bridges(program: Program) -> set:
    """(union over tabled T of Forward(T)) & (union of Backward(T)) - tabled.

    Forward(T) and Backward(T) are the predicates T reaches and those that
    reach T through one or more call edges; the tabled predicates themselves
    are left out, since the translation already saves their environments.
    """
    # the walks run over (name, arity) keys: a PredId hashes through a Python call
    succ: dict = {}
    pred: dict = {}
    for a, b in build_call_graph(program).edges:
        a, b = (a.name, a.arity), (b.name, b.arity)
        succ.setdefault(a, []).append(b)
        pred.setdefault(b, []).append(a)
    tabled = {(p.name, p.arity) for p in program.tabled}
    forward = _reachable(tabled, succ)
    backward = _reachable(tabled, pred)
    return {PredId(*key) for key in (forward & backward) - tabled}
