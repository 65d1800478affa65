"""Call-graph construction and the safe over-approximation of bridge predicates.

A bridge predicate is a non-tabled predicate whose activation records can sit
between a tabled generator and one of its consumers, so its environment must
be captured when the consumer suspends.  Finding the minimal such set is
undecidable; the approximation below marks every non-tabled predicate that
lies on a directed call-graph cycle through a tabled predicate.  Marking too
much only duplicates code, never changes answers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import PredId, Program, pred_of

# Predicates resolved by the engine itself; they never appear as graph nodes.
BUILTIN_PREDS = frozenset(
    {
        PredId("is", 2),
        PredId("<", 2),
        PredId("=<", 2),
        PredId(">", 2),
        PredId(">=", 2),
        PredId("=:=", 2),
        PredId("=", 2),
        PredId("\\=", 2),
        PredId("true", 0),
        PredId("fail", 0),
        PredId("call", 1),
        PredId("slg", 1),
        PredId("slgcall", 1),
        PredId("answer", 2),
    }
)


@dataclass(frozen=True)
class CallGraph:
    nodes: tuple  # PredId, sorted
    edges: tuple  # (caller: PredId, callee: PredId), sorted


def build_call_graph(program: Program) -> CallGraph:
    nodes = set()
    edges = set()
    for clause in program.clauses:
        caller = clause.pred()
        nodes.add(caller)
        for goal in clause.body:
            callee = pred_of(goal)
            if callee is None or callee in BUILTIN_PREDS:
                continue
            nodes.add(callee)
            edges.add((caller, callee))
    return CallGraph(tuple(sorted(nodes)), tuple(sorted(edges)))


def _reachable(start: PredId, succ: dict) -> set:
    """Predicates reachable from start via one or more edges."""
    out: set = set()
    frontier = list(succ.get(start, ()))
    while frontier:
        p = frontier.pop()
        if p in out:
            continue
        out.add(p)
        frontier.extend(succ.get(p, ()))
    return out


def find_bridges(program: Program, graph: CallGraph = None) -> set:
    """Bridge set per the cycle-through-a-tabled-predicate approximation.

    For each tabled T: union Forward(T) & Backward(T), then subtract the
    tabled predicates themselves (their environments are already saved by
    the translation).
    """
    if graph is None:
        graph = build_call_graph(program)
    succ: dict = {}
    pred: dict = {}
    for a, b in graph.edges:
        succ.setdefault(a, []).append(b)
        pred.setdefault(b, []).append(a)
    bridges: set = set()
    for t in sorted(program.tabled):
        forward = _reachable(t, succ)
        backward = _reachable(t, pred)
        bridges |= forward & backward
    return bridges - set(program.tabled)
