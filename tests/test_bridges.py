import random
from collections import deque

from cctab import Mode, PredId, Program, build_call_graph, find_bridges, parse_program, translate

from conftest import read_fixture


def test_mixed_loop_call_graph():
    g = build_call_graph(parse_program(read_fixture("mixed_loop.pl")))
    t, p = PredId("t", 1), PredId("p", 1)
    assert set(g.edges) == {(t, p), (p, t)}  # is/2 and </2 excluded
    assert set(g.nodes) == {t, p}


def test_reach_call_graph():
    g = build_call_graph(parse_program(read_fixture("reach.pl")))
    path, edge = PredId("path", 2), PredId("edge", 2)
    assert set(g.edges) == {(path, edge), (path, path)}


def test_fact_only_program_has_no_edges():
    g = build_call_graph(parse_program("e(1, 2).\ne(2, 3).\n"))
    assert g.edges == ()
    assert g.nodes == (PredId("e", 2),)


def test_mixed_loop_bridges():
    p = parse_program(read_fixture("mixed_loop.pl"))
    assert find_bridges(p) == {PredId("p", 1)}


def test_reach_has_no_bridges():
    assert find_bridges(parse_program(read_fixture("reach.pl"))) == set()


def test_no_cycle_no_bridges():
    p = parse_program(":- table t/1.\nt(X) :- q(X).\nq(1).\n")
    assert find_bridges(p) == set()


def test_no_tabled_predicates_empty_result():
    p = parse_program("a :- b.\nb :- a.\n")
    assert find_bridges(p) == set()


def test_result_disjoint_from_tabled_and_on_cycle():
    src = """:- table t/1.
t(X) :- mid(X).
mid(X) :- t(X).
side(X) :- t(X).
t(X) :- leaf(X).
leaf(0).
"""
    p = parse_program(src)
    bridges = find_bridges(p)
    assert bridges == {PredId("mid", 1)}
    assert not bridges & p.tabled  # side reaches t but is not reached from it


def _random_program(rng):
    preds = [f"p{i}" for i in range(rng.randint(2, 7))]
    lines = [f":- table {rng.choice(preds)}/1."]
    clauses = []
    for caller in preds:
        for _ in range(rng.randint(0, 2)):
            callee = rng.choice(preds)
            clauses.append((caller, callee))
            lines.append(f"{caller}(X) :- {callee}(X).")
    for p in preds:
        lines.append(f"{p}(0).")
    return "\n".join(lines) + "\n", clauses


def test_monotone_in_edge_set():
    rng = random.Random(11)
    for _ in range(30):
        text, clauses = _random_program(rng)
        p = parse_program(text)
        before = find_bridges(p)
        caller = "p0"
        callee = rng.choice([c for c, _ in clauses] or ["p0"])
        p_more = parse_program(text + f"{caller}(X) :- {callee}(X).\n")
        assert before <= find_bridges(p_more)


def test_unreachable_predicate_does_not_change_result():
    rng = random.Random(13)
    for _ in range(30):
        text, _ = _random_program(rng)
        p = parse_program(text)
        p_extra = parse_program(text + "island(X) :- island_helper(X).\nisland_helper(0).\n")
        assert find_bridges(p) == find_bridges(p_extra)


def test_every_bridge_lies_on_a_cycle_through_a_tabled_pred():
    rng = random.Random(17)
    for _ in range(30):
        text, _ = _random_program(rng)
        p = parse_program(text)
        g = build_call_graph(p)
        succ = {}
        for a, b in g.edges:
            succ.setdefault(a, set()).add(b)

        def reach(start):
            out, frontier = set(), [start]
            while frontier:
                x = frontier.pop()
                for y in succ.get(x, ()):
                    if y not in out:
                        out.add(y)
                        frontier.append(y)
            return out

        for b in find_bridges(p):
            assert b not in p.tabled
            assert any(b in reach(t) and t in reach(b) for t in p.tabled)


def test_declared_bridges_survive_union():
    # extra/1 lies on no tabled cycle, so only its declaration makes it a bridge
    p = parse_program(":- table t/1.\n:- bridge extra/1.\nt(0).\nextra(1).\n")
    assert find_bridges(p) == set()
    out = translate(p, Mode.GENERAL)
    assert [c.pred() for c in out.clauses if c.pred().name.startswith("extra")] == [
        PredId("extra", 1), PredId("extra_bridge", 3)]


def _random_graph_program(rng):
    """(source, predicate names, call edges): 1-3 of up to 8 predicates tabled."""
    preds = [f"p{i}" for i in range(rng.randint(2, 8))]
    tabled = rng.sample(preds, rng.randint(1, min(3, len(preds))))
    edges = [(rng.choice(preds), rng.choice(preds)) for _ in range(rng.randint(0, 2 * len(preds)))]
    lines = [f":- table {t}/1." for t in tabled]
    lines += [f"{a}(X) :- {b}(X)." for a, b in edges]
    lines += [f"{p}(0)." for p in preds]
    return "\n".join(lines) + "\n", preds, edges


def _bfs(edges, start):
    """Names reachable from start through one or more of the (caller, callee) edges."""
    seen, queue = set(), deque(b for a, b in edges if a == start)
    while queue:
        x = queue.popleft()
        if x not in seen:
            seen.add(x)
            queue.extend(b for a, b in edges if a == x)
    return seen


def test_every_predicate_between_two_tabled_ones_is_a_bridge():
    rng = random.Random(19)
    for _ in range(200):
        text, preds, edges = _random_graph_program(rng)
        p = parse_program(text)
        tabled = {t.name for t in p.tabled}
        between = {
            x
            for x in set(preds) - tabled
            if any(x in _bfs(edges, t) for t in tabled) and _bfs(edges, x) & tabled
        }
        assert find_bridges(p) == {PredId(x, 1) for x in between}, text


def test_adding_a_call_edge_never_removes_a_bridge():
    rng = random.Random(23)
    for _ in range(200):
        text, preds, _ = _random_graph_program(rng)
        more = text + f"{rng.choice(preds)}(X) :- {rng.choice(preds)}(X).\n"
        assert find_bridges(parse_program(text)) <= find_bridges(parse_program(more)), more


def test_contains_every_helper_on_a_cycle_through_a_tabled_predicate():
    rng = random.Random(29)
    wider = 0
    for _ in range(200):
        text, _, edges = _random_graph_program(rng)
        p = parse_program(text)
        tabled = {t.name for t in p.tabled}
        on_cycle = {x for t in tabled for x in _bfs(edges, t) if t in _bfs(edges, x)} - tabled
        bridges = find_bridges(p)
        assert {PredId(x, 1) for x in on_cycle} <= bridges, text
        wider += len(bridges) > len(on_cycle)
    # the cases where the two definitions differ are exercised
    assert wider > 0
