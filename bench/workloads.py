"""Seeded workload generators and the engine-independent references they are checked against.

Every workload is a program text plus a list of query texts, made only from
its seed and the fixed parameters below.  The reference answers come from the
generated facts (a closed form or a breadth-first search) or from the
bottom-up oracle, never from the tabling engine under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Generator parameters.  They are part of each workload's definition: a
# change to them is a change of the benchmark, not of the program.  Why each
# workload exists is stated in BENCHMARK.json.
CHAIN = {"n": 48}
MIXED = {"k": 6, "v": 12}
MODULES = {"m": 32, "s": 6, "group": 4, "links": 2, "queries": 300,
           "ground_share": 0.1, "zipf_s": 1.0}


@dataclass
class Workload:
    name: str
    seed: int
    params: dict
    program: str
    queries: list  # query texts, issued in order, each run to exhaustion
    # True when the queries are a client's stream; False when they are one
    # cold query followed by the same query answered from the completed table.
    stream: bool
    # Reference answer set per query text, as tuples of ints; None means the
    # reference is the bottom-up oracle, filled in once per run before timing.
    expected: dict = field(default_factory=dict)


def _relabelled_circulant(rng: random.Random, nodes: list, stride: int) -> list:
    """Edges u -> u+1 and u -> u+stride (mod len(nodes)) over a seeded relabelling of `nodes`.

    Every seed gives the same graph up to the names of its nodes: out-degree 2,
    strongly connected, with the same path lengths, so the engine and the
    naive oracle (whose number of rounds follows the longest derivation) do
    nearly the same work for every seed.  The seed decides the labels, hence
    the order of the facts and which pairs pass the arithmetic guards.
    """
    n = len(nodes)
    label = nodes[:]
    rng.shuffle(label)
    return [(label[u], label[(u + d) % n]) for u in range(n) for d in (1, stride)]


def _stride(i: int, n: int) -> int:
    """The second-edge stride of graph number i over n nodes: near sqrt(n), which
    keeps paths short, and never 0 or 1."""
    return 2 + (round(n ** 0.5) - 2 + i) % (n - 2)


# -- chain ---------------------------------------------------------------------------


def chain(seed: int, n: int = CHAIN["n"]) -> Workload:
    """`gen_fixture("chain", n)` with the cold query `path(X, Y)`, then the same
    query again, answered from the completed table.

    The chain has no free choice, so the seed does not change it.
    """
    from cctab.fixtures import gen_fixture

    query = "path(X, Y)"
    expected = {(i, j) for i in range(1, n + 2) for j in range(i + 1, n + 2)}
    return Workload("chain", seed, {"n": n}, gen_fixture("chain", n), [query, query], False,
                    {query: expected})


# -- mixed ---------------------------------------------------------------------------


def mixed(seed: int, k: int = MIXED["k"], v: int = MIXED["v"]) -> Workload:
    """K tabled tI/2, each looping through the bridge hI/2 with the guard Z < V,
    and joined to tI+1 through the bridge gI/2 (`Y is W + 1, X > Y`).

    tI+1 also calls tI directly, so every gI lies on a cycle through a tabled
    predicate and all tI form one completion group.  Nodes are 1..V; each eI/2
    is a relabelled out-degree-2 circulant graph.  The query is the cold
    t0(X, Y), then t0(X, Y) again.
    """
    rng = random.Random(f"mixed:{seed}")
    nodes = list(range(1, v + 1))
    lines = [f"% mixed workload: k={k} v={v} seed={seed}"]
    lines += [f":- table t{i}/2." for i in range(k)]
    for i in range(k):
        lines += [
            "",
            f"t{i}(X, Y) :- e{i}(X, Y).",
            f"t{i}(X, Z) :- h{i}(X, Y), e{i}(Y, Z).",
            f"h{i}(X, Z) :- t{i}(X, Z), Z < {v}.",
        ]
        if i + 1 < k:
            lines += [
                f"t{i}(X, Y) :- g{i}(X, Y).",
                f"g{i}(X, Y) :- t{i + 1}(X, W), Y is W + 1, X > Y.",
            ]
        if i > 0:
            lines.append(f"t{i}(X, Y) :- t{i - 1}(Y, X).")
        lines += [f"e{i}({a}, {b})." for a, b in _relabelled_circulant(rng, nodes, _stride(i, v))]
    query = "t0(X, Y)"
    return Workload("mixed", seed, {"k": k, "v": v}, "\n".join(lines) + "\n",
                    [query, query], False, {query: None})


# -- modules -------------------------------------------------------------------------


def modules(seed: int, m: int = MODULES["m"], s: int = MODULES["s"],
            queries: int = MODULES["queries"],
            ground_share: float = MODULES["ground_share"]) -> Workload:
    """M modules of S nodes in groups of MODULES["group"] modules.  Module j has
    a tabled reachJ/2 that recurses through the bridge hopJ/2 over its own
    edgeJ/2 facts (a relabelled out-degree-2 circulant graph), and
    MODULES["links"] linkJ/2 facts into the next module of its group.

    The links of a group form a ring, so the group is one completion group:
    the first query into any of its modules evaluates all of them, and every
    later open query into the group is a pure table read.  Node ids are global
    (module j owns j*S .. j*S+S-1).  The query stream picks the module by a
    seeded Zipf law (exponent MODULES["zipf_s"]) and the node uniformly.
    Exactly `ground_share` of the queries, at seeded places in the stream, are
    ground checks reachJ(a, b), with b drawn from this group or the next, which
    create generators for new ground variants.
    """
    group, links, zipf_s = MODULES["group"], MODULES["links"], MODULES["zipf_s"]
    if m % group:
        raise ValueError("the module count must be a multiple of the group size")
    rng = random.Random(f"modules:{seed}")
    edge_succ: dict = {}
    link_succ: dict = {}
    lines = [f"% modules workload: m={m} s={s} group={group} seed={seed}"]
    for j in range(m):
        own = list(range(j * s, j * s + s))
        nxt = j + 1 if (j + 1) % group else j + 1 - group
        lines += [
            "",
            f":- table reach{j}/2.",
            f"reach{j}(X, Y) :- edge{j}(X, Y).",
            f"reach{j}(X, Y) :- hop{j}(X, Y).",
            f"reach{j}(X, Y) :- link{j}(X, Z), reach{nxt}(Z, Y).",
            f"hop{j}(X, Y) :- edge{j}(X, Z), reach{j}(Z, Y).",
        ]
        for a, b in _relabelled_circulant(rng, own, _stride(j, s)):
            edge_succ.setdefault(a, []).append(b)
            lines.append(f"edge{j}({a}, {b}).")
        for a in rng.sample(own, links):
            b = rng.randrange(nxt * s, nxt * s + s)
            link_succ.setdefault(a, []).append(b)
            lines.append(f"link{j}({a}, {b}).")

    weights = [1.0 / (r + 1) ** zipf_s for r in range(m)]
    hot = list(range(m))
    rng.shuffle(hot)  # which module is most popular depends on the seed
    stream = []
    expected = {}
    ground = set(rng.sample(range(queries), round(queries * ground_share)))
    for i, j in enumerate(rng.choices(hot, weights=weights, k=queries)):
        a = rng.randrange(j * s, j * s + s)
        reach = reachable(a, edge_succ, link_succ)
        if i in ground:
            first = j - j % group
            b = rng.randrange(first * s, min(first + 2 * group, m) * s)
            text = f"reach{j}({a}, {b})"
            expected[text] = {(a, b)} if b in reach else set()
        else:
            text = f"reach{j}({a}, Y)"
            expected[text] = {(a, b) for b in reach}
        stream.append(text)
    params = {"m": m, "s": s, "group": group, "links": links, "queries": queries,
              "ground_share": ground_share, "zipf_s": zipf_s}
    return Workload("modules", seed, params, "\n".join(lines) + "\n", stream, True, expected)


def reachable(start: int, edge_succ: dict, link_succ: dict) -> set:
    """Answers of reachJ(start, Y) by breadth-first search over the generated facts.

    An edge step yields its target as an answer; a link step only moves on,
    because reachJ(X, Y) :- linkJ(X, Z), reachJ+1(Z, Y) needs one more step.
    """
    answers: set = set()
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in edge_succ.get(x, ()):
                answers.add(y)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
            for z in link_succ.get(x, ()):
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return answers


BUILDERS = {"chain": chain, "mixed": mixed, "modules": modules}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


# -- correctness gates ---------------------------------------------------------------


def answer_tuple(term) -> tuple:
    """(a, b) of ints from a ground answer term p(a, b)."""
    return tuple(arg.value for arg in term.args)


def gate(got: list, expected: set) -> str:
    """Empty string when the answers are exactly `expected`, each once; else what differs."""
    found = set(got)
    if found == expected and len(got) == len(found):
        return ""
    missing = sorted(expected - found)
    extra = sorted(found - expected)
    return (f"missing {len(missing)} {missing[:3]}, extra {len(extra)} {extra[:3]}, "
            f"{len(got) - len(found)} repeated")


def oracle_expected(facts: dict, query_goal) -> set:
    """The oracle's answers for the query variant, as tuples of ints."""
    from cctab.oracle import oracle_answers_for

    return {answer_tuple(t) for t in oracle_answers_for(facts, query_goal)}
