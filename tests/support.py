"""Shared fixture graphs and instance generators for the test suite."""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable

from blossom import (
    ContractionMap,
    ContractionStep,
    Edge,
    FoundBlossom,
    InvariantViolation,
    MaximalityCertificate,
    adjacency,
    augment,
    build_odd_set_cover,
    edge,
    edges_of_path,
    find_augmenting_path,
    find_path_or_blossom,
    fresh_vertex,
    graph,
    is_blossom,
    is_matching,
    quotient_graph,
    run_search,
    vertices,
)

TRIANGLE = graph([(1, 2), (2, 3), (1, 3)])
PATH4 = graph([(1, 2), (2, 3), (3, 4)])

# 7 vertices; with DEMO7_MATCHING the only way to augment runs through the
# odd cycle 3-4-5, so this pair exercises contraction end to end
DEMO7 = graph([(1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6), (3, 7)])
DEMO7_MATCHING = graph([(2, 3), (4, 5)])

# 12 vertices; DEMO12_MATCHING is one of its maximum matchings (5 edges)
DEMO12 = graph(
    [
        (1, 2),
        (1, 3),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 6),
        (5, 7),
        (6, 7),
        (7, 8),
        (8, 9),
        (8, 10),
        (9, 10),
        (10, 11),
        (8, 12),
    ]
)
DEMO12_MATCHING = graph([(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)])

# a triangle hanging off a matched tail: no augmenting path exists, but the
# search must contract the triangle to find that out
TAILED_TRIANGLE = graph([(1, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
TAILED_TRIANGLE_MATCHING = graph([(2, 3), (4, 5)])


def interleaved_odd_cycle(k: int) -> frozenset:
    """The odd cycle on 4k+1 vertices whose two arms leave vertex 0 and meet
    at the far end, with interleaved ids a_i = 2i-1 and b_i = 2i. A maximum
    matching has 2k edges."""
    a = [2 * i - 1 for i in range(1, 2 * k + 1)]
    b = [2 * i for i in range(1, 2 * k + 1)]
    return frozenset(edges_of_path([0] + a + b[::-1] + [0]))


# 1,601 vertices: a blossom spanning the cycle is longer than Python's
# default recursion limit
INTERLEAVED_400 = interleaved_odd_cycle(400)


def k_pairs(n: int, first: int = 1) -> list[tuple[int, int]]:
    """All edges of the complete graph on ``n`` vertices starting at ``first``."""
    return [edge(u, v) for u, v in itertools.combinations(range(first, first + n), 2)]


def all_graphs(n: int):
    """Every graph on the labelled vertices 1..n (all edge subsets)."""
    pairs = k_pairs(n)
    for bits in range(1 << len(pairs)):
        yield frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)


def all_matchings(g) -> list[frozenset]:
    """Every matching contained in the graph, including the empty one."""
    edges = sorted(g)
    out = [frozenset()]
    chosen: list[tuple[int, int]] = []

    def extend(start: int, used: set[int]) -> None:
        for j in range(start, len(edges)):
            a, b = edges[j]
            if a in used or b in used:
                continue
            chosen.append((a, b))
            out.append(frozenset(chosen))
            extend(j + 1, used | {a, b})
            chosen.pop()

    extend(0, set())
    return out


def random_graph(rng: random.Random, n: int, p: float, first: int = 1) -> frozenset:
    return frozenset(e for e in k_pairs(n, first) if rng.random() < p)


def random_matching(rng: random.Random, g) -> frozenset:
    edges = sorted(g)
    rng.shuffle(edges)
    used: set[int] = set()
    out = []
    for a, b in edges:
        if a not in used and b not in used and rng.random() < 0.7:
            used.update((a, b))
            out.append((a, b))
    return frozenset(out)


def random_blossom_instance(rng: random.Random, max_vertices: int = 12):
    """A random graph and matching together with a blossom of the pair.

    The blossom is planted: an even alternating stem, an odd alternating
    cycle, then extra vertices, extra matched pairs away from the blossom,
    and random extra edges anywhere (none of which can break the blossom
    properties).
    """
    k = rng.randint(1, 3)
    j = rng.randint(0, min(2, (max_vertices - 2 * k - 1) // 2))
    core = 2 * j + 2 * k + 1
    extra = rng.randint(0, max_vertices - core)
    total = core + extra
    ids = list(range(1, total + 1))
    rng.shuffle(ids)
    stem = ids[: 2 * j]
    base = ids[2 * j]
    inner = ids[2 * j + 1 : core]
    others = ids[core:]
    cycle = [base] + inner + [base]
    whole = stem + cycle
    path_edges = edges_of_path(whole)
    g = set(path_edges)
    m = {path_edges[t] for t in range(1, len(path_edges), 2)}
    for i in range(0, len(others) - 1, 2):
        if rng.random() < 0.6:
            e = edge(others[i], others[i + 1])
            g.add(e)
            m.add(e)
    for _ in range(rng.randint(0, total)):
        u, v = rng.sample(ids, 2)
        g.add(edge(u, v))
    gf, mf = frozenset(g), frozenset(m)
    assert is_matching(mf) and mf <= gf
    assert is_blossom(gf, mf, stem, cycle)
    return gf, mf, stem, cycle


def dimacs(n: int, edges) -> str:
    """Render a graph as DIMACS edge-format text with 1-based ids."""
    lines = [f"p edge {n} {len(edges)}"]
    lines += [f"e {u} {v}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def reference_maximum_matching(g) -> frozenset:
    """The paper-shaped augmentation loop: start from the empty matching and
    augment along ``find_augmenting_path`` until no augmenting path remains.
    The reference the array engine of ``find_maximum_matching`` is checked
    against."""
    gset = graph(g)
    matching: frozenset = frozenset()
    for _ in range(len(vertices(gset)) // 2 + 2):
        path = find_augmenting_path(gset, matching)
        if path is None:
            return matching
        matching = augment(matching, path)
    raise InvariantViolation("augmentation loop failed to terminate")


def reference_certificate(g, matching) -> MaximalityCertificate | None:
    """The paper-shaped certificate: search, contract each blossom found and
    search the quotient again, then build the odd set cover of the last
    level's failed search. None when an augmenting path exists. Its ``x``
    steps are what ``verify_certificate`` replays."""
    cur_g, cur_m = frozenset(g), frozenset(matching)
    steps = []
    for _ in range(len(vertices(cur_g)) + 1):
        found = find_path_or_blossom(cur_g, cur_m)
        if found is None:
            cover = build_odd_set_cover(cur_g, cur_m, run_search(cur_g, cur_m).state)
            return MaximalityCertificate(tuple(steps), cover)
        if not isinstance(found, FoundBlossom):
            return None
        vs = vertices(cur_g)
        target = fresh_vertex(vs)
        steps.append(ContractionStep(found.stem, found.cycle, target))
        cmap = ContractionMap(frozenset(vs - set(found.cycle)), target)
        cur_g, cur_m = quotient_graph(cmap, cur_g), quotient_graph(cmap, cur_m)
    raise InvariantViolation("contraction chain exceeded the vertex count")


def degree(g: Iterable[Edge], v: int) -> int:
    """Number of edges incident on ``v``; 0 if the vertex is absent."""
    return sum(1 for e in g if v in e)


def _component_from(adj: dict[int, set[int]], v: int) -> set[int]:
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def connected_component(g: Iterable[Edge], v: int) -> set[int]:
    """All vertices reachable from ``v``, including ``v`` itself."""
    return _component_from(adjacency(g), v)


def connected_components(g: Iterable[Edge]) -> set[frozenset[int]]:
    """The connected components of the graph, as vertex sets."""
    adj = adjacency(g)
    remaining = set(adj)
    comps = set()
    while remaining:
        comp = _component_from(adj, next(iter(remaining)))
        comps.add(frozenset(comp))
        remaining -= comp
    return comps


def component_edges(g: Iterable[Edge], component: Iterable[int]) -> frozenset[Edge]:
    """Edges of the graph with both endpoints inside ``component``."""
    cs = set(component)
    return frozenset(e for e in g if e[0] in cs and e[1] in cs)


def component_as_path(g: Iterable[Edge], component: Iterable[int]) -> list[int]:
    """Arrange a connected component with all degrees at most two into a
    simple path covering exactly its vertices and edges.

    Raises ValueError if some vertex of the component has degree three or
    more, or if its edges form a cycle; either signals a violated caller
    precondition (the intended inputs are components of a symmetric
    difference of two matchings with unequal edge counts, which are always
    paths). The walk starts at the smallest endpoint, so the result is
    deterministic up to that choice.
    """
    comp = set(component)
    gset = frozenset(g)
    if len(comp) == 1:
        (v,) = comp
        if v not in vertices(gset):
            raise ValueError(f"vertex {v} does not occur in the graph")
        return [v]
    sub = component_edges(gset, comp)
    adj = adjacency(sub)
    if set(adj) != comp:
        raise ValueError("vertex set is not connected by its component edges")
    if any(len(ns) > 2 for ns in adj.values()):
        raise ValueError("component has a vertex of degree 3 or more")
    ends = sorted(v for v, ns in adj.items() if len(ns) <= 1)
    if not ends:
        raise ValueError("component is a cycle, not arrangeable as a path")
    path = [ends[0]]
    prev = None
    while True:
        step = [w for w in sorted(adj[path[-1]]) if w != prev]
        if not step:
            break
        prev = path[-1]
        path.append(step[0])
    if len(path) != len(comp) or set(path) != comp:
        raise ValueError("component does not arrange into a simple path")
    return path
