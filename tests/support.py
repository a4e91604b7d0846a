"""Shared fixture graphs and instance generators for the test suite."""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable

import blossom.solver
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
from blossom.certificate import VerificationReport, _check_cover

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


def sparse_graph(rng: random.Random, n: int, degree: int) -> frozenset:
    """``n * degree // 2`` distinct uniform random edges on the vertices
    0..n-1, for an average degree of ``degree``."""
    edges: set[Edge] = set()
    while len(edges) < n * degree // 2:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add(edge(a, b))
    return frozenset(edges)


def count_phases(monkeypatch) -> list:
    """Wrap the engine's phase for the rest of the test; the returned list
    gets one entry per phase run."""
    calls: list = []
    original = blossom.solver._augment_phase

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(blossom.solver, "_augment_phase", counting)
    return calls


class PlantedInstance:
    """A graph grown around a planted matching, piece by piece; the
    adversarial cases for the engine's dead trees and member lists are
    built from it.

    ``layout`` numbers the vertices so that the engine's greedy start, which
    matches each vertex in sorted order to its first unmatched neighbour,
    picks exactly the planted pairs: each pair takes two consecutive ids and
    the free vertices, pairwise non-adjacent, come last. The first engine
    phase then starts from the planted matching.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.size = 0
        self.edges: list[Edge] = []
        self.pairs: list[Edge] = []
        self.free: list[int] = []

    def vertex(self) -> int:
        self.size += 1
        return self.size - 1

    def root(self) -> int:
        r = self.vertex()
        self.free.append(r)
        return r

    def match(self, a: int, b: int) -> None:
        self.pairs.append((a, b))
        self.edges.append((a, b))

    def stem(self, top: int, length: int) -> int:
        """A new free root joined to the unmatched vertex ``top`` by an
        alternating path of ``length`` matched edges, the last one on
        ``top``; with length 0 ``top`` is the root."""
        if not length:
            self.free.append(top)
            return top
        prev = root = self.root()
        for i in range(length):
            a = self.vertex()
            b = top if i == length - 1 else self.vertex()
            self.edges.append((prev, a))
            self.match(a, b)
            prev = b
        return root

    def blossom(self, depth: int) -> tuple[int, list[int]]:
        """A blossom nested ``depth`` deep, as its unmatched base and its
        vertices. Each level is an odd cycle of 3, 5 or 7 around a new base
        in which one vertex is the blossom of the level below: its base
        takes that vertex's matched edge, and a random vertex of it takes
        the unmatched cycle edge."""
        base = self.vertex()
        members = [base]
        for _ in range(depth):
            inner_base, inner = base, members
            base = self.vertex()
            slots = 2 * self.rng.randint(1, 3)
            hole = self.rng.randrange(slots)
            ring = [base] + [-1 if i == hole else self.vertex() for i in range(slots)]
            for i in range(1, slots, 2):
                a, b = ring[i], ring[i + 1]
                self.match(inner_base if a < 0 else a, inner_base if b < 0 else b)
            for i in range(0, slots + 1, 2):
                a, b = ring[i], ring[(i + 1) % (slots + 1)]
                a = self.rng.choice(inner) if a < 0 else a
                b = self.rng.choice(inner) if b < 0 else b
                self.edges.append((a, b))
            members = inner + [v for v in ring if v >= 0]
        return base, members

    def pendant(self, vertices: list[int]) -> None:
        """A new free vertex joined to a random matched one of ``vertices``."""
        matched = [v for v in vertices if v not in self.free]
        self.edges.append((self.root(), self.rng.choice(matched)))

    def chords(self, count: int, vertices: list[int]) -> None:
        """``count`` random edges between the matched ``vertices``."""
        matched = [v for v in vertices if v not in self.free]
        for _ in range(count if len(matched) > 1 else 0):
            self.edges.append(tuple(self.rng.sample(matched, 2)))

    def layout(self) -> tuple[frozenset, frozenset]:
        """The graph and the planted matching, in 1-based ids."""
        pairs = list(self.pairs)
        self.rng.shuffle(pairs)
        order = [v for a, b in pairs for v in self.rng.sample((a, b), 2)]
        free = list(self.free)
        self.rng.shuffle(free)
        ids = {v: i for i, v in enumerate(order + free, start=1)}
        g = graph((ids[a], ids[b]) for a, b in self.edges)
        on_free = set(free)
        assert not any(a in on_free and b in on_free for a, b in self.edges)
        assert len(ids) == self.size
        return g, graph((ids[a], ids[b]) for a, b in pairs)


def nested_blossoms(
    rng: random.Random, depth: int, stem: int, pendant: bool, chords: int = 0
) -> tuple[frozenset, frozenset, int]:
    """A blossom nested ``depth`` deep at the end of a stem of ``stem``
    matched edges from a free root, ``chords`` random edges inside, and with
    ``pendant`` a free vertex on a random blossom vertex, which opens an
    augmenting path through every level. The graph, the planted matching
    and the maximum matching size."""
    built = PlantedInstance(rng)
    base, members = built.blossom(depth)
    built.stem(base, stem)
    if pendant:
        built.pendant(members)
    built.chords(chords, members)
    g, m = built.layout()
    return g, m, len(m) + pendant


def augmenting_gadgets(
    rng: random.Random, count: int, cross: int = 0
) -> tuple[frozenset, frozenset, int]:
    """``count`` small gadgets, each two free vertices joined by one
    augmenting path of up to 7 edges, some through a triangle whose base is
    on the path, and ``cross`` random edges between matched vertices of
    different gadgets. Without cross edges one engine phase augments every
    gadget. The graph, the planted matching and the maximum matching size:
    a perfect matching."""
    built = PlantedInstance(rng)
    gadgets: list[list[int]] = []
    for _ in range(count):
        first = len(built.pairs)
        if rng.random() < 0.5:
            end = built.vertex()
            built.stem(end, rng.randint(1, 3))
            built.pendant([end])
        else:
            base, members = built.blossom(1)
            built.stem(base, rng.randint(1, 2))
            built.pendant([v for v in members if v != base])
        gadgets.append([v for e in built.pairs[first:] for v in e])
    for _ in range(cross if count > 1 else 0):
        one, other = rng.sample(gadgets, 2)
        built.edges.append((rng.choice(one), rng.choice(other)))
    g, m = built.layout()
    return g, m, len(m) + count


def absorbed_blossom(
    rng: random.Random, depth: int, arm: int, pendant: bool
) -> tuple[frozenset, frozenset, int]:
    """A blossom that absorbs a larger one: a free root r, its matched
    neighbour's partner the base of a blossom nested ``depth`` deep, and an
    arm of ``arm`` matched edges from r whose end closes an odd cycle
    through r at a random vertex of that blossom. The cycle's base is r,
    whose own group is r alone. With ``pendant`` a free vertex hangs off a
    random vertex of the cycle. The graph, the planted matching and the
    maximum matching size."""
    built = PlantedInstance(rng)
    inner_base, inner = built.blossom(depth)
    r = built.root()
    y = built.vertex()
    built.edges.append((r, y))
    built.match(y, inner_base)
    prev, arm_vertices = r, []
    for _ in range(arm):
        a, b = built.vertex(), built.vertex()
        built.edges.append((prev, a))
        built.match(a, b)
        arm_vertices += [a, b]
        prev = b
    built.edges.append((prev, rng.choice(inner)))
    if pendant:
        built.pendant(inner + arm_vertices + [y])
    g, m = built.layout()
    return g, m, len(m) + pendant


def stem_with_triangles(
    rng: random.Random, stem: int, triangles: int
) -> tuple[frozenset, frozenset, int]:
    """A stem of ``stem`` matched edges from the only free root to a vertex
    t, and ``triangles`` triangles hanging off t, each a matched pair
    joined to t by both its vertices. Every triangle closes a blossom with
    base t at the far end of the stem. The graph, the planted matching and
    the maximum matching size, which is the planted one's."""
    built = PlantedInstance(rng)
    top = built.vertex()
    built.stem(top, stem)
    for _ in range(triangles):
        x, y = built.vertex(), built.vertex()
        built.match(x, y)
        built.edges += [(top, x), (top, y)]
    g, m = built.layout()
    return g, m, len(m)


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


def contraction_chain(g, matching):
    """``find_augmenting_path``'s contraction chain: search, contract each
    blossom found and search the quotient again. The steps, the last
    level's graph and matching, and what its search found there: None, or
    a found path."""
    cur_g, cur_m = frozenset(g), frozenset(matching)
    steps = []
    for _ in range(len(vertices(cur_g)) + 1):
        found = find_path_or_blossom(cur_g, cur_m)
        if not isinstance(found, FoundBlossom):
            return steps, cur_g, cur_m, found
        vs = vertices(cur_g)
        target = fresh_vertex(vs)
        steps.append(ContractionStep(found.stem, found.cycle, target))
        cmap = ContractionMap(frozenset(vs - set(found.cycle)), target)
        cur_g, cur_m = quotient_graph(cmap, cur_g), quotient_graph(cmap, cur_m)
    raise InvariantViolation("contraction chain exceeded the vertex count")


def reference_certificate(g, matching) -> MaximalityCertificate | None:
    """The paper-shaped certificate: the odd set cover of the failed search
    at the end of the contraction chain. None when an augmenting path
    exists. Its ``x`` steps are what ``verify_certificate`` replays."""
    steps, cur_g, cur_m, found = contraction_chain(g, matching)
    if found is not None:
        return None
    cover = build_odd_set_cover(cur_g, cur_m, run_search(cur_g, cur_m).state)
    return MaximalityCertificate(tuple(steps), cover)


def blossoms_of(g, matching, limit: int = 20) -> list[tuple[list[int], list[int]]]:
    """Up to ``limit`` (stem, cycle) pairs that pass ``is_blossom`` on the
    graph and matching, found by walking alternating paths of at most 12
    vertices from each unmatched vertex; none when the matching is not one."""
    gset, mset = graph(g), graph(matching)
    if not is_matching(mset):
        return []
    adj = adjacency(gset)
    mate = {a: b for a, b in mset} | {b: a for a, b in mset}
    out: list[tuple[list[int], list[int]]] = []
    stack = [[r] for r in sorted(adj, reverse=True) if r not in mate]
    while stack and len(out) < limit:
        path = stack.pop()
        v = path[-1]
        # an odd number of vertices leaves the path on an unmatched edge
        nxt = sorted(adj.get(v, set()) - {mate.get(v)}) if len(path) % 2 else [mate.get(v)]
        for w in reversed(nxt):
            if w in path:
                stem, cycle = path[: path.index(w)], path[path.index(w) :] + [w]
                if is_blossom(gset, mset, stem, cycle):
                    out.append((stem, cycle))
            elif w is not None and len(path) < 12:
                stack.append(path + [w])
    return out


def random_history(rng: random.Random):
    """A graph, a matching, a contraction history and a cover for testing
    the replay against ``reference_verify_certificate``. Most steps are
    genuine blossoms of the graph and matching reached so far; the rest are
    not. Fresh ids are new, already in the graph, reused from an earlier
    step, or an id that a contraction removed, and matchings may have a
    self-loop, edges outside the graph, or a vertex matched twice."""
    if rng.random() < 0.7:
        g, m, _, _ = random_blossom_instance(rng, 10)
    else:
        g = random_graph(rng, rng.randint(3, 9), 0.5)
        m = frozenset(e for e in random_matching(rng, g) if rng.random() < 0.7)
    vs = sorted(vertices(g)) or [1]
    top, m = vs[-1], set(m)
    free = [v for v in vs if v not in vertices(m)]
    kind = rng.randrange(8)
    if kind == 0:
        m.add((top + 1, top + 2))
    elif kind == 1 and free:
        m.add((rng.choice(free), top + 1 + rng.randrange(2)))
    elif kind == 2 and len(free) > 1:
        m.update((v, top + 1 + i) for i, v in enumerate(rng.sample(free, 2)))
    elif kind == 3 and len(vs) > 1:
        m.add(edge(*rng.sample(vs, 2)))
    elif kind == 4 and rng.random() < 0.2:
        m.add((top, top))
    cur_g, cur_m = frozenset(g), frozenset(m)
    used, gone, steps = [], [], []
    for _ in range(rng.randint(1, 5)):
        found = blossoms_of(cur_g, cur_m) if (top, top) not in m else []
        if found and rng.random() < 0.85:
            stem, cycle = rng.choice(found)
            if rng.random() < 0.1:
                stem = stem[2:]
            elif rng.random() < 0.1:
                cycle = cycle[1:] + cycle[1:2]
        else:
            pool = sorted(vertices(cur_g) | set(used)) or [0]
            cycle = [rng.choice(pool) for _ in range(rng.choice((2, 3, 5)))]
            stem, cycle = [], cycle + cycle[:1]
        cvs = vertices(cur_g)
        fresh = rng.choice(
            [max(cvs | vertices(cur_m) | {top}) + 1] * 8
            + used[-1:] + gone[-1:] + sorted(cvs)[:1] + [rng.randint(0, top + 3)]
        )
        steps.append(ContractionStep(list(stem), list(cycle), fresh))
        if (top, top) in m or fresh in cvs or not is_blossom(cur_g, cur_m, stem, cycle):
            break
        cmap = ContractionMap(frozenset(cvs - set(cycle)), fresh)
        cur_g, cur_m = quotient_graph(cmap, cur_g), quotient_graph(cmap, cur_m)
        used.append(fresh)
        gone += cycle
    fvs = sorted(vertices(cur_g))
    kind = rng.randrange(3)
    if kind == 0:
        cover = [frozenset({v}) for v in fvs[rng.random() < 0.3 :]]
    elif kind == 1:
        cover = [frozenset(fvs)] if len(fvs) % 2 else [frozenset(fvs[:1]), frozenset(fvs[1:])]
    else:
        pool = fvs + [top + 7]
        cover = [frozenset(rng.sample(pool, min(len(pool), rng.choice((1, 3))))) for _ in range(3)]
    if rng.random() < 0.2:
        m = [(b, a) for a, b in m]
    return g, m, steps, cover


def reference_verify_certificate(
    g, matching, contractions, cover
) -> tuple[VerificationReport, list[str]]:
    """``verify_certificate`` with its history replayed step by step on the
    spec: each step is checked with ``is_blossom`` on the whole current
    graph and matching, which ``quotient_graph`` then contracts under
    ``ContractionMap(vertices(g) - cycle, fresh)``. Quadratic in the
    history; the reference the near-linear replay is checked against."""
    gset, mset = frozenset(g), frozenset(matching)
    matching_ok, subset_ok = is_matching(mset), mset <= gset
    problems: list[str] = []
    if contractions or not (matching_ok and subset_ok):
        try:
            gset, mset = graph(gset), graph(mset)
        except ValueError:
            if contractions:
                problems.append("contraction 1: the graph or the matching has a self-loop")
            contractions = ()
        matching_ok, subset_ok = is_matching(mset), mset <= gset
    for i, step in enumerate(contractions, start=1):
        vs = vertices(gset)
        if step.fresh in vs:
            problems.append(f"contraction {i}: its target already occurs in the graph")
            break
        if not is_blossom(gset, mset, step.stem, step.cycle):
            problems.append(
                f"contraction {i}: its stem and cycle are not a blossom "
                f"of the graph it was contracted in"
            )
            break
        cmap = ContractionMap(frozenset(vs - set(step.cycle)), step.fresh)
        gset, mset = quotient_graph(cmap, gset), quotient_graph(cmap, mset)
    cover_ok, total = _check_cover(cover, gset)
    report = VerificationReport(matching_ok, subset_ok, cover_ok, total, len(mset))
    return report, problems


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
