"""The maximum-matching engine, which shrinks blossoms in place over arrays
and certifies maximality where its one stop rule stops, and the
paper-shaped augmenting-path search with iterated cycle contraction that
``find_augmenting_path`` runs."""

from __future__ import annotations

from collections.abc import Callable, Iterable
from itertools import chain, compress, repeat
from operator import eq, not_

from .assembly import FoundBlossom, find_path_or_blossom
from .certificate import MaximalityCertificate
from .contraction import ContractionMap, fresh_vertex, lift_path, quotient_graph
from .forest import Trace, leftover_cover
from .graph import Edge, graph, vertices
from .matching import InvariantViolation, _checked_matching


def find_augmenting_path(
    g: Iterable[Edge], matching: Iterable[Edge]
) -> list[int] | None:
    """An augmenting path for the matching, or None when none exists.

    Each blossom the search turns up instead of a path has its cycle
    contracted to a fresh vertex, and the search runs again on the
    contracted graph and matching. A path found at the last level is lifted
    back through every contracted cycle in turn. Fresh vertices are
    allocated past the current maximum id, so nested contractions can never
    collide with original vertices.
    """
    cur_g, cur_m = graph(g), graph(matching)
    # (graph, matching, cycle, fresh vertex) per contraction, outermost first
    levels: list[tuple[frozenset[Edge], frozenset[Edge], list[int], int]] = []
    for _ in range(len(vertices(cur_g)) + 1):
        found = find_path_or_blossom(cur_g, cur_m)
        if not isinstance(found, FoundBlossom):
            break
        vs = vertices(cur_g)
        target = fresh_vertex(vs)
        levels.append((cur_g, cur_m, found.cycle, target))
        cmap = ContractionMap(frozenset(vs - set(found.cycle)), target)
        cur_g, cur_m = quotient_graph(cmap, cur_g), quotient_graph(cmap, cur_m)
    else:
        raise InvariantViolation("contraction chain exceeded the vertex count")
    if found is None:
        return None
    path = list(found.path)
    for level_g, level_m, cycle, target in reversed(levels):
        path = lift_path(cycle, level_m, path, level_g, target)
    return path


# Vertex labels in a phase's alternating forest; 0 is unlabelled.
EVEN, ODD = 1, 2

# The last frozenset solve's graph, matching and certificate function, for
# the next certify_maximality call; immutable, so the slot's references keep
# both objects, and their ids, as they were.
_last_solve: tuple[frozenset, frozenset[Edge], Callable[[], MaximalityCertificate]] | None = None


def find_maximum_matching(
    g: Iterable[Edge], *, trace: Trace | None = None
) -> frozenset[Edge]:
    """A maximum-cardinality matching of the graph.

    The vertices are indexed once, in increasing order (see ``_renumber``),
    and a greedy matching is grown first. Each phase then grows one
    alternating forest rooted at every unmatched vertex, in sorted order. An
    examined edge that joins two live trees augments the matching along
    their root paths, and both trees are dead for the rest of the phase, so
    one phase augments along many vertex-disjoint paths. A blossom closed on
    the way is contracted in place, by relabelling the base of its vertices.
    The phases run under the solve's stop rule (``_maximize``). ``trace``
    receives one record per edge a phase examines, in the layouts
    ``run_search`` uses and with the input's vertex ids, and changes nothing
    the solve does.

    When ``g`` is a ``frozenset``, the graph, the matching and the solve's
    certificate function are kept until the next solve or
    ``certify_maximality`` call, so that ``certify_maximality(g, matching)``
    reads the cover that the stop rule picked for this solve, built from
    runs of vertices in index order. What is kept is what that cover reads
    (see ``_maximize``), never the adjacency: about 2.4 MiB for a sparse
    graph of 80,000 vertices and 120,000 edges.
    """
    global _last_solve
    # released first: a solve that raises leaves no earlier solve's slot
    _last_solve = None
    gset, ids, _, adj = _renumber(g)
    n = len(ids)
    mate = [-1] * n
    for v in range(n):
        if mate[v] < 0:
            for w in adj[v]:
                if mate[w] < 0:
                    mate[v], mate[w] = w, v
                    break
    certificate = _maximize(adj, mate, ids, trace, n // 2 + 1)
    if certificate is None:
        raise InvariantViolation("augmentation loop failed to terminate")
    matching = frozenset((ids[v], ids[w]) for v, w in enumerate(mate) if v < w)
    if any(w >= 0 and mate[w] != v for v, w in enumerate(mate)) or not matching <= gset:
        raise InvariantViolation("the computed edge set is not a matching inside the graph")
    if type(g) is frozenset:
        _last_solve = g, matching, certificate
    return matching


def _maximize(
    adj: list[list[int]], mate: list[int], ids: list[int], trace: Trace | None, phases: int
) -> Callable[[], MaximalityCertificate] | None:
    """Run at most ``phases`` engine phases on ``mate``, in place, under the
    solve's stop rule, and return the function that reads the odd set cover
    of the maximum matching it stops at; None when every phase augmented.

    The stop rule: stop as soon as at most one vertex with edges is
    unmatched, since an augmenting path ends at two of them (Berge), or
    after the first phase that fails to augment. Isolated indices, the
    unused ids below 4|E| among them, are never matched. The cover is read
    off the count in the first case (``_counted_certificate``), with no
    phase run, and off the failing phase's forest in the second
    (``_certificate``). The function holds the id list and the runs its
    cover reads, never the adjacency."""
    isolated = adj.count([])
    for _ in range(phases):
        if mate.count(-1) - isolated < 2:
            vs = list(compress(ids, adj))
            return lambda: _counted_certificate(vs)
        forest = _augment_phase(adj, mate, ids, trace)
        if forest is not None:
            return lambda: _certificate(ids, *forest)
    return None


def _renumber(
    g: Iterable[Edge],
) -> tuple[frozenset[Edge], list[int], dict[int, int] | list[int], list[list[int]]]:
    """The graph's canonical edge set, the vertex id of each index 0..n-1 in
    increasing order, the index of each id, and the sorted adjacency lists
    over the indices.

    A frozenset is read in one loop (``_direct_adjacency``) that does
    ``graph()``'s canonical check and builds the adjacency as it goes. When
    every id lies in 0..4|E|-1, each id is its own index, and the index is
    ``ids`` itself: a list subscripts faster than a range. An id in that
    range that no edge uses is an isolated vertex. It is an unmatched root
    with no edges, so it changes neither the matching, the cover nor the
    trace. Any other input goes through ``graph()`` once, and so does a
    frozenset the loop refuses: if that makes it canonical, the loop runs
    once more on the result. A negative id, or one past the bound, indexes
    its ids in sorted order through a dict, and the adjacency is the loop's
    on the pairs of indices, which are canonical and below the bound.
    """
    gset = g if type(g) is frozenset else graph(g)
    direct = _direct_adjacency(gset)
    if direct is None and type(g) is frozenset:
        gset = graph(g)
        if gset is not g:
            direct = _direct_adjacency(gset)
    if direct is not None:
        ids, adj = direct
        return gset, ids, ids, adj
    ids = sorted(set(chain.from_iterable(gset)))
    index = {v: i for i, v in enumerate(ids)}
    _, adj = _direct_adjacency(frozenset((index[a], index[b]) for a, b in gset))
    return gset, ids, index, adj


def _direct_adjacency(gset: frozenset) -> tuple[list[int], list[list[int]]] | None:
    """The ids 0..n-1 and the sorted adjacency lists of a frozenset whose
    members are all ``(a, b)`` tuples with ``0 <= a < b < 4 * len(gset)``,
    where n - 1 is the largest id; None for any other frozenset.

    The adjacency lists hold one fresh int per vertex, made in index order
    alongside the lists: the phases run faster over these than over the
    graph's own ints, which lie scattered in memory and may differ from pair
    to pair. ``ids`` holds the graph's own int for each vertex with edges,
    so that the matching and cover are built from the graph's ints, not from
    copies: a set lookup that meets the same object skips comparing values."""
    bound = 4 * len(gset)
    adj: list[list[int]] = []
    index: list[int] = []
    ids: list[int] = []
    n = 0
    try:
        for e in gset:
            if type(e) is not tuple:
                return None
            a, b = e
            if not 0 <= a < b:
                return None
            if b >= n:
                if b >= bound:
                    return None
                adj += [[] for _ in range(n, b + 1)]
                index += range(n, b + 1)
                ids += index[n:]
                n = b + 1
            ids[a] = a
            ids[b] = b
            adj[a].append(index[b])
            adj[b].append(index[a])
    except (TypeError, ValueError):
        # not a pair of ints: graph() raises, or the dict path sorts them
        return None
    for ns in adj:
        ns.sort()
    return ids, adj


def _augment_phase(
    adj: list[list[int]], mate: list[int], ids: list[int], trace: Trace | None
) -> tuple[list[int], dict[int, list[int]]] | None:
    """Grow one alternating forest from every unmatched vertex, contracting
    each blossom that closes. An edge that joins two live trees augments
    along their root paths and kills both trees: their vertices are no
    longer scanned and edges into them are skipped, while the rest of the
    forest keeps growing. Returns None when the matching grew, and otherwise
    the forest's final ``label`` array and ``members`` lists, which then
    describe every outer blossom, since no tree is dead.

    ``parent[x]`` is the vertex an odd vertex was entered from. Contracting
    a blossom also sets it on the blossom's even vertices, pointing across
    the cycle, so that from any even vertex x the walk x, mate[x],
    parent[mate[x]], mate[...], ... is an alternating path to its root.
    ``root[x]`` is the root of an even vertex's tree, and ``dead`` holds
    the roots of the trees that augmented. Once ``b`` has absorbed a
    blossom, ``members[b]`` lists the vertices whose base is ``b``: ``b``
    first, then each contraction's absorbed vertices in the order absorbed,
    so that a contraction relabels only the vertices it absorbs.
    """
    n = len(adj)
    label = [0] * n
    parent = [-1] * n
    base = list(range(n))
    root = base[:]
    dead: set[int] = set()
    members: dict[int, list[int]] = {}
    queue = [v for v in range(n) if mate[v] < 0]
    for v in queue:
        label[v] = EVEN
    # The loop also visits the even vertices appended while it runs.
    for v in queue:
        r = root[v]
        if dead and r in dead:
            continue
        for w in adj[v]:
            # An unlabelled vertex is its own root, which is never dead.
            if base[v] == base[w] or label[w] == ODD or dead and root[w] in dead:
                if trace is not None:
                    trace(f"skip {ids[v]} {ids[w]}")
            elif label[w] == 0:
                x = mate[w]
                label[w], label[x] = ODD, EVEN
                parent[w] = v
                root[x] = r
                queue.append(x)
                if trace is not None:
                    v1, v2, v3 = ids[v], ids[w], ids[x]
                    trace(
                        f"grow {v1} {v2} label {v2} odd {ids[r]} label {v3} even {ids[r]} "
                        f"parent {v2} {v1} parent {v3} {v2}"
                    )
            else:
                if trace is not None:
                    trace(f"found {ids[v]} {ids[w]}")
                if root[w] != r:
                    _flip_to_root(v, parent, mate)
                    _flip_to_root(w, parent, mate)
                    mate[v], mate[w] = w, v
                    dead.update((r, root[w]))
                    break
                b = _blossom_base(v, w, base, parent, mate)
                bases: set[int] = set()
                _link_blossom_path(v, w, b, base, parent, mate, bases)
                _link_blossom_path(w, v, b, base, parent, mate, bases)
                group = members.setdefault(b, [b])
                odd = []
                for a in bases:
                    absorbed = members.pop(a, None) or [a]
                    group += absorbed
                    for i in absorbed:
                        base[i] = b
                    if label[a] == ODD:
                        odd.append(a)
                # The odd vertices become even and are scanned, in index order.
                odd.sort()
                for i in odd:
                    label[i], root[i] = EVEN, r
                queue += odd
    return None if dead else (label, members)


def _blossom_base(
    v: int, w: int, base: list[int], parent: list[int], mate: list[int]
) -> int:
    """The base of the blossom that an edge between the even vertices ``v``
    and ``w`` of one tree closes: the first blossom base on both of their
    tree paths. The two paths are walked one base at a time in turn, so the
    walk stops within twice the distance to that base, not at the root."""
    ends = [v, w]
    # The side, 0 for v and 1 for w, that passed each base.
    seen: dict[int, int] = {}
    for step in range(2 * len(base)):
        side = step & 1
        x = ends[side]
        if x >= 0:
            x = base[x]
            if seen.setdefault(x, side) != side:
                return x
            ends[side] = parent[mate[x]] if mate[x] >= 0 else -1
    raise InvariantViolation("a tree path is longer than the vertex count")


def _flip_to_root(x: int, parent: list[int], mate: list[int]) -> None:
    """Swap matched and unmatched edges on the alternating path from the
    even vertex ``x`` to its root; ``x``'s own partner is left for the
    caller to set."""
    odd = mate[x]
    for _ in range(len(mate)):
        if odd < 0:
            return
        even = parent[odd]
        odd_next = mate[even]
        mate[odd], mate[even] = even, odd
        odd = odd_next
    raise InvariantViolation("an augmenting path is longer than the vertex count")


def _link_blossom_path(
    x: int,
    across: int,
    b: int,
    base: list[int],
    parent: list[int],
    mate: list[int],
    bases: set[int],
) -> None:
    """Walk from the even vertex ``x`` toward its root until the blossom
    base ``b``, where the edge (``x``, ``across``) closed the blossom. Each
    even vertex on the way gets a parent pointer leading around the cycle
    through that edge, and the bases passed are added to ``bases``."""
    for _ in range(len(base)):
        if base[x] == b:
            return
        bases.add(base[x])
        bases.add(base[mate[x]])
        parent[x] = across
        across = mate[x]
        x = parent[across]
    raise InvariantViolation("a blossom path is longer than the vertex count")


def certify_maximality(
    g: Iterable[Edge], matching: Iterable[Edge]
) -> MaximalityCertificate | None:
    """An odd set cover of the input graph with capacity equal to the
    matching's size, read where the solve's stop rule (``_maximize``) stops
    within one phase. No contractions are recorded.

    None when that phase augments: the matching is not maximum. Raises
    ValueError when the edge set is not a matching inside the graph.

    When ``g`` and ``matching`` are the very objects that the last
    ``find_maximum_matching`` call took and returned, and no certify call
    came between, the cover is that solve's own: nothing is read or checked
    again. The test is identity, not equality. Any other call, an equal copy
    of either among them, reads and checks both, and then applies the stop
    rule. Every call, hit or miss, releases what that solve kept.
    """
    global _last_solve
    last, _last_solve = _last_solve, None
    if last is not None and last[0] is g and last[1] is matching:
        return last[2]()
    gset, ids, index, adj = _renumber(g)
    mset = _checked_matching(gset, matching)
    mate = [-1] * len(ids)
    for a, b in mset:
        i, j = index[a], index[b]
        mate[i], mate[j] = j, i
    return None if (cert := _maximize(adj, mate, ids, None, 1)) is None else cert()


def _certificate(
    ids: list[int], label: list[int], members: dict[int, list[int]]
) -> MaximalityCertificate:
    """The odd set cover read off the forest of a phase that failed to
    augment, given the input id of each index and the forest's final
    ``label`` array and ``members`` lists: a singleton per odd vertex, the
    vertex set of each outer blossom (the even vertices of one base, more
    than one), and ``leftover_cover``'s sets for the unlabelled vertices in
    index order, each of which is matched to another unlabelled vertex; a
    forest that labelled every vertex, as in a bipartite graph, has none to
    scan for. No contractions are recorded."""
    cover = chain(
        map(frozenset, zip(compress(ids, map(eq, label, repeat(ODD))))),
        (frozenset(map(ids.__getitem__, vs)) for vs in members.values()),
        leftover_cover(compress(ids, map(not_, label))) if 0 in label else (),
    )
    return MaximalityCertificate((), frozenset(cover))


def _counted_certificate(vs: list[int]) -> MaximalityCertificate:
    """The odd set cover of a matching that leaves at most one of the
    vertices with edges ``vs``, in index order, unmatched, read off that
    count with no phase (see ``_maximize``). An odd count leaves one
    unmatched, and one odd set of them all holds both ends of every edge.
    An even count are all matched: ``leftover_cover`` takes the first alone
    and one odd set of the rest. No contractions are recorded."""
    cover = [frozenset(vs)] if len(vs) % 2 else leftover_cover(vs)
    return MaximalityCertificate((), frozenset(cover))
