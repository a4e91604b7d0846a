"""The maximum-matching engine, which shrinks blossoms in place over arrays,
and the paper-shaped augmenting-path search with iterated cycle contraction
that ``find_augmenting_path`` and ``certify_maximality`` run."""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from .assembly import AugmentingPath, FoundBlossom, search_path_or_blossom
from .certificate import ContractionStep, MaximalityCertificate
from .contraction import ContractionMap, fresh_vertex, lift_path, quotient_graph
from .forest import InvariantViolation, SearchState, Trace, build_odd_set_cover
from .graph import Edge, graph, vertices


class _Level(NamedTuple):
    g: frozenset[Edge]
    matching: frozenset[Edge]
    blossom: FoundBlossom
    fresh: int


def _contract_until_found(
    g: frozenset[Edge], matching: frozenset[Edge], trace: Trace | None
) -> tuple[
    list[_Level], frozenset[Edge], frozenset[Edge], AugmentingPath | None, SearchState | None
]:
    """Search, contract the blossom found, and search the quotient again,
    until a search ends in an augmenting path or in nothing.

    Returns the contractions made, outermost first: each is the graph and
    matching a blossom was found in and the fresh vertex its cycle became.
    The graph and matching of the last search, its outcome and its final
    state (None when a fully unmatched edge answered) come after.
    """
    levels: list[_Level] = []
    bound = 0
    while True:
        found, state = search_path_or_blossom(g, matching, trace)
        if not isinstance(found, FoundBlossom):
            return levels, g, matching, found, state
        vs = vertices(g)
        bound = bound or len(vs)
        if len(levels) >= bound:
            raise InvariantViolation("contraction chain exceeded the vertex count")
        target = fresh_vertex(vs)
        levels.append(_Level(g, matching, found, target))
        cmap = ContractionMap(frozenset(vs - set(found.cycle)), target)
        g, matching = quotient_graph(cmap, g), quotient_graph(cmap, matching)


def find_augmenting_path(
    g: Iterable[Edge], matching: Iterable[Edge], *, trace: Trace | None = None
) -> list[int] | None:
    """An augmenting path for the matching, or None when none exists.

    Each blossom the search turns up instead of a path has its cycle
    contracted to a fresh vertex, and the search runs again on the
    contracted graph and matching. A path found at the last level is lifted
    back through every contracted cycle in turn. Fresh vertices are
    allocated past the current maximum id, so nested contractions can never
    collide with original vertices.
    """
    levels, _, _, found, _ = _contract_until_found(frozenset(g), frozenset(matching), trace)
    if found is None:
        return None
    path = list(found.path)
    for level in reversed(levels):
        path = lift_path(level.blossom.cycle, level.matching, path, level.g, level.fresh)
    return path


# Vertex labels in a phase's alternating forest; 0 is unlabelled.
EVEN, ODD = 1, 2


def find_maximum_matching(
    g: Iterable[Edge], *, trace: Trace | None = None
) -> frozenset[Edge]:
    """A maximum-cardinality matching of the graph.

    The vertices are renumbered 0..n-1 in sorted order once, and a greedy
    matching is grown first. Each phase then grows one alternating forest
    rooted at every unmatched vertex, in sorted order, and augments along
    the first examined edge that joins two of its trees. A blossom closed on
    the way is contracted in place, by relabelling the base of its vertices.
    The solve ends after the first phase that does not augment. ``trace``
    receives one record per examined edge, in the layouts ``run_search``
    uses and with the input's vertex ids.
    """
    gset = graph(g)
    ids = sorted({v for e in gset for v in e})
    index = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in gset:
        adj[index[a]].append(index[b])
        adj[index[b]].append(index[a])
    for ns in adj:
        ns.sort()
    mate = [-1] * n
    for v in range(n):
        if mate[v] < 0:
            for w in adj[v]:
                if mate[w] < 0:
                    mate[v], mate[w] = w, v
                    break
    for _ in range(n // 2 + 1):
        if not _augment_phase(adj, mate, ids, trace):
            break
    else:
        raise InvariantViolation("augmentation loop failed to terminate")
    matching = frozenset((ids[v], ids[w]) for v, w in enumerate(mate) if v < w)
    if any(w >= 0 and mate[w] != v for v, w in enumerate(mate)) or not matching <= gset:
        raise InvariantViolation("the computed edge set is not a matching inside the graph")
    return matching


def _augment_phase(
    adj: list[list[int]], mate: list[int], ids: list[int], trace: Trace | None
) -> bool:
    """Grow one alternating forest from every unmatched vertex, contracting
    each blossom that closes, and augment along the first edge that joins
    two of its trees. Returns whether the matching grew.

    ``parent[x]`` is the vertex an odd vertex was entered from. Contracting
    a blossom also sets it on the blossom's even vertices, pointing across
    the cycle, so that from any even vertex x the walk x, mate[x],
    parent[mate[x]], mate[...], ... is an alternating path to its root.
    """
    n = len(adj)
    label = [0] * n
    parent = [-1] * n
    base = list(range(n))
    queue = [v for v in range(n) if mate[v] < 0]
    for v in queue:
        label[v] = EVEN
    # The loop also visits the even vertices appended while it runs.
    for v in queue:
        for w in adj[v]:
            if base[v] == base[w] or label[w] == ODD:
                if trace is not None:
                    trace(f"skip {ids[v]} {ids[w]}")
            elif label[w] == 0:
                x = mate[w]
                label[w], label[x] = ODD, EVEN
                parent[w] = v
                queue.append(x)
                if trace is not None:
                    r = ids[_bases_to_root(v, base, parent, mate)[-1]]
                    v1, v2, v3 = ids[v], ids[w], ids[x]
                    trace(
                        f"grow {v1} {v2} label {v2} odd {r} label {v3} even {r} "
                        f"parent {v2} {v1} parent {v3} {v2}"
                    )
            else:
                if trace is not None:
                    trace(f"found {ids[v]} {ids[w]}")
                to_v = _bases_to_root(v, base, parent, mate)
                to_w = _bases_to_root(w, base, parent, mate)
                if to_v[-1] != to_w[-1]:
                    _flip_to_root(v, parent, mate)
                    _flip_to_root(w, parent, mate)
                    mate[v], mate[w] = w, v
                    return True
                on_v = set(to_v)
                b = next(x for x in to_w if x in on_v)
                bases: set[int] = set()
                _link_blossom_path(v, w, b, base, parent, mate, bases)
                _link_blossom_path(w, v, b, base, parent, mate, bases)
                for i in range(n):
                    if base[i] in bases:
                        base[i] = b
                        if label[i] == ODD:
                            label[i] = EVEN
                            queue.append(i)
    return False


def _bases_to_root(
    x: int, base: list[int], parent: list[int], mate: list[int]
) -> list[int]:
    """The blossom bases on the tree path from the even vertex ``x`` to its
    root, outermost base of ``x`` first and the root last."""
    out: list[int] = []
    for _ in range(len(base)):
        x = base[x]
        out.append(x)
        if mate[x] < 0:
            return out
        x = parent[mate[x]]
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
    """Rerun the failing search chain for a maximum matching and package the
    resulting odd set cover with the contraction history.

    Returns None when an augmenting path exists, in which case the matching
    is not maximum and nothing can be certified.
    """
    levels, final_g, final_m, found, state = _contract_until_found(
        frozenset(g), frozenset(matching), None
    )
    if found is not None:
        return None
    cover = build_odd_set_cover(final_g, final_m, state)
    contractions = tuple(
        ContractionStep(level.blossom.stem, level.blossom.cycle, level.fresh)
        for level in levels
    )
    return MaximalityCertificate(contractions, final_g, final_m, cover)
