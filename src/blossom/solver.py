"""The maximum-matching engine: augmenting-path search with iterated cycle
contraction, and the top augmentation loop."""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from .assembly import AugmentingPath, FoundBlossom, find_path_or_blossom
from .certificate import ContractionStep, MaximalityCertificate
from .contraction import ContractionMap, fresh_vertex, lift_path, quotient_graph
from .forest import InvariantViolation, Trace, build_odd_set_cover, run_search
from .graph import Edge, graph, vertices
from .matching import augment


class _Level(NamedTuple):
    g: frozenset[Edge]
    matching: frozenset[Edge]
    blossom: FoundBlossom
    fresh: int


def _contract_until_found(
    g: frozenset[Edge], matching: frozenset[Edge], trace: Trace | None
) -> tuple[list[_Level], frozenset[Edge], frozenset[Edge], AugmentingPath | None]:
    """Search, contract the blossom found, and search the quotient again,
    until a search ends in an augmenting path or in nothing.

    Returns the contractions made, outermost first: each is the graph and
    matching a blossom was found in and the fresh vertex its cycle became.
    The graph and matching of the last search and its outcome come after.
    """
    levels: list[_Level] = []
    bound = 0
    while True:
        found = find_path_or_blossom(g, matching, trace=trace)
        if not isinstance(found, FoundBlossom):
            return levels, g, matching, found
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
    levels, _, _, found = _contract_until_found(frozenset(g), frozenset(matching), trace)
    if found is None:
        return None
    path = list(found.path)
    for level in reversed(levels):
        path = lift_path(level.blossom.cycle, level.matching, path, level.g, level.fresh)
    return path


def find_maximum_matching(
    g: Iterable[Edge], *, trace: Trace | None = None
) -> frozenset[Edge]:
    """A maximum-cardinality matching of the graph.

    Starts from the empty matching and augments until no augmenting path
    remains; each augmentation grows the matching by exactly one edge, so at
    most half the vertex count plus one searches run.
    """
    gset = graph(g)
    matching: frozenset[Edge] = frozenset()
    for _ in range(len(vertices(gset)) // 2 + 2):
        path = find_augmenting_path(gset, matching, trace=trace)
        if path is None:
            return matching
        matching = augment(matching, path)
    raise InvariantViolation("augmentation loop failed to terminate")


def certify_maximality(
    g: Iterable[Edge], matching: Iterable[Edge]
) -> MaximalityCertificate | None:
    """Rerun the failing search chain for a maximum matching and package the
    resulting odd set cover with the contraction history.

    Returns None when an augmenting path exists, in which case the matching
    is not maximum and nothing can be certified.
    """
    levels, final_g, final_m, found = _contract_until_found(
        frozenset(g), frozenset(matching), None
    )
    if found is not None:
        return None
    cover = build_odd_set_cover(final_g, final_m, run_search(final_g, final_m).state)
    contractions = tuple(
        ContractionStep(level.blossom.stem, level.blossom.cycle, level.fresh)
        for level in levels
    )
    return MaximalityCertificate(contractions, final_g, final_m, cover)
