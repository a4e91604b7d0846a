"""Brute-force reference implementations for cross-checking the solver.

Both functions are exhaustive searches with hard input-size limits, kept
deliberately simple and independent of the production code paths. They are
never called by the solver itself.
"""

from __future__ import annotations

from collections.abc import Iterable

from .graph import Edge, adjacency, graph, vertices
from .matching import _checked_matching

MAX_ORACLE_VERTICES = 16
MAX_ORACLE_EDGES = 24


class OracleLimitError(ValueError):
    """The input exceeds the exhaustive-search size limits."""


def brute_force_maximum_matching(g: Iterable[Edge]) -> frozenset[Edge]:
    """A maximum-cardinality matching found by exhaustive search.

    Graphs with at most 16 vertices are handled by exact dynamic programming
    over vertex subsets; otherwise the graph must have at most 24 edges and
    is solved by branch and bound over the edges in lexicographic order.
    Ties are always broken towards the lexicographically smallest edge set,
    so results are reproducible.
    """
    edges_sorted = sorted(graph(g))
    vs = sorted(vertices(edges_sorted))
    if len(vs) <= MAX_ORACLE_VERTICES:
        return _dp_maximum_matching(edges_sorted, vs)
    if len(edges_sorted) <= MAX_ORACLE_EDGES:
        return _bb_maximum_matching(edges_sorted)
    raise OracleLimitError(
        f"graph has {len(vs)} vertices and {len(edges_sorted)} edges; the "
        f"brute-force limits are {MAX_ORACLE_VERTICES} vertices or "
        f"{MAX_ORACLE_EDGES} edges"
    )


def _dp_maximum_matching(edges_sorted: list[Edge], vs: list[int]) -> frozenset[Edge]:
    index = {v: i for i, v in enumerate(vs)}
    n = len(vs)
    adj = [0] * n
    for a, b in edges_sorted:
        adj[index[a]] |= 1 << index[b]
        adj[index[b]] |= 1 << index[a]
    # dp[mask] = size of a maximum matching using only vertices in mask
    dp = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        best = dp[rest]
        nbrs = adj[low] & rest
        while nbrs:
            j = (nbrs & -nbrs).bit_length() - 1
            cand = 1 + dp[rest & ~(1 << j)]
            if cand > best:
                best = cand
            nbrs &= nbrs - 1
        dp[mask] = best
    # commit edges greedily in lexicographic order whenever optimality survives
    chosen = []
    mask = (1 << n) - 1
    for a, b in edges_sorted:
        bits = (1 << index[a]) | (1 << index[b])
        if mask & bits == bits and 1 + dp[mask & ~bits] == dp[mask]:
            chosen.append((a, b))
            mask &= ~bits
    return frozenset(chosen)


def _bb_maximum_matching(edges_sorted: list[Edge]) -> frozenset[Edge]:
    best: list[Edge] = []
    used: set[int] = set()
    current: list[Edge] = []

    def upper_bound(i: int) -> int:
        free = sum(1 for a, b in edges_sorted[i:] if a not in used and b not in used)
        return len(current) + free

    def explore(i: int) -> None:
        nonlocal best
        if len(current) > len(best):
            best = current.copy()
        if i == len(edges_sorted) or upper_bound(i) <= len(best):
            return
        a, b = edges_sorted[i]
        if a not in used and b not in used:
            used.add(a)
            used.add(b)
            current.append((a, b))
            explore(i + 1)
            current.pop()
            used.discard(a)
            used.discard(b)
        explore(i + 1)

    explore(0)
    return frozenset(best)


def brute_force_augmenting_path(
    g: Iterable[Edge], matching: Iterable[Edge]
) -> list[int] | None:
    """Some augmenting path found by exhaustive enumeration of simple
    alternating paths from the unmatched vertices, or None when no
    augmenting path exists.

    Limited to matchings inside graphs with at most 16 vertices. Start
    vertices are tried in increasing order and neighbours extended in
    increasing order, so the first path found is always the same.
    """
    gset = graph(g)
    vs = sorted(vertices(gset))
    if len(vs) > MAX_ORACLE_VERTICES:
        raise OracleLimitError(
            f"graph has {len(vs)} vertices; the brute-force limit is "
            f"{MAX_ORACLE_VERTICES} vertices"
        )
    mset = _checked_matching(gset, matching)
    partner: dict[int, int] = {}
    for a, b in mset:
        partner[a] = b
        partner[b] = a
    adj = {v: sorted(ns) for v, ns in adjacency(gset).items()}

    path: list[int] = []
    on_path: set[int] = set()

    def extend_unmatched_step(v: int) -> list[int] | None:
        # the next edge must lie outside the matching
        for w in adj.get(v, ()):
            if w in on_path or ((v, w) if v < w else (w, v)) in mset:
                continue
            path.append(w)
            on_path.add(w)
            if w not in partner:
                found = path.copy()
            else:
                found = extend_matched_step(w)
            if found is not None:
                return found
            path.pop()
            on_path.discard(w)
        return None

    def extend_matched_step(v: int) -> list[int] | None:
        # the next edge must be the matching edge at v
        w = partner[v]
        path.append(w)
        on_path.add(w)
        found = extend_unmatched_step(w)
        if found is None:
            path.pop()
            on_path.discard(w)
        return found

    for start in vs:
        if start in partner:
            continue
        path = [start]
        on_path = {start}
        found = extend_unmatched_step(start)
        if found is not None:
            return found
    return None
