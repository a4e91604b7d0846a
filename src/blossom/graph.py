"""Undirected graphs as finite sets of two-element edges.

Vertices are non-negative integers. An edge is stored canonically as a
``(min, max)`` tuple so that plain Python sets give set-of-sets semantics
with deterministic iteration. The vertex set of a graph is derived as the
union of its edges; isolated vertices are not representable. A public
function whose answer could depend on pair order reads each graph and
matching through ``graph`` at entry, and returns canonical edge sets.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

Vertex = int
Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Canonical edge between two distinct vertices."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def graph(pairs: Iterable[Iterable[int]]) -> frozenset[Edge]:
    """Build a graph from vertex pairs, canonicalising every edge. A
    frozenset of ``(a, b)`` tuples with ``a < b`` throughout is already
    canonical and is returned as it is."""
    if type(pairs) is frozenset and _is_canonical(pairs):
        return pairs
    # ``edge`` runs only on a self-loop, to raise its error.
    return frozenset([edge(a, b) if a == b else (a, b) if a < b else (b, a) for a, b in pairs])


def _is_canonical(pairs: frozenset) -> bool:
    """Whether every member is a ``(a, b)`` tuple with ``a < b``."""
    for e in pairs:
        if type(e) is not tuple:
            return False
        a, b = e
        if not a < b:
            return False
    return True


def vertices(g: Iterable[Edge]) -> set[int]:
    """Union of all edge endpoints."""
    vs: set[int] = set()
    for e in g:
        vs.update(e)
    return vs


def neighbours(g: Iterable[Edge], v: int) -> set[int]:
    """Vertices adjacent to ``v``."""
    return {b if a == v else a for a, b in g if v == a or v == b}


def adjacency(g: Iterable[Edge]) -> dict[int, set[int]]:
    """Adjacency map of the whole graph."""
    adj: dict[int, set[int]] = {}
    for a, b in g:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def is_path(g: Iterable[Edge], path: Sequence[int]) -> bool:
    """Whether ``path`` is a vertex path of the graph.

    The empty sequence is a path, a single vertex must occur in the graph,
    and every consecutive pair must be an edge.
    """
    if len(path) == 0:
        return True
    gset = graph(g)
    if len(path) == 1:
        return path[0] in vertices(gset)
    for a, b in zip(path, path[1:]):
        if ((a, b) if a < b else (b, a)) not in gset:
            return False
    return True


def is_simple(path: Sequence[int]) -> bool:
    """Whether all vertices of the path are pairwise distinct."""
    return len(set(path)) == len(path)


def edges_of_path(path: Sequence[int]) -> list[Edge]:
    """The consecutive-pair edges of a vertex path.

    Empty for paths with fewer than two vertices. Consecutive duplicate
    vertices are rejected because they would form a self-loop.
    """
    out = []
    for a, b in zip(path, path[1:]):
        if a == b:
            raise ValueError(f"consecutive duplicate vertex {a} in path")
        out.append(edge(a, b))
    return out
