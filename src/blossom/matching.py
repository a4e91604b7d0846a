"""Matchings, alternating sequences, and augmentation by symmetric difference."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import TypeVar

from .graph import Edge, edges_of_path, graph, is_path, is_simple, vertices

T = TypeVar("T")


class InvariantViolation(RuntimeError):
    """A structural invariant of the search state does not hold."""


def is_matching(edges: Iterable[Edge]) -> bool:
    """Whether the edges are pairwise vertex-disjoint."""
    seen: set[int] = set()
    for a, b in edges:
        if a == b or a in seen or b in seen:
            return False
        seen.add(a)
        seen.add(b)
    return True


def _checked_matching(gset: frozenset[Edge], matching: Iterable[Edge]) -> frozenset[Edge]:
    """The matching through ``graph``; ValueError unless it is one inside ``gset``."""
    mset = graph(matching)
    if not is_matching(mset):
        raise ValueError("the given edge set is not a matching")
    if not mset <= gset:
        raise ValueError("the matching has edges outside the graph")
    return mset


def is_alternating(
    first: Callable[[T], bool], second: Callable[[T], bool], items: Sequence[T]
) -> bool:
    """Whether the items alternately satisfy ``first`` and ``second``.

    The empty sequence alternates; otherwise the head must satisfy ``first``
    and the rest must alternate with the two predicates swapped.
    """
    preds = (first, second)
    return all(preds[i % 2](x) for i, x in enumerate(items))


def _matching_augmenting(matching: frozenset[Edge], path: Sequence[int]) -> bool:
    if len(path) < 2 or not is_simple(path) or not is_matching(matching):
        return False
    path_edges = edges_of_path(path)
    if not is_alternating(lambda e: e not in matching, lambda e: e in matching, path_edges):
        return False
    matched = vertices(matching)
    return path[0] not in matched and path[-1] not in matched


def is_augmenting_path(g: Iterable[Edge], matching: Iterable[Edge], path: Sequence[int]) -> bool:
    """Whether ``path`` augments ``matching`` within the graph.

    That is: a simple path of the graph with at least two vertices whose
    edges alternate starting outside the matching, ending at two unmatched
    vertices. False when the edge set is not a matching.
    """
    return _matching_augmenting(graph(matching), path) and is_path(g, path)


def symmetric_difference(a: Iterable[Edge], b: Iterable[Edge]) -> frozenset[Edge]:
    """Edges in exactly one of the two sets."""
    return graph(a) ^ graph(b)


def augment(matching: Iterable[Edge], path: Sequence[int]) -> frozenset[Edge]:
    """Augment the matching along a path: the symmetric difference with the
    path's edges, one edge larger than the input.

    Raises ValueError when the path does not augment the matching, and
    InvariantViolation when the result is not a matching one edge larger.
    """
    mset = graph(matching)
    if not _matching_augmenting(mset, path):
        raise ValueError("the path does not augment the matching")
    out = mset ^ frozenset(edges_of_path(path))
    if not (is_matching(out) and len(out) == len(mset) + 1):
        raise InvariantViolation("augmenting did not give a matching one edge larger")
    return out
