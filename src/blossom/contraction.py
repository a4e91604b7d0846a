"""Blossoms, cycle contraction, and lifting augmenting paths back through a
contracted cycle.

A blossom is a stem (an even alternating path from an unmatched vertex) plus
an odd alternating cycle attached at the stem's end, the base. Contracting
the cycle maps every cycle vertex to one fresh vertex; an augmenting path of
the contracted graph can then be lifted back to one of the original graph by
splicing in a segment of the cycle.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import TypeVar

from .graph import Edge, edge, edges_of_path, graph, is_path, is_simple, neighbours, vertices
from .matching import is_alternating, is_matching

T = TypeVar("T")


@dataclass(frozen=True)
class ContractionMap:
    """Total map over vertex ids: identity on ``kept``, everything else to
    ``target``."""

    kept: frozenset[int]
    target: int

    def __post_init__(self) -> None:
        if self.target in self.kept:
            raise ValueError(f"contraction target {self.target} is a kept vertex")

    def __call__(self, v: int) -> int:
        return v if v in self.kept else self.target


def fresh_vertex(vs: Iterable[int]) -> int:
    """A vertex id not occurring in ``vs``: one past the maximum, or 0."""
    vs = list(vs)
    return max(vs) + 1 if vs else 0


def quotient_graph(cmap: ContractionMap, edges: Iterable[Edge]) -> frozenset[Edge]:
    """Image of an edge set under the contraction map, dropping the loop that
    the contracted cycle collapses to. Applies to graphs and matchings alike."""
    out = set()
    for a, b in edges:
        pa, pb = cmap(a), cmap(b)
        if pa != pb:
            out.add(edge(pa, pb))
    return frozenset(out)


def is_odd_cycle(path: Sequence[int]) -> bool:
    """Closed path on at least three vertices with an odd number of edges."""
    if len(path) < 3 or path[0] != path[-1]:
        return False
    if any(a == b for a, b in zip(path, path[1:])):
        return False
    return (len(path) - 1) % 2 == 1


def is_blossom(
    g: Iterable[Edge], matching: Iterable[Edge], stem: Sequence[int], cycle: Sequence[int]
) -> bool:
    """Whether stem plus cycle form a blossom of the graph and matching.

    The matching must be one, the cycle must be odd, the whole walk must be
    a path of the graph that alternates starting outside the matching, its
    vertices (counting the cycle's base once) must be distinct, and the
    first vertex must be unmatched. The stem then reaches the base after an
    even number of edges: after an odd number, the cycle's first and last
    edges would both be matched edges at the base.
    """
    if not is_odd_cycle(cycle):
        return False
    if not is_simple(list(stem) + list(cycle[:-1])):
        return False
    whole = list(stem) + list(cycle)
    mset = graph(matching)
    if not is_matching(mset):
        return False
    if not is_alternating(lambda e: e not in mset, lambda e: e in mset, edges_of_path(whole)):
        return False
    if whole[0] in vertices(mset):
        return False
    return is_path(g, whole)


def prefix_until(pred: Callable[[T], bool], items: Sequence[T]) -> list[T]:
    """Shortest prefix ending at the first item satisfying ``pred``; the
    whole sequence if no item does."""
    out = []
    for x in items:
        out.append(x)
        if pred(x):
            break
    return out


def cycle_neighbour(g: Iterable[Edge], cycle: Sequence[int], v: int) -> int | None:
    """Smallest cycle vertex adjacent to ``v`` in the graph, or None."""
    on_cycle = set(cycle)
    candidates = [t for t in neighbours(g, v) if t in on_cycle]
    return min(candidates) if candidates else None


def cycle_segment(
    cycle: Sequence[int], matching: Iterable[Edge], v: int, g: Iterable[Edge]
) -> list[int]:
    """The prefix of the cycle, taken forwards or reversed, that runs from
    the base to a neighbour of ``v`` and ends on a matching edge.

    This is the piece of the cycle spliced into a lifted augmenting path so
    that alternation continues correctly across the attachment point.
    """
    t = cycle_neighbour(g, cycle, v)
    if t is None:
        raise ValueError(f"vertex {v} has no neighbour on the cycle")
    mset = graph(matching)
    forward = prefix_until(lambda x: x == t, cycle)
    forward_edges = edges_of_path(forward)
    if not forward_edges or forward_edges[-1] in mset:
        return forward
    return prefix_until(lambda x: x == t, list(reversed(cycle)))


def splice_cycle(
    cycle: Sequence[int],
    matching: Iterable[Edge],
    head: Sequence[int],
    tail: Sequence[int],
    g: Iterable[Edge],
) -> list[int]:
    """Rebuild an augmenting path whose contracted vertex sat between
    ``head`` and ``tail``, replacing it with a segment of the cycle.

    Which of the four joins applies depends on whether head or tail is empty
    and on whether the contracted vertex was entered through a matching edge.
    Raises ValueError when both are empty: a path that is only the
    contracted vertex has no edge to lift.
    """
    head = list(head)
    tail = list(tail)
    if not head and not tail:
        raise ValueError("the path is only the contracted vertex; there is no edge to lift")
    mset = graph(matching)
    if not head:
        return cycle_segment(cycle, mset, tail[0], g) + tail
    if not tail:
        return cycle_segment(cycle, mset, head[-1], g) + list(reversed(head))
    if not any(edge(c, tail[0]) in mset for c in cycle):
        return head + cycle_segment(cycle, mset, tail[0], g) + tail
    return list(reversed(tail)) + cycle_segment(cycle, mset, head[-1], g) + list(reversed(head))


def lift_path(
    cycle: Sequence[int],
    matching: Iterable[Edge],
    path: Sequence[int],
    g: Iterable[Edge],
    target: int,
) -> list[int]:
    """Lift an augmenting path of the contracted graph back to the original.

    ``cycle`` is the contracted odd alternating cycle, ``g`` the original
    graph, and ``target`` the fresh vertex the cycle was contracted to. A
    path avoiding the fresh vertex is returned unchanged; otherwise it is
    split there and rejoined through the cycle.
    """
    path = list(path)
    if target not in path:
        return path
    at = path.index(target)
    return splice_cycle(cycle, matching, path[:at], path[at + 1 :], g)
