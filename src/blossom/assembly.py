"""Assemble the forest search's two tree paths into an augmenting path or a
blossom."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TypeVar

from .contraction import is_blossom
from .forest import run_search
from .graph import Edge, graph, vertices
from .matching import InvariantViolation, _checked_matching, is_augmenting_path

T = TypeVar("T")


@dataclass(frozen=True)
class AugmentingPath:
    path: list[int]


@dataclass(frozen=True)
class FoundBlossom:
    stem: list[int]
    cycle: list[int]


def longest_disjoint_prefixes(
    first: Sequence[T], second: Sequence[T]
) -> tuple[list[T] | None, list[T] | None]:
    """Split two sequences sharing a common suffix into prefixes that overlap
    only at their final element.

    Returns (None, None) when either input is empty. Well defined whenever
    both inputs are root-ward traversals of one tree, which is how the search
    produces them.
    """
    if not first or not second:
        return None, None
    on_first = set(first)
    for i, x in enumerate(second):
        if x in on_first:
            return list(first[: first.index(x) + 1]), list(second[: i + 1])
    return None, None


def find_path_or_blossom(
    g: Iterable[Edge], matching: Iterable[Edge]
) -> AugmentingPath | FoundBlossom | None:
    """Find an augmenting path or a blossom, or None when neither exists.

    Raises ValueError first unless the matching is a matching inside the
    graph. An edge with both endpoints unmatched is then itself an augmenting
    path and is returned directly (smallest such edge first). Otherwise the
    forest search runs: tips in different trees assemble into an augmenting
    path, tips in the same tree into a blossom whose cycle closes at the
    paths' first shared vertex.
    """
    gset = graph(g)
    mset = _checked_matching(gset, matching)
    matched = vertices(mset)
    free = min((e for e in gset if e[0] not in matched and e[1] not in matched), default=None)
    if free is not None:
        return AugmentingPath([free[0], free[1]])
    paths = run_search(gset, mset).paths
    if paths is None:
        return None
    p1, p2 = paths
    if not set(p1) & set(p2):
        found = AugmentingPath(list(reversed(p1)) + p2)
        if p1[-1] == p2[-1] or not is_augmenting_path(gset, mset, found.path):
            raise InvariantViolation("paths in two trees do not join into an augmenting path")
        return found
    pfx1, pfx2 = longest_disjoint_prefixes(p1, p2)
    if p1[-1] != p2[-1] or pfx1 is None or pfx2 is None:
        raise InvariantViolation("paths in one tree do not end at one root")
    stem = list(reversed(p1[len(pfx1) :]))
    cycle = list(reversed(pfx1)) + pfx2
    if not is_blossom(gset, mset, stem, cycle):
        raise InvariantViolation("paths in one tree do not close a blossom")
    return FoundBlossom(stem, cycle)
