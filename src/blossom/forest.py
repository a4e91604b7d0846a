"""The alternating-forest search at the heart of the matching engine.

Trees are grown from the unmatched vertices. Vertices entered through a
non-matching edge get an odd label, their matching partners an even label,
and every label carries the root of its tree. The search stops when an edge
joins two even-labelled vertices (an augmenting path or a blossom exists) or
when no unexamined edge has an even endpoint (the matching is maximum, and
the final state yields an odd-set-cover certificate).
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .graph import Edge, adjacency, edge, graph, is_path, vertices
from .matching import InvariantViolation, _checked_matching


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


class Label(NamedTuple):
    root: int
    parity: Parity


@dataclass
class SearchState:
    """Mutable state of one forest search: examined edges, parent pointers,
    and vertex labels."""

    examined: set[Edge] = field(default_factory=set)
    parent: dict[int, int] = field(default_factory=dict)
    labels: dict[int, Label] = field(default_factory=dict)


@dataclass
class SearchResult:
    """Outcome of a search: the two root-ward paths if an even-even edge was
    found, else None, plus the final state either way."""

    paths: tuple[list[int], list[int]] | None
    state: SearchState


Trace = Callable[[str], None]


def follow(parent: Mapping[int, int], v: int) -> list[int]:
    """Ascend parent pointers from ``v`` to its root.

    Raises InvariantViolation when the chain outgrows ``len(parent) + 1``
    vertices, the most an acyclic chain can hold, which means the parent
    relation has a cycle.
    """
    limit = len(parent) + 1
    out = [v]
    while out[-1] in parent:
        out.append(parent[out[-1]])
        if len(out) > limit:
            raise InvariantViolation("parent relation has a cycle")
    return out


def run_search(
    g: Iterable[Edge],
    matching: Iterable[Edge],
    *,
    check_invariants: bool = False,
    trace: Trace | None = None,
) -> SearchResult:
    """Run the alternating-forest search and return paths plus final state.

    Every unmatched vertex starts as the even-labelled root of its own tree.
    While some unexamined edge has an even-labelled endpoint, the smallest
    such (even endpoint, other endpoint) pair is examined:

    * other endpoint unlabelled: it is matched, so label it odd and its
      matching partner even, record parents, and mark the matching edge
      examined as well;
    * other endpoint even: report the two root-ward paths from the tips,
      and stop before marking that edge examined, so the state returned
      still meets ``check_search_invariants``;
    * other endpoint odd: nothing further, a second odd-length route to it
      was found.

    Raises ValueError unless the matching is a matching inside the graph.
    Selection is by smallest pair, and a matched vertex has a unique partner,
    so runs are fully deterministic. With ``check_invariants`` the state is
    re-validated after every iteration (quadratic, for tests). ``trace``
    receives one line per examined edge.
    """
    gset = graph(g)
    mset = _checked_matching(gset, matching)
    adj = adjacency(gset)
    partner: dict[int, int] = {}
    for a, b in mset:
        partner[a] = b
        partner[b] = a

    state = SearchState()
    labels, parent, examined = state.labels, state.parent, state.examined
    heap: list[tuple[int, int]] = []

    def open_candidates(v: int) -> None:
        for w in adj.get(v, ()):
            if ((v, w) if v < w else (w, v)) not in examined:
                heapq.heappush(heap, (v, w))

    for u in sorted(set(adj) - set(partner)):
        labels[u] = Label(u, Parity.EVEN)
        open_candidates(u)
    if check_invariants:
        check_search_invariants(gset, mset, state)

    while heap:
        # Each pair was pushed once, while its edge was unexamined. Since
        # then only popping the reverse pair could have examined the edge,
        # and that pop met two even ends and returned.
        v1, v2 = heapq.heappop(heap)
        found = labels.get(v2)
        if found is not None and found.parity is Parity.EVEN:
            if trace is not None:
                trace(f"found {v1} {v2}")
            return SearchResult((follow(parent, v1), follow(parent, v2)), state)
        examined.add(edge(v1, v2))
        if found is None:
            v3 = partner[v2]
            examined.add(edge(v2, v3))
            root = labels[v1].root
            labels[v2] = Label(root, Parity.ODD)
            labels[v3] = Label(root, Parity.EVEN)
            parent[v2] = v1
            parent[v3] = v2
            if trace is not None:
                trace(
                    f"grow {v1} {v2} label {v2} odd {root} label {v3} even {root} "
                    f"parent {v2} {v1} parent {v3} {v2}"
                )
            open_candidates(v3)
        elif trace is not None:
            trace(f"skip {v1} {v2}")
        if check_invariants:
            check_search_invariants(gset, mset, state)
    return SearchResult(None, state)


def build_odd_set_cover(
    g: Iterable[Edge], matching: Iterable[Edge], state: SearchState
) -> frozenset[frozenset[int]]:
    """Odd set cover certifying maximality after a failed search.

    The base cover is one singleton per odd-labelled vertex. Matching edges
    the search never examined have only unlabelled endpoints, and
    ``leftover_cover`` adds the sets for their endpoints, taken in the
    order of the sorted edges. The capacities then sum to exactly the
    matching size.
    """
    gset, mset = graph(g), graph(matching)
    labels, examined = state.labels, state.examined
    for e in gset - examined:
        for x in e:
            lab = labels.get(x)
            if lab is not None and lab.parity is Parity.EVEN:
                raise InvariantViolation(
                    "an unexamined edge still has an even endpoint; the search did not finish"
                )
    cover = {frozenset((v,)) for v, lab in labels.items() if lab.parity is Parity.ODD}
    cover.update(leftover_cover(itertools.chain.from_iterable(sorted(mset - examined))))
    return frozenset(cover)


def leftover_cover(matched: Iterable[int]) -> list[frozenset[int]]:
    """Cover sets for the k matched vertices no tree reached, each matched
    to another of them: a singleton for the first and, when more than one
    remain, one odd set of the rest. Their capacities, 1 and (k - 2) / 2,
    sum to the k / 2 pairs, and every edge among the k has an end in them."""
    it = iter(matched)
    for first in it:
        rest = frozenset(it)
        return [frozenset((first,)), rest] if len(rest) > 1 else [frozenset((first,))]
    return []


def check_search_invariants(
    g: Iterable[Edge], matching: Iterable[Edge], state: SearchState
) -> None:
    """Raise InvariantViolation unless every structural property of the
    search forest holds. Quadratic; meant for tests and debugging."""
    gset, mset = graph(g), graph(matching)
    labels, parent, examined = state.labels, state.parent, state.examined
    vs = vertices(gset)

    def fail(message: str) -> None:
        raise InvariantViolation(message)

    for par in parent.values():
        if par not in labels:
            fail("an unlabelled vertex is recorded as a parent")

    matched = vertices(mset)
    for v, lab in labels.items():
        chain = follow(parent, v)  # raises on a parent cycle
        if len(chain) > 1 and not is_path(gset, chain):
            fail("a root-ward chain leaves the graph")
        if len(chain) == 1 and chain[0] not in vs:
            fail("a labelled vertex does not occur in the graph")
        last = chain[-1]
        if last in matched:
            fail("a root-ward chain ends at a matched vertex")
        root_label = labels.get(last)
        if root_label is None or root_label.parity is not Parity.EVEN:
            fail("a root-ward chain does not end at an even-labelled root")
        if lab.parity is Parity.EVEN:
            for i, w in enumerate(chain):
                want = Parity.EVEN if i % 2 == 0 else Parity.ODD
                at = labels.get(w)
                if at is None or at.root != lab.root or at.parity is not want:
                    fail("labels along a chain do not alternate within one tree")
        for a, b in zip(chain, chain[1:]):
            la, lb = labels.get(a), labels.get(b)
            if la is None or lb is None or la.root != lb.root:
                fail("a chain crosses trees or reaches an unlabelled vertex")
            e = (a, b) if a < b else (b, a)
            if la.parity is Parity.EVEN and lb.parity is Parity.ODD:
                if e not in mset:
                    fail("an even-to-odd chain step is not a matching edge")
            elif la.parity is Parity.ODD and lb.parity is Parity.EVEN:
                if e in mset:
                    fail("an odd-to-even chain step is a matching edge")
            else:
                fail("adjacent chain vertices share a parity")

    for e in mset:
        a, b = e
        la, lb = labels.get(a), labels.get(b)
        if (la is None) != (lb is None):
            fail("a matching edge has exactly one labelled endpoint")
        if la is not None and lb is not None:
            if e not in examined:
                fail("a matching edge with labelled endpoints was not examined")
            if la.root != lb.root or {la.parity, lb.parity} != {Parity.EVEN, Parity.ODD}:
                fail("a matching edge is not labelled even/odd within one tree")
        elif e in examined:
            fail("an examined matching edge has unlabelled endpoints")

    for e in examined:
        if not any(
            labels.get(x) is not None and labels[x].parity is Parity.ODD for x in e
        ):
            fail("an examined edge has no odd-labelled endpoint")

    odd_count = sum(1 for lab in labels.values() if lab.parity is Parity.ODD)
    if odd_count != len(mset & examined):
        fail("odd-labelled vertex count differs from the examined matching edges")

    touched_unexamined = vertices(gset - examined)
    for v in vs:
        if v not in labels and v not in touched_unexamined:
            fail("an unlabelled vertex has all of its edges examined")
    touched_examined = vertices(gset & examined)
    for v, lab in labels.items():
        if lab.parity is Parity.ODD and v not in touched_examined:
            fail("an odd-labelled vertex touches no examined graph edge")
