"""Odd-set-cover maximality certificates: capacity, coverage, verification,
and the certificate text format.

An odd set cover is a collection of odd-cardinality vertex sets covering
every edge. Its capacity bounds the size of every matching, so a cover whose
capacity equals a matching's size proves that matching maximum. The solver
builds covers for the input graph itself, so its certificates carry no
contractions. The format also admits a contraction history ahead of the
cover, for a cover of a contracted graph; verification replays it first.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain

from .contraction import is_odd_cycle
from .graph import Edge, graph, is_simple, vertices
from .matching import is_matching


def capacity(s: Iterable[int]) -> int:
    """1 for a singleton, k for a set of 2k+1 vertices."""
    n = len(frozenset(s))
    if n % 2 == 0:
        raise ValueError("capacity is defined for odd-cardinality sets only")
    return max(n // 2, 1)


def covers(s: Iterable[int], e: Edge) -> bool:
    """Whether the odd set covers the edge: a singleton must intersect it, a
    larger set must contain both endpoints."""
    sset = frozenset(s)
    if len(sset) % 2 == 0:
        raise ValueError("covers is defined for odd-cardinality sets only")
    if len(sset) == 1:
        return e[0] in sset or e[1] in sset
    return e[0] in sset and e[1] in sset


def is_odd_set_cover(cover: Iterable[Iterable[int]], g: Iterable[Edge]) -> bool:
    """Whether every member is odd and every edge of the graph is covered.

    One pass freezes the members; the edge loop then fits the cover's shape:
    singletons only, one larger set, or several, reached through a map from
    each vertex to its larger set, or to the indices of the sets that hold
    it if they overlap."""
    return _check_cover(cover, g)[0]


def _check_cover(cover: Iterable[Iterable[int]], g: Iterable[Edge]) -> tuple[bool, int]:
    """``is_odd_set_cover`` and the summed capacity of the odd members."""
    singletons: set[int] = set()
    larger: list[frozenset[int]] = []
    odd, total = True, 0
    for s in map(frozenset, cover):
        n = len(s)
        if n % 2 == 0:
            odd = False
        elif n == 1:
            singletons |= s
            total += 1
        else:
            larger.append(s)
            total += n // 2
    # A larger set must hold both ends and most edges lie in one: test it first.
    if not odd:
        return False, total
    if not larger:
        for a, b in g:
            if a not in singletons and b not in singletons:
                return False, total
    elif len(larger) == 1:
        (big,) = larger
        for a, b in g:
            if (a not in big or b not in big) and a not in singletons and b not in singletons:
                return False, total
    elif len(reach := {v: s for s in larger for v in s}) == sum(map(len, larger)):
        get, empty = reach.get, frozenset()
        for a, b in g:
            if b not in get(a, empty) and a not in singletons and b not in singletons:
                return False, total
    else:
        # Overlapping sets (parsed covers only): each vertex maps to the
        # indices of the sets that hold it, so memory stays linear in the
        # cover, and isdisjoint iterates the smaller of the two ends' sides.
        holders: dict[int, set[int]] = {}
        for i, s in enumerate(larger):
            for v in s:
                holders.setdefault(v, set()).add(i)
        get, empty = holders.get, frozenset()
        for a, b in g:
            if a not in singletons and b not in singletons:
                if get(a, empty).isdisjoint(get(b, empty)):
                    return False, total
    return True, total


def cover_capacity(cover: Iterable[Iterable[int]]) -> int:
    """Sum of the member capacities."""
    return sum(capacity(s) for s in cover)


@dataclass(frozen=True)
class VerificationReport:
    matching_ok: bool
    subset_ok: bool
    cover_ok: bool
    capacity: int
    matching_size: int

    @property
    def verdict(self) -> bool:
        return (
            self.matching_ok
            and self.subset_ok
            and self.cover_ok
            and self.capacity == self.matching_size
        )


@dataclass(frozen=True)
class ContractionStep:
    """One recorded contraction: the blossom found and the fresh vertex its
    cycle was contracted to."""

    stem: list[int]
    cycle: list[int]
    fresh: int


@dataclass(frozen=True)
class MaximalityCertificate:
    """An odd set cover whose capacity equals the matching's size, for the
    graph reached after the recorded contractions. ``certify_maximality``
    records none, so its covers are covers of the input graph."""

    contractions: tuple[ContractionStep, ...]
    cover: frozenset[frozenset[int]]


def verify_certificate(
    g: Iterable[Edge],
    matching: Iterable[Edge],
    contractions: Sequence[ContractionStep],
    cover: Iterable[Iterable[int]],
) -> tuple[VerificationReport, list[str]]:
    """Replay the contraction history and verify the cover on the result.

    ``matching_ok`` and ``subset_ok`` say whether the given matching is a
    matching inside the given graph. Pairs may come in either order: both
    sets are taken as given, and canonicalised as ``(min, max)`` pairs when
    either check fails as given or a history is to be replayed. Each step
    must be a genuine blossom of the graph it was found in, contracted to a
    fresh vertex; the first that is not is the one problem, named by its
    1-based position. A self-loop in either set leaves the history
    unreplayed, with one problem naming contraction 1. The cover is checked
    against the final graph, and ``matching_size`` is the final matching's.
    Failures land in the report; nothing is raised. Contracting a blossom
    keeps a matching a matching, so a true verdict with no problems proves
    the given matching maximum.
    """
    gset, mset = frozenset(g), frozenset(matching)
    matching_ok, subset_ok = is_matching(mset), mset <= gset
    problems: list[str] = []
    if contractions or not (matching_ok and subset_ok):
        try:
            gset, mset = graph(gset), graph(mset)
        except ValueError:  # a self-loop: the sets stay as given, unreplayed
            if contractions:
                problems.append("contraction 1: the graph or the matching has a self-loop")
            contractions = ()
        matching_ok, subset_ok = is_matching(mset), mset <= gset
    size = len(mset)
    if contractions:
        gset, size = _replay(gset, mset, contractions, problems)
    cover_ok, total = _check_cover(cover, gset)
    report = VerificationReport(
        matching_ok=matching_ok,
        subset_ok=subset_ok,
        cover_ok=cover_ok,
        capacity=total,
        matching_size=size,
    )
    return report, problems


def _replay(
    gset: frozenset[Edge],
    mset: frozenset[Edge],
    contractions: Sequence[ContractionStep],
    problems: list[str],
) -> tuple[frozenset[Edge], int]:
    """The graph and the size of the matching that the history reaches from
    the canonical ``gset`` and ``mset``; the problem of a step that ends it
    early is appended to ``problems``.

    Each step is checked as ``is_blossom`` checks it and contracted as
    ``quotient_graph`` contracts under ``ContractionMap(vertices(g) - cycle,
    fresh)``, but on state that each step updates locally: a node per
    vertex with a set of neighbour nodes, where a cycle's nodes merge into
    the one with the largest set, which takes the fresh id. The matching is
    a partner map while it is one. The map sends every vertex outside the
    graph to the fresh vertex, so matched vertices that no edge holds go
    there too; a contraction that leaves it matched twice fails every
    later step.
    """
    ids = list(vertices(gset))
    node = {v: i for i, v in enumerate(ids)}
    adj: list[set[int]] = [set() for _ in ids]
    for a, b in gset:
        i, j = node[a], node[b]
        adj[i].add(j)
        adj[j].add(i)
    size, matched = len(mset), is_matching(mset)
    mate: dict[int, int] = {}
    if matched:
        for a, b in mset:
            mate[a], mate[b] = b, a
    loose = [v for v in mate if v not in node]
    for i, step in enumerate(contractions, start=1):
        fresh, cycle = step.fresh, step.cycle
        if (n := node.get(fresh)) is not None and adj[n]:
            problems.append(f"contraction {i}: its target already occurs in the graph")
            break
        if not (_is_blossom_of(node, adj, mate, step.stem, cycle) and matched):
            problems.append(
                f"contraction {i}: its stem and cycle are not a blossom "
                f"of the graph it was contracted in"
            )
            break
        on_cycle = set(cycle)
        # The matching edges at the cycle or outside the graph become
        # (kept, fresh), or a loop that is dropped.
        hit = {v for v in chain(on_cycle, loose) if v in mate}
        hit.update([mate[v] for v in hit])
        kept = [v for v in hit if v not in on_cycle and v in node and adj[node[v]]]
        for v in hit:
            del mate[v]
        size += len(kept) - len(hit) // 2
        matched = len(kept) < 2
        if kept:
            mate[kept[0]], mate[fresh] = fresh, kept[0]
        group = {node.pop(v) for v in on_cycle}
        big = max(group, key=lambda n: len(adj[n]))
        into = adj[big]
        into -= group
        for n in group - {big}:
            for u in adj[n]:
                if u not in group:
                    adj[u].discard(n)
                    adj[u].add(big)
                    into.add(u)
            adj[n] = set()
        node[fresh], ids[big] = big, fresh
        loose = [] if into or fresh not in mate else [fresh]
    out = frozenset(
        (ids[n], ids[m]) for n, ns in enumerate(adj) for m in ns if ids[n] < ids[m]
    )
    return out, size


def _is_blossom_of(
    node: dict[int, int],
    adj: list[set[int]],
    mate: dict[int, int],
    stem: Sequence[int],
    cycle: Sequence[int],
) -> bool:
    """``is_blossom`` on the replay's graph and partner map, but for its
    check that the matching is one, in its order up to that check."""
    if not is_odd_cycle(cycle) or not is_simple(list(stem) + list(cycle[:-1])):
        return False
    whole = list(stem) + list(cycle)
    if whole[0] in mate:
        return False
    for i, (a, b) in enumerate(zip(whole, whole[1:])):
        if (mate.get(a) == b) != (i % 2 == 1):
            return False
        if (n := node.get(a)) is None or node.get(b) not in adj[n]:
            return False
    return True


def verify_maximum(
    g: Iterable[Edge], matching: Iterable[Edge], cover: Iterable[Iterable[int]]
) -> VerificationReport:
    """Check a matching against an odd set cover of the same graph:
    ``verify_certificate`` with no contraction history. A true verdict
    proves the matching maximum."""
    return verify_certificate(g, matching, (), cover)[0]


# int()'s default limit on the digits of a string it converts.
_MAX_DIGITS = 4300


def parse_natural(token: str) -> int:
    """The value of a token of ASCII decimal digits. Raises ValueError for
    anything else, including signs, underscores and non-ASCII digits that
    ``int`` would take, and OverflowError for a value of more than 4,300
    digits after its leading zeros. The outcome is the same whether the
    interpreter's own digit limit is at its default or off."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a natural number: {token!r}")
    if len(token) > _MAX_DIGITS:
        token = token.lstrip("0") or "0"
        if len(token) > _MAX_DIGITS:
            raise OverflowError(f"number too large: more than {_MAX_DIGITS} significant digits")
    return int(token)


def format_certificate(
    contractions: Sequence[ContractionStep],
    cover: Iterable[Iterable[int]],
    *,
    offset: int = 0,
) -> str:
    """Serialize a certificate.

    One ``x`` line per contraction (fresh vertex, stem length, stem vertices,
    then cycle vertices including the repeated base), then one ``s`` line per
    cover set; ``c`` lines are comments, and the ``x`` layout comment is
    written only when there are contractions. ``offset`` is added to every
    vertex id on output, so internal 0-based ids can be written 1-based.
    """
    lines = ["c odd set cover, one s line per odd vertex set"]
    if contractions:
        lines.append("c x <fresh> <stem length> <stem vertices> <cycle vertices>")
    for step in contractions:
        body = [step.fresh + offset, len(step.stem)]
        body += [v + offset for v in step.stem]
        body += [v + offset for v in step.cycle]
        lines.append("x " + " ".join(str(n) for n in body))
    for s in sorted(tuple(sorted(s)) for s in cover):
        lines.append("s " + " ".join(str(v + offset) for v in s))
    return "\n".join(lines) + "\n"


def parse_certificate(
    text: str, *, offset: int = 0
) -> tuple[list[ContractionStep], frozenset[frozenset[int]]]:
    """Parse the certificate text format; ``offset`` is subtracted from every
    vertex id on input. Every field is a natural number in ASCII digits, and
    lines end at a line feed only. Raises ValueError with a line number on
    bad input."""
    contractions: list[ContractionStep] = []
    cover: set[frozenset[int]] = set()
    for line_no, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        kind = tokens[0]
        try:
            numbers = [parse_natural(t) for t in tokens[1:]]
        except ValueError as exc:
            raise ValueError(f"line {line_no}: fields must be natural numbers") from exc
        except OverflowError as exc:
            raise ValueError(f"line {line_no}: {exc}") from exc
        if kind == "x":
            if len(numbers) < 2:
                raise ValueError(f"line {line_no}: truncated contraction record")
            fresh, stem_len = numbers[0] - offset, numbers[1]
            rest = [n - offset for n in numbers[2:]]
            if len(rest) < stem_len + 3:
                raise ValueError(f"line {line_no}: malformed contraction record")
            contractions.append(
                ContractionStep(stem=rest[:stem_len], cycle=rest[stem_len:], fresh=fresh)
            )
        elif kind == "s":
            if not numbers:
                raise ValueError(f"line {line_no}: empty cover set")
            cover.add(frozenset(n - offset for n in numbers))
        else:
            raise ValueError(f"line {line_no}: unknown line type {kind!r}")
    return contractions, frozenset(cover)
