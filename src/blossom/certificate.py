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
from dataclasses import dataclass, replace

from .contraction import ContractionMap, is_blossom, quotient_graph
from .graph import Edge, graph, vertices
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
    """Whether every member is odd and every edge of the graph is covered."""
    sets = [frozenset(s) for s in cover]
    if any(len(s) % 2 == 0 for s in sets):
        return False
    # Singletons cover by one endpoint; a larger set must hold both. The
    # engine's larger sets are disjoint, so each vertex has one owner, but
    # parsed covers may hold a vertex in several larger sets.
    singletons = {v for s in sets if len(s) == 1 for v in s}
    owner: dict[int, int] = {}
    overlap = False
    for k, s in enumerate(sets):
        if len(s) > 1:
            for v in s:
                if owner.setdefault(v, k) != k:
                    overlap = True
    if overlap:
        larger: dict[int, list[frozenset[int]]] = {}
        for s in sets:
            if len(s) > 1:
                for v in s:
                    larger.setdefault(v, []).append(s)
        return all(
            a in singletons or b in singletons or any(b in s for s in larger.get(a, ()))
            for a, b in g
        )
    for a, b in g:
        if not (a in singletons or b in singletons or owner.get(a, -1) == owner.get(b, -2)):
            return False
    return True


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


def verify_maximum(
    g: Iterable[Edge], matching: Iterable[Edge], cover: Iterable[Iterable[int]]
) -> VerificationReport:
    """Check a matching against an odd set cover of the same graph.

    A true verdict means the matching is a matching inside the graph and the
    cover is valid with capacity equal to the matching size, which proves the
    matching maximum. Failures land in the report; nothing is raised. Pairs
    may come in either order; both sets are canonicalised only when the
    matching fails either check as given.
    """
    gset = frozenset(g)
    mset = frozenset(matching)
    matching_ok, subset_ok = is_matching(mset), mset <= gset
    if not (matching_ok and subset_ok):
        try:
            gset, mset = graph(gset), graph(mset)
        except ValueError:  # a self-loop, which fails the checks as it is
            pass
        matching_ok, subset_ok = is_matching(mset), mset <= gset
    sets = [frozenset(s) for s in cover]
    cap = sum(capacity(s) for s in sets if len(s) % 2 == 1)
    return VerificationReport(
        matching_ok=matching_ok,
        subset_ok=subset_ok,
        cover_ok=is_odd_set_cover(sets, gset),
        capacity=cap,
        matching_size=len(mset),
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

    ``matching_ok`` and ``subset_ok`` describe the given matching in the
    given graph, by ``verify_maximum``'s rule, whatever the history. Each
    step must be a genuine blossom of the graph it was found in, contracted
    to a fresh vertex; the first that is not is the one problem, named by its
    1-based position. The cover is checked against the final graph and
    matching. Contracting a blossom keeps a matching a matching, so a true
    verdict with no problems proves the given matching maximum. The replay
    looks pairs up as given, so a history needs canonical ``(min, max)``
    pairs; with no contractions either order verifies.
    """
    gset, mset = frozenset(g), frozenset(matching)
    cur_g, cur_m = gset, mset
    problems: list[str] = []
    for i, step in enumerate(contractions, start=1):
        vs = vertices(cur_g)
        if step.fresh in vs:
            problems.append(f"contraction {i}: its target already occurs in the graph")
            break
        if not is_blossom(cur_g, cur_m, step.stem, step.cycle):
            problems.append(
                f"contraction {i}: its stem and cycle are not a blossom "
                f"of the graph it was contracted in"
            )
            break
        cmap = ContractionMap(frozenset(vs - set(step.cycle)), step.fresh)
        cur_g = quotient_graph(cmap, cur_g)
        cur_m = quotient_graph(cmap, cur_m)
    report = verify_maximum(cur_g, cur_m, cover)
    if contractions:  # the flags describe the given matching, not its quotient
        given = verify_maximum(gset, mset, ())
        report = replace(report, matching_ok=given.matching_ok, subset_ok=given.subset_ok)
    return report, problems


def parse_natural(token: str) -> int:
    """The value of a token of ASCII decimal digits. Raises ValueError for
    anything else, including signs, underscores and non-ASCII digits that
    ``int`` would take."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a natural number: {token!r}")
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
    vertex id on input. Every field is a natural number in ASCII digits.
    Raises ValueError with a line number on bad input."""
    contractions: list[ContractionStep] = []
    cover: set[frozenset[int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        kind = tokens[0]
        try:
            numbers = [parse_natural(t) for t in tokens[1:]]
        except ValueError as exc:
            raise ValueError(f"line {line_no}: fields must be natural numbers") from exc
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
