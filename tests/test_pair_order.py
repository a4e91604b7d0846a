"""One pair-order rule for the public API: an edge may be written either way
round, so reversing the pairs of every edge-set argument leaves each
function's result, or the type and message of the error it raises,
unchanged, and every edge set a function returns is canonical."""

import random
from types import SimpleNamespace

import blossom
from blossom import (
    ContractionMap,
    ContractionStep,
    InvariantViolation,
    SearchResult,
    brute_force_augmenting_path,
    certify_maximality,
    find_augmenting_path,
    find_maximum_matching,
    fresh_vertex,
    is_matching,
    quotient_graph,
    run_search,
    vertices,
)
from support import random_blossom_instance, random_graph, random_matching

# Each public function that takes a graph, a matching or an edge, with the
# arguments it is called with for a case; ``es`` is applied to every edge-set
# argument, once as the identity and once to reverse its pairs.
TAKES_EDGE_SETS = {
    "adjacency": lambda c, es: (es(c.g),),
    "augment": lambda c, es: (es(c.m), c.path),
    "brute_force_augmenting_path": lambda c, es: (es(c.g), es(c.m)),
    "brute_force_maximum_matching": lambda c, es: (es(c.g),),
    "build_odd_set_cover": lambda c, es: (es(c.g), es(c.m), c.finished),
    "certify_maximality": lambda c, es: (es(c.g), es(c.m)),
    "check_search_invariants": lambda c, es: (es(c.g), es(c.m), c.state),
    "covers": lambda c, es: (c.odd_set, next(iter(es([c.pair])))),
    "cycle_neighbour": lambda c, es: (es(c.bg), c.cycle, c.v),
    "cycle_segment": lambda c, es: (c.cycle, es(c.bm), c.v, es(c.bg)),
    "find_augmenting_path": lambda c, es: (es(c.g), es(c.m)),
    "find_maximum_matching": lambda c, es: (es(c.g),),
    "find_path_or_blossom": lambda c, es: (es(c.g), es(c.m)),
    "graph": lambda c, es: (es(c.g),),
    "is_augmenting_path": lambda c, es: (es(c.g), es(c.m), c.path),
    "is_blossom": lambda c, es: (es(c.bg), es(c.bm), c.stem, c.cycle),
    "is_matching": lambda c, es: (es(c.m),),
    "is_odd_set_cover": lambda c, es: (c.cover, es(c.g)),
    "is_path": lambda c, es: (es(c.g), c.path),
    "lift_path": lambda c, es: (c.cycle, es(c.bm), c.qpath, es(c.bg), c.target),
    "neighbours": lambda c, es: (es(c.g), c.v),
    "quotient_graph": lambda c, es: (c.cmap, es(c.bg)),
    "run_search": lambda c, es: (es(c.g), es(c.m)),
    "splice_cycle": lambda c, es: (c.cycle, es(c.bm), c.head, c.tail, es(c.bg)),
    "symmetric_difference": lambda c, es: (es(c.m), es(c.g)),
    "verify_certificate": lambda c, es: (es(c.bg), es(c.bm), c.steps, c.bcover),
    "verify_maximum": lambda c, es: (es(c.g), es(c.m), c.cover),
    "vertices": lambda c, es: (es(c.g),),
}

# Public callables that take no edge set: types, which store what they are
# given, and functions of vertices, vertex sequences and certificate text.
TAKES_NONE = {
    "AugmentingPath",
    "ContractionMap",
    "ContractionStep",
    "Edge",
    "FoundBlossom",
    "InvariantViolation",
    "Label",
    "MaximalityCertificate",
    "OracleLimitError",
    "Parity",
    "SearchResult",
    "SearchState",
    "VerificationReport",
    "Vertex",
    "capacity",
    "cover_capacity",
    "edge",
    "edges_of_path",
    "follow",
    "format_certificate",
    "fresh_vertex",
    "is_alternating",
    "is_odd_cycle",
    "is_simple",
    "longest_disjoint_prefixes",
    "parse_certificate",
    "prefix_until",
}


def test_every_public_callable_is_classified():
    public = {name for name in blossom.__all__ if callable(getattr(blossom, name))}
    assert not set(TAKES_EDGE_SETS) & TAKES_NONE
    assert public == set(TAKES_EDGE_SETS) | TAKES_NONE


def edge_set_or_matching(rng: random.Random, g: frozenset) -> frozenset:
    """A matching of the graph, or now and then an edge set that is not a
    matching, leaves the graph or holds a self-loop."""
    if rng.random() < 0.6:
        return random_matching(rng, g)
    pairs = set(rng.sample(sorted(g), min(len(g), rng.randint(0, 3))))
    for _ in range(rng.randint(0, 2)):
        a, b = rng.randint(1, 10), rng.randint(1, 10)
        pairs.add((min(a, b), max(a, b)))
    return frozenset(pairs)


def make_case(rng: random.Random) -> SimpleNamespace:
    """A graph and an edge set standing for its matching, with a path, a
    cover and a vertex to ask about, and an independent blossom instance
    with its contraction for the functions that take a blossom."""
    g = random_graph(rng, rng.randint(1, 9), rng.choice([0.3, 0.5, 0.8]))
    m = edge_set_or_matching(rng, g)
    vs = sorted(vertices(g)) or [1]
    valid = is_matching(m) and m <= g
    path = find_augmenting_path(g, m) if valid else None
    if path is None or rng.random() < 0.3:
        path = [rng.choice(vs) for _ in range(rng.randint(0, 4))]
    state = finished = cover = None
    if valid:
        # the state of the search, finished or stopped at a path, for the
        # invariant checker; the cover builder takes only a finished one
        search = run_search(g, m)
        state = search.state
        finished = state if search.paths is None else None
        cert = certify_maximality(g, m)
        cover = cert and cert.cover
    if cover is None:
        cover = [frozenset(rng.sample(range(1, 10), rng.choice([1, 1, 3]))) for _ in range(4)]

    bg, bm, stem, cycle = random_blossom_instance(rng, 10)
    bvs = vertices(bg)
    target = fresh_vertex(bvs)
    cmap = ContractionMap(frozenset(bvs - set(cycle)), target)
    qg, qm = quotient_graph(cmap, bg), quotient_graph(cmap, bm)
    qpath = brute_force_augmenting_path(qg, qm)
    at = qpath.index(target) if qpath and target in qpath else None
    qcert = certify_maximality(qg, qm)
    return SimpleNamespace(
        g=g,
        m=m,
        path=path,
        state=state,
        finished=finished,
        cover=cover,
        v=rng.choice(vs),
        pair=rng.choice(sorted(g) or [(1, 2)]),
        odd_set=frozenset(rng.sample(vs, 1 if len(vs) < 3 else rng.choice([1, 3]))),
        bg=bg,
        bm=bm,
        stem=stem,
        cycle=cycle,
        target=target,
        cmap=cmap,
        qpath=qpath,
        head=None if at is None else qpath[:at],
        tail=None if at is None else qpath[at + 1 :],
        steps=[ContractionStep(stem, cycle, target)],
        bcover=qcert.cover if qcert else cover,
    )


def reverser(rng: random.Random, mode: int):
    """Reverse the pairs of an edge set: all of them into a list, all into a
    frozenset (which ``graph`` cannot take as it is), or a random half."""

    def es(pairs):
        if mode == 0:
            return [(b, a) for a, b in pairs]
        if mode == 1:
            return frozenset((b, a) for a, b in pairs)
        return [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]

    return es


def outcome(fn, args) -> tuple:
    """("returned", the result) or ("raised", the error's type and message).
    No input here is an internal fault, so InvariantViolation fails the test."""
    try:
        return "returned", fn(*args)
    except Exception as exc:
        if isinstance(exc, InvariantViolation):
            raise AssertionError(f"{fn.__name__} raised InvariantViolation") from exc
        return "raised", type(exc), str(exc)


def assert_canonical(result) -> None:
    if isinstance(result, SearchResult):
        result = result.state.examined
    if isinstance(result, (set, frozenset)) and all(type(e) is tuple for e in result):
        assert all(a < b for a, b in result), result


def identity(pairs):
    return pairs


def test_reversed_pairs_change_no_result():
    rng = random.Random(110)
    raised = set()
    for i in range(500):
        case = make_case(rng)
        es = reverser(rng, i % 3)
        for name, build in TAKES_EDGE_SETS.items():
            args = build(case, identity)
            if any(arg is None for arg in args):
                continue  # no search or no finished one, or no path through the target
            fn = getattr(blossom, name)
            expected = outcome(fn, args)
            assert outcome(fn, build(case, es)) == expected, (name, case)
            if expected[0] == "returned":
                assert_canonical(expected[1])
            else:
                raised.add((name, expected[1].__name__))
    # the malformed inputs reach the checks of the matching's own functions
    assert {("run_search", "ValueError"), ("find_path_or_blossom", "ValueError")} <= raised
