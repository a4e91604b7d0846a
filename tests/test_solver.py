import gc
import importlib.util
import io
import itertools
import pathlib
import random
import re
import sys
import tracemalloc

import pytest

import blossom.assembly
import blossom.contraction
import blossom.forest
import blossom.solver
from blossom import (
    InvariantViolation,
    brute_force_augmenting_path,
    brute_force_maximum_matching,
    certify_maximality,
    edge,
    edges_of_path,
    find_augmenting_path,
    find_maximum_matching,
    find_path_or_blossom,
    format_certificate,
    graph,
    is_augmenting_path,
    is_matching,
    run_search,
    verify_certificate,
    verify_maximum,
    vertices,
)
from blossom.cli import parse_matching_file, run_solve
from blossom.solver import (
    _blossom_base,
    _direct_adjacency,
    _flip_to_root,
    _link_blossom_path,
    _renumber,
)
from support import (
    DEMO7,
    DEMO7_MATCHING,
    DEMO12,
    DEMO12_MATCHING,
    INTERLEAVED_400,
    PATH4,
    TAILED_TRIANGLE,
    TAILED_TRIANGLE_MATCHING,
    TRIANGLE,
    absorbed_blossom,
    all_graphs,
    augmenting_gadgets,
    count_phases,
    dimacs,
    nested_blossoms,
    random_graph,
    random_matching,
    reference_maximum_matching,
    sparse_graph,
    stem_with_triangles,
)


def planted_perfect(rng: random.Random, n: int, degree: int) -> tuple[frozenset, frozenset]:
    """A random graph on the ids 0..n-1, n even, with about ``n * degree //
    2`` edges besides a random perfect matching, and that matching."""
    order = list(range(n))
    rng.shuffle(order)
    m = frozenset(edge(order[i], order[i + 1]) for i in range(0, n, 2))
    return m | sparse_graph(rng, n, degree), m


# every vertex is matched by a maximum matching: certify needs no search
FULLY_MATCHED = planted_perfect(random.Random(77), 60, 3)[0]


def test_find_augmenting_path_examples():
    assert find_augmenting_path(PATH4, graph([(2, 3)])) == [1, 2, 3, 4]
    # the fully unmatched edge (3,4) short-circuits here, no contraction runs
    p = find_augmenting_path(TRIANGLE | {(3, 4)}, graph([(1, 2)]))
    assert p is not None
    assert is_augmenting_path(TRIANGLE | {(3, 4)}, graph([(1, 2)]), p)
    assert find_augmenting_path(DEMO12, DEMO12_MATCHING) is None


def test_find_augmenting_path_through_a_contraction():
    # every edge touches the matching, so the triangle 3-4-5 must be shrunk
    # before the augmenting path around it appears
    assert find_augmenting_path(DEMO7, DEMO7_MATCHING) == [1, 2, 3, 4, 5, 6]
    # and here the contraction is also needed to learn that nothing exists
    assert find_augmenting_path(TAILED_TRIANGLE, TAILED_TRIANGLE_MATCHING) is None


def test_find_maximum_matching_examples():
    assert len(find_maximum_matching(DEMO12)) == 5
    assert len(find_maximum_matching(DEMO7)) == 3
    assert find_maximum_matching(frozenset()) == frozenset()


def test_results_are_matchings_inside_the_graph():
    rng = random.Random(51)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 18), rng.choice([0.15, 0.3, 0.6]))
        m = find_maximum_matching(g)
        assert is_matching(m)
        assert m <= g
        assert vertices(m) <= vertices(g)  # contracted vertices never leak


def test_agrees_with_bruteforce_on_random_instances():
    rng = random.Random(52)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.4, 0.7]))
        assert len(find_maximum_matching(g)) == len(brute_force_maximum_matching(g))


def test_final_matchings_admit_no_augmenting_path():
    rng = random.Random(53)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 14), 0.35)
        m = find_maximum_matching(g)
        assert brute_force_augmenting_path(g, m) is None


def test_blossom_heavy_structures():
    petersen = graph(
        [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
            (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        ]
    )
    assert len(find_maximum_matching(petersen)) == 5

    for n in (3, 5, 7, 9, 11, 41, 81):
        clique = graph(itertools.combinations(range(n), 2))
        assert len(find_maximum_matching(clique)) == (n - 1) // 2

    # triangles joined by bridges force repeated, nested contractions
    for k in (5, 40):
        edges = []
        for i in range(k):
            b = 3 * i
            edges += [(b, b + 1), (b + 1, b + 2), (b, b + 2)]
            if i < k - 1:
                edges.append((b + 2, b + 3))
        chain = graph(edges)
        assert len(find_maximum_matching(chain)) == 3 * k // 2  # one left over when k is odd


def test_certify_maximality():
    cert = certify_maximality(DEMO12, DEMO12_MATCHING)
    assert cert is not None and cert.contractions == ()
    # odd vertices 4, 8 and 10 as singletons, the outer blossoms whole
    assert cert.cover == {
        frozenset(s) for s in ({1, 2, 3}, {4}, {5, 6, 7}, {8}, {10})
    }
    report = verify_maximum(DEMO12, DEMO12_MATCHING, cert.cover)
    assert report.verdict
    replay, problems = verify_certificate(
        DEMO12, DEMO12_MATCHING, list(cert.contractions), cert.cover
    )
    assert replay.verdict and not problems
    # a non-maximum matching cannot be certified
    assert certify_maximality(DEMO7, DEMO7_MATCHING) is None
    # with no free vertex no tree grows: the first matched edge in sorted
    # order gives a singleton, and the rest one odd set
    three = graph([(5, 6), (1, 2), (3, 4), (2, 3)])
    cert = certify_maximality(three, graph([(5, 6), (3, 4), (1, 2)]))
    assert cert is not None and cert.cover == {frozenset({1}), frozenset({2, 3, 4, 5, 6})}


def test_certificates_verify_on_random_instances():
    rng = random.Random(54)
    certified = 0
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 12), 0.4)
        m = find_maximum_matching(g)
        cert = certify_maximality(g, m)
        assert cert is not None
        replay, problems = verify_certificate(g, m, list(cert.contractions), cert.cover)
        assert replay.verdict and not problems
        certified += 1
    assert certified == 100


@pytest.fixture(scope="module")
def interleaved_matching():
    return find_maximum_matching(INTERLEAVED_400)


def test_interleaved_odd_cycle_solves(interleaved_matching):
    assert len(interleaved_matching) == 800
    assert is_matching(interleaved_matching) and interleaved_matching <= INTERLEAVED_400


def test_interleaved_odd_cycle_certifies(interleaved_matching):
    cert = certify_maximality(INTERLEAVED_400, interleaved_matching)
    assert cert is not None
    report, problems = verify_certificate(
        INTERLEAVED_400, interleaved_matching, list(cert.contractions), cert.cover
    )
    assert report.verdict and not problems


def certified(g, m) -> bool:
    cert = certify_maximality(g, m)
    if cert is None:
        return False
    report, problems = verify_certificate(g, m, list(cert.contractions), cert.cover)
    return report.verdict and not problems


def in_memo(g, m) -> bool:
    """Whether the certify memo holds these very objects as its solve's."""
    last = blossom.solver._last_solve
    return last is not None and last[0] is g and last[1] is m


def test_engine_agrees_with_the_reference_loop():
    rng = random.Random(55)
    for _ in range(150):
        n = rng.randint(1, 60)
        g = random_graph(rng, n, rng.choice([1.5 / n, 3 / n, 0.1, 0.3]))
        m = find_maximum_matching(g)
        assert is_matching(m) and m <= g
        assert len(m) == len(reference_maximum_matching(g))
        assert certified(g, m)


def test_long_even_stem_into_a_five_cycle():
    # a stem of 400 edges from 0 to the base 400 of the cycle
    # 400-401-402-403-404, and a pendant vertex 405 on the cycle's far side:
    # a perfect matching exists, under any numbering of the vertices
    g = frozenset(
        edges_of_path(range(401)) + edges_of_path([400, 401, 402, 403, 404, 400]) + [(402, 405)]
    )
    rng = random.Random(56)
    orders = [list(range(406)), list(range(405, -1, -1))]
    orders += [rng.sample(range(406), 406) for _ in range(3)]
    for order in orders:
        relabelled = frozenset(edge(order[a], order[b]) for a, b in g)
        m = find_maximum_matching(relabelled)
        assert len(m) == 203
        assert certified(relabelled, m)


def test_edge_order_does_not_change_the_matching():
    rng = random.Random(57)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 40), 0.15)
        pairs = sorted(g, reverse=True)
        m = find_maximum_matching(pairs)
        assert find_maximum_matching(g) == m
        rng.shuffle(pairs)
        assert find_maximum_matching([(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]) == m


GROW = re.compile(r"grow (\d+) (\d+) label \2 odd (\d+) label (\d+) even \3 parent \2 \1 parent \4 \2")
FOUND_OR_SKIP = re.compile(r"(found|skip) \d+ \d+")


def test_trace_records_use_the_search_layouts_and_input_ids(phases):
    searched: list[str] = []
    run_search(DEMO7, DEMO7_MATCHING, trace=searched.append)
    # greedy is already maximum on DEMO7, so counting ends its solve before
    # any phase; greedy matches (0, 1) of the last graph, and its phase then
    # finds the edge (3, 1) joining the live trees rooted at 2 and 3
    for g in (DEMO7, DEMO12, graph([(0, 1), (0, 2), (1, 3)])):
        records: list[str] = []
        phases.clear()
        find_maximum_matching(g, trace=records.append)
        assert bool(records) == bool(phases) == (g is not DEMO7)
        for record in records + searched:
            assert GROW.fullmatch(record) or FOUND_OR_SKIP.fullmatch(record), record
        assert {int(t) for r in records for t in r.split() if t.isdigit()} <= vertices(g)
    assert records == ["grow 2 0 label 0 odd 2 label 1 even 2 parent 0 2 parent 1 0", "found 3 1"]


def test_certify_agrees_with_bruteforce(phases):
    # None exactly when the matching is below the maximum size; otherwise
    # the cover proves the matching maximum on the input graph itself
    rng = random.Random(58)
    outcomes = set()
    for i in range(400):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.4, 0.7]))
        m = random_matching(rng, g) if i % 2 else find_maximum_matching(g)
        cert = certify_maximality(g, m)
        assert (cert is None) == (len(m) < len(brute_force_maximum_matching(g)))
        if cert is not None:
            assert cert.contractions == ()
            assert verify_maximum(g, m, cert.cover).verdict
        outcomes.add(cert is None)
        # the solve's stop rule with a budget of one phase: a certify that
        # reads the matching, an equal copy of a solve's or a random one,
        # runs that phase unless at most one vertex with edges is unmatched
        phases.clear()
        assert certify_maximality(g, frozenset(list(m))) == cert
        assert len(phases) == (len(vertices(g)) - 2 * len(m) > 1)
    assert outcomes == {True, False}


def test_certify_rejects_bad_matchings():
    # (2, 3) and (3, 4) are free edges of their graphs, yet the matching is
    # checked first
    free_edge = graph([(1, 2), (3, 4), (4, 5)])
    for fn in (certify_maximality, find_path_or_blossom, find_augmenting_path):
        with pytest.raises(ValueError, match="^the given edge set is not a matching$"):
            fn(PATH4, graph([(1, 2), (2, 3)]))
        with pytest.raises(ValueError, match="^the matching has edges outside the graph$"):
            fn(PATH4, graph([(1, 4)]))
        with pytest.raises(ValueError, match="^the given edge set is not a matching$"):
            fn(free_edge, [(1, 2), (2, 9)])
        with pytest.raises(ValueError, match="^the matching has edges outside the graph$"):
            fn(free_edge, [(2, 1), (9, 8)])


def test_ids_0_to_n_minus_1_index_themselves():
    # ids 0..n-1 skip the id-to-index dict: the id list is the index
    gset, ids, index, adj = _renumber([(1, 0), (2, 1), (0, 2), (3, 2)])
    assert gset == graph([(0, 1), (1, 2), (0, 2), (2, 3)])
    assert ids == [0, 1, 2, 3] and index is ids
    assert adj == [[1, 2], [0, 2], [0, 1, 3], [2]]
    # an unused id below 4|E| is its own index too, with no edges
    _, ids, index, adj = _renumber([(1, 0), (3, 1)])
    assert ids == [0, 1, 2, 3] and index is ids
    assert adj == [[1], [0, 3], [], [1]]
    _, ids, index, adj = _renumber([(0, 1), (1, 7)])
    assert ids == list(range(8)) and index is ids and adj[7] == [1]
    # a negative id, or one at 4|E| or past it, needs the dict
    for edges, used in (([(-1, 0), (0, 1)], [-1, 0, 1]), ([(0, 1), (1, 8)], [0, 1, 8])):
        _, ids, index, adj = _renumber(edges)
        assert ids == used and index == {v: i for i, v in enumerate(used)}
        assert adj == [[1], [0, 2], [1]]


def test_intake_fallbacks_give_the_result_of_graph(monkeypatch):
    # anything but a frozenset of (a, b) tuples with a < b goes through
    # graph() once before the adjacency is built, and so does a frozenset
    # whose ids need the dict
    calls = []

    def counted(pairs):
        calls.append(1)
        return graph(pairs)

    monkeypatch.setattr(blossom.solver, "graph", counted)
    pairs = [(0, 1), (1, 2), (2, 3), (0, 3)]
    expected = _renumber(graph(pairs))
    assert calls == []
    forms = {
        "reversed pair": frozenset(pairs[:-1] + [(3, 0)]),
        "frozenset of frozensets": frozenset(frozenset(e) for e in pairs),
        "list": pairs,
    }
    for form, given in forms.items():
        calls.clear()
        assert _renumber(given) == expected and calls == [1], form
    for given in ([(-1, 0), (0, 1)], [(1, 0), (-1, 0)], graph([(-1, 0), (0, 1)])):
        calls.clear()
        assert _renumber(given)[1] == [-1, 0, 1] and calls == [1], given
    with pytest.raises(ValueError, match="^self-loop at vertex 2$"):
        _renumber(frozenset([(0, 1), (2, 2)]))


@pytest.mark.parametrize(
    "pairs",
    [
        [(0.0, 1.0), (1.0, 2.0), (0.0, 2.0), (2.0, 3.5)],
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")],
        [(False, True)],
        [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})],
    ],
    ids=["float pairs", "string pairs", "bool pairs", "frozenset members"],
)
def test_frozensets_of_other_members_solve_as_their_lists(pairs):
    # the one-loop intake gives members that are not pairs of ints to
    # graph(), which reads them as it reads the list
    g = frozenset(pairs)
    m = find_maximum_matching(pairs)
    assert find_maximum_matching(g) == m
    for given in (m, frozenset()):
        assert certify_maximality(g, frozenset(given)) == certify_maximality(pairs, given)
    assert certify_maximality(g, frozenset()) is None
    # bool is an int: only the bool pairs pass the one-loop intake
    assert (_direct_adjacency(g) is not None) == (pairs == [(False, True)])


@pytest.mark.parametrize(
    "pairs, error",
    [
        ([(0, 1, 2)], ValueError("too many values to unpack (expected 2)")),
        ([("a", 1)], TypeError("'<' not supported between instances of 'str' and 'int'")),
    ],
    ids=["3-tuple", "str and int"],
)
def test_frozensets_of_bad_members_raise_as_their_lists(pairs, error):
    g = frozenset(pairs)
    assert _direct_adjacency(g) is None
    for call in (
        lambda: find_maximum_matching(pairs),
        lambda: find_maximum_matching(g),
        lambda: certify_maximality(pairs, []),
        lambda: certify_maximality(g, frozenset()),
    ):
        with pytest.raises(type(error)) as info:
            call()
        assert str(info.value) == str(error)


def test_results_share_the_graphs_int_objects():
    # ids past CPython's small-int cache, each pair with its own int objects:
    # the adjacency holds one object per vertex, and the matching and cover
    # are built from objects of the graph's pairs
    base = sparse_graph(random.Random(75), 300, 3)
    g = frozenset((int(str(a)), int(str(b))) for a, b in base)
    _, ids, index, adj = _renumber(g)
    assert index is ids and len(ids) == 300
    assert len({id(w) for ns in adj for w in ns}) == len({w for ns in adj for w in ns})
    objects = {id(v) for e in g for v in e}
    assert all(id(v) in objects for v in ids if adj[v])
    m = find_maximum_matching(g)
    assert all(id(v) in objects for e in m for v in e)
    # the solve's own cover, then an equal matching's through the full path
    for given in (m, frozenset(list(m))):
        cert = certify_maximality(g, given)
        assert all(id(v) in objects for s in cert.cover for v in s)


def refuse_everywhere(monkeypatch, originals, message: str) -> set[str]:
    """Replace each function at every binding in the package's modules by
    one that fails the test; the patched names, as module.name."""

    def refuse(*args, **kwargs):
        raise AssertionError(message)

    patched = set()
    for name, module in list(sys.modules.items()):
        if name == "blossom" or name.startswith("blossom."):
            for original in originals:
                if getattr(module, original.__name__, None) is original:
                    monkeypatch.setattr(module, original.__name__, refuse)
                    patched.add(f"{name}.{original.__name__}")
    return patched


def test_solve_and_certify_never_run_the_spec_layer(monkeypatch):
    # the paper-shaped search, assembly and contraction are the specification
    # the engine is checked against, not part of the production path
    spec = (
        blossom.forest.run_search,
        blossom.assembly.find_path_or_blossom,
        blossom.contraction.quotient_graph,
    )
    patched = refuse_everywhere(
        monkeypatch, spec, "the production path ran the paper-shaped layer"
    )
    assert {
        "blossom.assembly.run_search",
        "blossom.solver.find_path_or_blossom",
        "blossom.solver.quotient_graph",
    } <= patched
    for g in (DEMO12, TAILED_TRIANGLE, INTERLEAVED_400, FULLY_MATCHED):
        m = find_maximum_matching(g)
        cert = certify_maximality(g, m)
        assert cert is not None and cert.contractions == ()
        report, problems = verify_certificate(g, m, list(cert.contractions), cert.cover)
        assert report.verdict and not problems


def test_edge_loops_make_no_call_per_edge(monkeypatch):
    # a canonical frozenset goes through solve, certify and verify without
    # one call to edge()
    patched = refuse_everywhere(
        monkeypatch, (edge,), "an edge loop canonicalised an edge"
    )
    assert {"blossom.graph.edge", "blossom.edge"} <= patched
    for g in (DEMO12, TAILED_TRIANGLE, INTERLEAVED_400, FULLY_MATCHED):
        assert type(g) is frozenset
        assert certified(g, find_maximum_matching(g))


def test_engine_pointer_walks_stop_on_a_cycle():
    # vertices 0 and 1 matched to each other, each the other's parent
    base, parent, mate = [0, 1], [1, 0], [1, 0]
    with pytest.raises(InvariantViolation):
        _blossom_base(0, 1, base, parent, mate)
    with pytest.raises(InvariantViolation):
        _flip_to_root(0, parent, list(mate))
    with pytest.raises(InvariantViolation):
        _link_blossom_path(0, 1, 2, base, parent, mate, set())


@pytest.fixture
def phases(monkeypatch) -> list:
    return count_phases(monkeypatch)


def check_planted(g, planted, size) -> None:
    """The engine's matching has the planted instance's maximum size and a
    certificate, the planted matching is certified exactly when it is
    maximum, and the brute-force oracle agrees when the graph is small."""
    m = find_maximum_matching(g)
    assert is_matching(m) and m <= g
    assert len(m) == size
    assert certified(g, m)
    assert (certify_maximality(g, planted) is None) == (len(planted) < size)
    if len(vertices(g)) <= 16 and len(g) <= 24:
        assert len(brute_force_maximum_matching(g)) == size


def test_nested_blossoms_with_long_stems():
    rng = random.Random(59)
    for i in range(200):
        depth, stem = rng.randint(1, 8), rng.choice([0, 1, 2, rng.randint(3, 60)])
        check_planted(*nested_blossoms(rng, depth, stem, i % 2 == 1, rng.randint(0, 3)))


def test_many_small_trees_augment_in_one_phase(phases):
    rng = random.Random(60)
    for _ in range(100):
        count = rng.randint(1, 40)
        g, planted, size = augmenting_gadgets(rng, count)
        phases.clear()
        m = find_maximum_matching(g)
        # the first phase augments every gadget and leaves nothing unmatched
        assert len(phases) == 1
        assert in_memo(g, m)
        # the count proves the matching maximum, so certify adds no phase
        assert certify_maximality(g, m) is not None
        assert len(phases) == 1
        check_planted(g, planted, size)
        check_planted(*augmenting_gadgets(rng, count, cross=rng.randint(1, count)))


def test_a_blossom_absorbs_a_larger_blossom():
    rng = random.Random(61)
    for i in range(200):
        depth, arm = rng.randint(1, 6), rng.randint(0, 6)
        check_planted(*absorbed_blossom(rng, depth, arm, i % 2 == 1))


def test_sparse_graph_solves_in_few_phases(phases):
    # one phase per augmentation took 300 phases here
    g = sparse_graph(random.Random(62), 4000, 3)
    m = find_maximum_matching(g)
    assert len(phases) <= 15
    assert certified(g, m)


def count_walk_steps(run) -> int:
    """Line events inside the engine's blossom-base walk while ``run()``
    runs, a count of its steps that does not depend on the machine."""
    walk = _blossom_base.__code__
    steps = 0

    def count(frame, event, arg):
        nonlocal steps
        steps += event == "line"
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code is walk else None)
    try:
        run()
    finally:
        sys.settrace(previous)
    return steps


def test_blossom_bases_are_found_near_the_blossom():
    # each of 300 triangles closes a blossom at the far end of a stem of
    # 300 matched edges; walking to the root for each would take stem x
    # triangles steps, some 1,500 line events per vertex
    g, planted, size = stem_with_triangles(random.Random(63), 300, 300)
    n = len(vertices(g))
    m = find_maximum_matching(g)
    assert len(m) == size and len(planted) == size
    # Both maximum matchings leave only the root unmatched, so the count
    # certifies them and no phase runs. A separate edge left unmatched adds
    # two more unmatched vertices: certify's phase then grows the root's tree,
    # which closes the 300 blossoms, while the separate edge augments.
    far = max(vertices(g)) + 1
    wider = g | {(far, far + 1)}
    for given in (planted, m):
        assert 300 <= count_walk_steps(lambda: certify_maximality(wider, given)) <= 20 * n
        assert certify_maximality(wider, given) is None
    assert certified(g, m)
    assert certified(g, planted)


def compact(g) -> frozenset:
    """The graph relabelled in order to the ids 0..n-1."""
    order = {v: i for i, v in enumerate(sorted(vertices(g)))}
    return frozenset((order[a], order[b]) for a, b in g)


INTAKE_GRAPHS = {
    "DEMO12": DEMO12,
    "TAILED_TRIANGLE": TAILED_TRIANGLE,
    "petersen": graph(
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
    ),
    "random 0-based": compact(random_graph(random.Random(64), 30, 0.15)),
    "nested blossoms": nested_blossoms(random.Random(65), 4, 7, True, 2)[0],
}


def intake_forms(g, rng: random.Random) -> dict:
    """The canonical frozenset and four other ways to give the same graph."""
    pairs = sorted(g)
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    return {
        "canonical": g,
        "reversed": [(b, a) for a, b in pairs],
        "lists": [[a, b] for a, b in pairs],
        "both orientations": pairs + [(b, a) for a, b in pairs[::3]],
        "shuffled": shuffled,
    }


def solve_and_certify_text(g, matching=None) -> tuple[frozenset, str]:
    m = find_maximum_matching(g)
    cert = certify_maximality(g, m if matching is None else matching)
    assert cert is not None
    return m, format_certificate(cert.contractions, cert.cover)


@pytest.mark.parametrize("name", INTAKE_GRAPHS)
def test_intake_forms_agree(name):
    g = INTAKE_GRAPHS[name]
    expected = solve_and_certify_text(g)
    for form, given in intake_forms(g, random.Random(66)).items():
        assert solve_and_certify_text(given) == expected, form
    # the matching may be given in the same forms
    m = expected[0]
    for form, given in intake_forms(m, random.Random(67)).items():
        assert solve_and_certify_text(g, given) == expected, form


def relabel(g, f) -> frozenset:
    return graph((f(a), f(b)) for a, b in g)


@pytest.mark.parametrize(
    "label",
    [lambda v: v + 1, lambda v: v - 7, lambda v: 10**9 * v + 3, lambda v: 2**70 - 10**6 * v],
    ids=["1-based", "negative", "sparse", "huge-decreasing"],
)
def test_any_ids_agree_with_the_dense_ids(label):
    # ids in 0..4|E|-1 are their own index, every other id goes through a
    # dict; an order-preserving relabelling runs the engine identically, and
    # a reversing one still gives a certified maximum matching
    rng = random.Random(68)
    graphs = [INTAKE_GRAPHS["random 0-based"], frozenset()]
    graphs += [compact(random_graph(rng, rng.randint(2, 40), 0.12)) for _ in range(20)]
    increasing = label(1) > label(0)
    for g in graphs:
        assert vertices(g) == set(range(len(vertices(g))))
        m, text = solve_and_certify_text(g)
        h = relabel(g, label)
        hm, htext = solve_and_certify_text(h)
        if increasing:
            assert hm == relabel(m, label)
            cert = certify_maximality(h, hm)
            back = {v: u for u in vertices(g) for v in (label(u),)}
            assert format_certificate((), [{back[v] for v in s} for s in cert.cover]) == text
        else:
            assert len(hm) == len(m) and certified(h, hm)
    assert find_maximum_matching([]) == frozenset()
    cert = certify_maximality([], [])
    assert cert is not None and cert.cover == frozenset()


def spread(rng: random.Random, g) -> list[int]:
    """New ids, in increasing order, for the ids 0..n-1 of a graph: n
    distinct ids below 4|E|, which leaves gaps that index themselves, or
    now and then ids reaching past that, which go through the dict."""
    n = len(vertices(g))
    top = 4 * len(g) if rng.random() < 0.8 else 40 * len(g)
    return sorted(rng.sample(range(top), n))


def test_ids_with_gaps_agree_with_the_compacted_graph():
    rng = random.Random(76)
    gaps = dicts = 0
    for _ in range(200):
        g = compact(random_graph(rng, rng.randint(2, 30), rng.choice([0.08, 0.15, 0.3])))
        if not g:
            continue
        new = spread(rng, g)
        h = relabel(g, new.__getitem__)
        _, ids, index, _ = _renumber(h)
        if index is ids:
            gaps += len(ids) > len(new)
        else:
            dicts += 1
        records, h_records = [], []
        m = find_maximum_matching(g, trace=records.append)
        hm = find_maximum_matching(h, trace=h_records.append)
        assert hm == relabel(m, new.__getitem__)
        assert h_records == [
            " ".join(str(new[int(t)]) if t.isdigit() else t for t in record.split())
            for record in records
        ]
        cover = certify_maximality(g, m).cover
        assert certify_maximality(h, hm).cover == {frozenset(new[v] for v in s) for s in cover}
    assert gaps > 100 and dicts > 10


def old_intake_error(g, pairs) -> str | None:
    """The error certify_maximality raises for a matching, in the order it
    checks: canonicalise, then the matching check, then the subset check."""
    try:
        mset = graph(pairs)
    except ValueError as exc:
        return str(exc)
    if not is_matching(mset):
        return "the given edge set is not a matching"
    if not mset <= g:
        return "the matching has edges outside the graph"
    return None


def test_certify_checks_the_matching_as_before():
    rng = random.Random(69)
    seen = set()
    for _ in range(3000):
        g = random_graph(rng, rng.randint(2, 8), 0.5, first=rng.choice([0, 1]))
        pool = sorted(g) + [(rng.randint(0, 10), rng.randint(0, 10)) for _ in range(2)]
        pairs = rng.sample(pool, rng.randint(0, min(4, len(pool))))
        pairs += [(b, a) for a, b in pairs if rng.random() < 0.2]
        rng.shuffle(pairs)
        for given in (pairs, frozenset(pairs)):
            # of two self-loops, the one met first is named
            error = old_intake_error(g, given)
            kind = error and error.rstrip("0123456789")
            seen.add(kind)
            if error is None:
                certify_maximality(g, given)
            else:
                with pytest.raises(ValueError) as info:
                    certify_maximality(g, given)
                assert str(info.value) == error
    assert seen == {
        None,
        "self-loop at vertex ",
        "the given edge set is not a matching",
        "the matching has edges outside the graph",
    }
    with pytest.raises(ValueError, match="^self-loop at vertex 4$"):
        find_maximum_matching([(1, 2), (4, 4)])
    with pytest.raises(ValueError, match="^self-loop at vertex 4$"):
        certify_maximality(PATH4, [(1, 2), (2, 3), (4, 4)])


@pytest.mark.parametrize("case", ["fully matched", "unmatched vertices", "not maximum"])
def test_one_shot_iterators_certify_as_the_frozensets(case):
    g, m = {
        "fully matched": (FULLY_MATCHED, find_maximum_matching(FULLY_MATCHED)),
        "unmatched vertices": (DEMO12, DEMO12_MATCHING),
        "not maximum": (PATH4, graph([(2, 3)])),
    }[case]
    expected = certify_maximality(g, m)
    assert (expected is None) == (case == "not maximum")
    forms = (iter, list, set, frozenset)
    for g_form, m_form in itertools.product(forms, repeat=2):
        assert certify_maximality(g_form(g), m_form(m)) == expected, (g_form, m_form)


def test_fully_matched_graphs_certify_as_their_solve():
    # certify of a fully matched graph, with the solve's matching, a planted
    # perfect matching or pairs given reversed, gives the certificate that
    # solve --certificate writes, and it verifies
    rng = random.Random(78)
    cases = [(graph([(0, 1)]), graph([(0, 1)])), (frozenset(), frozenset())]
    for _ in range(40):
        n = 2 * rng.randint(1, 25)
        g, planted = planted_perfect(rng, n, min(rng.randint(0, 3), n - 1))
        bound = 4 * len(g)
        gaps = sorted(rng.sample(range(bound), n))
        for label in (
            lambda v: v,
            gaps.__getitem__,
            lambda v: v - n,
            lambda v: bound + 3 * v,
        ):
            cases.append((relabel(g, label), relabel(planted, label)))
    for h, planted in cases:
        m = find_maximum_matching(h)
        assert in_memo(h, m)
        expected = certify_maximality(h, m)
        for given in (m, planted):
            cert = certify_maximality(h, given)
            assert cert == certify_maximality(set(h), given)
            report, problems = verify_certificate(h, given, [], cert.cover)
            assert report.verdict and not problems
        assert certify_maximality(h, m) == expected
        # non-canonical members: a reversed graph pair or matching pair
        flipped = frozenset((b, a) if rng.random() < 0.5 else (a, b) for a, b in m)
        assert certify_maximality(h, flipped) == expected
        if h:
            a, b = min(h)
            reversed_pair = h - {(a, b)} | {(b, a)}
            assert certify_maximality(reversed_pair, m) == expected


def test_counting_ends_the_solve_with_the_outputs_of_a_full_one(phases):
    # An augmenting path ends at two unmatched vertices with edges, so the
    # solve stops once at most one is left, and both certify paths read the
    # cover of such a counted matching off the count, with no phase. A
    # certify of an equal copy of any other matching takes the full path and
    # runs one phase of its own.
    rng = random.Random(79)
    cases = [frozenset(), graph([(0, 1)]), graph([(0, 1), (5, 9)])]
    cases += [graph((i, (i + 1) % n) for i in range(n)) for n in (3, 5, 9, 101)]
    cases += [graph(itertools.combinations(range(2 * k + 1), 2)) for k in range(1, 6)]
    for _ in range(60):
        n = rng.randint(2, 30)
        cases.append(random_graph(rng, n, rng.choice([0.1, 0.2, 0.4]), first=0))
        even = 2 * (n // 2)
        perfect = planted_perfect(rng, even, min(rng.randint(0, 3), even - 1))[0]
        # a pendant vertex: a maximum matching leaves one vertex unmatched
        cases += [perfect, perfect | {edge(rng.randrange(even), even)}]
    for g in cases[:]:
        if g:
            ids = sorted(vertices(g))
            gaps = dict(zip(ids, sorted(rng.sample(range(4 * len(g)), len(ids)))))
            cases += [relabel(g, gaps.__getitem__), relabel(g, lambda v: 3 * v - 4)]
    ended_by_count = 0
    for g in cases:
        phases.clear()
        m = find_maximum_matching(g)
        assert in_memo(g, m)
        solved = len(phases)
        counted = len(vertices(g)) - 2 * len(m) < 2
        # a solve that counting did not end kept the forest of its last phase
        assert counted or solved >= 1
        cert = certify_maximality(g, m)
        assert len(phases) == solved
        ended_by_count += counted
        phases.clear()
        full = certify_maximality(g, frozenset(list(m)))
        assert len(phases) == (0 if counted else 1)
        # the memo is empty now, so this certify takes the full path too
        assert cert == full == certify_maximality(g, m)
    # many counted solves, but not everywhere
    assert len(cases) // 2 < ended_by_count < len(cases)
    odd_cycle = graph((i, (i + 1) % 1001) for i in range(1001))
    for g in (odd_cycle, graph(itertools.combinations(range(5), 2))):
        phases.clear()
        find_maximum_matching(g)
        assert phases == []


def counted_cover_cases() -> list[tuple[frozenset, frozenset | None]]:
    """Graphs, each with a planted maximum matching or None: every 7th graph
    on six vertices, the support families, and the edge cases of the cover
    read off the count."""
    rng = random.Random(82)
    cases = [(g, None) for i, g in enumerate(all_graphs(6)) if i % 7 == 0]
    cases += [(frozenset(), frozenset()), (graph([(0, 1)]), graph([(0, 1)]))]
    cases += [(graph(itertools.combinations(range(2 * k + 1), 2)), None) for k in range(1, 7)]
    cases += [(g, None) for g in (TRIANGLE, PATH4, DEMO7, DEMO12, TAILED_TRIANGLE)]
    cases += [(INTERLEAVED_400, None), (sparse_graph(rng, 300, 3), None)]
    for _ in range(20):
        n = 2 * rng.randint(1, 20)
        cases.append(planted_perfect(rng, n, min(rng.randint(0, 3), n - 1)))
        cases.append(nested_blossoms(rng, rng.randint(1, 6), rng.randint(0, 9), False)[:2])
        cases.append(absorbed_blossom(rng, rng.randint(1, 5), rng.randint(0, 5), False)[:2])
        # a planted matching that is not maximum is left out
        cases.append((augmenting_gadgets(rng, rng.randint(1, 12))[0], None))
        cases.append(stem_with_triangles(rng, rng.randint(0, 9), rng.randint(1, 9))[:2])
    for g, planted in cases[-100:]:
        # isolated ids below 4|E|, and negative ids through the dict
        new = sorted(rng.sample(range(4 * len(g)), len(vertices(g))))
        place = dict(zip(sorted(vertices(g)), new)).__getitem__
        for f in (place, lambda v: v - 50):
            cases.append((relabel(g, f), None if planted is None else relabel(planted, f)))
    return cases


def test_a_counted_solve_is_certified_off_its_count(phases):
    # A matching that leaves at most one vertex with edges unmatched is
    # maximum, and both certify paths read its cover off that count: when
    # all are matched, the smallest vertex with edges alone and one odd set
    # of the rest (the singleton alone for one edge); when one is not, one
    # odd set of every vertex with edges.
    counted = gaps = dicts = 0
    for g, planted in counted_cover_cases():
        phases.clear()
        m = find_maximum_matching(g)
        if len(vertices(g)) - 2 * len(m) >= 2:
            continue
        counted += 1
        _, ids, index, _ = _renumber(g)
        gaps += index is ids and len(ids) > len(vertices(g))
        dicts += type(index) is dict
        solved = len(phases)
        certs = [(m, certify_maximality(g, m)), (m, certify_maximality(g, frozenset(list(m))))]
        if planted is not None:
            certs.append((planted, certify_maximality(g, planted)))
        assert certs[0] == certs[1]
        assert len(phases) == solved
        touched = sorted(vertices(g))
        if len(touched) % 2:
            want = {frozenset(touched)}
        elif len(touched) > 2:
            want = {frozenset(touched[:1]), frozenset(touched[1:])}
        else:  # one edge, or none
            want = {frozenset(touched[:1])} if touched else set()
        for matching, cert in certs:
            assert cert.cover == want
            assert cert.contractions == ()
            sets = list(cert.cover)
            assert sum(map(len, sets)) == len(frozenset().union(*sets))
            report, problems = verify_certificate(g, matching, [], cert.cover)
            assert report.verdict and not problems
    assert counted > 2000 and gaps > 50 and dicts > 50
    phases.clear()
    # a single edge: the singleton of its first end, capacity 1
    cert = certify_maximality(graph([(0, 1)]), frozenset([(0, 1)]))
    assert cert.cover == {frozenset([0])}
    assert verify_certificate(graph([(0, 1)]), [(0, 1)], [], cert.cover)[0].capacity == 1
    assert certify_maximality(frozenset(), frozenset()).cover == frozenset()
    assert phases == []


def test_a_failing_phase_covers_the_unreached_vertices_with_one_rule(phases):
    # a star whose phase fails next to a fully matched K_6 on odd ids that no
    # tree reaches: the star's centre alone, then the K_6's smallest vertex
    # alone and one odd set of its other five
    k6 = range(5, 16, 2)
    base = graph([(0, 1), (0, 2), (0, 3), *itertools.combinations(k6, 2)])
    for shift in (0, -50):  # ids as indices, then through the dict
        g = relabel(base, lambda v: v + shift)
        phases.clear()
        m = find_maximum_matching(g)
        assert len(m) == 4 and len(phases) == 1
        want = {frozenset([shift]), frozenset([k6[0] + shift])}
        want.add(frozenset(v + shift for v in k6[1:]))
        for given in (m, frozenset(list(m))):
            cert = certify_maximality(g, given)
            assert cert.cover == want
            report, problems = verify_certificate(g, given, [], cert.cover)
            assert report.verdict and report.capacity == 4 and not problems


@pytest.fixture(scope="module")
def bench_family_graphs() -> list[frozenset]:
    """The first seed-1 graph of each generator family in the bench
    workloads, told apart by the leading letters of the instance name."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    firsts: dict[str, frozenset] = {}
    for name in workloads.WORKLOADS:
        for inst in workloads.instances(name, 1):
            firsts.setdefault(re.match("[A-Za-z]+", inst.name).group(), inst.graph)
    assert len(firsts) == 8
    return list(firsts.values())


@pytest.fixture
def matching_checks(monkeypatch) -> list:
    """One entry per matching check certify runs: every path but the one
    that reads the cover of its own solve runs one."""
    calls: list = []
    original = blossom.solver._checked_matching

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(blossom.solver, "_checked_matching", counting)
    return calls


def test_certify_after_its_solve_reads_the_solves_cover(matching_checks, bench_family_graphs):
    # the solve's own cover, with no intake and no check, is the one the
    # full path reads off a phase of its own, and both verify
    rng = random.Random(80)
    cases = [
        random_graph(rng, rng.randint(1, 14), rng.choice([0.2, 0.4]), first=0) for _ in range(60)
    ]
    # a frozenset with a pair given (larger, smaller) is canonicalised first
    cases += [sparse_graph(rng, 200, 3), FULLY_MATCHED, frozenset(), frozenset([(3, 1), (1, 2)])]
    # a maximum star K_{1,3} on ids 0, 2, 5 and 7: the unused ids 1, 3, 4
    # and 6 are isolated, so two unmatched vertices with edges remain and
    # both paths read the cover off a phase, not off the count
    cases.append(frozenset([(0, 2), (0, 5), (0, 7)]))
    for i, g in enumerate(cases + bench_family_graphs):
        m = find_maximum_matching(g, trace=[].append if i % 3 == 0 else None)
        assert in_memo(g, m)
        matching_checks.clear()
        own = certify_maximality(g, m)
        assert matching_checks == [] and blossom.solver._last_solve is None
        full = certify_maximality(g, frozenset(list(m)))
        assert matching_checks == [None]
        assert own == full
        for cert in (own, full):
            report, problems = verify_certificate(g, m, list(cert.contractions), cert.cover)
            assert report.verdict and not problems


def test_a_trace_does_not_change_the_solve(phases, bench_family_graphs):
    # one stop rule: a traced solve runs the phases an untraced one runs,
    # and its records are empty exactly when counting ended it before any
    rng = random.Random(81)
    cases = [
        random_graph(rng, rng.randint(1, 30), rng.choice([0.1, 0.2, 0.4]), first=0)
        for _ in range(100)
    ]
    ran = traced_none = 0
    for g in cases + bench_family_graphs:
        records: list[str] = []
        runs = []
        for trace in (None, records.append):
            phases.clear()
            m = find_maximum_matching(g, trace=trace)
            solved = len(phases)
            runs.append((m, solved, certify_maximality(g, m).cover, len(phases)))
        assert runs[0] == runs[1]
        assert (records == []) == (solved == 0)
        ran += solved > 0
        traced_none += solved == 0
    assert ran > 10 and traced_none > 10


@pytest.mark.parametrize("call", ["hit", "other matching", "list graph", "not maximum", "raises"])
def test_every_certify_call_empties_the_memo(call):
    m = find_maximum_matching(DEMO12)
    assert blossom.solver._last_solve is not None
    given = {
        "hit": (DEMO12, m),
        "other matching": (DEMO12, DEMO12_MATCHING),
        "list graph": (sorted(DEMO12), m),
        "not maximum": (DEMO7, DEMO7_MATCHING),
        "raises": (DEMO12, [(1, 2), (2, 3)]),
    }[call]
    if call == "raises":
        with pytest.raises(ValueError, match="^the given edge set is not a matching$"):
            certify_maximality(*given)
    else:
        assert (certify_maximality(*given) is None) == (call == "not maximum")
    assert blossom.solver._last_solve is None


def test_certify_of_an_earlier_solve_takes_the_full_path(matching_checks):
    m1 = find_maximum_matching(DEMO12)
    m2 = find_maximum_matching(TAILED_TRIANGLE)
    cert = certify_maximality(DEMO12, m1)
    assert matching_checks == [None]
    assert cert == certify_maximality(DEMO12, frozenset(list(m1)))
    # the miss emptied the slot, so the later solve's pair misses too
    assert certified(TAILED_TRIANGLE, m2) and len(matching_checks) == 3


def test_only_a_frozenset_solve_fills_the_memo():
    class Edges(frozenset):
        pass

    for g in (sorted(DEMO12), set(DEMO12), iter(DEMO12), Edges(DEMO12)):
        find_maximum_matching(DEMO12)
        find_maximum_matching(g)
        assert blossom.solver._last_solve is None
    # a solve that raises leaves no earlier solve's memo behind
    find_maximum_matching(DEMO12)
    with pytest.raises(ValueError):
        find_maximum_matching(frozenset({(1, 1)}))
    assert blossom.solver._last_solve is None


def test_a_counted_solve_keeps_no_adjacency_in_the_memo():
    # K_301's greedy start leaves one vertex unmatched, so counting ends the
    # solve; what the slot alone holds (g and m stay referenced here) is the
    # certificate function: the 301 ids, not the 45,150-edge adjacency
    # (0.73 MiB); garbage the solve left is collected before the count
    g = graph(itertools.combinations(range(301), 2))
    tracemalloc.start()
    try:
        m = find_maximum_matching(g)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        blossom.solver._last_solve = None
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(m) == 150
    assert freed < 0.05 * 2**20


def test_equal_copies_take_the_full_path(matching_checks):
    expected = certify_maximality(DEMO12, find_maximum_matching(DEMO12))
    for copy_graph in (False, True):
        m = find_maximum_matching(DEMO12)
        g = frozenset(list(DEMO12)) if copy_graph else DEMO12
        given = m if copy_graph else frozenset(list(m))
        assert g is not DEMO12 or given is not m
        matching_checks.clear()
        assert certify_maximality(g, given) == expected
        assert matching_checks == [None]
    # on that path a non-maximum matching is still refused, and so is an
    # edge set that is not a matching
    find_maximum_matching(DEMO7)
    assert certify_maximality(DEMO7, DEMO7_MATCHING) is None
    m = find_maximum_matching(PATH4)
    with pytest.raises(ValueError, match="^the given edge set is not a matching$"):
        certify_maximality(PATH4, m | {(2, 3)})


def test_cli_solve_takes_the_library_flow(tmp_path, monkeypatch, matching_checks):
    # solve --certificate is certify_maximality of the solve's own matching:
    # one intake, no matching check, and certify empties the memo; a solve
    # without a certificate leaves the parsed graph and its matching there
    renumbered: list = []
    original = blossom.solver._renumber

    def recording(g):
        renumbered.append(g)
        return original(g)

    monkeypatch.setattr(blossom.solver, "_renumber", recording)
    monkeypatch.setattr(blossom.solver, "_last_solve", None)
    gpath, cpath = tmp_path / "g.txt", tmp_path / "cert.txt"
    gpath.write_text(dimacs(12, DEMO12))
    assert run_solve(str(gpath), str(cpath), out=io.StringIO(), err=io.StringIO()) == 0
    assert cpath.read_text().startswith("c ")
    assert len(renumbered) == 1 and matching_checks == []
    assert blossom.solver._last_solve is None
    renumbered.clear()
    out = io.StringIO()
    assert run_solve(str(gpath), out=out, err=io.StringIO()) == 0
    (g,) = renumbered
    assert g == graph((a - 1, b - 1) for a, b in DEMO12)
    last = blossom.solver._last_solve
    assert last[0] is g and last[1] == parse_matching_file(out.getvalue(), 12)
    assert matching_checks == []
