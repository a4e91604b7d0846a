"""End-to-end acceptance checks.

Each test prints one PASS line when its criterion holds (run with ``-s`` to
see them); a pytest failure marks the criterion failed.
"""

import random
import time

from blossom import (
    ContractionMap,
    FoundBlossom,
    augment,
    brute_force_augmenting_path,
    brute_force_maximum_matching,
    build_odd_set_cover,
    certify_maximality,
    find_maximum_matching,
    find_path_or_blossom,
    fresh_vertex,
    graph,
    is_alternating,
    is_augmenting_path,
    is_matching,
    lift_path,
    quotient_graph,
    run_search,
    verify_maximum,
    vertices,
)
from support import (
    DEMO7,
    DEMO7_MATCHING,
    DEMO12,
    TRIANGLE,
    all_graphs,
    all_matchings,
    random_blossom_instance,
    random_graph,
    random_matching,
)

EDGE_PROBABILITIES = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def test_a1_exhaustive_equivalence_with_bruteforce():
    start = time.perf_counter()
    count = 0
    for g in all_graphs(6):
        m = find_maximum_matching(g)
        assert len(m) == len(brute_force_maximum_matching(g))
        cert = certify_maximality(g, m)
        assert cert is not None and verify_maximum(g, m, cert.cover).verdict
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 32768
    assert elapsed < 300.0
    print(f"A1: PASS ({count} graphs on <= 6 vertices, each certified, in {elapsed:.1f}s)")


def test_a2_randomized_equivalence_and_berge_check():
    rng = random.Random(9157)
    for _ in range(500):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.choice(EDGE_PROBABILITIES))
        m = find_maximum_matching(g)
        assert len(m) == len(brute_force_maximum_matching(g))
        assert brute_force_augmenting_path(g, m) is None
    print("A2: PASS (500 random graphs, n <= 14, sizes match, no augmenting path)")


def test_a3_fixture_facts():
    assert len(find_maximum_matching(DEMO12)) == 5
    assert len(find_maximum_matching(DEMO7)) == 3
    assert augment(DEMO7_MATCHING, [1, 2, 3, 4, 5, 6]) == graph(
        [(1, 2), (3, 4), (5, 6)]
    )
    print("A3: PASS (12-vertex fixture -> 5, 7-vertex fixture -> 3, augmentation exact)")


def _contract(g, m, cycle):
    target = fresh_vertex(vertices(g))
    cmap = ContractionMap(frozenset(vertices(g) - set(cycle)), target)
    return quotient_graph(cmap, g), quotient_graph(cmap, m), target


def test_a4_contraction_preserves_augmenting_paths():
    rng = random.Random(4242)
    preserved = 0
    for _ in range(1000):
        g, m, stem, cycle = random_blossom_instance(rng)
        qg, qm, _ = _contract(g, m, cycle)
        if brute_force_augmenting_path(g, m) is not None:
            assert brute_force_augmenting_path(qg, qm) is not None
            preserved += 1
    assert preserved > 0
    print(f"A4: PASS (1000 blossom instances, {preserved} with paths, all preserved)")


def test_a5_lifted_quotient_paths_augment_the_original():
    rng = random.Random(5353)
    lifted = 0
    for _ in range(1000):
        g, m, stem, cycle = random_blossom_instance(rng)
        qg, qm, target = _contract(g, m, cycle)
        quotient_path = brute_force_augmenting_path(qg, qm)
        if quotient_path is not None:
            # both orientations are augmenting paths of the contracted graph,
            # and both must lift
            for p in (quotient_path, list(reversed(quotient_path))):
                back = lift_path(cycle, m, p, g, target)
                assert is_augmenting_path(g, m, back)
            lifted += 1
    assert lifted > 0
    print(f"A5: PASS (1000 blossom instances, {lifted} quotient paths lifted)")


def test_a6_search_invariants_hold_on_random_instances():
    rng = random.Random(6001)
    for _ in range(200):
        n = rng.randint(1, 20)
        g = random_graph(rng, n, rng.choice(EDGE_PROBABILITIES))
        m = random_matching(rng, g)
        run_search(g, m, check_invariants=True)  # raises on any violation
    print("A6: PASS (200 random searches, n <= 20, every state checked)")


def _check_failing_chain(g, enumerate_matchings):
    m = find_maximum_matching(g)
    cur_g, cur_m = g, m
    for _ in range(len(vertices(g)) + 2):
        found = find_path_or_blossom(cur_g, cur_m)
        if found is None:
            state = run_search(cur_g, cur_m).state
            cover = build_odd_set_cover(cur_g, cur_m, state)
            report = verify_maximum(cur_g, cur_m, cover)
            assert report.verdict
            if enumerate_matchings:
                for other in all_matchings(cur_g):
                    assert len(other) <= report.capacity
            return
        assert isinstance(found, FoundBlossom), "maximum matching still augmentable"
        cur_g, cur_m, _ = _contract(cur_g, cur_m, found.cycle)
    raise AssertionError("contraction chain did not terminate")


def test_a7_every_failed_search_certifies():
    count = 0
    for g in all_graphs(6):
        _check_failing_chain(g, enumerate_matchings=True)
        count += 1
    rng = random.Random(9157)
    for _ in range(500):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.choice(EDGE_PROBABILITIES))
        _check_failing_chain(g, enumerate_matchings=False)
        count += 1
    print(f"A7: PASS ({count} instances, covers valid, capacity = matching size, weak duality)")


def test_a8_triangle_blossom_structure():
    found = find_path_or_blossom(TRIANGLE, graph([(1, 2)]))
    assert found == FoundBlossom(stem=[], cycle=[3, 1, 2, 3])
    print("A8: PASS (triangle yields the blossom stem=[], cycle=[3, 1, 2, 3])")


def test_a9_termination_and_speed_on_a_larger_graph():
    rng = random.Random(20080)
    g = random_graph(rng, 200, 0.1)
    start = time.perf_counter()
    m = find_maximum_matching(g)  # contraction depth bounded internally
    elapsed = time.perf_counter() - start
    assert is_matching(m) and m <= g
    assert elapsed < 5.0
    print(f"A9: PASS (n=200, p=0.1: {len(m)} edges in {elapsed:.2f}s)")


def test_a10_alternation_length_laws():
    rng = random.Random(1010)
    odd = lambda x: x % 2 == 1
    even = lambda x: x % 2 == 0
    for _ in range(10000):
        length = rng.randint(0, 40)
        seq = [2 * rng.randint(0, 9) + (1 - i % 2) for i in range(length)]
        assert is_alternating(odd, even, seq)
        ones = sum(1 for x in seq if odd(x))
        evens = length - ones
        assert ones - evens in (0, 1)
        assert (ones == evens) == (length % 2 == 0)
        assert (ones == evens + 1) == (length % 2 == 1)
    print("A10: PASS (10000 alternating sequences satisfy the length laws)")
