import random

from blossom import (
    AugmentingPath,
    FoundBlossom,
    brute_force_augmenting_path,
    find_path_or_blossom,
    graph,
    is_augmenting_path,
    is_blossom,
    longest_disjoint_prefixes,
)
from support import (
    PATH4,
    TAILED_TRIANGLE,
    TAILED_TRIANGLE_MATCHING,
    TRIANGLE,
    all_graphs,
    all_matchings,
    random_graph,
    random_matching,
)


def test_longest_disjoint_prefixes():
    assert longest_disjoint_prefixes([1, 2, 5, 6], [3, 4, 5, 6]) == ([1, 2, 5], [3, 4, 5])
    assert longest_disjoint_prefixes([2, 1, 3], [3]) == ([2, 1, 3], [3])
    assert longest_disjoint_prefixes([], [1]) == (None, None)
    assert longest_disjoint_prefixes([1], []) == (None, None)
    assert longest_disjoint_prefixes([1, 2], [3, 4]) == (None, None)  # no common element
    assert longest_disjoint_prefixes([1, 2, 3], [9, 2, 3]) == ([1, 2], [9, 2])


def test_longest_disjoint_prefixes_on_long_paths():
    shared = list(range(10_000, 10_010))
    first = list(range(4_990)) + shared
    second = list(range(5_000, 9_990)) + shared
    assert longest_disjoint_prefixes(first, second) == (first[:4_991], second[:4_991])


def test_prefixes_recompose_their_inputs():
    rng = random.Random(31)
    for _ in range(200):
        shared = [rng.randint(100, 120) for _ in range(rng.randint(1, 5))]
        left = rng.sample(range(0, 50), rng.randint(0, 5))
        right = rng.sample(range(50, 100), rng.randint(0, 5))
        p1 = left + shared
        p2 = right + shared
        pfx1, pfx2 = longest_disjoint_prefixes(p1, p2)
        assert pfx1 is not None and pfx2 is not None
        assert pfx1[-1] == pfx2[-1]
        rest1 = p1[len(pfx1) :]
        rest2 = p2[len(pfx2) :]
        assert rest1 == rest2
        assert not set(pfx1[:-1]) & set(pfx2)


def test_assembly_examples():
    assert find_path_or_blossom(PATH4, graph([(2, 3)])) == AugmentingPath([1, 2, 3, 4])
    assert find_path_or_blossom(TRIANGLE, graph([(1, 2)])) == FoundBlossom(
        stem=[], cycle=[3, 1, 2, 3]
    )
    assert find_path_or_blossom(graph([(1, 2)]), frozenset()) == AugmentingPath([1, 2])


def test_fully_unmatched_edge_shortcut_prefers_smallest():
    g = graph([(5, 6), (1, 2), (2, 3)])
    assert find_path_or_blossom(g, frozenset()) == AugmentingPath([1, 2])


def test_blossom_found_through_a_matched_tail():
    found = find_path_or_blossom(TAILED_TRIANGLE, TAILED_TRIANGLE_MATCHING)
    assert found == FoundBlossom(stem=[1, 2], cycle=[3, 5, 4, 3])
    assert is_blossom(TAILED_TRIANGLE, TAILED_TRIANGLE_MATCHING, found.stem, found.cycle)


def test_returned_structures_validate_on_random_instances():
    rng = random.Random(32)
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 12), 0.4)
        m = random_matching(rng, g)
        found = find_path_or_blossom(g, m)
        if isinstance(found, AugmentingPath):
            assert is_augmenting_path(g, m, found.path)
        elif isinstance(found, FoundBlossom):
            assert is_blossom(g, m, found.stem, found.cycle)


def test_nothing_found_means_no_augmenting_path():
    for g in all_graphs(5):
        for m in all_matchings(g):
            if find_path_or_blossom(g, m) is None:
                assert brute_force_augmenting_path(g, m) is None
    rng = random.Random(33)
    for _ in range(500):
        g = random_graph(rng, 6, rng.choice([0.2, 0.4, 0.6, 0.8]))
        m = random_matching(rng, g)
        if find_path_or_blossom(g, m) is None:
            assert brute_force_augmenting_path(g, m) is None


def test_blossom_found_whenever_neither_side_finds_a_path():
    # when the oracle sees an augmenting path, the assembler must return
    # something (a path or a blossom to contract), never nothing
    rng = random.Random(34)
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 10), 0.5)
        m = random_matching(rng, g)
        if brute_force_augmenting_path(g, m) is not None:
            assert find_path_or_blossom(g, m) is not None
