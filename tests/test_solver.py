import itertools
import random

import pytest

from blossom import (
    brute_force_augmenting_path,
    brute_force_maximum_matching,
    certify_maximality,
    find_augmenting_path,
    find_maximum_matching,
    graph,
    is_augmenting_path,
    is_matching,
    verify_certificate,
    verify_maximum,
    vertices,
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
    random_graph,
)


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

    for n in (3, 5, 7, 9, 11):
        clique = graph(itertools.combinations(range(n), 2))
        assert len(find_maximum_matching(clique)) == (n - 1) // 2

    # triangles joined by bridges force repeated, nested contractions
    edges = []
    for i in range(5):
        b = 3 * i
        edges += [(b, b + 1), (b + 1, b + 2), (b, b + 2)]
        if i < 4:
            edges.append((b + 2, b + 3))
    chain = graph(edges)
    assert len(find_maximum_matching(chain)) == 7  # 15 vertices, one left over


def test_certify_maximality():
    cert = certify_maximality(DEMO12, DEMO12_MATCHING)
    assert cert is not None
    report = verify_maximum(cert.final_graph, cert.final_matching, cert.cover)
    assert report.verdict
    replay, problems = verify_certificate(
        DEMO12, DEMO12_MATCHING, list(cert.contractions), cert.cover
    )
    assert replay.verdict and not problems
    # a non-maximum matching cannot be certified
    assert certify_maximality(DEMO7, DEMO7_MATCHING) is None


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
