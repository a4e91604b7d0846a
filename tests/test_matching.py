import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blossom import (
    augment,
    edges_of_path,
    graph,
    is_alternating,
    is_augmenting_path,
    is_matching,
    is_path,
    is_simple,
    symmetric_difference,
    vertices,
)
from support import (
    DEMO7,
    DEMO7_MATCHING,
    DEMO12_MATCHING,
    PATH4,
    component_as_path,
    component_edges,
    connected_components,
    degree,
    random_graph,
    random_matching,
)


def test_is_matching():
    assert is_matching(graph([(1, 2), (3, 4)]))
    assert not is_matching(graph([(1, 2), (2, 3)]))
    assert is_matching(DEMO12_MATCHING)
    assert is_matching(frozenset())


def test_is_alternating():
    odd = lambda x: x % 2 == 1
    even = lambda x: x % 2 == 0
    assert is_alternating(odd, even, [1, 2, 3, 4])
    assert is_alternating(odd, even, [])
    assert not is_alternating(odd, even, [2, 1])
    in_m = lambda e: e in DEMO7_MATCHING
    out_m = lambda e: e not in DEMO7_MATCHING
    assert is_alternating(out_m, in_m, edges_of_path([1, 2, 3, 4, 5, 6]))


alternating_int_lists = st.integers(min_value=0, max_value=30).map(
    lambda n: [i % 2 for i in range(1, n + 1)]
)


@given(alternating_int_lists)
def test_alternation_length_laws(seq):
    # with complementary predicates, the first predicate's count leads by the
    # length's parity
    one = lambda x: x == 1
    zero = lambda x: x == 0
    assert is_alternating(one, zero, seq)
    ones = seq.count(1)
    zeros = seq.count(0)
    assert ones - zeros in (0, 1)
    assert (ones == zeros) == (len(seq) % 2 == 0)
    assert (ones == zeros + 1) == (len(seq) % 2 == 1)


def test_is_augmenting_path():
    assert is_augmenting_path(DEMO7, DEMO7_MATCHING, [1, 2, 3, 4, 5, 6])
    assert is_augmenting_path(PATH4, graph([(2, 3)]), [1, 2, 3, 4])
    # [1,2,3,7] alternates out-in-out and both ends are unmatched, so it is a
    # genuine augmenting path; augmenting along it checks out below
    assert is_augmenting_path(DEMO7, DEMO7_MATCHING, [1, 2, 3, 7])
    bigger = augment(DEMO7_MATCHING, [1, 2, 3, 7])
    assert is_matching(bigger) and len(bigger) == 3
    # rejected: ends at a matched vertex, leaves the graph, repeats a vertex
    assert not is_augmenting_path(DEMO7, DEMO7_MATCHING, [1, 2, 3, 4])
    assert not is_augmenting_path(DEMO7, DEMO7_MATCHING, [1, 2, 3, 5])
    assert not is_augmenting_path(PATH4, graph([(2, 3)]), [1, 3])
    assert not is_augmenting_path(DEMO7, DEMO7_MATCHING, [1, 2, 3, 4, 3, 7])
    assert not is_augmenting_path(DEMO7, DEMO7_MATCHING, [1])


def test_augment_examples():
    assert augment(DEMO7_MATCHING, [1, 2, 3, 4, 5, 6]) == graph(
        [(1, 2), (3, 4), (5, 6)]
    )
    assert augment(frozenset(), [1, 2]) == graph([(1, 2)])
    assert augment(graph([(2, 3)]), [1, 2, 3, 4]) == graph([(1, 2), (3, 4)])


def test_augment_rejects_non_augmenting_input():
    with pytest.raises(ValueError):
        augment(graph([(2, 3)]), [1, 2])  # ends at the matched vertex 2


def test_augment_grows_by_one_and_stays_matching():
    rng = random.Random(42)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 10), 0.5)
        m = random_matching(rng, g)
        from blossom import brute_force_augmenting_path

        p = brute_force_augmenting_path(g, m)
        if p is None:
            continue
        out = augment(m, p)
        assert is_matching(out)
        assert len(out) == len(m) + 1
        assert out <= g


def test_symmetric_difference():
    e = graph([(1, 2)])
    assert symmetric_difference(e, e) == frozenset()
    assert symmetric_difference(e, frozenset()) == e
    assert symmetric_difference(
        DEMO7_MATCHING, edges_of_path([1, 2, 3, 4, 5, 6])
    ) == graph([(1, 2), (3, 4), (5, 6)])


def test_symmetric_difference_of_two_matchings_arranges_into_paths():
    # every vertex of the difference touches at most one edge per matching,
    # and any component where the second matching leads arranges into a
    # simple alternating path beginning and ending with its edges
    rng = random.Random(7)
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 10), 0.45)
        m1 = random_matching(rng, g)
        m2 = random_matching(rng, g)
        diff = symmetric_difference(m1, m2)
        for v in vertices(diff):
            assert degree(diff, v) <= 2
        for comp in connected_components(diff):
            part = component_edges(diff, comp)
            if len(part & m2) <= len(part & m1):
                continue
            p = component_as_path(diff, comp)
            assert is_simple(p) and is_path(diff, p)
            assert frozenset(edges_of_path(p)) == part
            assert is_alternating(
                lambda e: e in m2, lambda e: e in m1, edges_of_path(p)
            )
