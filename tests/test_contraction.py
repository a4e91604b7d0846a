import random

import pytest

from blossom import (
    ContractionMap,
    brute_force_augmenting_path,
    cycle_segment,
    fresh_vertex,
    graph,
    is_augmenting_path,
    is_blossom,
    is_matching,
    is_odd_cycle,
    lift_path,
    prefix_until,
    quotient_graph,
    splice_cycle,
    vertices,
)
from support import (
    DEMO7,
    DEMO7_MATCHING,
    TRIANGLE,
    random_blossom_instance,
)


def test_fresh_vertex():
    assert fresh_vertex({1, 2, 3}) == 4
    assert fresh_vertex(set()) == 0
    assert fresh_vertex({0, 7}) == 8


def test_contraction_map_rejects_target_inside_kept():
    with pytest.raises(ValueError):
        ContractionMap(frozenset({1, 2}), 1)


def test_quotient_graph_examples():
    cmap = ContractionMap(frozenset({1, 2, 6, 7}), 8)
    assert quotient_graph(cmap, DEMO7) == graph([(1, 2), (2, 8), (8, 6), (8, 7)])
    assert quotient_graph(cmap, DEMO7_MATCHING) == graph([(2, 8)])
    identity = ContractionMap(frozenset(vertices(DEMO7)), 99)
    assert quotient_graph(identity, DEMO7) == DEMO7


def test_quotient_keeps_edges_inside_the_kept_set():
    rng = random.Random(11)
    for _ in range(100):
        g, m, stem, cycle = random_blossom_instance(rng)
        target = fresh_vertex(vertices(g))
        cmap = ContractionMap(frozenset(vertices(g) - set(cycle)), target)
        qg = quotient_graph(cmap, g)
        inside = {e for e in g if e[0] in cmap.kept and e[1] in cmap.kept}
        assert inside <= qg
        assert all(target in e or e in inside for e in qg)
        assert all(e[0] != e[1] for e in qg)  # the collapsed loop never survives


def test_quotient_of_matching_is_a_matching():
    rng = random.Random(12)
    for _ in range(200):
        g, m, stem, cycle = random_blossom_instance(rng)
        target = fresh_vertex(vertices(g))
        cmap = ContractionMap(frozenset(vertices(g) - set(cycle)), target)
        qm = quotient_graph(cmap, m)
        assert is_matching(qm)
        assert qm <= quotient_graph(cmap, g)


def test_is_odd_cycle():
    assert is_odd_cycle([3, 4, 5, 3])
    assert not is_odd_cycle([1, 2, 1])
    assert not is_odd_cycle([1, 2, 3])
    assert not is_odd_cycle([1, 2, 3, 4, 1])


def test_is_blossom():
    assert is_blossom(DEMO7, DEMO7_MATCHING, [1, 2], [3, 4, 5, 3])
    assert is_blossom(TRIANGLE, graph([(1, 2)]), [], [3, 1, 2, 3])
    assert not is_blossom(DEMO7, DEMO7_MATCHING, [1], [3, 4, 5, 3])
    assert not is_blossom(DEMO7, DEMO7_MATCHING, [], [3, 4, 5, 3])  # base matched
    assert not is_blossom(DEMO7, frozenset(), [1, 2], [3, 4, 5, 3])  # no alternation
    # an edge set that is not a matching has no blossom, even where the walk
    # alternates: an odd stem into an odd cycle gives the base two partners
    assert not is_blossom(DEMO7, DEMO7_MATCHING | {(5, 6)}, [1, 2], [3, 4, 5, 3])
    assert not is_blossom(TRIANGLE | {(0, 1)}, graph([(1, 2), (1, 3)]), [0], [1, 2, 3, 1])


def test_prefix_until():
    assert prefix_until(lambda x: x == 2, [1, 2, 3]) == [1, 2]
    assert prefix_until(lambda x: x == 9, [1, 2, 3]) == [1, 2, 3]
    assert prefix_until(lambda x: x == 5, [5, 6]) == [5]
    assert prefix_until(lambda x: True, []) == []


def test_cycle_segment():
    assert cycle_segment([3, 4, 5, 3], DEMO7_MATCHING, 6, DEMO7) == [3, 4, 5]
    # forward prefix [3,1] ends on an unmatched edge, so the reversed cycle
    # is used instead
    pendant = TRIANGLE | {(1, 4)}
    assert cycle_segment([3, 1, 2, 3], graph([(1, 2)]), 4, pendant) == [3, 2, 1]
    with pytest.raises(ValueError):
        cycle_segment([3, 4, 5, 3], DEMO7_MATCHING, 9, DEMO7)


def test_splice_cycle_branches():
    # middle split, entered through the matching edge at the tail side
    assert splice_cycle([3, 4, 5, 3], DEMO7_MATCHING, [1, 2], [6], DEMO7) == [
        1,
        2,
        3,
        4,
        5,
        6,
    ]
    # empty head: start inside the cycle
    no_one = DEMO7 - {(1, 2)}
    assert splice_cycle([3, 4, 5, 3], DEMO7_MATCHING, [], [6], no_one) == [3, 4, 5, 6]
    # empty tail mirrors the empty head
    assert splice_cycle([3, 4, 5, 3], DEMO7_MATCHING, [6], [], DEMO7) == [3, 4, 5, 6]


def test_lift_path():
    assert lift_path([3, 4, 5, 3], DEMO7_MATCHING, [1, 2, 8, 6], DEMO7, 8) == [
        1,
        2,
        3,
        4,
        5,
        6,
    ]
    # a path avoiding the contracted vertex comes back unchanged
    spare = DEMO7 | {(9, 10)}
    assert lift_path([3, 4, 5, 3], DEMO7_MATCHING, [9, 10], spare, 8) == [9, 10]


def test_lift_path_of_only_the_contracted_vertex_is_refused():
    # no head and no tail: a ValueError, not an IndexError from the splice
    triangle = graph([(1, 2), (2, 3), (1, 3)])
    with pytest.raises(ValueError, match="only the contracted vertex"):
        lift_path([1, 2, 3, 1], graph([(1, 2)]), [9], triangle, 9)
    with pytest.raises(ValueError, match="only the contracted vertex"):
        splice_cycle([1, 2, 3, 1], graph([(1, 2)]), [], [], triangle)


def test_contraction_preserves_augmenting_paths_both_ways():
    rng = random.Random(13)
    lifted = 0
    for _ in range(300):
        g, m, stem, cycle = random_blossom_instance(rng)
        target = fresh_vertex(vertices(g))
        cmap = ContractionMap(frozenset(vertices(g) - set(cycle)), target)
        qg = quotient_graph(cmap, g)
        qm = quotient_graph(cmap, m)
        original = brute_force_augmenting_path(g, m)
        quotient = brute_force_augmenting_path(qg, qm)
        if original is not None:
            assert quotient is not None
        if quotient is not None:
            for p in (quotient, list(reversed(quotient))):
                back = lift_path(cycle, m, p, g, target)
                assert is_augmenting_path(g, m, back)
            lifted += 1
    assert lifted > 0
