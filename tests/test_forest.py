import random

import pytest

from blossom import (
    InvariantViolation,
    Label,
    Parity,
    SearchState,
    build_odd_set_cover,
    check_search_invariants,
    follow,
    graph,
    run_search,
    verify_maximum,
)
from support import PATH4, TRIANGLE, random_graph, random_matching


def test_follow():
    assert follow({2: 1}, 2) == [2, 1]
    assert follow({}, 7) == [7]
    assert follow({3: 2, 2: 1}, 3) == [3, 2, 1]


def test_follow_detects_parent_cycles():
    with pytest.raises(InvariantViolation):
        follow({1: 2, 2: 1}, 1)


def test_search_examples():
    assert run_search(PATH4, graph([(2, 3)])).paths == ([3, 2, 1], [4])
    assert run_search(TRIANGLE, graph([(1, 2)])).paths == ([2, 1, 3], [3])
    single = graph([(1, 2)])
    assert run_search(single, single).paths is None


def test_search_rejects_bad_matchings():
    with pytest.raises(ValueError):
        run_search(PATH4, graph([(1, 2), (2, 3)]))
    with pytest.raises(ValueError):
        run_search(PATH4, graph([(8, 9)]))


def test_search_is_deterministic():
    rng = random.Random(21)
    for _ in range(50):
        g = random_graph(rng, 10, 0.4)
        m = random_matching(rng, g)
        first = run_search(g, m)
        second = run_search(g, m)
        assert first.paths == second.paths
        assert first.state.labels == second.state.labels
        assert first.state.examined == second.state.examined


def test_trace_records_each_examined_edge():
    lines: list[str] = []
    run_search(PATH4, graph([(2, 3)]), trace=lines.append)
    assert lines
    assert all(line.split()[0] in ("grow", "found", "skip") for line in lines)
    assert lines[-1].startswith("found")


def test_cover_for_fully_matched_single_edge():
    single = graph([(1, 2)])
    outcome = run_search(single, single)
    assert outcome.paths is None
    cover = build_odd_set_cover(single, single, outcome.state)
    assert cover == frozenset({frozenset({1})})
    assert verify_maximum(single, single, cover).verdict


def test_cover_for_perfectly_matched_path():
    m = graph([(1, 2), (3, 4)])
    outcome = run_search(PATH4, m)
    assert outcome.paths is None
    cover = build_odd_set_cover(PATH4, m, outcome.state)
    report = verify_maximum(PATH4, m, cover)
    assert report.verdict
    assert report.capacity == 2


def test_cover_rejects_unfinished_search_state():
    star = graph([(1, 2), (1, 3), (1, 4)])
    outcome = run_search(star, frozenset())
    assert outcome.paths is not None  # stopped early on an even-even edge
    with pytest.raises(InvariantViolation):
        build_odd_set_cover(star, frozenset(), outcome.state)


def test_invariants_hold_during_random_searches():
    rng = random.Random(22)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 12), 0.45)
        m = random_matching(rng, g)
        run_search(g, m, check_invariants=True)


def test_invariant_checker_catches_corruption():
    outcome = run_search(PATH4, graph([(2, 3)]))
    state = outcome.state
    state.labels[2] = Label(1, Parity.EVEN)  # 2 sits at odd depth below root 1
    with pytest.raises(InvariantViolation):
        check_search_invariants(PATH4, graph([(2, 3)]), state)
    fresh = SearchState()
    fresh.parent[5] = 6  # parents must be labelled
    with pytest.raises(InvariantViolation):
        check_search_invariants(graph([(5, 6)]), frozenset(), fresh)
