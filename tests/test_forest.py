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
from blossom.forest import leftover_cover
from support import PATH4, TRIANGLE, checked_search, random_graph, random_matching


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
    # 3 and 5 turn even, so the edge (3, 4) meets the odd 4 and is skipped
    lines.clear()
    g = graph([(1, 2), (2, 3), (1, 4), (4, 5), (3, 4)])
    outcome = run_search(g, graph([(2, 3), (4, 5)]), trace=lines.append)
    assert outcome.paths is None
    assert lines == [
        "grow 1 2 label 2 odd 1 label 3 even 1 parent 2 1 parent 3 2",
        "grow 1 4 label 4 odd 1 label 5 even 1 parent 4 1 parent 5 4",
        "skip 3 4",
    ]


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


def test_leftover_cover_takes_the_matched_vertices_in_order():
    # the first vertex alone, and one odd set of the rest when more than one
    assert leftover_cover([]) == []
    assert leftover_cover(iter([4, 2])) == [frozenset({4})]
    assert leftover_cover([1, 2, 3, 6, 7, 9]) == [frozenset({1}), frozenset({2, 3, 6, 7, 9})]
    m = graph([(1, 2), (3, 6), (7, 9)])
    sets = leftover_cover(v for e in sorted(m) for v in e)
    assert verify_maximum(m | {(2, 3), (6, 9)}, m, sets).verdict


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
        checked_search(g, m)


def test_invariants_hold_on_the_state_a_search_returns():
    # a search that stops at a path leaves the joining edge unexamined
    m = graph([(2, 3)])
    outcome = run_search(PATH4, m)
    assert outcome.paths == ([3, 2, 1], [4])
    assert (3, 4) not in outcome.state.examined
    check_search_invariants(PATH4, m, outcome.state)
    rng = random.Random(23)
    stopped = 0
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 12), 0.45)
        m = random_matching(rng, g)
        outcome = run_search(g, m)
        check_search_invariants(g, m, outcome.state)
        stopped += outcome.paths is not None
    assert stopped


E, O = Parity.EVEN, Parity.ODD

# One corrupted state per rule of check_search_invariants: (graph, matching,
# labels as vertex: (root, parity) in the order they are checked, parent,
# examined, the rule's message). Each passes every earlier rule.
CORRUPTIONS = [
    # 1 -> 3 is not an edge
    ([(1, 2), (3, 4)], [], {1: (1, E), 3: (1, O)}, {3: 1}, [],
     "a root-ward chain leaves the graph"),
    ([(1, 2)], [], {9: (9, E)}, {}, [],
     "a labelled vertex does not occur in the graph"),
    ([(1, 2)], [(1, 2)], {1: (1, E)}, {}, [],
     "a root-ward chain ends at a matched vertex"),
    ([(1, 2)], [], {1: (1, O)}, {}, [],
     "a root-ward chain does not end at an even-labelled root"),
    ([(1, 2), (2, 3)], [(2, 3)], {1: (1, E), 2: (5, O)}, {2: 1}, [],
     "a chain crosses trees or reaches an unlabelled vertex"),
    # 3 reaches 2 over an edge outside the matching
    ([(1, 2), (2, 3)], [], {1: (1, E), 2: (1, O), 3: (1, E)}, {2: 1, 3: 2}, [],
     "an even-to-odd chain step is not a matching edge"),
    # 4 is odd, so its chain skips the alternation check
    (PATH4, [(3, 4)], {4: (1, O), 1: (1, E), 2: (1, O), 3: (1, E)}, {2: 1, 3: 2, 4: 3}, [],
     "an odd-to-even chain step is a matching edge"),
    ([(1, 2), (2, 3)], [], {3: (1, O), 1: (1, E), 2: (1, O)}, {2: 1, 3: 2}, [],
     "adjacent chain vertices share a parity"),
    ([(1, 2), (2, 3)], [(2, 3)], {1: (1, E), 2: (1, O)}, {2: 1}, [],
     "a matching edge has exactly one labelled endpoint"),
    ([(1, 2), (2, 3)], [(2, 3)], {1: (1, E), 2: (1, O), 3: (1, E)}, {2: 1, 3: 2}, [],
     "a matching edge with labelled endpoints was not examined"),
    # both ends of (2, 3) are odd children of 1
    (TRIANGLE, [(2, 3)], {1: (1, E), 2: (1, O), 3: (1, O)}, {2: 1, 3: 1}, [(2, 3)],
     "a matching edge is not labelled even/odd within one tree"),
    ([(1, 2)], [(1, 2)], {}, {}, [(1, 2)],
     "an examined matching edge has unlabelled endpoints"),
    ([(1, 2)], [], {1: (1, E), 2: (2, E)}, {}, [(1, 2)],
     "an examined edge has no odd-labelled endpoint"),
    ([(1, 2), (2, 3)], [], {1: (1, E), 2: (1, O)}, {2: 1}, [(1, 2)],
     "odd-labelled vertex count differs from the examined matching edges"),
    # 4 is unlabelled, and its only edge (2, 4) is examined
    ([(1, 2), (2, 3), (2, 4)], [(2, 3)], {1: (1, E), 2: (1, O), 3: (1, E)}, {2: 1, 3: 2},
     [(2, 3), (2, 4)], "an unlabelled vertex has all of its edges examined"),
    # 2 is odd, but every examined edge is one of 3's two matching edges
    ([(1, 2), (1, 3), (3, 4), (3, 5)], [(3, 4), (3, 5)],
     {1: (1, E), 2: (1, O), 3: (1, O), 4: (1, E), 5: (1, E)}, {2: 1, 3: 1, 4: 3, 5: 3},
     [(3, 4), (3, 5)], "an odd-labelled vertex touches no examined graph edge"),
]


def test_invariant_checker_catches_corruption():
    outcome = run_search(PATH4, graph([(2, 3)]))
    state = outcome.state
    state.labels[2] = Label(1, Parity.EVEN)  # 2 sits at odd depth below root 1
    message = "^labels along a chain do not alternate within one tree$"
    with pytest.raises(InvariantViolation, match=message):
        check_search_invariants(PATH4, graph([(2, 3)]), state)
    fresh = SearchState()
    fresh.parent[5] = 6  # parents must be labelled
    message = "^an unlabelled vertex is recorded as a parent$"
    with pytest.raises(InvariantViolation, match=message):
        check_search_invariants(graph([(5, 6)]), frozenset(), fresh)
    for g, m, labels, parent, examined, message in CORRUPTIONS:
        state = SearchState(
            set(examined), dict(parent), {v: Label(*lab) for v, lab in labels.items()}
        )
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            check_search_invariants(graph(g), graph(m), state)
    # a root-ward chain that comes back to a vertex goes round a parent
    # cycle, which follow() reports
    state = SearchState(set(), {1: 2, 2: 1}, {1: Label(1, E), 2: Label(1, O)})
    with pytest.raises(InvariantViolation, match="^parent relation has a cycle$"):
        check_search_invariants(graph([(1, 2)]), frozenset(), state)
