import random
import time
import tracemalloc

import pytest

from blossom import (
    ContractionStep,
    capacity,
    certify_maximality,
    cover_capacity,
    covers,
    find_maximum_matching,
    format_certificate,
    graph,
    is_odd_set_cover,
    parse_certificate,
    verify_certificate,
    verify_maximum,
    vertices,
)
from support import (
    DEMO12,
    DEMO12_MATCHING,
    TRIANGLE,
    all_graphs,
    all_matchings,
    contraction_chain,
    random_blossom_instance,
    random_graph,
    random_history,
    random_matching,
    reference_certificate,
    reference_verify_certificate,
)


def reversed_pairs(edges):
    """The edges with every pair given as (larger, smaller)."""
    return [(b, a) for a, b in edges]


def test_capacity():
    assert capacity({7}) == 1
    assert capacity({1, 2, 3, 4, 5}) == 2
    assert capacity({1, 2, 3}) == 1
    with pytest.raises(ValueError):
        capacity({1, 2})


def test_covers():
    assert covers({2}, (2, 3))
    assert not covers({1, 2, 3}, (2, 9))
    assert covers({1, 2, 3}, (1, 3))
    assert not covers({5}, (2, 3))
    with pytest.raises(ValueError):
        covers({1, 2}, (1, 2))


def test_is_odd_set_cover():
    assert is_odd_set_cover([{1}, {2}], TRIANGLE)
    assert not is_odd_set_cover([{1}], TRIANGLE)  # (2,3) uncovered
    assert not is_odd_set_cover([{1, 2}, {3}], TRIANGLE)  # even member
    assert is_odd_set_cover([], frozenset())


def random_cover(rng, shape):
    """Odd and sometimes even members on 1..9: singletons anywhere, inside
    larger sets too, and no, one or several larger sets, either cut apart
    or drawn independently, so that several may overlap."""
    cover = [frozenset({v}) for v in rng.sample(range(1, 10), rng.randint(0, 4))]
    pool = rng.sample(range(1, 10), 9)
    for _ in range({"singletons": 0, "one": 1}.get(shape, rng.randint(2, 3))):
        size = rng.choice([3, 3, 5])
        if shape == "disjoint":
            if len(pool) < size:
                break
            cover.append(frozenset(pool[:size]))
            del pool[:size]
        else:
            cover.append(frozenset(rng.sample(range(1, 10), size)))
    if rng.random() < 0.1:
        cover.append(frozenset(rng.sample(range(1, 10), rng.choice([0, 2, 4]))))
    rng.shuffle(cover)
    return cover


def test_is_odd_set_cover_matches_its_definition():
    # random covers of every shape the check tells apart, against the
    # definition: every member odd, every edge covered by some member; the
    # verifier's capacity is that of the odd members
    rng = random.Random(62)
    branches = set()
    for i in range(1200):
        g = random_graph(rng, rng.randint(0, 9), 0.4)
        cover = random_cover(rng, ("singletons", "one", "disjoint", "overlapping")[i % 4])
        odd = all(len(s) % 2 == 1 for s in cover)
        expected = odd and all(any(covers(s, e) for s in cover) for e in g)
        given = reversed_pairs(g) if i % 3 == 0 else g
        assert is_odd_set_cover(cover, given) == expected
        assert is_odd_set_cover((s for s in cover), iter(given)) == expected
        report = verify_certificate(given, (), (), (s for s in cover))[0]
        assert report.cover_ok == expected
        assert report.capacity == sum(capacity(s) for s in cover if len(s) % 2)
        # the edge loop taken: no larger set, one, or several that are
        # disjoint or overlap
        larger = [v for s in cover if len(s) > 1 for v in s]
        if not odd:
            shape = "even"
        elif not larger:
            shape = "singletons"
        elif sum(len(s) > 1 for s in cover) == 1:
            shape = "one"
        elif len(set(larger)) == len(larger):
            shape = "disjoint"
        else:
            shape = "overlapping"
        branches.add((shape, expected))
    assert branches == {("even", False)} | {
        (shape, verdict)
        for shape in ("singletons", "one", "disjoint", "overlapping")
        for verdict in (True, False)
    }


def test_is_odd_set_cover_hand_cases():
    # 3 lies in two larger sets; (3, 4) is covered only by the second
    overlapping = [{1, 2, 3}, {3, 4, 5}]
    assert is_odd_set_cover(overlapping, graph([(1, 3), (3, 4)]))
    assert is_odd_set_cover(overlapping[::-1], graph([(1, 3), (3, 4)]))
    assert not is_odd_set_cover(overlapping, graph([(1, 3), (3, 4), (2, 4)]))
    # both ends in larger sets, but in different ones
    assert not is_odd_set_cover([{1, 2, 3}, {4, 5, 6}], graph([(1, 2), (3, 4)]))
    assert not is_odd_set_cover([{1, 2, 3}, {3, 4, 5}, {5, 6, 7}], graph([(1, 6)]))
    assert is_odd_set_cover([{1, 2, 3}, {4, 5, 6}, {4}], graph([(1, 2), (3, 4)]))
    # a singleton inside the one larger set still covers edges leaving it
    assert is_odd_set_cover([{1, 2, 3}, {3}], [(3, 4), (4, 3), (1, 2)])
    assert not is_odd_set_cover([{1, 2, 3}, {1}], [(3, 4)])
    # the empty cover covers only the empty graph; an even member fails
    # whatever the graph, and its capacity is left out
    assert is_odd_set_cover([], frozenset()) and is_odd_set_cover([{1, 2, 3}], ())
    assert not is_odd_set_cover([], [(1, 2)])
    assert not is_odd_set_cover([{1, 2, 3}, {4, 5}], ())
    assert not is_odd_set_cover([{1}, set()], ())
    report = verify_maximum((), (), iter([{1, 2, 3}, {4, 5}, {6}]))
    assert not report.cover_ok and report.capacity == 2
    report = verify_maximum((), (), [])
    assert report.verdict and report.capacity == 0


def test_overlapping_larger_sets_are_decided_through_the_holder_map():
    # each vertex maps to the larger sets that hold it, so an edge is
    # covered by a larger set when one set of one end holds the other; two
    # ends that only share a set's neighbour are not covered
    g = graph([(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)])
    assert is_odd_set_cover([{1, 2, 3}, {4, 5, 6}, {3}], g)
    assert not is_odd_set_cover([{1, 2, 3}, {4, 5, 6}], g)
    assert is_odd_set_cover([{1, 2, 3}, {3, 4, 5}, {5, 6, 4}], g)
    assert is_odd_set_cover([{5, 6, 4}, {3, 4, 5}, {1, 2, 3}], g)
    for edge in ((1, 4), (4, 1), (2, 5), (6, 3)):
        assert not is_odd_set_cover([{1, 2, 3}, {3, 4, 5}, {5, 6, 4}], [edge])
        assert is_odd_set_cover([{1, 2, 3}, {3, 4, 5}, {5, 6, 4}, {edge[1]}], [edge])
    assert is_odd_set_cover([{1, 2, 3}, {3, 4, 5}, {1, 4, 6}], [(1, 4), (4, 1), (3, 5)])
    report = verify_maximum(g, graph([(1, 2), (3, 4), (5, 6)]), [{1, 2, 3}, {3, 4, 5}, {4, 5, 6}])
    assert report.cover_ok and report.capacity == 3 and report.verdict
    # the engine's covers: disjoint larger sets on the 12-vertex fixture,
    # and the singletons of the smaller side of K_{3,5}
    cert = certify_maximality(DEMO12, DEMO12_MATCHING)
    assert any(len(s) > 1 for s in cert.cover)
    assert is_odd_set_cover(cert.cover, DEMO12)
    k35 = graph([(u, 3 + v) for u in range(3) for v in range(5)])
    cert = certify_maximality(k35, find_maximum_matching(k35))
    assert cert.cover == {frozenset({0}), frozenset({1}), frozenset({2})}
    assert is_odd_set_cover(cert.cover, k35)
    assert not is_odd_set_cover(cert.cover - {frozenset({0})}, k35)


def test_overlapping_larger_sets_take_memory_linear_in_the_cover():
    # two sets of 1,001 vertices that share all but one: a union copied per
    # shared vertex would allocate about 1,000 sets of 1,002 vertices
    # (tens of MB); a map from each vertex to the set of the indices of the
    # sets that hold it stays well under 1 MB
    n = 1001
    cover = [frozenset(range(n)), frozenset(range(1, n + 1))]
    tracemalloc.start()
    try:
        assert not is_odd_set_cover(cover, [(0, n)])
        assert verify_maximum([(0, 1)], [(0, 1)], cover).cover_ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_overlapping_larger_sets_take_time_near_linear_in_the_cover():
    # k sets {0, x, y} and one odd set of vertex 0 and its m neighbours,
    # with the m edges (0, b): vertex 0 lies in k + 1 sets, so a scan of its
    # sets per edge is quadratic (a ratio of about 16 from k=500, m=5,000 to
    # four times both), where testing the smaller side stays near linear
    def best_of_3(k, m):
        cover = [frozenset({0, 2 * i + 1, 2 * i + 2}) for i in range(k)]
        cover.append(frozenset(range(m + 1)))
        g = [(0, b) for b in range(1, m + 1)]
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert is_odd_set_cover(cover, g)
            times.append(time.perf_counter() - start)
        return min(times)

    assert best_of_3(2_000, 20_000) / best_of_3(500, 5_000) < 8


def test_replay_takes_time_near_linear_in_the_history():
    # k disjoint triangles, each contracted by one x line with an empty
    # stem: a replay that runs is_blossom and quotient_graph on the whole
    # graph per step is quadratic (a ratio of about 17 from k=250 to four
    # times that), one that updates its state per step stays near linear.
    # In a windmill, k triangles sharing a hub that each step contracts
    # with one blade, it stays so only if the blade's sets merge into the
    # hub's (the other way round reads about 12)
    def triangles(k):
        g = [e for i in range(0, 3 * k, 3) for e in ((i, i + 1), (i + 1, i + 2), (i, i + 2))]
        m = [(i + 1, i + 2) for i in range(0, 3 * k, 3)]
        steps = [ContractionStep([], [i, i + 1, i + 2, i], 3 * k + i) for i in range(0, 3 * k, 3)]
        return g, m, steps

    def windmill(k):
        g = [e for i in range(1, 2 * k, 2) for e in ((0, i), (0, i + 1), (i, i + 1))]
        m = [(i, i + 1) for i in range(1, 2 * k, 2)]
        hubs = [0, *range(2 * k + 1, 3 * k + 1)]
        blades = range(1, 2 * k, 2)
        steps = [ContractionStep([], [h, i, i + 1, h], f) for h, f, i in zip(hubs, hubs[1:], blades)]
        return g, m, steps

    def best_of_3(shape, k):
        g, m, steps = shape(k)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            report, problems = verify_certificate(g, m, steps, [])
            times.append(time.perf_counter() - start)
        assert report.verdict and not problems and report.matching_size == 0
        return min(times)

    for shape in (triangles, windmill):
        assert best_of_3(shape, 1_000) / best_of_3(shape, 250) < 8, shape.__name__


def history_cases():
    """Graphs, matchings, histories and covers for the replay's differential
    test: the histories the other tests verify and tampered forms of them,
    the contraction chains of find_augmenting_path, planted blossoms, and
    seeded valid and invalid histories."""
    cert = reference_certificate(DEMO12, DEMO12_MATCHING)
    steps = list(cert.contractions)
    first = steps[0]
    for history in (
        steps,
        [ContractionStep([], first.cycle, first.fresh)] + steps[1:],
        [ContractionStep(first.stem, first.cycle, 11)] + steps[1:],
        steps[1:],
        steps + steps[-1:],
    ):
        for cover in (cert.cover, frozenset(list(cert.cover)[1:])):
            yield DEMO12, DEMO12_MATCHING, history, cover
            yield reversed_pairs(DEMO12), reversed_pairs(DEMO12_MATCHING), history, cover
    paw = [(0, 1), (1, 2), (0, 2), (2, 3)]
    triangle = ContractionStep([], [0, 1, 2, 0], 4)
    yield paw, [(3, 3)], [triangle], [{4}]
    yield paw + [(3, 3)], [(0, 1)], [triangle], [{4}]
    yield paw, [(1, 2)], [triangle], [{4}]
    yield paw, [(1, 2), (3, 5)], [triangle, ContractionStep([], [4, 3, 5, 4], 6)], [{4}]
    # two matched vertices with ends outside the graph leave the fresh
    # vertex matched twice, so the next step is no blossom, not even a
    # triangle away from it
    g = paw + [(3, 5), (10, 11), (11, 12), (10, 12)]
    twice = [(1, 2), (3, 7), (5, 8), (11, 12)]
    for fresh in (13, 3, 8):
        yield g, twice, [triangle, ContractionStep([], [10, 11, 12, 10], fresh)], [{3}, {4}]
    # a blossom with no outside edge leaves the graph: its fresh id, or a
    # contracted vertex's, may be a later target
    two = [(0, 1), (1, 2), (0, 2), (5, 6), (6, 7), (5, 7)]
    for fresh in (9, 0, 5):
        second = ContractionStep([], [5, 6, 7, 5], fresh)
        yield two, [(1, 2), (6, 7)], [ContractionStep([], [0, 1, 2, 0], 9), second], []
        yield two, [(1, 2), (6, 7), (9, 10)], [ContractionStep([], [0, 1, 2, 0], 9), second], []
    # 8 lies outside the graph, so (3, 8) becomes (3, 9), then (3, 10) once
    # 9 has left the graph, and (3, 10) is the matched edge of the last step
    three = [
        ContractionStep([], [0, 1, 2, 0], 9),
        ContractionStep([], [5, 6, 7, 5], 10),
        ContractionStep([], [11, 3, 10, 11], 12),
    ]
    yield two + [(3, 5), (3, 11), (5, 11)], [(1, 2), (6, 7), (3, 8)], three, []
    for extra in [(1, 3), (2, 3)]:
        yield graph([(0, 1), (1, 2), (0, 2), extra]), {(1, 2), (1, 3)}, [triangle], [{3}]
    # the x lines of DEMO12's certificate with one field changed
    rng = random.Random(27)
    text = format_certificate(steps, cert.cover)
    for _ in range(300):
        lines = text.splitlines()
        at = rng.choice([i for i, line in enumerate(lines) if line.startswith("x ")])
        tokens = lines[at].split()
        tokens[rng.randrange(1, len(tokens))] = str(rng.randint(0, 13))
        lines[at] = " ".join(tokens)
        try:
            history, cover = parse_certificate("\n".join(lines))
        except ValueError:
            continue
        yield DEMO12, DEMO12_MATCHING, history, cover
    rng = random.Random(61)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 10), 0.45)
        m = random_matching(rng, g)
        history, last_g, _, found = contraction_chain(g, m)
        cover = [{v} for v in vertices(last_g)]
        if found is None:
            cover = reference_certificate(g, m).cover
        yield g, m, history, cover
        bg, bm, stem, cycle = random_blossom_instance(rng, 10)
        yield bg, bm, [ContractionStep(stem, cycle, max(vertices(bg)) + 1)], [{1}, {2, 3, 4}]
    rng = random.Random(27)
    for _ in range(3_000):
        yield random_history(rng)


def test_replay_agrees_with_the_reference_replay():
    # the reports and problems equal those of the replay that runs
    # is_blossom and quotient_graph on the whole graph per step; the cases
    # include contractions that leave a vertex matched twice, fresh ids of
    # blossoms that left the graph reused, and matched vertices that no edge
    # holds sent to a fresh vertex
    contracted = 0
    for g, m, history, cover in history_cases():
        expected = reference_verify_certificate(g, m, history, cover)
        assert verify_certificate(g, m, history, cover) == expected, (g, m, history, cover)
        contracted += int(expected[1][0].split()[1][:-1]) - 1 if expected[1] else len(history)
    assert contracted > 2_000


def test_replay_reads_a_step_before_the_matching_as_the_reference_does():
    # is_blossom hashes the stem and cycle before it checks that the
    # matching is one, so a stem it cannot hash raises even when the
    # matching is not one
    g, m = [(0, 1), (1, 2), (0, 2)], [(0, 1), (0, 2)]
    step = ContractionStep([[0]], [0, 1, 2, 0], 3)
    for replay in (reference_verify_certificate, verify_certificate):
        with pytest.raises(TypeError):
            replay(g, m, [step], [])


def test_malformed_covers_and_edges_raise_as_before():
    # every member is read before any edge: a member that is not iterable
    # raises TypeError, after an even member too; an edge that is not a
    # pair raises ValueError once the members are all odd, and is never
    # read when one is even
    for cover in ([{1}, 7], [7, {1, 2, 3}], [{1, 2}, 7], [{1, 2, 3}, {3, 4, 5}, 7]):
        with pytest.raises(TypeError):
            is_odd_set_cover(cover, TRIANGLE)
        with pytest.raises(TypeError):
            verify_certificate(TRIANGLE, (), (), cover)
    for cover in ([{1}, {2}], [{1, 2, 3}], [{1, 2, 3}, {3, 4, 5}], [{1, 2, 3}, {4, 5, 6}]):
        with pytest.raises(ValueError):
            is_odd_set_cover(cover, [(1, 2, 3)])
        with pytest.raises(ValueError):
            verify_certificate([(1, 2, 3)], (), (), cover)
    assert not is_odd_set_cover([{1, 2}], [(1, 2, 3)])


def test_verify_maximum_examples():
    single = graph([(1, 2)])
    report = verify_maximum(single, single, [{1}])
    assert report.verdict and report.capacity == 1

    # valid cover of the triangle, but its capacity exceeds the matching size
    report = verify_maximum(TRIANGLE, graph([(1, 2)]), [{1}, {2}])
    assert report.cover_ok
    assert report.capacity == 2 and report.matching_size == 1
    assert not report.verdict

    # a hand-built capacity-5 cover proves the 12-vertex fixture's matching
    # maximum on the original graph
    cover = [{1, 2, 3}, {4}, {5, 6, 7}, {8}, {10}]
    report = verify_maximum(DEMO12, DEMO12_MATCHING, cover)
    assert report.verdict and report.capacity == 5

    # pairs listed (larger, smaller) verify the engine's own result
    g = [(2, 1), (3, 2), (3, 1)]
    m = find_maximum_matching(g)
    report, problems = verify_certificate(g, m, [], certify_maximality(g, m).cover)
    assert report.verdict and not problems
    report = verify_maximum(g, [(2, 1), (1, 2)], [{1, 2, 3}])
    assert report.verdict and report.matching_size == 1
    # one edge listed both ways in graph and matching alike, as certify takes it
    report = verify_maximum([(1, 2), (2, 1), (2, 3)], [(1, 2), (2, 1)], [{2}])
    assert report.verdict and report.matching_size == 1
    # a self-loop pair is not a matching, and nothing is raised
    report = verify_maximum(g, [(1, 1)], [{1, 2, 3}])
    assert not report.matching_ok and not report.verdict
    # nor with a history: it is not replayed, and contraction 1 is the problem
    paw = [(0, 1), (1, 2), (0, 2), (2, 3)]
    history = [ContractionStep([], [0, 1, 2, 0], 4)]
    for given_g, given_m in ((paw, [(3, 3)]), (paw + [(3, 3)], [(0, 1)])):
        report, problems = verify_certificate(given_g, given_m, history, [{4}])
        assert len(problems) == 1 and problems[0].startswith("contraction 1: ")
        assert report.matching_size == 1


def test_verify_maximum_flags_each_failure():
    single = graph([(1, 2)])
    assert not verify_maximum(single, graph([(1, 2), (2, 3)]), [{1}]).matching_ok
    assert not verify_maximum(single, graph([(3, 4)]), [{1}]).subset_ok
    assert not verify_maximum(single, single, []).cover_ok


def test_weak_duality_for_emitted_covers():
    # every matching of the input graph fits under the cover's capacity
    for g in all_graphs(4):
        m = find_maximum_matching(g)
        cert = certify_maximality(g, m)
        assert cert is not None
        assert is_odd_set_cover(cert.cover, g)
        cap = cover_capacity(cert.cover)
        for other in all_matchings(g):
            assert len(other) <= cap


def test_certificate_round_trip():
    # the reference chain records contractions, so x lines round-trip too
    cert = reference_certificate(DEMO12, DEMO12_MATCHING)
    assert len(cert.contractions) == 2
    for offset in (0, 1):
        text = format_certificate(cert.contractions, cert.cover, offset=offset)
        steps, cover = parse_certificate(text, offset=offset)
        assert steps == list(cert.contractions)
        assert cover == cert.cover
    report, problems = verify_certificate(DEMO12, DEMO12_MATCHING, steps, cover)
    assert report.verdict and not problems
    # the history replays alike with the pairs of either set, or both, reversed
    g, m = reversed_pairs(DEMO12), reversed_pairs(DEMO12_MATCHING)
    for given in [(g, DEMO12_MATCHING), (DEMO12, m), (g, m)]:
        assert verify_certificate(*given, steps, cover) == (report, problems)


def test_parse_certificate_rejects_junk():
    with pytest.raises(ValueError):
        parse_certificate("s one two\n")
    with pytest.raises(ValueError):
        parse_certificate("x 5\n")
    with pytest.raises(ValueError):
        parse_certificate("q 1 2\n")
    with pytest.raises(ValueError):
        parse_certificate("s\n")
    with pytest.raises(ValueError, match="^line 1: malformed contraction record$"):
        parse_certificate("x 9 5 1 2 3 1\n")


def test_verify_certificate_detects_tampering():
    cert = reference_certificate(DEMO12, DEMO12_MATCHING)
    steps = list(cert.contractions)

    # dropping the stem leaves the cycle rooted at a matched vertex
    no_stem = [ContractionStep([], steps[0].cycle, steps[0].fresh)] + steps[1:]
    report, problems = verify_certificate(DEMO12, DEMO12_MATCHING, no_stem, cert.cover)
    assert problems

    clash = [ContractionStep(steps[0].stem, steps[0].cycle, 11)] + steps[1:]
    report, problems = verify_certificate(DEMO12, DEMO12_MATCHING, clash, cert.cover)
    assert problems

    small_cover = frozenset(list(cert.cover)[1:])
    report, problems = verify_certificate(DEMO12, DEMO12_MATCHING, steps, small_cover)
    assert not problems
    assert not report.verdict

    # vertex 1 is matched twice, so no walk is a blossom and the history
    # stops at its first step; in the twin (1, 3) is not an edge either.
    # The flags judge the given matching, the cover the uncontracted graph.
    triangle = ContractionStep([], [0, 1, 2, 0], 4)
    for extra in [(1, 3), (2, 3)]:
        g = graph([(0, 1), (1, 2), (0, 2), extra])
        report, problems = verify_certificate(g, {(1, 2), (1, 3)}, [triangle], [{3}])
        assert problems == [
            "contraction 1: its stem and cycle are not a blossom of the graph it was contracted in"
        ]
        assert not report.cover_ok and report.matching_size == 2
        assert not report.matching_ok and not report.verdict
        assert report.subset_ok == (extra == (1, 3))


def test_random_certificates_round_trip_and_verify():
    rng = random.Random(61)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 10), 0.45)
        m = find_maximum_matching(g)
        for cert in (certify_maximality(g, m), reference_certificate(g, m)):
            text = format_certificate(cert.contractions, cert.cover, offset=1)
            steps, cover = parse_certificate(text, offset=1)
            report, problems = verify_certificate(g, m, steps, cover)
            assert report.verdict and not problems
            flipped = verify_certificate(reversed_pairs(g), reversed_pairs(m), steps, cover)
            assert flipped == (report, problems)
