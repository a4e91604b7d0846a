import random

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
)
from support import (
    DEMO12,
    DEMO12_MATCHING,
    TRIANGLE,
    all_graphs,
    all_matchings,
    random_graph,
    reference_certificate,
)


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


def test_is_odd_set_cover_matches_its_definition():
    # random covers, overlapping and sometimes even-sized, against the
    # definition: every member odd, every edge covered by some member
    rng = random.Random(62)
    verdicts = set()
    branches = set()
    for _ in range(400):
        g = random_graph(rng, rng.randint(2, 9), 0.4)
        cover = [
            frozenset(rng.sample(range(1, 10), rng.choice([1, 1, 1, 2, 3, 3, 5])))
            for _ in range(rng.randint(0, 8))
        ]
        expected = all(len(s) % 2 == 1 for s in cover) and all(
            any(covers(s, e) for s in cover) for e in g
        )
        assert is_odd_set_cover(cover, g) == expected
        verdicts.add(expected)
        if all(len(s) % 2 == 1 for s in cover):
            # each vertex in one larger set at most, or some vertex in two
            larger = [v for s in cover if len(s) > 1 for v in s]
            branches.add((len(set(larger)) == len(larger), expected))
    assert verdicts == {True, False}
    assert branches == {(True, True), (True, False), (False, True), (False, False)}


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

    # the contraction hides that vertex 1 is matched twice, and in the twin
    # also that (1, 3) is not an edge; the flags judge the given matching
    triangle = ContractionStep([], [0, 1, 2, 0], 4)
    for extra in [(1, 3), (2, 3)]:
        g = graph([(0, 1), (1, 2), (0, 2), extra])
        report, problems = verify_certificate(g, {(1, 2), (1, 3)}, [triangle], [{3}])
        assert not problems and report.cover_ok
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
