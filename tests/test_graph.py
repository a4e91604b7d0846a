import pytest
from hypothesis import given
from hypothesis import strategies as st

from blossom import (
    edge,
    edges_of_path,
    graph,
    is_path,
    is_simple,
    vertices,
)
from support import (
    DEMO7,
    DEMO12,
    PATH4,
    TRIANGLE,
    all_graphs,
    component_as_path,
    component_edges,
    connected_component,
    connected_components,
    degree,
    k_pairs,
)

small_graphs = st.builds(
    frozenset, st.sets(st.sampled_from(k_pairs(7)), max_size=21)
)


def test_edge_canonical_and_no_self_loops():
    assert edge(3, 1) == (1, 3)
    assert edge(1, 3) == (1, 3)
    with pytest.raises(ValueError):
        edge(2, 2)


def test_graph_builder_canonicalises():
    assert graph([(2, 1), (1, 2), (3, 2)]) == frozenset({(1, 2), (2, 3)})


def test_a_canonical_frozenset_is_taken_as_it_is():
    for g in (DEMO12, TRIANGLE, frozenset(), frozenset({(-3, 10**9)})):
        assert graph(g) is g
    # a frozenset that is not canonical throughout is rebuilt as tuples
    for g in (frozenset({(1, 2), (3, 2)}), frozenset({frozenset({1, 2})}), frozenset({"12"})):
        out = graph(g)
        assert out is not g
        assert all(type(e) is tuple and e[0] < e[1] for e in out)
    assert graph(frozenset({(1, 2), (3, 2)})) == frozenset({(1, 2), (2, 3)})
    assert graph(frozenset({frozenset({1, 2})})) == frozenset({(1, 2)})


@given(small_graphs, st.randoms(use_true_random=False))
def test_graph_intake_forms_agree(g, rng):
    pairs = sorted(g)
    rng.shuffle(pairs)
    forms = (
        [(b, a) for a, b in pairs],
        [[a, b] for a, b in pairs],
        pairs + [(b, a) for a, b in pairs],
        pairs,
        iter(pairs),
    )
    for form in forms:
        assert graph(form) == g


def test_self_loops_raise_the_same_error():
    for pairs in ([(1, 2), (2, 2)], frozenset({(1, 2), (2, 2)}), [[2, 2], (1, 2, 3)]):
        with pytest.raises(ValueError, match=r"^self-loop at vertex 2$"):
            graph(pairs)
    # a malformed pair ahead of the self-loop is reported first, as before
    with pytest.raises(ValueError, match="unpack"):
        graph([(1, 2, 3), (2, 2)])


def test_vertices():
    assert vertices(TRIANGLE) == {1, 2, 3}
    assert vertices(frozenset()) == set()
    assert vertices(DEMO12) == set(range(1, 13))


@given(small_graphs)
def test_vertices_is_union_of_edges(g):
    assert vertices(g) == set().union(*g)


def test_degree():
    assert degree(TRIANGLE, 2) == 2
    assert degree(DEMO7, 3) == 4
    assert degree(PATH4, 5) == 0


def test_is_path():
    assert is_path(DEMO7, [1, 2, 3, 4])
    assert is_path(DEMO7, [])
    assert not is_path(PATH4, [1, 3])
    assert is_path(PATH4, [2])
    assert not is_path(PATH4, [9])
    assert not is_path(PATH4, [1, 1])


def test_edges_of_path():
    assert edges_of_path([1, 2, 3]) == [(1, 2), (2, 3)]
    assert edges_of_path([7]) == []
    assert edges_of_path([]) == []
    assert edges_of_path([1, 2, 3, 4, 5, 6]) == [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    with pytest.raises(ValueError):
        edges_of_path([1, 1, 2])


def test_connected_component():
    assert connected_component(PATH4, 1) == {1, 2, 3, 4}
    assert connected_component(TRIANGLE | {(8, 9)}, 8) == {8, 9}
    assert connected_component(DEMO12, 11) == set(range(1, 13))


def test_component_edges():
    assert component_edges(PATH4, {1, 2}) == frozenset({(1, 2)})
    assert component_edges(TRIANGLE, {1, 2, 3}) == TRIANGLE
    assert component_edges(DEMO7, {4, 5, 6}) == frozenset({(4, 5), (5, 6)})


@given(small_graphs)
def test_component_edges_partition_the_graph(g):
    comps = connected_components(g)
    seen: set = set()
    for comp in comps:
        part = component_edges(g, comp)
        assert not part & seen
        seen |= part
    assert seen == g


def _exactly_one(*claims: bool) -> bool:
    return sum(claims) == 1


def test_components_after_edge_insertion_fall_into_one_case():
    # for every graph, adding one edge reshapes the components in exactly one
    # of four ways, depending on where the new endpoints were
    universe = k_pairs(6)
    for g in all_graphs(4):
        comps = connected_components(g)
        vs = vertices(g)
        for e in universe:
            v, u = e
            for comp in connected_components(g | {e}):
                if v in vs and u in vs:
                    if connected_component(g, v) == connected_component(g, u):
                        assert comp in comps
                    else:
                        joined = frozenset(
                            connected_component(g, v) | connected_component(g, u)
                        )
                        assert _exactly_one(
                            comp == joined,
                            comp in comps and comp != frozenset(connected_component(g, v))
                            and comp != frozenset(connected_component(g, u)),
                        )
                elif v not in vs and u not in vs:
                    assert _exactly_one(comp == frozenset(e), comp in comps)
                else:
                    inside = v if v in vs else u
                    outside = u if v in vs else v
                    grown = frozenset({outside} | connected_component(g, inside))
                    assert _exactly_one(
                        comp == grown,
                        comp in comps and comp != frozenset(connected_component(g, inside)),
                    )


def test_component_as_path_examples():
    assert component_as_path(PATH4, {1, 2, 3, 4}) == [1, 2, 3, 4]
    assert component_as_path(frozenset({(5, 6)}), {5, 6}) == [5, 6]
    with pytest.raises(ValueError):
        component_as_path(TRIANGLE, {1, 2, 3})
    star = graph([(1, 2), (1, 3), (1, 4)])
    with pytest.raises(ValueError):
        component_as_path(star, {1, 2, 3, 4})


def test_component_as_path_covers_component_exactly():
    for g in all_graphs(5):
        for comp in connected_components(g):
            try:
                p = component_as_path(g, comp)
            except ValueError:
                continue
            assert is_simple(p)
            assert is_path(g, p)
            assert set(p) == set(comp)
            assert frozenset(edges_of_path(p)) == component_edges(g, comp)
