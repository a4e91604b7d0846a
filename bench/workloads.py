"""Seeded instance generators and the four benchmark workloads.

Every workload is a function of the seed alone, so one seed always yields
the same graphs. Graphs are frozensets of canonical ``(min, max)`` pairs,
the form the package takes; the package receives nothing but these graphs.
Why each workload exists, and why its random instances are many and
small, is written down in ``bench/README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Graph = frozenset[tuple[int, int]]


@dataclass(frozen=True)
class Instance:
    """One benchmark input: a name for the report, the graph, and the
    maximum matching size when a closed form gives it (else None)."""

    name: str
    graph: Graph
    size: int | None = None


def _pairs(path: list[int]) -> Graph:
    return frozenset((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))


def complete(n: int) -> Instance:
    """K_n; a maximum matching has floor(n/2) edges."""
    g = frozenset((i, j) for i in range(n) for j in range(i + 1, n))
    return Instance(f"K_{n}", g, n // 2)


def gnp(rng: random.Random, n: int, p: float, name: str) -> Instance:
    """Erdos-Renyi G(n, p) on vertices 0..n-1."""
    g = frozenset(
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    )
    return Instance(name, g)


def odd_cycle(n: int) -> Instance:
    """The cycle 0, 1, ..., n-1, 0 for odd n; (n-1)/2 edges match."""
    return Instance(f"odd_cycle_{n}", _pairs(list(range(n)) + [0]), (n - 1) // 2)


def triangle_chain(k: int) -> Instance:
    """k triangles {3i, 3i+1, 3i+2}, each joined to the next by the edge
    (3i+2, 3i+3). For even k it has a perfect matching of 3k/2 edges."""
    g = set()
    for i in range(k):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        g |= {(a, b), (a, c), (b, c)}
        if i + 1 < k:
            g.add((c, c + 1))
    return Instance(f"triangle_chain_{k}", frozenset(g), 3 * k // 2)


def interleaved_odd_cycle(k: int) -> Instance:
    """The odd cycle on 4k+1 vertices whose two arms leave vertex 0 and meet
    at the far end, with interleaved ids a_i = 2i-1 and b_i = 2i.

    The solver's blossom assembly recurses once per cycle vertex here, so
    large k exhausts Python's default recursion limit. A maximum matching
    has 2k edges.
    """
    a = [2 * i - 1 for i in range(1, 2 * k + 1)]
    b = [2 * i for i in range(1, 2 * k + 1)]
    return Instance(f"interleaved_k{k}", _pairs([0] + a + b[::-1] + [0]), 2 * k)


def planted_sparse(rng: random.Random, n: int, degree: int, name: str) -> Instance:
    """A random graph on n vertices (n even) with average degree ``degree``
    that contains a random perfect matching, so n/2 edges match."""
    order = list(range(n))
    rng.shuffle(order)
    g = {(min(order[i], order[i + 1]), max(order[i], order[i + 1])) for i in range(0, n, 2)}
    while len(g) < n * degree // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add((min(u, v), max(u, v)))
    return Instance(name, frozenset(g), n // 2)


def bipartite(rng: random.Random, left: int, right: int, p: float, tag: str = "") -> Instance:
    """Random bipartite graph: left ids 0..left-1, right ids after them."""
    g = frozenset(
        (u, left + v) for u in range(left) for v in range(right) if rng.random() < p
    )
    return Instance(f"bipartite_{left}x{right}{tag}", g)


def small_graph(rng: random.Random, index: int) -> Instance:
    """A random graph on 6 to 14 vertices with at least one edge."""
    while True:
        inst = gnp(rng, rng.randint(6, 14), rng.uniform(0.2, 0.6), f"small#{index}")
        if inst.graph:
            return inst


def dense_blossoms(rng: random.Random) -> list[Instance]:
    # The panel is the same for every seed and steadies the workload's sum;
    # the seed's own graphs are what a held-out seed changes.
    panel = random.Random("dense_blossoms/panel")
    return (
        [complete(81)]
        + [gnp(panel, 200, 0.1, f"G(200,0.1)#panel{i}") for i in range(16)]
        + [gnp(rng, 150, 0.13, f"G(150,0.13)#{i}") for i in range(8)]
    )


def long_paths(rng: random.Random) -> list[Instance]:
    sparse = [planted_sparse(rng, 400, 3, f"sparse_400_deg3#{i}") for i in range(8)]
    return sparse + [
        odd_cycle(1001),
        triangle_chain(200),
        interleaved_odd_cycle(200),
        # The crash reproducer of ROADMAP item 5; it stays when it fails.
        interleaved_odd_cycle(400),
    ]


def certificates(rng: random.Random) -> list[Instance]:
    # As in dense_blossoms, a panel shared by every seed steadies the sum.
    panel = random.Random("certificates/panel")
    return (
        [complete(81), complete(101)]
        + [bipartite(panel, 100, 250, 0.075, f"#panel{i}") for i in range(6)]
        + [bipartite(rng, 100, 250, 0.075, f"#{i}") for i in range(6)]
    )


def small_batch(rng: random.Random) -> list[Instance]:
    return [small_graph(rng, i) for i in range(2000)]


WORKLOADS = {
    "dense_blossoms": dense_blossoms,
    "long_paths": long_paths,
    "certificates": certificates,
    "small_batch": small_batch,
}

# Only this workload also runs `blossom verify` through the CLI entry point.
CLI_WORKLOADS = frozenset({"certificates"})
# Only this workload is small enough for the brute-force oracle.
ORACLE_WORKLOADS = frozenset({"small_batch"})


def instances(workload: str, seed: int) -> list[Instance]:
    """The workload's instances for this seed."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
