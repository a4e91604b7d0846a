# Watching the alternating-forest search work.
#
# The search grows trees from the unmatched vertices: vertices entered
# through a non-matching edge get an odd label, their matching partners an
# even label. A trace callback receives one record per examined edge, and
# the final state carries the labels, parents, and examined edges, which
# check_search_invariants checks against the forest's invariants.

from blossom import Parity, check_search_invariants, graph, run_search

g = graph([(1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6), (3, 7)])
m = graph([(2, 3), (4, 5)])

print("trace of each examined edge:")
outcome = run_search(g, m, trace=lambda line: print(" ", line))
check_search_invariants(g, m, outcome.state)  # raises on a broken forest

p1, p2 = outcome.paths
print("tree paths returned:", p1, "and", p2)
print("they meet at vertex", p1[-1] if p1[-1] == p2[-1] else None, "(same tree: a blossom)")

labels = outcome.state.labels
evens = sorted(v for v, lab in labels.items() if lab.parity is Parity.EVEN)
odds = sorted(v for v, lab in labels.items() if lab.parity is Parity.ODD)
print("even-labelled vertices:", evens)
print("odd-labelled vertices:", odds)
print("parent pointers:", dict(sorted(outcome.state.parent.items())))
