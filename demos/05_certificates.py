# Odd-set-cover certificates: proof that a matching is maximum.
#
# Every matching fits under the capacity of any odd set cover (1 for a
# singleton, k for a set of 2k+1 vertices), so a cover whose capacity equals
# a matching's size proves that matching maximum. When the solver's last
# alternating-forest phase fails to augment, its forest gives such a cover
# of the input graph directly: a singleton for each odd vertex, the whole
# vertex set of each outer blossom, and a correction for matched vertices
# no tree reached. Anyone holding only the graph can check it.
#
# Serialized, the certificate is one `s` line per odd set and nothing else:
# the cover is a cover of the input graph, so there is no contraction
# history for the verifier to replay first. (The file format still allows
# `x` contraction lines ahead of the cover; `blossom verify` replays them.)

from blossom import (
    certify_maximality,
    cover_capacity,
    find_maximum_matching,
    format_certificate,
    graph,
    parse_certificate,
    verify_certificate,
)

g = graph(
    [
        (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7),
        (6, 7), (7, 8), (8, 9), (8, 10), (9, 10), (10, 11), (8, 12),
    ]
)
m = find_maximum_matching(g)
print(f"maximum matching has {len(m)} edges")

cert = certify_maximality(g, m)
sets = sorted(tuple(sorted(s)) for s in cert.cover)
print("singletons:", [s for s in sets if len(s) == 1])
print("blossom sets:", [s for s in sets if len(s) > 1])
print(f"cover capacity: {cover_capacity(cert.cover)}")

text = format_certificate(cert.contractions, cert.cover)
print("serialized certificate:")
print(text)

steps, cover = parse_certificate(text)
print(f"contractions to replay: {len(steps)}")
report, problems = verify_certificate(g, m, steps, cover)
print(f"cover valid on the input graph: {report.cover_ok}")
print(f"cover capacity {report.capacity} == matching size {report.matching_size}")
print("maximality certified:", report.verdict and not problems)
assert not steps and report.verdict and not problems

# When every vertex with an edge is matched, no augmenting path can exist,
# since one would end at two unmatched vertices. certify_maximality then runs
# no phase: the cover is a singleton of one matched vertex plus one odd set
# of all the others, of capacity 1 + (2|M| - 2) / 2 = |M|.
full = graph([(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)])
fm = find_maximum_matching(full)
print(f"\ntwo triangles joined by an edge: {len(fm)} matched edges cover all 6 vertices")
fcert = certify_maximality(full, fm)
fsets = sorted((sorted(s) for s in fcert.cover), key=len)
print("cover:", fsets, f"capacity {cover_capacity(fcert.cover)}")
freport, fproblems = verify_certificate(full, fm, [], fcert.cover)
print("maximality certified:", freport.verdict and not fproblems)
assert [len(s) for s in fsets] == [1, 5] and freport.verdict and not fproblems
