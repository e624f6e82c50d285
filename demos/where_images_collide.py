#!/usr/bin/env python3
"""A PL map whose disjoint faces keep disjoint images -- until m grows by one.

At m = (d+1)r - 2, collapsing every barycenter of dimension >= d to the
center c leaves, in every r-tuple of pairwise disjoint faces, at least one
low-dimensional face whose image avoids all the others.
`isolation_rows` yields one row per tuple: it finds that face by the
combinatorial criterion and certifies it against each other face of the
tuple with a separating functional, h_s(y) = the sum of the coordinates
in s, checked exactly on every vertex image.

At m = (d+1)r - 1 the counting argument breaks: r disjoint faces of
dimension >= d fit into the simplex, and all of their images own c, the
image of each face's barycenter.
"""
from tverlab import build_counterexample, isolation_rows, probe_tverberg_plus_one

for d, r in ((1, 2), (1, 3), (2, 2)):
    spec = build_counterexample(d, r)
    rows = list(isolation_rows(spec))
    print(f"d={d} r={r}: m={spec.m}, {len(rows)} disjoint tuples, "
          "every one has an isolated face")

# one of the six tuples for the smallest case, in detail
spec = build_counterexample(1, 2)
row = list(isolation_rows(spec))[-1]
print("sample tuple:", row.faces, "-> isolated face index", row.isolated_index)
print("  separation certificates:", list(row.certificate_digests))

# one dimension up the probe reads off the collision the counting argument predicts
for d, r in ((1, 2), (2, 2)):
    result = probe_tverberg_plus_one(d, r)
    print(f"d={d} r={r} at m={(d + 1) * r - 1}: faces {result.faces} "
          f"share the point {result.point}")
