#!/usr/bin/env python3
# The mod-2 index of a free involution, from cup powers on its orbits.
#
# The antipodal m-sphere has index exactly m; a disjoint union takes the
# max of its parts.  hind takes the class w of the double cover on the
# orbits of the faces and reports the largest n whose power w^n is not a
# coboundary, one small F2 system per degree, scanning down from the top.

from tverlab import (
    FixedSimplexError,
    SimplicialComplex,
    Z2Complex,
    cross_polytope_sphere,
    disjoint_union_index,
    hind,
)

for m in range(7):
    X = cross_polytope_sphere(m)
    print(f"S^{m} as a cross-polytope: {len(X.involution)} vertices,"
          f" {len(X.complex.given)} facets, hind = {hind(X)}")

# an involution that fixes a simplex has no finite index
try:
    hind(Z2Complex(SimplicialComplex([[0, 1]]), {0: 1, 1: 0}))
except FixedSimplexError as exc:
    print("fixed edge rejected:", exc)

print("index of S^1 + S^2:", disjoint_union_index(
    cross_polytope_sphere(1), cross_polytope_sphere(2)))
