#!/usr/bin/env python3
# Depth certificates and Tverberg partitions on small rational clouds.
#
# With n = (d+1)(r-1)+1 points there is always a point of Tukey depth r,
# and a partition into r blocks whose hulls share a point.  Everything
# below is exact: coordinates, LP pivots in the partition search, and the
# certifying halfspace, which the depth recursion finds without an LP.

from fractions import Fraction as F

from tverlab import (
    PointConfig,
    SplitMix64,
    centerpoint,
    random_point_config,
    tukey_depth,
    tverberg_partition,
)

# the smallest interesting case: three collinear points, r = 2
line = PointConfig(1, [[0], [1], [2]])
cert = tverberg_partition(line, 2)
print("three points on a line, r=2")
print("  blocks:", cert.blocks)          # ((0, 2), (1,))
print("  common point:", cert.point)     # the middle point

# the four corners of a square meet at the center
square = PointConfig(2, [[0, 0], [1, 0], [0, 1], [1, 1]])
cert = tverberg_partition(square, 2)
print("square corners, r=2")
print("  blocks:", cert.blocks)          # the two diagonals
print("  common point:", cert.point)

# depth of the center is 2: every halfplane through it keeps 2 corners
depth = tukey_depth((F(1, 2), F(1, 2)), square)
print("  depth of the center:", depth.depth)
print("  certifying halfspace: a =", depth.halfspace_coeffs,
      " offset =", depth.halfspace_offset)

# random clouds: the guarantee holds with no tolerance
rng = SplitMix64(2)
for d, r in ((2, 3), (3, 2)):
    n = (d + 1) * (r - 1) + 1
    config = random_point_config(d, n, rng)
    c = centerpoint(config, r)
    print(f"d={d} r={r} n={n}: centerpoint {c.point} has depth {c.depth} >= {r}")
