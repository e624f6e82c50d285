#!/usr/bin/env python3
# How large a homothet of the simplex does a point set need?
#
# The covering radius delta* is exact, in closed form: one minus the sum,
# over the coordinates, of the least value each takes on the set.
# A set touching every facet of the simplex forces delta* >= 1: shrinking
# is impossible once every coordinate vanishes somewhere in the set.

from fractions import Fraction as F

from tverlab import (
    constant_map,
    coordinate_projection_map,
    facet_touching_check,
    fiber_width_demo,
    min_cover_barycentric,
)

# two points of the unit interval, the 1-simplex in barycentric form
# (x, 1 - x): the smallest covering interval is [1/4, 3/4] itself
cert = min_cover_barycentric([(F(1, 4), F(3, 4)), (F(3, 4), F(1, 4))])
print(f"[1/4, 3/4] inside [0,1]: delta* = {cert.delta}, tight pairs {cert.tight}")

# midpoints of the triangle's edges touch all three facets
mids = [(F(1, 2), F(1, 2), F(0)), (F(0), F(1, 2), F(1, 2)), (F(1, 2), F(0), F(1, 2))]
print("edge midpoints touch all facets:", facet_touching_check(mids))
cert = min_cover_barycentric(mids)
print("  delta* =", cert.delta)  # exactly 1, despite the set looking small

# a set clear of one facet shrinks below 1
inner = [(F(1, 2), F(1, 4), F(1, 4)), (F(1, 4), F(1, 2), F(1, 4))]
cert = min_cover_barycentric(inner)
print("set avoiding facet 2: delta* =", cert.delta)

# sampled fibers of two exact maps of barycentric coordinates off the
# triangle; exact cover per fiber cell (the map names are the demo's own)
for label, f in (
    ("first coordinate", coordinate_projection_map),
    ("constant", constant_map),
):
    report = fiber_width_demo(2, f, 3)
    print(f"{label} map: {len(report.cells)} sampled fiber cells,"
          f" max delta* = {report.max_delta}")
