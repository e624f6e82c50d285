#!/usr/bin/env python3
"""Getting a depth-r point from block partitions when r is not prime.

A depth-4 point among 7 points on the line cannot come from a 4-block
partition of the 7 points alone.  Instead each point is duplicated k=2
times, the 14 lifted points are split into R=7 blocks (7 is prime and
R = k(r-1)+1), and the common point of the block hulls lands in every
hull of q = d(r-1)+1 originals -- which pins its depth at >= 4.
"""
from tverlab import PointConfig, random_point_config, reduction_plan, \
    reduce_central_from_tverberg, SplitMix64

plan = reduction_plan(4, 1)
print("reduction plan for r=4, d=1:")
print(f"  duplicate k={plan.k} times, partition into R={plan.R} blocks")
print(f"  cloud size m+1={plan.m + 1}, lifted size M+1={plan.M + 1}")
assert plan.M + 1 == plan.k * (plan.m + 1)

config = PointConfig(1, [[i] for i in range(7)])
cert = reduce_central_from_tverberg(config, 4)
print(f"integers 0..6: derived point {cert.point[0]} with depth {cert.depth}")

# the same works for r=6 (R=11) and for random rational clouds
plan = reduction_plan(6, 1)
print(f"r=6 plan: k={plan.k}, R={plan.R}, M={plan.M}")

rng = SplitMix64(14)
config = random_point_config(1, plan.m + 1, rng)
cert = reduce_central_from_tverberg(config, 6)
print(f"random 11-point cloud: depth {cert.depth} at {cert.point[0]}")
