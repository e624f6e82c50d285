"""Tukey depth, Tverberg partitions, and the prime-lift depth reduction."""
import hashlib
import json
import sys
from fractions import Fraction as F
from math import comb, factorial, gcd, lcm
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tverlab.cli as cli_module
import tverlab.depth as depth_module
import tverlab.exactlp as exactlp_module

from tverlab import (
    PointConfig,
    SplitMix64,
    TverbergCertificate,
    centerpoint,
    random_point_config,
    reduce_central_from_tverberg,
    reduction_plan,
    tukey_depth,
    tverberg_partition,
)
from tverlab.depth import (
    check_depth_certificate, check_tverberg_certificate, guaranteed_size,
)
from tverlab.exactlp import check_farkas
from tverlab.rationals import Scaled, bareiss_eliminate, read_scaled

from oracles import (
    affine_dependency_homogeneous,
    boxes_miss,
    canonical_partitions,
    check_depth_certificate_read_per_row,
    check_tverberg_certificate_read_per_row,
    common_point_with_weights,
    cut_free_tverberg_partition,
    fraction_partition_system,
    hull_membership_depth,
    in_convex_hull,
    integer_multipliers,
    subset,
    tukey_depth_over_the_lcm,
)


def depth_1d(x, values):
    """On the line the two halflines at x are the only minimizers."""
    return min(
        sum(1 for v in values if v <= x),
        sum(1 for v in values if v >= x),
    )


def stirling_partition_count(n, r):
    # S(n, r) by inclusion-exclusion over surjections
    total = sum((-1) ** j * comb(r, j) * (r - j) ** n for j in range(r + 1))
    return total // factorial(r)


def test_depth_on_the_line_matches_counting():
    rng = SplitMix64(606)
    for _ in range(60):
        n = rng.int_between(1, 7)
        values = [F(rng.int_between(-5, 5)) for _ in range(n)]
        config = PointConfig(1, [[v] for v in values])
        x = F(rng.int_between(-6, 6))
        cert = tukey_depth((x,), config)
        assert cert.depth == depth_1d(x, values)
        assert check_depth_certificate(cert, config)


def test_depth_spot_values_in_the_plane():
    square = PointConfig(2, [[0, 0], [1, 0], [0, 1], [1, 1]])
    assert tukey_depth((F(1, 2), F(1, 2)), square).depth == 2
    assert tukey_depth((F(0), F(0)), square).depth == 1
    assert tukey_depth((F(5), F(5)), square).depth == 0

    tri = PointConfig(2, [[0, 0], [1, 0], [0, 1]])
    assert tukey_depth((F(1, 3), F(1, 3)), tri).depth == 1


def test_depth_certificate_halfspace_is_tight():
    config = PointConfig(1, [[0], [1], [2], [3], [4]])
    cert = tukey_depth((F(2),), config)
    assert cert.depth == 3
    # the certifying halfspace contains x and exactly `depth` points
    a, a0 = cert.halfspace_coeffs, cert.halfspace_offset
    assert a[0] * 2 + a0 >= 0
    inside = sum(1 for p in config.points if a[0] * p[0] + a0 >= 0)
    assert inside == 3
    bad = PointConfig(1, ((F(9),),))
    assert not check_depth_certificate(cert, bad)


def test_depth_matches_hull_membership_threshold():
    rng = SplitMix64(90210)
    for trial in range(45):
        d = 1 + trial % 3
        n = rng.int_between(3, 6)
        if trial % 2:  # integer points in a small box: repeats and collinear directions
            config = random_point_config(d, n, rng, num_bound=1, den_bound=1)
        else:
            config = random_point_config(d, n, rng, num_bound=5, den_bound=2)
        if trial % 5 < 2:
            x = config.points[rng.below(n)]
        else:
            x = rng.rational_point(d, num_bound=2, den_bound=2)
        cert = tukey_depth(x, config)
        assert check_depth_certificate(cert, config)
        assert all(type(c) is F for c in cert.halfspace_coeffs)
        assert type(cert.halfspace_offset) is F
        for r in range(1, n + 1):
            assert (cert.depth >= r) == hull_membership_depth(x, config, n - r + 1)


def tukey_halfspace_digest():
    """sha256 over (depth, halfspace coeffs, halfspace offset) of tukey_depth
    on seeded configurations in d = 1, 2, 3: random rational points, and
    integer points in a small box (repeats, collinear directions), queried
    at a data point, at the centroid and at a random point."""
    rng = SplitMix64(31337)
    lines = []
    for d in (1, 2, 3):
        for trial in range(12):
            n = rng.int_between(2, 9)
            if trial % 2:
                config = random_point_config(d, n, rng, num_bound=1, den_bound=1)
            else:
                config = random_point_config(d, n, rng, num_bound=6, den_bound=3)
            queries = (
                config.points[rng.below(n)],
                tuple(sum(p[k] for p in config.points) / n for k in range(d)),
                rng.rational_point(d, num_bound=3, den_bound=3),
            )
            for x in queries:
                cert = tukey_depth(x, config)
                coeffs = ",".join(str(c) for c in cert.halfspace_coeffs)
                lines.append(f"{cert.depth};{coeffs};{cert.halfspace_offset}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# taken when the projections of the depth recursion were still Fractions
TUKEY_HALFSPACE_SHA256 = "e86bd2eb4bdcbc82b869110b2ab7e69a47b2d5d08c6ae2bcec5fdfaad955d4a5"


def test_tukey_halfspaces_are_pinned():
    assert tukey_halfspace_digest() == TUKEY_HALFSPACE_SHA256


@st.composite
def configs_and_queries(draw):
    """A configuration of 1-7 points in d <= 3 with small rational
    coordinates (repeats and collinear directions are likely), and a query
    point that is either a data point or any small rational point."""
    d = draw(st.integers(1, 3))
    coord = st.builds(F, st.integers(-3, 3), st.integers(1, 2))
    point = st.tuples(*[coord] * d)
    points = draw(st.lists(point, min_size=1, max_size=7))
    x = draw(st.one_of(st.sampled_from(points), point))
    return PointConfig(d, tuple(points)), x


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(configs_and_queries())
def test_depth_is_the_hull_membership_threshold(config_and_query):
    """depth >= n - q + 1 exactly when every q-subset's hull contains x."""
    config, x = config_and_query
    depth = tukey_depth(x, config).depth
    n = config.n
    for q in range(1, n + 1):
        assert (depth >= n - q + 1) == hull_membership_depth(x, config, q)


def test_depth_runs_no_lp(monkeypatch):
    def no_lp(system):
        raise AssertionError("tukey_depth must not solve an LP")

    monkeypatch.setattr("tverlab.exactlp.lp_feasible", no_lp)
    cube = PointConfig(3, [[i, j, k] for i in (0, 2) for j in (0, 2) for k in (0, 2)])
    assert tukey_depth((F(1), F(1), F(1)), cube).depth == 4
    assert tukey_depth((F(0), F(0), F(0)), cube).depth == 1
    square = PointConfig(2, [[0, 0], [1, 0], [0, 1], [1, 1], [0, 0]])
    assert tukey_depth((F(1, 2), F(1, 2)), square).depth == 2
    line = PointConfig(1, [[0], [1], [1], [2]])
    assert tukey_depth((F(1),), line).depth == 3


def test_depth_rejects_point_of_wrong_dimension():
    line = PointConfig(1, [[0], [1], [2]])
    with pytest.raises(ValueError):
        tukey_depth((F(1), F(2)), line)


def test_partition_enumeration_order_and_counts():
    assert list(depth_module._partitions(3, 2, [()] * 3)) == [
        ((0, 1), (2,)),
        ((0, 2), (1,)),
        ((0,), (1, 2)),
    ]
    for n, r in ((4, 2), (5, 3), (6, 3)):
        parts = list(depth_module._partitions(n, r, [()] * n))
        assert len(parts) == stirling_partition_count(n, r)
        assert len(set(parts)) == len(parts)
        for blocks in parts:
            assert sorted(v for b in blocks for v in b) == list(range(n))
            assert all(blocks[i][0] < blocks[i + 1][0] for i in range(r - 1))


def test_the_search_enumerates_the_canonical_partitions():
    """With zero-dimensional points, which pass every screen, the search's
    enumerator gives every partition in the oracle's canonical order, for
    each n <= 8 and r from -1 to n + 1."""
    for n in range(9):
        for r in range(-1, n + 2):
            assert list(depth_module._partitions(n, r, [()] * n)) == list(canonical_partitions(n, r)), (n, r)


def test_the_search_enumerates_the_screened_canonical_partitions():
    """On the seeded configurations the enumerator gives the oracle's
    canonical partitions whose blocks' coordinate ranges meet, in order."""
    for config, r in seeded_partition_configs():
        ints = config.scaled.rows
        screened = [blocks for blocks in canonical_partitions(config.n, r)
                    if not boxes_miss([[ints[l] for l in b] for b in blocks], config.d)]
        assert list(depth_module._partitions(config.n, r, ints)) == screened


def test_the_screen_at_one_block_and_at_singletons():
    """The range screen at the extremes of r, in dimensions 1 to 3: one
    block always passes, and n singletons pass only when every point is
    the same, as the oracle's boxes say."""
    rng = SplitMix64(77)
    for d in (1, 2, 3):
        for n in (1, 2, 4):
            config = random_point_config(d, n, rng, num_bound=2, den_bound=1)
            ints = config.scaled.rows
            for pts in (ints, [ints[0]] * n):
                for r in (1, n):
                    screened = [blocks for blocks in canonical_partitions(n, r)
                                if not boxes_miss([[pts[l] for l in b] for b in blocks], d)]
                    assert list(depth_module._partitions(n, r, pts)) == screened, (d, n, r)
                    assert (r == 1 or len(set(pts)) == 1) == bool(screened)


# sha256 of repr(tukey_depth(x, config, 2)) at the Radon point x of d + 2
# points drawn from SplitMix64(d) (what centerpoint(config, 2) returned
# until r = 2 took its halfspace from _radon_depth), as computed before the
# recursion kept U/q in lowest terms
HIGH_D_CENTERPOINT_SHA256 = {
    2: "4486bc86813f6668dc98205716aee5fa19092a325e97bf0890bf35372e92f367",
    3: "2075348e3f41a037c889a64b5cf523637f4eea805675330343ee392d5b6a22ea",
    4: "fbd79577f9414dfabd8846ece47dcc93001eea288a26193038f9db0031695494",
    8: "7f0603fcf0946620f04f8f5788aec25e0946076fc471897c955dc01faca3d909",
    16: "0e04508000d01853abb2654aff32ac13a21a2c7bb4e0d013e11a2166e69639d6",
    20: "7c25073ccc26875faff5b4736018ad76f2400cace67920292f1e9fc5bde89a53",
    24: "36bfd04e070f1d25e048c61fa6c4a9f27aaf74cd705159271abbd2fc2fd03319",
    32: "13ee59ab1b252d234689927bead21626d35080fcf6c5360cafaf170f0a8cec0a",
}


def test_the_depth_recursion_keeps_its_functional_in_lowest_terms(monkeypatch):
    """Every (U, q) the recursion returns has gcd(q, *U) = 1 (it was 240 at
    the top at d = 3, and the common factor grew with each level), and
    the certificates are the ones the unreduced integers gave."""
    returned = []
    fewest = depth_module._fewest_on_open_side

    def recording(W, d, stop):
        returned.append(fewest(W, d, stop))
        return returned[-1]

    monkeypatch.setattr("tverlab.depth._fewest_on_open_side", recording)
    for d, digest in HIGH_D_CENTERPOINT_SHA256.items():
        returned.clear()
        config = random_point_config(d, d + 2, SplitMix64(d))
        cert = tukey_depth(tverberg_partition(config, 2).point, config, 2)
        assert hashlib.sha256(repr(cert).encode()).hexdigest() == digest, d
        assert returned and all(gcd(q, *U) == 1 for _, U, q in returned), d


def test_tverberg_three_collinear_points():
    config = PointConfig(1, [[0], [1], [2]])
    cert = tverberg_partition(config, 2)
    assert cert.blocks == ((0, 2), (1,))
    assert cert.point == (F(1),)
    assert check_tverberg_certificate(cert, config)


def test_tverberg_square_corners():
    config = PointConfig(2, [[0, 0], [1, 0], [0, 1], [1, 1]])
    cert = tverberg_partition(config, 2)
    assert cert.blocks == ((0, 3), (1, 2))
    assert cert.point == (F(1, 2), F(1, 2))
    for block, weights in zip(cert.blocks, cert.weights):
        pts = subset(config, block)
        assert sum(weights) == 1 and all(w >= 0 for w in weights)
        for k in range(2):
            assert sum(w * p[k] for w, p in zip(weights, pts)) == cert.point[k]


def test_tverberg_none_when_impossible():
    config = PointConfig(1, [[0], [1], [2]])
    assert tverberg_partition(config, 3) is None  # three distinct singletons
    assert tverberg_partition(config, 4) is None  # more parts than points


def test_tampered_tverberg_certificate_rejected():
    config = PointConfig(1, [[0], [1], [2]])
    cert = tverberg_partition(config, 2)
    wrong = type(cert)(blocks=cert.blocks, point=(F(7),), weights=cert.weights)
    assert not check_tverberg_certificate(wrong, config)


def test_tverberg_certificate_needs_one_weight_tuple_per_block():
    """Weights are zipped with blocks, so a short weight list must not
    leave blocks unchecked."""
    config = PointConfig(1, [[0], [1], [2]])
    cert = tverberg_partition(config, 2)
    assert len(cert.blocks) == len(cert.weights) == 2
    short = type(cert)(blocks=cert.blocks, point=cert.point, weights=cert.weights[:1])
    assert not check_tverberg_certificate(short, config)
    none = type(cert)(blocks=cert.blocks, point=(F(10**6),), weights=())
    assert not check_tverberg_certificate(none, config)


def test_tverberg_certificate_needs_nonnegative_weights():
    """Affine weights that sum to one and write the point are not convex
    weights: 1 = -1/2*0 + 2*1 - 1/2*2 certifies nothing."""
    config = PointConfig(1, [[0], [1], [2]])
    convex = TverbergCertificate(((0, 1, 2),), (F(1),), ((F(1, 3),) * 3,))
    assert check_tverberg_certificate(convex, config)
    affine = TverbergCertificate(((0, 1, 2),), (F(1),), ((F(-1, 2), F(2), F(-1, 2)),))
    assert not check_tverberg_certificate(affine, config)


def test_guaranteed_size():
    assert guaranteed_size(1, 2) == 3
    assert guaranteed_size(2, 3) == 7
    assert guaranteed_size(3, 2) == 5


def test_centerpoint_depth_meets_target():
    rng = SplitMix64(777)
    for d, r in ((1, 2), (1, 3), (2, 2)):
        n = guaranteed_size(d, r)
        for _ in range(5):
            config = random_point_config(d, n, rng, num_bound=6, den_bound=2)
            cert = centerpoint(config, r)
            assert cert is not None
            assert cert.depth >= r
            assert check_depth_certificate(cert, config)


def test_reduction_plans():
    plan = reduction_plan(4, 1)
    assert (plan.k, plan.R, plan.m, plan.M) == (2, 7, 6, 13)
    plan = reduction_plan(6, 1)
    assert (plan.k, plan.R, plan.m, plan.M) == (2, 11, 10, 21)
    plan = reduction_plan(3, 2)  # prime r: no lift needed
    assert (plan.k, plan.R, plan.m, plan.M) == (1, 3, 6, 6)
    plan = reduction_plan(4, 2)
    assert (plan.k, plan.R, plan.m, plan.M) == (2, 7, 9, 19)
    for r, d in ((4, 1), (6, 1), (4, 2), (10, 3)):
        p = reduction_plan(r, d)
        assert p.M + 1 == p.k * (p.m + 1)
        assert p.k * (p.r - 1) * p.d + p.k + p.R == p.M + 2


def test_reduce_integer_line_r4():
    config = PointConfig(1, [[i] for i in range(7)])
    cert = reduce_central_from_tverberg(config, 4)
    assert cert.depth >= 4
    assert check_depth_certificate(cert, config)
    assert depth_1d(cert.point[0], [F(i) for i in range(7)]) >= 4


def test_reduce_prime_r_falls_back_to_plain_partition():
    config = PointConfig(1, [[0], [1], [2], [3], [4]])
    cert = reduce_central_from_tverberg(config, 3)
    assert cert.point == (F(2),) and cert.depth == 3


def test_reduce_random_line_configs():
    rng = SplitMix64(321)
    for _ in range(3):
        config = random_point_config(1, 7, rng, num_bound=8, den_bound=3)
        cert = reduce_central_from_tverberg(config, 4)
        assert cert.depth >= 4
        values = [p[0] for p in config.points]
        assert depth_1d(cert.point[0], values) >= 4


def test_reduce_runs_no_hull_membership(monkeypatch):
    def no_hull_scan(*args):
        raise AssertionError("reduce must not solve a hull-membership LP")

    monkeypatch.setattr("tverlab.exactlp._hull_membership", no_hull_scan)
    with pytest.raises(AssertionError):  # the seam every hull LP goes through
        in_convex_hull((F(0),), [(F(0),)])
    rng = SplitMix64(4321)
    for r in (4, 6):
        plan = reduction_plan(r, 1)
        config = random_point_config(1, plan.m + 1, rng, num_bound=6, den_bound=3)
        cert = reduce_central_from_tverberg(config, r)
        assert cert.depth >= r
        assert depth_1d(cert.point[0], [p[0] for p in config.points]) >= r


def test_reduce_rejects_a_partition_with_too_few_blocks(monkeypatch):
    """Merging two of the R blocks, with their weights halved, keeps a valid
    Tverberg certificate of the lift, but R - 1 blocks of a k-fold lift
    prove only depth >= r - 1."""
    real = depth_module._lifted_partition_1d

    def merged(lifted, R):
        cert, K, X = real(lifted, R)
        (first, second, *blocks), (u, v, *weights) = cert.blocks, cert.weights
        halved = tuple(w / 2 for w in u + v)
        cert = TverbergCertificate((first + second, *blocks), cert.point, (halved, *weights))
        assert check_tverberg_certificate(cert, lifted)
        return cert, K, X

    monkeypatch.setattr("tverlab.depth._lifted_partition_1d", merged)
    config = PointConfig(1, [[i] for i in range(7)])
    with pytest.raises(RuntimeError, match="depth < 4"):
        reduce_central_from_tverberg(config, 4)


def test_reduce_on_a_line_solves_no_lp(monkeypatch):
    """On a line the prime lift's pairing is certified by construction: no
    LP runs, up to r = 60 (R = 709 blocks over 1428 lifted points)."""
    def no_lp(*args):
        raise AssertionError("an LP ran on the line")

    monkeypatch.setattr("tverlab.exactlp.lp_feasible", no_lp)
    monkeypatch.setattr("tverlab.depth._common_point", no_lp)
    rng = SplitMix64(0)
    for r in (*range(2, 11), 18, 60):
        config = random_point_config(1, reduction_plan(r, 1).m + 1, rng)
        assert reduce_central_from_tverberg(config, r).depth >= r


@st.composite
def tie_heavy_lifts(draw):
    """The k-fold lift of 2r - 1 points on a line, r = 2..8, with numerators
    in -3..3 over denominators 1..3, so many points coincide, and its R."""
    r = draw(st.integers(2, 8))
    plan = reduction_plan(r, 1)
    scalars = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    points = draw(st.lists(scalars, min_size=plan.m + 1, max_size=plan.m + 1))
    L, P = read_scaled([[p] for p in points])
    return PointConfig(1, Scaled(L, [p for p in P for _ in range(plan.k)])), plan.R


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(tie_heavy_lifts())
def test_the_lifted_pairing_certificate_is_the_lps(case):
    """The pairing's closed-form certificate passes the check, and its point
    is the one the LP finds on the same blocks: on a line only the median
    lies in every block's hull."""
    lifted, R = case
    cert, K, (X,) = depth_module._lifted_partition_1d(lifted, R)
    assert len(cert.blocks) == R and check_tverberg_certificate(cert, lifted)
    assert cert.point == (F(X, K),)
    assert all(list(b) == sorted(b) for b in cert.blocks) and list(cert.blocks) == sorted(cert.blocks)
    L, P = lifted.scaled
    point, _ = common_point_with_weights([Scaled(L, [P[l] for l in b]) for b in cert.blocks])
    assert cert.point == point


def test_reduce_requires_exact_cloud_size():
    with pytest.raises(ValueError):
        reduce_central_from_tverberg(PointConfig(1, [[0], [1]]), 4)


def test_reduce_off_the_line_refuses_a_composite_r_before_any_search(monkeypatch):
    """In d >= 2 no partition of a k-fold lift is constructed, so at k > 1
    reduce raises ValueError naming r, k and R, and no partition is
    searched for: the producer and the canonical walker both raise here."""
    def no_search(*args):
        raise AssertionError("a partition search ran")

    monkeypatch.setattr("tverlab.depth._partition", no_search)
    monkeypatch.setattr("tverlab.depth._partitions", no_search)
    rng = SplitMix64(52)
    for d, r, k, R in ((2, 4, 2, 7), (2, 6, 2, 11), (3, 4, 2, 7), (2, 8, 4, 29)):
        plan = reduction_plan(r, d)
        assert (plan.k, plan.R) == (k, R)
        config = random_point_config(d, plan.m + 1, rng)
        with pytest.raises(ValueError, match=rf"r = {r} .*k = {k} .*R = {R} "):
            reduce_central_from_tverberg(config, r)


def test_reduce_reads_depth_on_the_input_configuration(monkeypatch):
    """The depth half of the certificate is found on the caller's own
    configuration, whether the lift duplicates it (k = 2) or not (k = 1):
    no copy of it is rebuilt and scaled again."""
    seen = []
    real = depth_module.tukey_depth

    def recording(x, config, lower=None):
        seen.append(config)
        return real(x, config, lower)

    monkeypatch.setattr("tverlab.depth.tukey_depth", recording)
    rng = SplitMix64(2718)
    for d, r, k in ((1, 4, 2), (2, 3, 1)):
        plan = reduction_plan(r, d)
        assert plan.k == k
        config = random_point_config(d, plan.m + 1, rng, num_bound=6, den_bound=3)
        seen.clear()
        cert = reduce_central_from_tverberg(config, r)
        assert cert.depth >= r
        assert len(seen) == 1 and seen[0] is config


def test_the_depth_path_builds_no_fraction_of_a_configuration(monkeypatch):
    """Partitions, centerpoints and the prime lift read a configuration's
    integers alone: its `points` are never built.  The lift is the input's
    integer rows, each repeated k times, over the input's own scale."""
    lifts = []
    real = depth_module._partition_certificate
    real_1d = depth_module._lifted_partition_1d

    def recording(config, blocks):
        lifts.append(config)
        return real(config, blocks)

    def recording_1d(lifted, R):
        lifts.append(lifted)
        return real_1d(lifted, R)

    monkeypatch.setattr("tverlab.depth._partition_certificate", recording)
    monkeypatch.setattr("tverlab.depth._lifted_partition_1d", recording_1d)
    rng = SplitMix64(1618)
    for d, r in ((1, 2), (2, 2), (2, 3)):
        config = random_point_config(d, guaranteed_size(d, r), rng, num_bound=6, den_bound=3)
        assert tverberg_partition(config, r) is not None
        assert centerpoint(config, r).depth >= r
        assert "points" not in vars(config)
    for d, r, k in ((1, 4, 2), (1, 6, 2), (2, 3, 1)):
        plan = reduction_plan(r, d)
        assert plan.k == k
        config = random_point_config(d, plan.m + 1, rng, num_bound=6, den_bound=3)
        lifts.clear()
        assert reduce_central_from_tverberg(config, r).depth >= r
        L, P = config.scaled
        assert lifts and all(
            lift.scaled == Scaled(L, [p for p in P for _ in range(k)]) for lift in lifts
        )
        assert all("points" not in vars(c) for c in (config, *lifts))


def input_config(tmp_path, text: str) -> PointConfig:
    """The configuration the command line reads from an --input file."""
    path = tmp_path / "config.json"
    path.write_text(text)
    (config,) = cli_module._configs(SimpleNamespace(input=str(path), d=None))
    return config


def test_config_json_round_trip(tmp_path):
    config = PointConfig(2, [[F(1, 2), 3], ["-2/5", 0]])
    back = input_config(tmp_path, '{"d": 2, "points": [["1/2", "3/1"], ["-2/5", "0/1"]]}')
    assert back == config
    assert back.points[1][0] == F(-2, 5)


# ---------------------------------------------------------------------------
# the Fraction certificate checks, as the oracle of the integer ones
# ---------------------------------------------------------------------------

def fraction_check_depth_certificate(cert, config):
    """check_depth_certificate as it was in Fractions."""
    lam = lambda p: sum(c * v for c, v in zip(cert.halfspace_coeffs, p))
    if lam(cert.point) + cert.halfspace_offset < 0:
        return False
    inside = sum(1 for p in config.points if lam(p) + cert.halfspace_offset >= 0)
    return inside == cert.depth


def fraction_check_tverberg_certificate(cert, config):
    """check_tverberg_certificate as it was in Fractions, with its one
    weight tuple per block."""
    labels = sorted(l for b in cert.blocks for l in b)
    if labels != list(range(config.n)) or len(cert.weights) != len(cert.blocks):
        return False
    for block, ws in zip(cert.blocks, cert.weights):
        if len(block) != len(ws) or any(w < 0 for w in ws) or sum(ws) != 1:
            return False
        combo = tuple(
            sum(w * config.points[l][i] for w, l in zip(ws, block))
            for i in range(config.d)
        )
        if combo != cert.point:
            return False
    return True


TINY = F(1, 10**12)


def perturbed(vec):
    """Per entry of vec: vec with that entry moved by +-1/10^12, and with
    its sign flipped."""
    for j, v in enumerate(vec):
        for w in (v + TINY, v - TINY, -v):
            yield tuple(vec[:j]) + (w,) + tuple(vec[j + 1:])


def tampered_certificates(tv, dp):
    """Copies of a Tverberg certificate tv and a depth certificate dp with
    one field perturbed."""
    T, D = type(tv), type(dp)
    yield from (T(tv.blocks, x, tv.weights) for x in perturbed(tv.point))
    for b, ws in enumerate(tv.weights):
        for w in perturbed(ws):
            yield T(tv.blocks, tv.point, tv.weights[:b] + (w,) + tv.weights[b + 1:])
    yield T(tv.blocks, tv.point, tv.weights[:-1])
    yield from (D(x, dp.depth, dp.halfspace_coeffs, dp.halfspace_offset)
                for x in perturbed(dp.point))
    yield from (D(dp.point, dp.depth + s, dp.halfspace_coeffs, dp.halfspace_offset)
                for s in (-1, 1))
    yield from (D(dp.point, dp.depth, a, dp.halfspace_offset)
                for a in perturbed(dp.halfspace_coeffs))
    yield from (D(dp.point, dp.depth, dp.halfspace_coeffs, a0)
                for (a0,) in perturbed((dp.halfspace_offset,)))


def test_integer_certificate_checks_agree_with_the_fraction_checks():
    """On the certificates of acceptance criterion 3's configurations, from
    its seeds, and on copies with one field perturbed by +-1/10^12 or a
    sign flip, the integer checks and the Fraction ones agree."""
    checks = {
        "TverbergCertificate": (check_tverberg_certificate, fraction_check_tverberg_certificate),
        "DepthCertificate": (check_depth_certificate, fraction_check_depth_certificate),
    }
    accepted = rejected = 0
    for d, r in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        rng = SplitMix64(100 * d + r)
        n = guaranteed_size(d, r)
        for _ in range(50):
            config = random_point_config(d, n, rng, num_bound=6, den_bound=3)
            tv = tverberg_partition(config, r)
            dp = tukey_depth(tv.point, config)
            assert fraction_check_tverberg_certificate(tv, config)
            assert fraction_check_depth_certificate(dp, config)
            for cert in tampered_certificates(tv, dp):
                integer, fraction = checks[type(cert).__name__]
                verdict = integer(cert, config)
                assert verdict == fraction(cert, config)
                accepted += verdict
                rejected += not verdict
    assert accepted > 1000 and rejected > 5000


def one_field_mutations(tv, dp, L):
    """Copies of a Tverberg certificate tv and a depth certificate dp, over
    a configuration of scale L, with one field changed: a weight nudged by
    +-1/(2L) or made negative, a block one weight short, the point shifted
    by +-1/(2L) in one coordinate, the offset moved by +-1/q (q the lcm of
    the coefficients' denominators), or a coefficient's sign flipped."""
    T, D = type(tv), type(dp)
    half = F(1, 2 * L)

    def put(vec, j, value):
        return vec[:j] + (value,) + vec[j + 1:]

    for b, ws in enumerate(tv.weights):
        for j, w in enumerate(ws):
            for v in (w + half, w - half, -w or -half):
                yield T(tv.blocks, tv.point, put(tv.weights, b, put(ws, j, v)))
        yield T(tv.blocks, tv.point, put(tv.weights, b, ws[:-1]))
    for j, x in enumerate(tv.point):
        yield from (T(tv.blocks, put(tv.point, j, x + s * half), tv.weights) for s in (1, -1))
    for j, x in enumerate(dp.point):
        yield from (D(put(dp.point, j, x + s * half), *dp[1:]) for s in (1, -1))
    q = lcm(*(a.denominator for a in dp.halfspace_coeffs))
    yield from (D(*dp[:3], dp.halfspace_offset + F(s, q)) for s in (1, -1))
    for j, a in enumerate(dp.halfspace_coeffs):
        yield D(dp.point, dp.depth, put(dp.halfspace_coeffs, j, -a), dp.halfspace_offset)


def test_the_one_read_paths_match_the_read_per_row_references():
    """On the seeded (d, r) grids of the checks above and of the early-stop
    tests below, tukey_depth gives the certificate of its reference over
    the lcm of the two scales, with and without `lower`, at the partition
    point, at each configuration point and at a drawn point; and the two
    certificate checks, reading the point and the rows after it at once,
    give the verdicts of their read-per-row references on every valid
    certificate and every one-field mutation of it."""
    checks = {
        "TverbergCertificate": (check_tverberg_certificate, check_tverberg_certificate_read_per_row),
        "DepthCertificate": (check_depth_certificate, check_depth_certificate_read_per_row),
    }
    cases = []
    for d, r in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        rng = SplitMix64(100 * d + r)
        cases += [(random_point_config(d, guaranteed_size(d, r), rng, num_bound=6, den_bound=3), r)
                  for _ in range(10)]
    cases += seeded_centerpoint_configs()
    rng = SplitMix64(35)
    verdicts = {True: 0, False: 0}
    for config, r in cases:
        tv = tverberg_partition(config, r)
        dp = tukey_depth(tv.point, config)
        assert dp == tukey_depth_over_the_lcm(tv.point, config)
        assert tukey_depth(tv.point, config, r) == tukey_depth_over_the_lcm(tv.point, config, r)
        for x in (*config.points, rng.rational_point(config.d, 6, 5)):
            assert tukey_depth(x, config) == tukey_depth_over_the_lcm(x, config)
        for cert in (tv, dp, *one_field_mutations(tv, dp, config.scaled.scale)):
            one_read, per_row = checks[type(cert).__name__]
            verdict = one_read(cert, config)
            assert verdict == per_row(cert, config), cert
            verdicts[verdict] += 1
    assert verdicts[True] > 300 and verdicts[False] > 2000, verdicts


def test_the_partition_search_scales_each_configuration_once(monkeypatch):
    """However many candidates tverberg_partition scans, the configuration's
    points reach read_scaled once, when it is built, and the search calls
    it no more (the certificate is checked on the LP's integers) and builds
    no Fraction of the configuration.  The kernel
    scales nothing per solve: every block it reads is already Scaled.  The
    r = 2 configurations go through the search, with their Radon step
    off."""
    monkeypatch.setattr("tverlab.depth._radon_partition", lambda config: None)
    unread = []
    read = exactlp_module.read_scaled

    def reading(rows):
        if not isinstance(rows, Scaled):
            unread.append(rows)
        return read(rows)

    monkeypatch.setattr("tverlab.exactlp.read_scaled", reading)
    calls = {"tverlab.depth.read_scaled": [], "tverlab.exactlp.lp_feasible": []}

    def counting(name, fn):
        def counted(*args):
            calls[name].append(args)
            return fn(*args)
        return counted

    for name in calls:
        module, attr = name.rsplit(".", 1)
        monkeypatch.setattr(name, counting(name, getattr(sys.modules[module], attr)))
    solves_seen = set()
    for d, r in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        rng = SplitMix64(100 * d + r)
        for _ in range(10):
            for seen in calls.values():
                seen.clear()
            config = random_point_config(d, guaranteed_size(d, r), rng, num_bound=6, den_bound=3)
            assert len(calls["tverlab.depth.read_scaled"]) == 1
            assert tverberg_partition(config, r) is not None
            solves_seen.add(len(calls["tverlab.exactlp.lp_feasible"]))
            assert len(calls["tverlab.depth.read_scaled"]) == 1
            assert "points" not in vars(config)
    assert unread == []
    assert len(solves_seen) > 5  # scans of many lengths


def test_r2_certificates_are_checked_on_the_integers_that_made_them(monkeypatch):
    """On seeded r = 2 configurations (the Radon step), neither
    tverberg_partition nor centerpoint reads a row holding a Fraction
    through read_scaled: both certificates are checked on the integers
    their producers computed.  Every certificate
    passes the public checks, and a copy with one weight changed, or with
    the offset moved by -1, fails both the public check and the integer
    body."""
    configs = [random_point_config(d, guaranteed_size(d, 2), SplitMix64(700 + 10 * d + i),
                                   num_bound=6, den_bound=3)
               for d in (1, 2, 3) for i in range(10)]
    reads = []
    real = depth_module.read_scaled

    def recording(rows):
        if not isinstance(rows, Scaled) and any(type(c) is F for row in rows for c in row):
            reads.append(rows)
        return real(rows)

    monkeypatch.setattr("tverlab.depth.read_scaled", recording)
    for config in configs:
        reads.clear()
        tv = tverberg_partition(config, 2)
        assert reads == []
        dp = centerpoint(config, 2)
        assert reads == [] and dp.point == tv.point
        assert check_tverberg_certificate(tv, config) and check_depth_certificate(dp, config)
        K, (X, *w) = read_scaled([tv.point, *tv.weights])
        assert depth_module._tverberg_holds(tv.blocks, K, X, w, config)
        nudged = (tv.weights[0][0] + 1, *tv.weights[0][1:])
        assert not check_tverberg_certificate(tv._replace(weights=(nudged, *tv.weights[1:])), config)
        w[0] = (w[0][0] + K, *w[0][1:])
        assert not depth_module._tverberg_holds(tv.blocks, K, X, w, config)
        K, (X, (*a, a0)) = read_scaled([dp.point, (*dp.halfspace_coeffs, dp.halfspace_offset)])
        assert depth_module._depth_holds(K, X, a, a0, dp.depth, config)
        assert not check_depth_certificate(dp._replace(halfspace_offset=dp.halfspace_offset - 1), config)
        assert not depth_module._depth_holds(K, X, a, a0 - K, dp.depth, config)


def test_r3_certificates_are_checked_on_the_integers_that_made_them(monkeypatch):
    """On seeded (1,3), (2,3) and (1,4) configurations at the guaranteed
    size (the canonical search, the lift's pairing at d = 1 and the k = 1
    route at (2,3)), tverberg_partition, centerpoint and reduce read no row
    holding a Fraction through read_scaled: each certificate is checked on
    the integers its producer computed, and the depth search starts from
    the point's integers.  Every certificate passes the public checks, a
    weight or the point off by one fails _tverberg_holds, so do zero
    weights over K = 0, and with _tverberg_holds refusing, each of the
    three raises."""
    cases = [(r, random_point_config(d, guaranteed_size(d, r), SplitMix64(900 + 10 * d + r + 100 * i),
                                     num_bound=6, den_bound=3))
             for d, r in ((1, 3), (2, 3), (1, 4)) for i in range(4)]
    reads = []
    real = depth_module.read_scaled

    def recording(rows):
        if not isinstance(rows, Scaled) and any(type(c) is F for row in rows for c in row):
            reads.append(rows)
        return real(rows)

    monkeypatch.setattr("tverlab.depth.read_scaled", recording)
    for r, config in cases:
        reads.clear()
        tv = tverberg_partition(config, r)
        dp = centerpoint(config, r)
        reduced = reduce_central_from_tverberg(config, r)
        assert reads == []
        assert dp.point == tv.point and min(dp.depth, reduced.depth) >= r
        assert check_tverberg_certificate(tv, config)
        assert check_depth_certificate(dp, config) and check_depth_certificate(reduced, config)
        K, (X, *w) = read_scaled([tv.point, *tv.weights])
        assert depth_module._tverberg_holds(tv.blocks, K, X, w, config)
        heavier = [(w[0][0] + 1, *w[0][1:]), *w[1:]]
        assert not depth_module._tverberg_holds(tv.blocks, K, X, heavier, config)
        assert not depth_module._tverberg_holds(tv.blocks, K, (X[0] + 1, *X[1:]), w, config)
        zeros = [[0] * len(b) for b in tv.blocks]
        assert not depth_module._tverberg_holds(tv.blocks, 0, [0] * config.d, zeros, config)
    monkeypatch.setattr("tverlab.depth._tverberg_holds", lambda *args: False)
    for r, config in cases:
        for run in (tverberg_partition, centerpoint, reduce_central_from_tverberg):
            with pytest.raises(RuntimeError, match="partition certificate failed verification"):
                run(config, r)


def test_the_partition_returns_the_integers_that_certify_it():
    """_partition(config, r) returns the certificate with (K, X), the point
    X/K and every weight over K an integer that _tverberg_holds accepts: at
    r = 2 from the Radon step and, on collinear points, which have more
    than one affine dependency, from the search; at r = 3 and 4 from the
    search."""
    rng = SplitMix64(31)
    configs = [(random_point_config(d, guaranteed_size(d, r), rng, num_bound=6, den_bound=3), r)
               for d, r in ((1, 2), (2, 2), (1, 3), (2, 3), (1, 4))]
    configs.append((PointConfig(2, [[0, 0], [1, 1], [3, 3], [F(1, 2), F(1, 2)]]), 2))
    for config, r in configs:
        cert, K, X, _ = depth_module._partition(config, r)
        assert K > 0 and cert.point == tuple(F(c, K) for c in X)
        scaled = [[w * K for w in ws] for ws in cert.weights]
        assert all(w.denominator == 1 for ws in scaled for w in ws)
        assert depth_module._tverberg_holds(cert.blocks, K, X, [[int(w) for w in ws] for ws in scaled], config)
        assert tverberg_partition(config, r) == cert


def affine_image(config, A, t):
    """The configuration mapped by y -> A y + t."""
    return PointConfig(config.d, [[sum(a * c for a, c in zip(row, p)) + s for row, s in zip(A, t)]
                                  for p in config.points])


@st.composite
def affine_cases(draw):
    """A seeded configuration at the guaranteed size for (d, r) in (1,3),
    (2,3), (1,4) and (2,2), and an invertible rational affine map (A, t)
    with entries of height at most 5/3, drawn from a second seed."""
    d, r = draw(st.sampled_from(((1, 3), (2, 3), (1, 4), (2, 2))))
    return d, r, draw(st.integers(0, 2**32)), draw(st.integers(0, 2**32))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(affine_cases())
@example((16, 2, 16, 1))
@example((2, 3, 5, 7))
@example((1, 4, 3, 11))
@example((5, 3, 13, 113))  # d >= 5, r >= 3: the depth recursion with `lower`, past the oracles' reach
def test_partitions_points_and_depths_follow_an_affine_map(case):
    """Hull intersection and Tukey depth are affine-invariant, while the
    search's screens and the depth recursion's path are not: under an
    invertible rational affine map the canonical blocks are equal, the
    common point maps to the image of the point, and its depth is equal."""
    d, r, seed, map_seed = case
    config = random_point_config(d, guaranteed_size(d, r), SplitMix64(seed), num_bound=6, den_bound=3)
    rng = SplitMix64(map_seed)
    while True:
        A = [rng.rational_point(d, 5, 3) for _ in range(d)]
        _, rows = read_scaled(A)
        if len(bareiss_eliminate([list(row) for row in rows], d)[1]) == d:
            break
    t = rng.rational_point(d, 5, 3)
    image = affine_image(config, A, t)
    assert tverberg_partition(image, r).blocks == tverberg_partition(config, r).blocks
    cert, mapped = centerpoint(config, r), centerpoint(image, r)
    assert mapped.point == tuple(sum(a * c for a, c in zip(row, cert.point)) + s for row, s in zip(A, t))
    assert mapped.depth == cert.depth >= r


def test_the_full_depth_scan_at_d_5_matches_the_hull_oracle():
    """The affine relation cannot see a depth that is too high, since every
    count the recursion compares is affine-invariant.  Here tukey_depth,
    with no `lower`, scans every branch at the centroid of 13 drawn points
    in R^5, and the hull oracle settles the depth: the centroid lies in
    the hull of every 12 of the points and not of some 11, so it is 2."""
    for s in (2, 4):
        config = random_point_config(5, 13, SplitMix64(13000 + s))
        x = tuple(sum(p[i] for p in config.points) / 13 for i in range(5))
        assert hull_membership_depth(x, config, 12) and not hull_membership_depth(x, config, 11)
        cert = tukey_depth(x, config)
        assert cert.depth == 2 and check_depth_certificate(cert, config)


def test_depths_and_partitions_follow_a_relabelling():
    """Tukey depth does not read the labels: on seeded sets at the
    guaranteed size for (1,3), (2,2), (2,3), (3,2) and (4,2), with their
    labels permuted by a second seed, the exhaustive depth of centerpoint's
    point is equal on the set and on its relabelling.  The relabelled
    set's partition, which the canonical order may pick differently,
    passes the public check, and so does its blocks' image on the set."""
    for d, r in ((1, 3), (2, 2), (2, 3), (3, 2), (4, 2)):
        for i in range(3):
            config = random_point_config(d, guaranteed_size(d, r), SplitMix64(1900 + 10 * d + r + 100 * i),
                                         num_bound=6, den_bound=3)
            rng, order = SplitMix64(2900 + 10 * d + r + 100 * i), list(range(config.n))
            for j in range(config.n - 1, 0, -1):
                k = rng.below(j + 1)
                order[j], order[k] = order[k], order[j]
            L, P = config.scaled
            relabelled = PointConfig(d, Scaled(L, [P[v] for v in order]))
            x = centerpoint(config, r).point
            assert tukey_depth(x, relabelled).depth == tukey_depth(x, config).depth >= r
            tv = tverberg_partition(relabelled, r)
            assert check_tverberg_certificate(tv, relabelled)
            back = tuple(tuple(order[v] for v in b) for b in tv.blocks)
            assert check_tverberg_certificate(tv._replace(blocks=back), config)


def test_an_input_config_reads_each_scalar_once_without_a_string_parse(tmp_path):
    """An --input configuration's ints and plain "p/q" strings are read
    into integers once (`PointConfig` takes them as read); the Fractions
    are built from those integers, never from a string, and only when
    `points` is read.  Other scalars `rat` reads give the same values."""
    plain = [[3, "-1/2"], ["4/6", "0"], ["-7", 2], ["5/3", "10/4"]]
    parsed = []
    new = vars(F)["__new__"]

    def counted(cls, *args, **kwargs):
        parsed.extend(a for a in args if isinstance(a, str))
        return new.__func__(cls, *args, **kwargs)

    F.__new__ = staticmethod(counted)
    try:
        config = input_config(tmp_path, json.dumps({"d": 2, "points": plain}))
    finally:
        F.__new__ = new
    assert parsed == []
    assert "scaled" in vars(config) and "points" not in vars(config)
    assert config == PointConfig(2, plain)
    assert config.scaled == read_scaled(config.points)
    other = [[" 1/2 ", "0.25"], ["1e-1", "2/4"]]
    config = input_config(tmp_path, json.dumps({"d": 2, "points": other}))
    assert config == PointConfig(2, other)
    assert config.scaled == read_scaled(config.points)


# ---------------------------------------------------------------------------
# the searches stop early on the certificates they hold
# ---------------------------------------------------------------------------

def seeded_centerpoint_configs():
    """Seeded configurations at the guaranteed size for d <= 4, r <= 3."""
    for d in (1, 2, 3, 4):
        for r in (2, 3):
            rng = SplitMix64(5000 + 10 * d + r)
            for _ in range(4 if d * r < 12 else 2):
                yield random_point_config(d, guaranteed_size(d, r), rng, num_bound=6, den_bound=3), r


def test_the_depth_bounded_by_the_partition_is_the_exhaustive_one():
    """The depth search stopped at the blocks' lower bound returns the
    certificate the exhaustive search returns, and centerpoint's point and
    depth are its."""
    for config, r in seeded_centerpoint_configs():
        cert = centerpoint(config, r)
        exhaustive = tukey_depth(cert.point, config)
        assert tukey_depth(cert.point, config, r) == exhaustive
        assert (cert.point, cert.depth) == (exhaustive.point, exhaustive.depth)
        assert cert.depth >= r


@st.composite
def configs_with_a_depth_bound(draw):
    """A configuration and a query as configs_and_queries draws them, with
    every lower bound from 0 to the query's exact depth."""
    config, x = draw(configs_and_queries())
    return config, x, tukey_depth(x, config)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(configs_with_a_depth_bound())
def test_any_true_lower_bound_gives_the_exhaustive_certificate(case):
    config, x, exhaustive = case
    for lower in range(exhaustive.depth + 1):
        assert tukey_depth(x, config, lower) == exhaustive


def test_a_depth_below_the_lower_bound_is_an_internal_error(monkeypatch, capsys, tmp_path):
    """The square's two diagonals meet at its centre, a point of depth 2
    that no corner sits on; a recursion that answered 0 there would break
    the bound the two blocks prove.  The Radon step is off, so the depth
    comes from the recursion."""
    from tverlab.cli import main

    monkeypatch.setattr("tverlab.depth._radon_partition", lambda config: None)
    monkeypatch.setattr("tverlab.depth._fewest_on_open_side", lambda W, d, stop: (0, [0] * d, 1))
    corners = [[0, 0], [2, 0], [0, 2], [2, 2]]
    with pytest.raises(RuntimeError, match="depth 0 below the proven lower bound 2"):
        centerpoint(PointConfig(2, corners), 2)
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"d": 2, "points": corners}))
    for command in ("centerpoint", "tverberg"):
        assert main([command, "--r", "2", "--input", str(path)]) == 3
        record = json.loads(capsys.readouterr().out)
        assert record == {"command": command,
                          "internal_error": "depth 0 below the proven lower bound 2"}


def test_the_bounded_depth_search_makes_few_recursion_calls(monkeypatch):
    """centerpoint's depth search, stopped at the blocks' bound r = 3,
    against the full tukey_depth scan of the same point, in recursion
    calls: at (4,3) seed 1, 5 against 1784; on (1,3), (2,3) and (3,3) sets
    drawn in turn from seed 5, 2, 3 and 4 against 2, 11 and 115.  The
    search stops at a halfspace holding exactly r points; one that stopped
    only below the bound would return the same certificate after the full
    scan's work."""
    calls = []
    recursion = depth_module._fewest_on_open_side

    def counted(*args):
        calls.append(len(args[0]))
        return recursion(*args)

    monkeypatch.setattr("tverlab.depth._fewest_on_open_side", counted)
    rng = SplitMix64(5)
    configs = [random_point_config(4, guaranteed_size(4, 3), SplitMix64(1)),
               *(random_point_config(d, guaranteed_size(d, 3), rng) for d in (1, 2, 3))]
    stopped, full = [], []
    for config in configs:
        calls.clear()
        cert = centerpoint(config, 3)
        stopped.append(len(calls))
        calls.clear()
        assert tukey_depth(cert.point, config) == cert
        full.append(len(calls))
    assert (stopped, full) == ([5, 2, 3, 4], [1784, 2, 11, 115])


def seeded_partition_configs():
    """Configurations of acceptance criterion 3's sizes and seeds (ten per
    size), and a few past its sizes."""
    for d, r, trials in ((1, 2, 10), (1, 3, 10), (2, 2, 10), (2, 3, 10), (3, 2, 10),
                         (1, 4, 3), (2, 4, 2), (3, 3, 2)):
        rng = SplitMix64(100 * d + r)
        for _ in range(trials):
            yield random_point_config(d, guaranteed_size(d, r), rng, num_bound=6, den_bound=3), r


def test_the_search_with_cuts_returns_the_cut_free_certificates():
    for config, r in seeded_partition_configs():
        cert = tverberg_partition(config, r)
        assert repr(cert) == repr(cut_free_tverberg_partition(config, r))


@st.composite
def partition_instances(draw):
    """2-9 points in d <= 3 with small rational coordinates (repeats and
    collinear points are likely), and r in 2..3; below the guaranteed size
    the search may find no partition."""
    d = draw(st.integers(1, 3))
    r = draw(st.integers(2, 3))
    coord = st.builds(F, st.integers(-3, 3), st.integers(1, 2))
    n = draw(st.integers(r, min(9, guaranteed_size(d, r))))
    points = draw(st.lists(st.tuples(*[coord] * d), min_size=n, max_size=n))
    return PointConfig(d, tuple(points)), r


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(partition_instances())
def test_the_search_with_cuts_agrees_with_the_cut_free_one(case):
    config, r = case
    assert repr(tverberg_partition(config, r)) == repr(cut_free_tverberg_partition(config, r))


def farkas_of_a_cut(functionals, blocks, config):
    """The Farkas multipliers that a cut, by its minima over the blocks,
    gives the blocks' own partition system, on its Fraction rows:
    c_j = -min_{v in block j} u_j.v on the sum rows and y_B = -u_B on block
    B's coupling rows."""
    minima = [min(sum(c * p for c, p in zip(u, config.points[v])) for v in b)
              for u, b in zip(functionals, blocks)]
    return tuple(-m for m in minima) + tuple(F(-c) for u in functionals[1:] for c in u)


def test_every_cut_rejection_is_a_farkas_certificate_of_its_candidate(monkeypatch):
    """Replaying the canonical order: a candidate that passes the box goes
    to the LP exactly when no earlier cut separates its blocks, and each
    one a cut rejects gets, from that cut, a Farkas certificate for its own
    system that check_farkas accepts.  The r = 2 configurations go through
    the search, with their Radon step off."""
    monkeypatch.setattr("tverlab.depth._radon_partition", lambda config: None)
    solved = []
    certificate = depth_module._partition_certificate

    def recording(config, blocks):
        solved.append((blocks, certificate(config, blocks)))
        return solved[-1][1]

    monkeypatch.setattr("tverlab.depth._partition_certificate", recording)
    rejected = 0
    for config, r in seeded_partition_configs():
        solved.clear()
        found = tverberg_partition(config, r)
        ints = config.scaled.rows
        lp = iter(solved)
        cuts = []
        for blocks in canonical_partitions(config.n, r):
            if boxes_miss([[ints[l] for l in b] for b in blocks], config.d):
                continue
            cut = next((u for u in cuts if separated(u, blocks, ints)), None)
            if cut is None:
                sent, outcome = next(lp)
                assert sent == blocks
                if isinstance(outcome[0], TverbergCertificate):
                    assert outcome[0] == found
                    break
                cuts.append(outcome)
                cut = outcome
            else:
                rejected += 1
            system = fraction_partition_system([subset(config, b) for b in blocks])
            nu = farkas_of_a_cut(cut, blocks, config)
            assert check_farkas(system, integer_multipliers(system, nu))
        assert next(lp, None) is None
    assert rejected > 300


def separated(functionals, blocks, ints):
    return sum(min(sum(c * p for c, p in zip(u, ints[v])) for v in b)
               for u, b in zip(functionals, blocks)) > 0


# ---------------------------------------------------------------------------
# r = 2: Radon partitions from the points' affine dependency
# ---------------------------------------------------------------------------

def searched_without_radon(config):
    """tverberg_partition(config, 2) by the canonical search alone."""
    radon = depth_module._radon_partition
    depth_module._radon_partition = lambda config: None
    try:
        return tverberg_partition(config, 2)
    finally:
        depth_module._radon_partition = radon


@st.composite
def radon_instances(draw):
    """1..d+4 points in R^d, d = 0..4, with small rational coordinates:
    distinct points drawn freely, of which each after the first may be
    replaced by a repeat of an earlier one or a point on the line or plane
    through two or three earlier ones (an affine combination of them), so
    sets in general position and degenerate ones are both common."""
    d = draw(st.integers(0, 4))
    n = draw(st.integers(1, d + 4))
    coord = st.builds(F, st.integers(-6, 6), st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[coord] * d), min_size=n, max_size=n, unique=d > 0))
    for j in range(1, n):
        k = draw(st.sampled_from((0, 0, 0, 0, 1, 2, 3)))
        if k:
            base = [draw(st.sampled_from(points[:j])) for _ in range(k)]
            ts = [draw(coord) for _ in range(k - 1)]
            weights = [*ts, 1 - sum(ts)]
            points[j] = tuple(sum(w * q[i] for w, q in zip(weights, base)) for i in range(d))
    return PointConfig(d, tuple(points))


# degenerate sets for the Radon step, with their dependency (or None)
DEGENERATE_RADON_SETS = (
    (PointConfig(2, []), None),
    (PointConfig(2, [(1, 2)]), None),
    (PointConfig(3, [(1, 2, 3), (1, 2, 3)]), (1, -1)),  # n = 2, one point repeated
    (PointConfig(2, [(0, 1), (4, 4)]), None),
    (PointConfig(0, [(), ()]), (1, -1)),  # d = 0
    (PointConfig(0, [(), (), ()]), None),
    (PointConfig(2, [(1, 1), (0, 0), (3, 2), (1, 1)]), (1, 0, 0, -1)),  # a repeated point
    (PointConfig(3, [(0, 0, 0), (2, 4, 6), (1, 2, 3)]), (1, 1, -2)),  # collinear in R^3
    (PointConfig(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (3, 1, 4)]), None),  # d + 3
)


def test_the_affine_dependency_matches_the_homogeneous_elimination():
    """_affine_dependency, from the d x (n-1) differences P_k - P_0, is the
    primitive kernel vector of the (d+1)-row matrix with columns (P_v, 1),
    or None with it, on seeded sets of 1..d+4 points in R^d (d + 2 of them
    in general position have one) and on degenerate ones."""
    seeded = [random_point_config(d, n, SplitMix64(400 + 10 * d + n))
              for d in range(6) for n in range(1, d + 5)]
    for config in seeded:
        kappa = depth_module._affine_dependency(config)
        assert kappa == affine_dependency_homogeneous(config)
        assert (kappa is not None) == (config.n == config.d + 2 or config.n == 2 and config.d == 0)
    for config, kappa in DEGENERATE_RADON_SETS:
        assert depth_module._affine_dependency(config) == affine_dependency_homogeneous(config) == kappa


def with_degenerate_examples(test):
    """The test with each set of DEGENERATE_RADON_SETS as an @example."""
    for config, _ in DEGENERATE_RADON_SETS:
        test = example(config)(test)
    return test


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(radon_instances())
def test_the_radon_step_returns_the_search_certificate(config):
    searched = searched_without_radon(config)
    radon = depth_module._radon_partition(config)
    assert radon is None or radon[0] == searched
    assert repr(tverberg_partition(config, 2)) == repr(searched)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(radon_instances())
@example(PointConfig(2, [(5, 5), (0, 0), (2, 0), (1, 0)]))  # kappa (0, 1, 1, -2): label 0 outside the dependency
@example(random_point_config(16, 18, SplitMix64(16)))
@with_degenerate_examples
def test_the_radon_halfspace_holds_the_point_and_two_points(config):
    """Where the Radon step answers, the depth halfspace of centerpoint
    passes through x, holds exactly two points, i0 and j0 (the first labels
    with kappa > 0 and kappa < 0), passes the public check, and its depth
    is the exhaustive search's (past d = 6, where that search takes
    seconds, the search's stopped at the blocks' proven bound 2, which is
    the same: test_any_true_lower_bound_gives_the_exhaustive_certificate)."""
    found = depth_module._partition(config, 2)
    if found is None or found[3] is None:
        return
    cert, dp = depth_module._partition_and_depth(config, 2)
    assert cert == found[0] and dp.point == cert.point and dp.depth == 2
    values = [sum(a * c for a, c in zip(dp.halfspace_coeffs, p)) + dp.halfspace_offset
              for p in (dp.point, *config.points)]
    kappa = found[3]
    ends = {next(v for v, k in enumerate(kappa) if k > 0), next(v for v, k in enumerate(kappa) if k < 0)}
    assert values[0] == 0 and {v for v, h in enumerate(values[1:]) if h >= 0} == ends
    assert check_depth_certificate(dp, config)
    assert tukey_depth(dp.point, config, None if config.d <= 6 else 2).depth == 2


def test_radon_partitions_at_d_plus_2_points_solve_no_lp(monkeypatch):
    """In general position d + 2 points have one affine dependency, and
    centerpoint, tverberg and reduce at r = 2 read the partition off it."""
    def no_lp(system):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr("tverlab.exactlp.lp_feasible", no_lp)
    for d in range(0, 6):
        rng = SplitMix64(200 + d)
        for _ in range(10):
            config = random_point_config(d, d + 2, rng)
            cert = tverberg_partition(config, 2)
            assert check_tverberg_certificate(cert, config)
            assert cert.blocks[0][0] == 0 and all(cert.blocks)
            assert centerpoint(config, 2).depth >= 2
            if d >= 2:
                assert reduce_central_from_tverberg(config, 2).depth >= 2


def test_each_partition_runs_the_radon_step_once(monkeypatch):
    """At r = 2, centerpoint, tverberg_partition and reduce each compute the
    affine dependency once: on seeded sets past d + 2 points, where the
    step gives no answer and the search decides, on the degenerate sets,
    and on reduce's d + 2 points at (2,2) and (3,2).  Where the step
    answers, the depth comes from it, with no depth recursion."""
    counts = dict.fromkeys(("_affine_dependency", "_fewest_on_open_side"), 0)

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    seeded = [random_point_config(d, n, SplitMix64(600 + 10 * d + n), num_bound=6, den_bound=3)
              for d in (1, 2, 3) for n in (d + 3, d + 4)]
    cases = [(run, config) for config in (*seeded, *(c for c, _ in DEGENERATE_RADON_SETS))
             for run in (centerpoint, tverberg_partition)]
    cases += [(reduce_central_from_tverberg, random_point_config(d, d + 2, SplitMix64(650 + 10 * d + i)))
              for d in (2, 3) for i in range(3)]
    answered = [depth_module._radon_partition(config) is not None for _, config in cases]
    for name in counts:
        monkeypatch.setattr(f"tverlab.depth.{name}", counting(name, getattr(depth_module, name)))
    for (run, config), radon in zip(cases, answered):
        for name in counts:
            counts[name] = 0
        run(config, 2)
        assert counts["_affine_dependency"] == 1, (run.__name__, config)
        if radon:
            assert counts["_fewest_on_open_side"] == 0, (run.__name__, config)
    assert answered.count(False) > 10 and answered.count(True) > 10


def test_past_d_plus_2_points_the_search_decides(monkeypatch):
    """Past d + 2 points the kernel is at least a plane: the step answers
    nothing, and the search solves LPs and finds the cut-free answer."""
    answers, solves = [], []
    radon = depth_module._radon_partition
    solve = exactlp_module.lp_feasible

    def recorded(config):
        answers.append(radon(config))
        return answers[-1]

    def counted(system):
        solves.append(1)
        return solve(system)

    monkeypatch.setattr("tverlab.depth._radon_partition", recorded)
    monkeypatch.setattr("tverlab.exactlp.lp_feasible", counted)
    for d in (1, 2, 3):
        rng = SplitMix64(300 + d)
        for n in (d + 3, d + 4, d + 5):
            solves.clear()
            config = random_point_config(d, n, rng)
            cert = tverberg_partition(config, 2)
            assert answers[-1] is None and solves
            assert repr(cert) == repr(cut_free_tverberg_partition(config, 2))


def test_a_kappa_that_is_not_the_oriented_dependency_is_rejected(monkeypatch, capsys, tmp_path):
    """The square's corners have the one dependency (1, -1, -1, 1): its
    diagonals cross.  Its negative, a combination that misses a coordinate
    or the sum, and zero are each an internal error."""
    from tverlab.cli import main

    corners = [[0, 0], [2, 0], [0, 2], [2, 2]]
    config = PointConfig(2, corners)
    assert depth_module._affine_dependency(config) == (1, -1, -1, 1)
    assert tverberg_partition(config, 2).blocks == ((0, 3), (1, 2))
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"d": 2, "points": corners}))
    for kappa in ((-1, 1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 2), (0, 0, 0, 0)):
        monkeypatch.setattr("tverlab.depth._affine_dependency", lambda config: kappa)
        with pytest.raises(RuntimeError, match="affine dependency failed verification"):
            tverberg_partition(config, 2)
        assert main(["tverberg", "--r", "2", "--input", str(path)]) == 3
        assert json.loads(capsys.readouterr().out) == {
            "command": "tverberg", "internal_error": "affine dependency failed verification"
        }
