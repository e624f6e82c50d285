"""End-to-end acceptance gate.

Each test checks one headline claim over seeded exact-rational inputs and
prints a single pass/fail line (run with ``pytest -s`` to see them).
Everything is zero-tolerance: equalities and inequalities over Fraction.
"""
import json
from fractions import Fraction as F

from tverlab import (
    SplitMix64,
    centerpoint,
    cross_polytope_sphere,
    disjoint_union_index,
    hind,
    min_cover_barycentric,
    probe_tverberg_plus_one,
    random_point_config,
    reduce_central_from_tverberg,
    reduction_plan,
    build_counterexample,
    tukey_depth,
    tverberg_partition,
    verify_isolation,
)
from tverlab.cli import main
from tverlab.depth import check_depth_certificate, check_tverberg_certificate, guaranteed_size

from oracles import (
    barycentric_to_centered,
    hull_membership_depth,
    min_cover_homothety,
    standard_simplex_body,
    subset,
)

PAIRS = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))


def _report(num, title, body):
    try:
        body()
    except BaseException:
        print(f"criterion {num} ({title}): FAIL")
        raise
    print(f"criterion {num} ({title}): PASS")


def _configs(d, r, count, seed):
    rng = SplitMix64(seed)
    n = guaranteed_size(d, r)
    return [random_point_config(d, n, rng, num_bound=6, den_bound=3) for _ in range(count)]


def test_criterion_1_centerpoints():
    def body():
        for d, r in PAIRS:
            for config in _configs(d, r, 50, seed=100 * d + r):
                cert = centerpoint(config, r)
                assert cert is not None
                assert cert.depth >= r
                assert check_depth_certificate(cert, config)

    _report(1, "centerpoint depth", body)


def test_criterion_2_depth_hull_equivalence():
    def body():
        rng = SplitMix64(20_000)
        for trial in range(200):
            d = rng.int_between(1, 2)
            n = rng.int_between(3, 8)
            config = random_point_config(d, n, rng, num_bound=4, den_bound=2)
            if trial % 2:
                size = rng.int_between(1, n)
                labels = sorted(rng.below(n) for _ in range(size))
                pts = subset(config, sorted(set(labels)))
                x = tuple(sum(p[k] for p in pts) / len(pts) for k in range(d))
            else:
                x = rng.rational_point(d, num_bound=4, den_bound=2)
            depth = tukey_depth(x, config).depth
            for r in range(1, n + 1):
                assert (depth >= r) == hull_membership_depth(x, config, n - r + 1)

    _report(2, "depth vs hull membership", body)


def test_criterion_3_tverberg_partitions():
    def body():
        for d, r in PAIRS:
            for config in _configs(d, r, 50, seed=100 * d + r):
                cert = tverberg_partition(config, r)
                assert cert is not None
                assert check_tverberg_certificate(cert, config)
                assert tukey_depth(cert.point, config).depth >= r

    _report(3, "Tverberg partitions", body)


def test_criterion_4_depth_reduction():
    def body():
        plan4 = reduction_plan(4, 1)
        assert (plan4.k, plan4.R, plan4.M) == (2, 7, 13)
        plan6 = reduction_plan(6, 1)
        assert (plan6.k, plan6.R) == (2, 11)
        for plan in (plan4, plan6):
            assert plan.M + 1 == plan.k * (plan.m + 1)
            assert plan.k * (plan.r - 1) * plan.d + plan.k + plan.R == plan.M + 2
            assert plan.M == (plan.R - 1) * (plan.d + 1) + plan.k - 1
        for r, plan in ((4, plan4), (6, plan6)):
            rng = SplitMix64(4000 + r)
            q = plan.d * (r - 1) + 1
            for _ in range(10):
                config = random_point_config(1, plan.m + 1, rng, num_bound=6, den_bound=3)
                cert = reduce_central_from_tverberg(config, r)
                assert cert.depth >= r
                assert hull_membership_depth(cert.point, config, q)

    _report(4, "prime-lift reduction", body)


def test_criterion_5_index_calibration():
    def body():
        for m in range(4):
            assert hind(cross_polytope_sphere(m)) == m
        rng = SplitMix64(55)
        for _ in range(10):
            a, b = rng.below(3), rng.below(3)
            X, Y = cross_polytope_sphere(a), cross_polytope_sphere(b)
            assert disjoint_union_index(X, Y) == max(a, b)

    _report(5, "index calibration", body)


def test_criterion_6_isolation_exhaustive():
    def body():
        for d, r in ((1, 2), (1, 3), (2, 2)):
            report = verify_isolation(build_counterexample(d, r))
            assert report.rows
            for row in report.rows:
                assert row.small_indices
                assert row.pair_checks == len(row.certificate_digests) > 0

    _report(6, "isolated faces", body)


def test_criterion_7_probe_one_dimension_up():
    def body():
        for d, r in ((1, 2), (2, 2), (1, 3)):
            result = probe_tverberg_plus_one(d, r)
            # r is a prime power in every case: not finding a witness fails
            assert result.found
            assert result.point is not None

    _report(7, "common point one dimension up", body)


def test_criterion_8_facet_touching_cover():
    def body():
        rng = SplitMix64(800)
        for trial in range(100):
            n = 2 + trial % 2
            pts = []
            for i in range(n + 1):
                weights = [0] * (n + 1)
                for j in range(n + 1):
                    if j != i:
                        weights[j] = rng.int_between(1, 9)
                total = sum(weights)
                pts.append(tuple(F(w, total) for w in weights))
            body_k = standard_simplex_body(n)
            centered = [barycentric_to_centered(p) for p in pts]
            cert = min_cover_homothety(centered, body_k)
            assert cert.delta >= 1 and min_cover_barycentric(pts) == cert
            for lam in (F(1, 2), F(3)):
                scaled = [tuple(lam * c for c in p) for p in centered]
                assert min_cover_homothety(scaled, body_k).delta == lam * cert.delta
            fewer = centered[: n + 1 - 1]
            assert min_cover_homothety(fewer, body_k).delta <= cert.delta

    _report(8, "facet-touching covering bound", body)


def test_criterion_9_cli_determinism(tmp_path):
    def body():
        runs = (
            ["centerpoint", "--d", "1", "--r", "2", "--trials", "2"],
            ["tverberg", "--d", "1", "--r", "2", "--trials", "2"],
            ["reduce", "--d", "1", "--r", "4", "--trials", "1"],
            ["hind", "--m", "1"],
            ["counterexample", "--d", "1", "--r", "2"],
            ["probe", "--d", "1", "--r", "2"],
            ["cover", "--d", "2", "--trials", "2"],
            ["fiber-demo", "--d", "1", "--trials", "2"],
        )
        for k, argv in enumerate(runs):
            blobs = []
            for jobs in ("1", "3"):
                path = tmp_path / f"{k}-{jobs}.jsonl"
                code = main(argv + ["--seed", "9", "--jobs", jobs, "--output", str(path)])
                assert code == 0
                records = [json.loads(line) for line in path.read_text().splitlines()]
                # exit 1 exactly when some record says "ok": false
                assert (code == 1) == any(rec.get("ok") is False for rec in records)
                blobs.append(path.read_bytes())
            assert blobs[0] == blobs[1] and blobs[0]

    _report(9, "deterministic output", body)
