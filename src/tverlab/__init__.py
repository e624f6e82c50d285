"""Exact rational toolkit for Tukey depth, Tverberg partitions, Z2 index
computations, and simplex covering certificates.

Each public name is listed once, under its module, in `_EXPORTS`, and is
imported on first use (PEP 562): `from tverlab import X` loads only X's
module and the modules it imports, and `import tverlab` loads none.  The
modules themselves (`tverlab.depth`, `tverlab.z2`, ...) resolve the same
way.  The command line (`tverlab.cli`) imports every layer it dispatches
to when it is imported, so a run pays its imports before its first claim
and each layer is in `sys.modules` for tools that wrap its functions.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "complexes": (
        "BarycentricComplex",
        "SimplicialComplex",
        "barycentric_subdivision",
        "full_simplex",
        "simplex",
        "skeleton",
        "standard_center",
    ),
    "conemap": (
        "CounterexampleSpec",
        "IsolationFailure",
        "IsolationReport",
        "ProbeResult",
        "build_counterexample",
        "enumerate_disjoint_tuples",
        "probe_tverberg_plus_one",
        "verify_isolation",
    ),
    "cover": (
        "CoverCertificate",
        "FiberReport",
        "HPolytopeBody",
        "UnboundedBodyError",
        "barycentric_to_centered",
        "constant_map",
        "coordinate_projection_map",
        "facet_touching_check",
        "fiber_width_demo",
        "grid_points_in_simplex",
        "h_polytope",
        "interval_body",
        "min_cover_barycentric",
        "min_cover_homothety",
        "standard_simplex_body",
    ),
    "depth": (
        "DepthCertificate",
        "PointConfig",
        "ReductionPlan",
        "TverbergCertificate",
        "centerpoint",
        "check_depth_certificate",
        "check_tverberg_certificate",
        "guaranteed_size",
        "hull_membership_depth",
        "iter_partitions",
        "point_config",
        "random_point_config",
        "reduce_central_from_tverberg",
        "reduction_plan",
        "tukey_depth",
        "tverberg_partition",
    ),
    "exactlp": (
        "EQ",
        "INFEASIBLE",
        "LE",
        "OPTIMAL",
        "FarkasCertificate",
        "LinearSystem",
        "LPOutcome",
        "check_farkas",
        "check_witness",
        "common_point_with_weights",
        "eq",
        "in_convex_hull",
        "le",
        "lp_feasible",
        "strict_separator",
    ),
    "rationals": ("Rational", "point_strs", "rat", "rat_str"),
    "rng": ("SplitMix64",),
    "z2": (
        "FixedSimplexError",
        "Z2Complex",
        "cross_polytope_sphere",
        "disjoint_union_index",
        "hind",
        "subdivide_z2",
        "z2_disjoint_union",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return [*globals(), *__all__]
