"""Exact rational toolkit for Tukey depth, Tverberg partitions, Z2 index
computations, and simplex covering certificates.

The package exports the names that the demos import or the README names,
each listed once, under its module, in `_EXPORTS`; a module's other names
are imported from the module (`from tverlab.depth import
check_tverberg_certificate`).  Each is imported on first use (PEP 562):
`from tverlab import X` loads only X's module and the modules it imports,
and `import tverlab` loads none.  The modules themselves
(`tverlab.depth`, `tverlab.z2`, ...) resolve the same way; `rationals`
exports nothing and is listed so that `tverlab.rationals` resolves.  The command line (`tverlab.cli`) imports every layer it dispatches
to when it is imported, so a run pays its imports before its first claim
and each layer is in `sys.modules` for tools that wrap its functions.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "complexes": ("SimplicialComplex",),
    "conemap": (
        "ProbeResult",
        "build_counterexample",
        "probe_tverberg_plus_one",
        "verify_isolation",
    ),
    "cover": (
        "CoverCertificate",
        "constant_map",
        "coordinate_projection_map",
        "facet_touching_check",
        "fiber_width_demo",
        "min_cover_barycentric",
    ),
    "depth": (
        "DepthCertificate",
        "PointConfig",
        "TverbergCertificate",
        "centerpoint",
        "random_point_config",
        "reduce_central_from_tverberg",
        "reduction_plan",
        "tukey_depth",
        "tverberg_partition",
    ),
    "exactlp": (
        "LinearSystem",
        "LPOutcome",
        "lp_feasible",
        "strict_separator",
    ),
    "rationals": (),
    "rng": ("SplitMix64",),
    "z2": (
        "FixedSimplexError",
        "Z2Complex",
        "cross_polytope_sphere",
        "disjoint_union_index",
        "hind",
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
