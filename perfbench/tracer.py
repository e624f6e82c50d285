"""Outside-in tracing of tverlab's layers, for the benchmark's traced run.

The program has no spans of its own, so the tracer wraps them around it.
Modules import each other's functions with ``from .x import y``, so
replacing ``x.y`` alone would miss every caller that bound ``y`` at import
time.  Instead each public function of a layer module is wrapped once and
the wrapper is put, by identity, into every ``tverlab.*`` module that binds
the original (``depth`` binds ``strict_separator``, ``conemap`` binds
``lp_feasible``, ``cover`` binds ``lp_minimize``).
``SimplicialComplex.__init__`` and ``HPolytopeBody.__post_init__`` are
wrapped on their classes.  ``uninstall`` puts every original back.

A span is [name, parent, claim, start, end, hidden, attrs].  ``hidden`` is
time the tracer itself spent inside the span (annotating a child); it is
subtracted from the span's self time like a child span's.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List

LAYERS = ("exactlp", "depth", "complexes", "z2", "conemap", "cover")

# Helpers called once per constraint row, facet or point.  A span each would
# cost more than the work inside; their time counts to the calling span.
UNTRACED = {
    "exactlp": {"le", "eq", "check_witness", "check_farkas", "check_dual_bound"},
    "complexes": {"simplex", "barycenter", "standard_center"},
    "cover": {"barycentric_to_centered"},
}

CLASS_METHODS = (
    ("complexes", "SimplicialComplex", "__init__"),
    ("cover", "HPolytopeBody", "__post_init__"),
)

SOLVES = ("exactlp.lp_minimize", "exactlp.lp_feasible")
NAME, PARENT, CLAIM, START, END, HIDDEN, ATTRS = range(7)


def _solve_attrs(tracer, args, kwargs, result):
    system = args[0]
    objective = args[1] if len(args) > 1 else kwargs.get("objective")
    key = (
        system.n_vars,
        system.constraints,
        (0,) * system.n_vars if objective is None else tuple(objective),
    )
    repeat = key in tracer.solved
    tracer.solved.add(key)
    return {
        "cells": len(system.constraints) * system.n_vars,
        "infeasible": result.status == "infeasible",
        "repeat": repeat,
    }


def _gf2_rows(tracer, args, kwargs, result):
    x, q = args[0], args[1]
    return {"rows": len(q.complex.faces_of_dim(x.degree)) if x.support and x.degree > 0 else 0}


ANNOTATORS = {
    "exactlp.lp_minimize": _solve_attrs,
    "exactlp.lp_feasible": _solve_attrs,
    "exactlp.strict_separator": lambda t, a, k, r: {"found": r is not None},
    "exactlp.common_point_with_weights": lambda t, a, k, r: {"found": r is not None},
    "z2.is_coboundary": _gf2_rows,
    "conemap.enumerate_disjoint_tuples": lambda t, a, k, r: {"tuples": len(r)},
    "conemap.probe_tverberg_plus_one": lambda t, a, k, r: {"scanned": r.tuples_scanned},
    "cover.facet_touching_check": lambda t, a, k, r: {"touching": bool(r)},
}


class Tracer:
    """Spans of one traced pass, kept in memory until ``write``."""

    def __init__(self):
        self.spans: List[list] = []
        self.claim = -1
        self.solved: set = set()  # (system, objective) keys solved in this claim
        self._stack: List[int] = []
        self._restore: list = []

    def start_claim(self, claim: int) -> None:
        self.claim = claim
        self.solved = set()

    def _wrap(self, name, fn):
        annotate = ANNOTATORS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, self.claim, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if annotate is not None:
                span[ATTRS] = annotate(self, args, kwargs, result)
                if parent >= 0:
                    spans[parent][HIDDEN] += clock() - span[END]
            return result

        return traced

    def _counted_init(self, init):
        """SimplicialComplex.__init__ that records how many facets it was
        given; the copy to a list happens inside the span."""
        spans, stack = self.spans, self._stack

        def __init__(obj, facets):
            facets = list(facets)
            spans[stack[-1]][ATTRS] = {"facets_in": len(facets)}
            return init(obj, facets)

        return __init__

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers: Dict[object, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"tverlab.{layer}"]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and name not in UNTRACED.get(layer, ())
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        cli = sys.modules["tverlab.cli"]
        wrappers[cli.main] = self._wrap("cli.main", cli.main)
        for modname, mod in list(sys.modules.items()):
            if modname != "tverlab" and not modname.startswith("tverlab."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        for layer, cls_name, method in CLASS_METHODS:
            cls = getattr(sys.modules[f"tverlab.{layer}"], cls_name)
            orig = cls.__dict__[method]
            self._restore.append((cls, method, orig))
            if method == "__init__" and cls_name == "SimplicialComplex":
                orig = self._counted_init(orig)
            setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", orig))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, obj = self._restore.pop()
            setattr(owner, name, obj)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i, "name": s[NAME], "parent": s[PARENT], "claim": s[CLAIM],
                            "start": s[START], "end": s[END], "hidden": s[HIDDEN], "attrs": s[ATTRS],
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part of it its children cover, and
    minus the tracer's own hidden time."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered, reach = 0.0, lo
        for c in sorted(children[i], key=lambda c: spans[c][START]):
            a, b = max(spans[c][START], reach), min(spans[c][END], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(max(0.0, hi - lo - covered - s[HIDDEN]))
    return out


def _ancestor_names(spans: List[list], i: int):
    p = spans[i][PARENT]
    while p >= 0:
        yield spans[p][NAME]
        p = spans[p][PARENT]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (name, unit, better, should move, on, no change on)
LAYER_METRICS = (
    ("exactlp.solves", "count", "lower", "claims_per_s, claim_p90_ms", "depth, certify", "index"),
    ("exactlp.self_s", "s", "lower", "claims_per_s, claim_p90_ms", "depth, certify", "index"),
    ("exactlp.ms_per_solve", "ms", "lower", "claims_per_s, claim_p90_ms", "depth, certify", "index"),
    ("exactlp.infeasible_frac", "ratio", "lower", "claims_per_s, claim_p90_ms", "depth, certify", "index"),
    ("exactlp.repeat_frac", "ratio", "lower", "claims_per_s, claim_p90_ms", "depth, certify", "index"),
    ("exactlp.cells", "count", "lower", "claims_per_s, claim_p90_ms", "depth, certify", "index"),
    ("depth.self_s", "s", "lower", "claims_per_s, claim_p50_ms, claim_p90_ms", "depth", "index, certify"),
    ("depth.tukey_calls", "count", "lower", "claims_per_s, claim_p50_ms, claim_p90_ms", "depth", "index, certify"),
    ("depth.tukey_s", "s", "lower", "claims_per_s, claim_p50_ms, claim_p90_ms", "depth", "index, certify"),
    ("depth.lps_per_tukey", "solves/call", "lower", "claims_per_s, claim_p50_ms, claim_p90_ms", "depth", "index, certify"),
    ("depth.separable_frac", "ratio", "higher", "claims_per_s, claim_p50_ms, claim_p90_ms", "depth", "index, certify"),
    ("depth.partition_calls", "count", "lower", "claims_per_s, claim_p50_ms, claim_p90_ms", "depth", "index, certify"),
    ("depth.partition_s", "s", "lower", "claims_per_s, claim_p50_ms, claim_p90_ms", "depth", "index, certify"),
    ("depth.lps_per_partition", "solves/call", "lower", "claims_per_s, claim_p50_ms, claim_p90_ms", "depth", "index, certify"),
    ("depth.partition_hit_frac", "ratio", "higher", "claims_per_s, claim_p50_ms, claim_p90_ms", "depth", "index, certify"),
    ("depth.hull_membership_s", "s", "lower", "claims_per_s, claim_p50_ms, claim_p90_ms", "depth", "index, certify"),
    ("complexes.self_s", "s", "lower", "claims_per_s, claim_p90_ms", "index, certify", "depth"),
    ("complexes.builds", "count", "lower", "claims_per_s, claim_p90_ms", "index, certify", "depth"),
    ("complexes.build_s", "s", "lower", "claims_per_s, claim_p90_ms", "index, certify", "depth"),
    ("complexes.facets_in", "count", "lower", "claims_per_s, claim_p90_ms", "index, certify", "depth"),
    ("complexes.us_per_facet_in", "us", "lower", "claims_per_s, claim_p90_ms", "index, certify", "depth"),
    ("complexes.subdivision_s", "s", "lower", "claims_per_s, claim_p90_ms", "index, certify", "depth"),
    ("complexes.pl_s", "s", "lower", "claims_per_s, claim_p90_ms", "index, certify", "depth"),
    ("z2.self_s", "s", "lower", "claims_per_s, claim_p50_ms, setup_s, peak_rss_mib", "index", "depth, certify"),
    ("z2.quotient_s", "s", "lower", "claims_per_s, claim_p50_ms", "index", "depth, certify"),
    ("z2.cocycle_s", "s", "lower", "claims_per_s, claim_p50_ms", "index", "depth, certify"),
    ("z2.cup_power_s", "s", "lower", "claims_per_s, claim_p50_ms", "index", "depth, certify"),
    ("z2.coboundary_s", "s", "lower", "claims_per_s, claim_p50_ms", "index", "depth, certify"),
    ("z2.gf2_rows", "count", "lower", "claims_per_s, claim_p50_ms", "index", "depth, certify"),
    ("conemap.self_s", "s", "lower", "claims_per_s", "certify", "depth, index"),
    ("conemap.tuples", "count", "lower", "claims_per_s", "certify", "depth, index"),
    ("conemap.pair_lps", "count", "lower", "claims_per_s", "certify", "depth, index"),
    ("conemap.verify_s", "s", "lower", "claims_per_s", "certify", "depth, index"),
    ("conemap.probe_s", "s", "lower", "claims_per_s", "certify", "depth, index"),
    ("conemap.probe_tuples_scanned", "count", "lower", "claims_per_s", "certify", "depth, index"),
    ("cover.self_s", "s", "lower", "claims_per_s, claim_p50_ms", "certify", "depth, index"),
    ("cover.body_builds", "count", "lower", "claims_per_s, claim_p50_ms", "certify", "depth, index"),
    ("cover.body_lps", "count", "lower", "claims_per_s, claim_p50_ms", "certify", "depth, index"),
    ("cover.cover_lps", "count", "lower", "claims_per_s, claim_p50_ms", "certify", "depth, index"),
    ("cover.cover_s", "s", "lower", "claims_per_s, claim_p50_ms", "certify", "depth, index"),
    ("cover.fiber_s", "s", "lower", "claims_per_s, claim_p50_ms", "certify", "depth, index"),
    ("cover.touching_frac", "ratio", "lower", "claims_per_s, claim_p50_ms", "certify", "depth, index"),
    ("cli.self_s", "s", "lower", "-", "all", "-"),
    ("trace.overhead_frac", "ratio", "lower", "-", "all", "-"),
)


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Every per-layer metric of LAYER_METRICS from one traced pass, except
    ``trace.overhead_frac``, which needs an untraced pass as well."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def calls(name):
        return len(by_name[name])

    def inclusive(*names):
        """Summed duration of the named spans, outermost ones only."""
        total = 0.0
        for name in names:
            for i in by_name[name]:
                if not any(a in names for a in _ancestor_names(spans, i)):
                    total += spans[i][END] - spans[i][START]
        return total

    def attr_sum(name, key):
        return sum(spans[i][ATTRS][key] for i in by_name[name])

    solves = [i for name in SOLVES for i in by_name[name]]

    def solves_under(name, direct=False):
        if direct:
            return sum(1 for i in solves if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == name)
        return sum(1 for i in solves if name in _ancestor_names(spans, i))

    layer_self = defaultdict(float)
    for s, t in zip(spans, selfs):
        layer_self[s[NAME].split(".", 1)[0]] += t

    cpw_in_partition = [
        i for i in by_name["exactlp.common_point_with_weights"]
        if "depth.tverberg_partition" in _ancestor_names(spans, i)
    ]
    n_solves = len(solves)
    tukey, partition = calls("depth.tukey_depth"), calls("depth.tverberg_partition")
    build_s = inclusive("complexes.SimplicialComplex.__init__")
    facets_in = attr_sum("complexes.SimplicialComplex.__init__", "facets_in")
    touching = by_name["cover.facet_touching_check"]
    out = {
        "exactlp.solves": n_solves,
        "exactlp.self_s": layer_self["exactlp"],
        "exactlp.ms_per_solve": 1e3 * _ratio(inclusive(*SOLVES), n_solves),
        "exactlp.infeasible_frac": _ratio(sum(spans[i][ATTRS]["infeasible"] for i in solves), n_solves),
        "exactlp.repeat_frac": _ratio(sum(spans[i][ATTRS]["repeat"] for i in solves), n_solves),
        "exactlp.cells": sum(spans[i][ATTRS]["cells"] for i in solves),
        "depth.self_s": layer_self["depth"],
        "depth.tukey_calls": tukey,
        "depth.tukey_s": inclusive("depth.tukey_depth"),
        "depth.lps_per_tukey": _ratio(solves_under("depth.tukey_depth"), tukey),
        "depth.separable_frac": _ratio(
            attr_sum("exactlp.strict_separator", "found"), calls("exactlp.strict_separator")
        ),
        "depth.partition_calls": partition,
        "depth.partition_s": inclusive("depth.tverberg_partition"),
        "depth.lps_per_partition": _ratio(solves_under("depth.tverberg_partition"), partition),
        "depth.partition_hit_frac": _ratio(
            sum(spans[i][ATTRS]["found"] for i in cpw_in_partition), len(cpw_in_partition)
        ),
        "depth.hull_membership_s": inclusive("depth.hull_membership_depth"),
        "complexes.self_s": layer_self["complexes"],
        "complexes.builds": calls("complexes.SimplicialComplex.__init__"),
        "complexes.build_s": build_s,
        "complexes.facets_in": facets_in,
        "complexes.us_per_facet_in": 1e6 * _ratio(build_s, facets_in),
        "complexes.subdivision_s": inclusive("complexes.barycentric_subdivision"),
        "complexes.pl_s": inclusive("complexes.pl_image_of_face", "complexes.pl_value"),
        "z2.self_s": layer_self["z2"],
        "z2.quotient_s": inclusive("z2.quotient"),
        "z2.cocycle_s": inclusive("z2.characteristic_cocycle"),
        "z2.cup_power_s": inclusive("z2.cup_power"),
        "z2.coboundary_s": inclusive("z2.is_coboundary"),
        "z2.gf2_rows": attr_sum("z2.is_coboundary", "rows"),
        "conemap.self_s": layer_self["conemap"],
        "conemap.tuples": attr_sum("conemap.enumerate_disjoint_tuples", "tuples"),
        "conemap.pair_lps": solves_under("conemap.verify_isolation", direct=True),
        "conemap.verify_s": inclusive("conemap.verify_isolation"),
        "conemap.probe_s": inclusive("conemap.probe_tverberg_plus_one"),
        "conemap.probe_tuples_scanned": attr_sum("conemap.probe_tverberg_plus_one", "scanned"),
        "cover.self_s": layer_self["cover"],
        "cover.body_builds": calls("cover.HPolytopeBody.__post_init__"),
        "cover.body_lps": solves_under("cover.HPolytopeBody.__post_init__"),
        "cover.cover_lps": solves_under("cover.min_cover_homothety"),
        "cover.cover_s": inclusive("cover.min_cover_homothety"),
        "cover.fiber_s": inclusive("cover.fiber_width_demo"),
        "cover.touching_frac": _ratio(sum(spans[i][ATTRS]["touching"] for i in touching), len(touching)),
        "cli.self_s": layer_self["cli"],
    }
    return out
