"""The record classes: the reprs they print, equality and hashing over
their declared fields only, fields that cannot be assigned, and the
checks that run once per build."""
from fractions import Fraction as F

import pytest

from tverlab.conemap import CounterexampleSpec, IsolationReport, IsolationRow, ProbeResult
from tverlab.cover import CoverCertificate, FiberCell, FiberReport, HPolytopeBody
from tverlab.depth import (
    DepthCertificate,
    PointConfig,
    ReductionPlan,
    TverbergCertificate,
)
from tverlab.exactlp import LPOutcome
from tverlab.rationals import Scaled

from oracles import h_polytope, interval_body

RECORDS = (
    LPOutcome, DepthCertificate, TverbergCertificate, ReductionPlan,
    CoverCertificate, FiberCell, FiberReport, CounterexampleSpec, IsolationRow,
    IsolationReport, ProbeResult,
)


def test_records_keep_their_reprs_equality_and_frozen_fields(monkeypatch):
    config = PointConfig(1, [[0], ["1/2"]])
    assert config.scaled == Scaled(2, [(0,), (1,)]) and "points" not in vars(config)
    reprs = [
        (DepthCertificate((F(1, 2),), 1, (F(1),), F(-1, 2)),
         "DepthCertificate(point=(Fraction(1, 2),), depth=1, "
         "halfspace_coeffs=(Fraction(1, 1),), halfspace_offset=Fraction(-1, 2))"),
        (TverbergCertificate(((0, 2), (1,)), (F(1),), ((F(1, 2), F(1, 2)), (F(1),))),
         "TverbergCertificate(blocks=((0, 2), (1,)), point=(Fraction(1, 1),), "
         "weights=((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 1),)))"),
        (LPOutcome("infeasible", farkas=(-1,)),
         "LPOutcome(status='infeasible', witness=None, denominator=None, farkas=(-1,))"),
        (LPOutcome("optimal", witness=(1, 0), denominator=3),
         "LPOutcome(status='optimal', witness=(1, 0), denominator=3, farkas=None)"),
        (CoverCertificate(F(1, 2), (F(1, 4),), ((0, 1), (1, 0))),
         "CoverCertificate(delta=Fraction(1, 2), translate=(Fraction(1, 4),), "
         "tight=((0, 1), (1, 0)))"),
        (config, "PointConfig(d=1, points=((Fraction(0, 1),), (Fraction(1, 2),)))"),
        (interval_body(),
         "HPolytopeBody(ambient_dim=1, rows=(((Fraction(-1, 1),), Fraction(0, 1)), "
         "((Fraction(1, 1),), Fraction(1, 1))))"),
    ]
    for record, text in reprs:
        assert repr(record) == text

    # the kept scaling and the body's derived integer form are not fields;
    # a configuration's points are built from its integers on first read
    fresh = PointConfig(config.d, config.points)
    assert "points" in vars(config) and "points" not in vars(fresh)
    assert fresh.scaled == config.scaled and fresh.points == config.points
    assert config == fresh and hash(config) == hash(fresh) == hash((1, config.points))
    assert repr(config) == repr(fresh) and config != (config.d, config.points)
    body, again = interval_body(), h_polytope([((-1,), 0), ((1,), 1)])
    assert body is not again and body == again
    assert hash(body) == hash(again) == hash((1, body.rows))
    assert body != PointConfig(1, ()) and body.inverse == again.inverse

    for record, field in [(config, "d"), (config, "points"), (config, "scaled"), (body, "rows"),
                          (body, "inverse")] + [
        (cls(*[None] * len(cls._fields)), cls._fields[-1]) for cls in RECORDS
    ]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        del config.points
    assert config.d == 1 and body.rows[1] == ((F(1),), F(1))

    with pytest.raises(ValueError, match="point dimension mismatch"):
        PointConfig(2, ((F(1),),))
    with pytest.raises(ValueError, match="row dimension mismatch"):
        HPolytopeBody(2, (((F(1),), F(1)),) * 3)

    builds = []
    post_init = HPolytopeBody.__post_init__
    monkeypatch.setattr(HPolytopeBody, "__post_init__", lambda self: builds.append(self) or post_init(self))
    interval_body()
    h_polytope([((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)])
    with pytest.raises(ValueError, match="need n\\+1 rows"):
        h_polytope([((1,), 1)])
    assert len(builds) == 3
