"""Pinching criteria: critical angle, growth threshold, verdicts."""

import math

import numpy as np
import pytest

import radialgeo as rg

RAMP_DELTA = (math.pi / 2.0) * math.exp(-1.0 / 6.0)

CUSP_AMPLITUDE = 3.8205221749659675


def ramp():
    return rg.RadialCurvature.from_spline([0.0, 1.0], [-1.0, 0.0])


def cusp_fixture():
    a = CUSP_AMPLITUDE
    return rg.RadialCurvature.from_spline(
        [0.0, 0.5, 1.0, 1.5, 2.0],
        [a, a, 0.5 * a, -0.5, -1.0],
        tail=rg.ConstantTail(-1.0),
    )


def test_critical_angle_flat_is_right_angle():
    env = rg.nonpositive_min(rg.RadialCurvature.zero())
    assert rg.critical_angle(env) == math.pi / 2.0


def test_critical_angle_ramp_analytic():
    env = rg.nonpositive_min(ramp())
    assert abs(rg.critical_angle(env) - RAMP_DELTA) <= 1e-10


def test_critical_angle_divergent_moment_collapses():
    env = rg.nonpositive_min(rg.RadialCurvature.constant(-1.0))
    assert rg.critical_angle(env) == 0.0


def test_growth_threshold_half_for_right_angle():
    for n in range(2, 9):
        assert abs(rg.growth_threshold(n, math.pi / 2.0) - 0.5) <= 1e-13


def test_growth_threshold_ramp_n3_closed_form():
    # n = 3 cap fraction is (1 - cos d)/2, so the threshold is (1 + cos d)/2
    expect = (1.0 + math.cos(RAMP_DELTA)) / 2.0
    assert abs(rg.growth_threshold(3, RAMP_DELTA) - expect) <= 1e-12


def test_growth_threshold_degenerate_angle():
    assert rg.growth_threshold(3, 0.0) == 1.0


def test_main_check_flat_above_threshold():
    flat = rg.RadialCurvature.zero()
    rep = rg.ricci_pinch_check(3, flat, flat, numerator=(0.999, 1.0))
    assert rep.verdict == "DiffeoRn"
    assert rep.b1_holds
    assert rep.b2_holds == "Holds"
    assert abs(rep.delta - math.pi / 2.0) <= 1e-14
    assert abs(rep.threshold - 0.5) <= 1e-14


def test_main_check_sub_threshold_bracket_inconclusive():
    flat = rg.RadialCurvature.zero()
    rep = rg.ricci_pinch_check(3, flat, flat, numerator=(0.3, 0.4))
    assert rep.verdict == "Inconclusive"
    assert rep.b2_holds == "Fails"


def test_main_check_straddling_bracket_inconclusive():
    flat = rg.RadialCurvature.zero()
    rep = rg.ricci_pinch_check(3, flat, flat, numerator=(0.45, 0.55))
    assert rep.verdict == "Inconclusive"
    assert rep.b2_holds == "Inconclusive"


def test_main_check_rigidity_for_constant_negative():
    hyp = rg.RadialCurvature.constant(-1.0)
    rep = rg.ricci_pinch_check(3, hyp, hyp, numerator=(1.0, 1.0))
    assert rep.verdict == "DegenerateRigidity"
    assert rep.delta == 0.0
    assert rep.threshold == 1.0


def test_main_check_manifold_numerator():
    hyp = rg.RadialCurvature.constant(-1.0)
    mfd = rg.RotSymManifold.from_curvature(3, hyp, t_max=20.0)
    rep = rg.ricci_pinch_check(3, hyp, hyp, numerator=mfd)
    assert rep.verdict == "DegenerateRigidity"
    lo, hi = rep.growth_limit
    assert lo <= 1.0 <= hi + 1e-9
    assert hi - lo <= 1e-6


def test_still_falling_growth_ratio_certifies_nothing():
    # the ratio still falls at the last horizon; its limit m'(inf)^-3 =
    # 0.673585 (m' is constant past t = 3) lies below the threshold
    # 0.674117, and a lower end guessed from the trend of the samples was
    # 0.674649
    flat = rg.RotSymManifold.from_curvature(4, rg.RadialCurvature.zero(), t_max=16.0)
    ricci = rg.RadialCurvature.from_spline([0, 1, 2, 3], [-0.125, -0.075, -0.025, 0])
    c = -0.04701929890603108
    sectional = rg.RadialCurvature.from_spline([0, 1, 2, 3], [c, c, c, 0])
    rep = rg.ricci_pinch_check(4, ricci, sectional, numerator=flat)
    assert rep.verdict == "Inconclusive"
    assert rep.b2_holds == "Inconclusive"
    lo, hi = rep.growth_limit
    limit = rg.solve_warping(ricci, 4.0).m_prime(3.5) ** -3
    assert lo <= limit < rep.threshold <= hi


def test_main_check_domination_violation_raises():
    # declared bound 0 but the manifold curvature dips to -0.5
    dip = rg.RadialCurvature.from_spline([0.0, 1.0], [-0.5, 0.0])
    mfd = rg.RotSymManifold.from_curvature(3, dip, t_max=18.0)
    flat = rg.RadialCurvature.zero()
    with pytest.raises(rg.DomainError,
                       match=r"domination fails near t = .*: radial Ricci "):
        rg.ricci_pinch_check(3, flat, flat, numerator=mfd)


def formula_curvature(expr, breakpoints):
    return rg.RadialCurvature.from_json({
        "core": {"kind": "formula", "expr": expr, "breakpoints": breakpoints},
        "tail": {"kind": "zero"}, "t_tail": breakpoints[-1]})


@pytest.mark.parametrize("expr, breakpoints", [
    # -0.5 on (1.006, 1.014), which holds no point of a 641-point grid to 16
    ("where(abs(t - 1.01) < 0.004, -0.5, 0.0)", [0.0, 1.006, 1.01, 1.014, 2.0]),
    # below zero only within 1e-6 of its knot
    ("minimum(0.0, 1000.0 * abs(t - 1.01) - 1e-3)", [0.0, 1.01, 2.0]),
], ids=["dip", "knot-only"])
def test_domination_is_checked_at_every_knot(expr, breakpoints):
    mfd = rg.RotSymManifold.from_curvature(3, formula_curvature(expr, breakpoints),
                                           t_max=17.0)
    flat = rg.RadialCurvature.zero()
    with pytest.raises(rg.DomainError, match=r"domination fails near t = 1\.01: "):
        rg.ricci_pinch_check(3, flat, flat, numerator=mfd)


def test_numerator_just_below_its_bound_fails_domination():
    hyp = rg.RadialCurvature.constant(-1.0)
    mfd = rg.RotSymManifold.from_curvature(3, rg.RadialCurvature.constant(-1.0 - 1e-6),
                                           t_max=17.0)
    with pytest.raises(rg.DomainError, match=r"radial Ricci -1\.000001 < "):
        rg.ricci_pinch_check(3, hyp, hyp, numerator=mfd)
    with pytest.raises(rg.DomainError, match=r"radial sectional -1\.000001 < "):
        rg.sectional_pinch_check(3, hyp, numerator=mfd)


def test_numerator_equal_to_its_bound_in_another_core_dominates():
    hyp = rg.RadialCurvature.constant(-1.0)
    spline = rg.RadialCurvature.from_spline([0.0, 1.0, 2.0], [-1.0, -1.0, -1.0],
                                            tail=rg.ConstantTail(-1.0))
    mfd = rg.RotSymManifold.from_curvature(3, spline, t_max=17.0)
    rep = rg.ricci_pinch_check(3, hyp, hyp, numerator=mfd)
    assert rep.verdict == "DegenerateRigidity"


def test_corollary_finite_volume_branch():
    rep = rg.sectional_pinch_check(3, cusp_fixture(), numerator=(0.0, 0.0))
    assert rep.verdict == "DiffeoRn"
    assert not rep.b1_holds
    assert "FiniteModelVolume" in rep.diagnostics["flags"]


def test_corollary_finite_volume_with_manifold_numerator():
    k = cusp_fixture()
    mfd = rg.RotSymManifold.from_curvature(3, k, t_max=18.0)
    rep = rg.sectional_pinch_check(3, k, numerator=mfd)
    assert rep.verdict == "DiffeoRn"
    assert "FiniteModelVolume" in rep.diagnostics["flags"]


def test_corollary_infinite_volume_needs_growth():
    flat = rg.RadialCurvature.zero()
    rep = rg.sectional_pinch_check(3, flat, numerator=(0.999, 1.0))
    assert rep.verdict == "DiffeoRn"
    assert rep.b1_holds
    rep2 = rg.sectional_pinch_check(3, flat, numerator=(0.1, 0.2))
    assert rep2.verdict == "Inconclusive"


def test_report_json_shape():
    flat = rg.RadialCurvature.zero()
    rep = rg.ricci_pinch_check(3, flat, flat, numerator=(0.999, 1.0))
    blob = rep.to_json()
    assert list(blob.keys()) == [
        "n", "delta", "threshold", "growth_limit",
        "b1_holds", "b2_holds", "verdict", "diagnostics",
    ]
    assert isinstance(blob["growth_limit"], list) and len(blob["growth_limit"]) == 2
    assert isinstance(blob["diagnostics"]["flags"], list)
    assert isinstance(blob["diagnostics"]["notes"], list)


def test_bracket_validation():
    flat = rg.RadialCurvature.zero()
    for bracket in [(0.8, 0.2), (-0.1, 0.5), (1.2, 1.5), (0.5, 1.0 + 1e-12),
                    (math.nan, 0.5), (0.3, math.inf), (-math.inf, 0.5),
                    (0.5, 10 ** 400), (0.5,), (0.1, 0.2, 0.3)]:
        with pytest.raises(rg.DomainError):
            rg.ricci_pinch_check(3, flat, flat, numerator=bracket)
        with pytest.raises(rg.DomainError):
            rg.sectional_pinch_check(3, flat, numerator=bracket)
    # both ends may touch the unit interval's ends
    assert rg.ricci_pinch_check(3, flat, flat, numerator=[0.0, 1.0]).growth_limit == (0.0, 1.0)


@pytest.mark.parametrize("check", ["main", "corollary"])
def test_manifold_numerator_solves_and_classifies_model_once(monkeypatch, check):
    # one solve of the model to the last horizon serves both the ball-volume
    # class (B-1) and the growth-ratio denominators; a solution handed in as
    # warping= makes that solve unnecessary
    from radialgeo import criteria, volume

    if check == "main":
        model = rg.RadialCurvature.constant(-1.0)
        twin = rg.RadialCurvature.constant(-1.0)
    else:
        model, twin = (rg.RadialCurvature.from_spline(
            [0.0, 0.9, 1.8, 2.7], [-1.1, -0.25, -0.7, -0.2],
            tail=rg.PowerLawTail(-0.2, 3.0)) for _ in range(2))
    # made before the spies: one to the anchor only, carried on by the check
    given, foreign = rg.solve_warping(model), rg.solve_warping(twin, 16.0)
    calls = {"solve_warping": 0, "classify_ball_volume": 0}
    for name, k_pos in (("solve_warping", 0), ("classify_ball_volume", 1)):
        def counted(*args, _name=name, _k_pos=k_pos, _func=getattr(volume, name),
                    **kwargs):
            if args[_k_pos] is model:
                calls[_name] += 1
            return _func(*args, **kwargs)
        # every module binding the check's calls go through
        for module in (criteria, volume):
            monkeypatch.setattr(module, name, counted)

    mfd = rg.RotSymManifold.from_curvature(3, rg.RadialCurvature.zero(), t_max=17.0)

    def run(numerator=mfd, **kwargs):
        calls.update(solve_warping=0, classify_ball_volume=0)
        if check == "main":
            return rg.ricci_pinch_check(3, model, model, numerator=numerator, **kwargs)
        return rg.sectional_pinch_check(3, model, numerator=numerator, **kwargs)

    rep = run()
    assert rep.b1_holds
    assert calls == {"solve_warping": 1, "classify_ball_volume": 1}
    assert run(warping=given) == rep
    assert calls == {"solve_warping": 0, "classify_ball_volume": 1}
    assert given.t_max == 16.0
    # an asserted bracket reads the given solution as it stands
    assert run([0.5, 0.6], warping=given).b1_holds
    assert calls == {"solve_warping": 0, "classify_ball_volume": 1}
    # equal values, another object: the identity check of classify_ball_volume
    for numerator in (mfd, [0.5, 0.6]):
        with pytest.raises(rg.DomainError, match="another curvature"):
            run(numerator, warping=foreign)
