"""Pinching criteria: critical angle, growth threshold, verdicts."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import radialgeo as rg
from radialgeo.curvature import _lowest_gap

from conftest import dop853_nodes

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
    # threshold 1 is met only by the limit 1: the model dominates the
    # numerator too, so the two are one function
    assert rep.growth_limit == (1.0, 1.0)


def test_still_falling_growth_ratio_certifies_nothing():
    # the ratio still falls at the last horizon; its limit m'(inf)^-3 =
    # 0.673585 (m' is constant past t = 3) lies below the threshold
    # 0.674117, and a lower end guessed from the trend of the samples was
    # 0.674649. The lower end is the limit from the tails; the top is still
    # the last ratio, above the threshold
    flat = rg.RotSymManifold.from_curvature(4, rg.RadialCurvature.zero(), t_max=16.0)
    ricci = rg.RadialCurvature.from_spline([0, 1, 2, 3], [-0.125, -0.075, -0.025, 0])
    c = -0.04701929890603108
    sectional = rg.RadialCurvature.from_spline([0, 1, 2, 3], [c, c, c, 0])
    rep = rg.ricci_pinch_check(4, ricci, sectional, numerator=flat)
    assert rep.verdict == "Inconclusive"
    assert rep.b2_holds == "Inconclusive"
    lo, hi = rep.growth_limit
    limit = rg.solve_warping(ricci, 4.0).m_prime(3.5) ** -3
    assert limit - 2 * 3 * 10 * rg.DEFAULT_REL_TOL * limit <= lo <= limit < rep.threshold <= hi
    assert abs(limit - 0.6735853) <= 1e-7


@pytest.mark.parametrize("height, limit", [(0.01, 0.6405), (0.02, 0.3616), (0.03, 0.1624)])
def test_a_late_bump_is_read_from_the_tails(height, limit):
    # flat but for a bump on (19.5, 20.5), past the last horizon: every
    # sampled ratio is 1, the limit is m'(22)^2, against the threshold 1/2
    k = formula_curvature(f"where(abs(t - 20.0) < 0.5, {height!r}, 0.0)",
                          [0.0, 19.5, 20.5, 21.0])
    flat = rg.RadialCurvature.zero()
    rep = rg.ricci_pinch_check(3, flat, flat, numerator=rg.RotSymManifold.from_curvature(3, k))
    truth = dop853_nodes(k, np.array([0.0, 22.0]), max_step=math.inf)[1, -1] ** 2
    lo, hi = rep.growth_limit
    assert lo <= truth <= hi and abs(truth - limit) <= 1e-4
    if truth > rep.threshold:
        assert (rep.verdict, rep.b2_holds) == ("DiffeoRn", "Holds")
    else:
        assert rep.verdict == "Inconclusive" and rep.b2_holds != "Holds"


@pytest.mark.parametrize("s, limit", [(0.002, 0.98705), (0.01, 0.93724), (0.03, 0.82535)])
def test_a_limit_above_the_threshold_certifies_while_the_ratios_still_fall(s, limit):
    # thresholds 0.50434, 0.52151, 0.56296; the limit is m'(3)^-3 of the
    # model, the last ratio 1.6e-3 to 2e-2 above it
    bound = rg.RadialCurvature.from_spline([0, 1, 2, 3], [-s, -s, -s / 2, 0])
    flat = rg.RotSymManifold.from_curvature(4, rg.RadialCurvature.zero())
    rep = rg.ricci_pinch_check(4, bound, bound, numerator=flat)
    assert rep.verdict == "DiffeoRn"
    truth = dop853_nodes(bound, np.array([0.0, 3.0]), max_step=math.inf)[1, -1] ** -3
    assert abs(truth - limit) <= 1e-5
    assert truth - 2 * 3 * 10 * rg.DEFAULT_REL_TOL * truth - 1e-13 <= rep.growth_limit[0] <= truth


def test_main_check_domination_violation_raises():
    # declared bound 0 but the manifold curvature dips to -0.5
    dip = rg.RadialCurvature.from_spline([0.0, 1.0], [-0.5, 0.0])
    mfd = rg.RotSymManifold.from_curvature(3, dip, t_max=18.0)
    flat = rg.RadialCurvature.zero()
    with pytest.raises(rg.DomainError,
                       match=r"domination fails near t = .*: radial Ricci "):
        rg.ricci_pinch_check(3, flat, flat, numerator=mfd)


def formula_curvature(expr, breakpoints, tail=None):
    return rg.RadialCurvature.from_json({
        "core": {"kind": "formula", "expr": expr, "breakpoints": breakpoints},
        "tail": tail or {"kind": "zero"}, "t_tail": breakpoints[-1]})


@pytest.mark.parametrize("expr, breakpoints, where", [
    # -0.5 on (1.006, 1.014), which holds no point of a 641-point grid to 16;
    # the first sample of the least gap is one ulp past the knot 1.006
    ("where(abs(t - 1.01) < 0.004, -0.5, 0.0)", [0.0, 1.006, 1.01, 1.014, 2.0], "1.006"),
    # below zero only within 1e-6 of its knot
    ("minimum(0.0, 1000.0 * abs(t - 1.01) - 1e-3)", [0.0, 1.01, 2.0], "1.01"),
], ids=["dip", "knot-only"])
def test_domination_is_checked_at_every_knot(expr, breakpoints, where):
    mfd = rg.RotSymManifold.from_curvature(3, formula_curvature(expr, breakpoints),
                                           t_max=17.0)
    flat = rg.RadialCurvature.zero()
    with pytest.raises(rg.DomainError, match=rf"domination fails near t = {re.escape(where)}: "):
        rg.ricci_pinch_check(3, flat, flat, numerator=mfd)


@pytest.mark.parametrize("expr, breakpoints, tail", [
    # below the flat bound only past the last horizon, t = 16
    ("where(t < 17, 0.0, 17.0 - t)", [0.0, 17.0, 18.0], {"kind": "constant", "c": -1.0}),
    # -0.5 on (1.006, 1.014), with no breakpoint over it
    ("where(abs(t - 1.01) < 0.004, -0.5, 0.0)", [0.0, 2.0], None),
], ids=["step", "dip"])
def test_domination_is_decided_on_the_whole_half_line(expr, breakpoints, tail):
    mfd = rg.RotSymManifold.from_curvature(3, formula_curvature(expr, breakpoints, tail))
    flat = rg.RadialCurvature.zero()
    with pytest.raises(rg.DomainError, match="declared domination fails near t = "):
        rg.ricci_pinch_check(3, flat, flat, numerator=mfd)


def test_power_law_tails_are_compared_past_the_last_horizon():
    # equal at the anchor 17; past it the p = 3 tail lies below the p = 4 one,
    # farthest at t = 17 * 4/3, where their slopes agree
    p3, p4 = (rg.RadialCurvature.from_spline([0.0, 17.0], [-0.3, -0.3],
                                             tail=rg.PowerLawTail(-0.3, p)) for p in (3.0, 4.0))
    with pytest.raises(rg.DomainError, match=r"fails near t = 22\.6667: radial sectional "):
        rg.sectional_pinch_check(3, p4, numerator=rg.RotSymManifold.from_curvature(3, p3))
    rep = rg.sectional_pinch_check(3, p3, numerator=rg.RotSymManifold.from_curvature(3, p4))
    assert "curvature domination verified on the synthetic numerator" in rep.diagnostics["notes"]


def _constant_tail_spline(rng):
    """A spline of 2 to 8 even knots on [0, 0.8 .. 3], with a constant tail."""
    vals = rng.uniform(-1.5, 0.5, int(rng.integers(2, 9)))
    vals[-1] = min(vals[-1], 0.0)
    return rg.RadialCurvature.from_spline(np.linspace(0.0, rng.uniform(0.8, 3.0), vals.size),
                                          vals, rg.ConstantTail(vals[-1]))


def test_lowest_gap_of_two_splines_is_exact():
    # constant tails: past the later anchor the gap is its value there
    for seed in range(200):
        rng = np.random.default_rng(260_000 + seed)
        f, g = _constant_tail_spline(rng), _constant_tail_spline(rng)
        gap, t = _lowest_gap(f, g)
        dense = np.linspace(0.0, max(f.t_tail, g.t_tail), 20_001)
        assert gap <= np.min(f(dense) - g(dense)) + 1e-14
        assert abs(gap - (f(t) - g(t))) <= 1e-14


def test_a_spline_behind_a_formula_core_gets_the_same_domination_decision():
    decisions = set()
    for seed in range(40):
        rng = np.random.default_rng(270_000 + seed)
        f, g = _constant_tail_spline(rng), _constant_tail_spline(rng)
        sampled = rg.RadialCurvature(rg.FormulaCore(f.core, breakpoints=f.core.breakpoints),
                                     f.tail, f.t_tail)
        (exact, _t), (seen, _s) = _lowest_gap(f, g), _lowest_gap(sampled, g)
        assert exact <= seen + 1e-14
        assert (exact < -1e-12) == (seen < -1e-12)
        decisions.add(exact < -1e-12)
    assert decisions == {False, True}


@st.composite
def domination_cases(draw):
    """(numerator, bound, whether it dominates), the truth by construction: a
    formula dip or bump over a flat bound, with or without breakpoints over
    it, or two power-law tails whose difference changes sign past the last
    horizon, or never."""
    if draw(st.booleans()):
        # a sample of a solve lies within 2.7e-3 of every point, so a
        # feature 3e-3 wide or more is seen
        centre, half = draw(st.floats(0.2, 3.0)), draw(st.floats(0.0015, 0.05))
        height = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.01, 1.0))
        bp = [0.0, centre - half, centre, centre + half, 4.0] if draw(st.booleans()) else [0.0, 4.0]
        num = formula_curvature(f"where(abs(t - {centre!r}) < {half!r}, {height!r}, 0.0)", bp)
        return num, rg.RadialCurvature.zero(), height > 0.0
    # c_n s^-p_n and c_b s^-p_b, s = t / a, with |c_n| < |c_b|: for p_n < p_b
    # they cross at s_x, t = a s_x past the last horizon, for p_n > p_b never
    a, s_x = draw(st.floats(1.0, 3.0)), draw(st.floats(20.0, 40.0))
    p_num, p_bound, c_bound = draw(st.floats(2.5, 4.5)), draw(st.floats(2.5, 4.5)), -draw(
        st.floats(0.1, 1.0))
    assume(abs(p_num - p_bound) >= 0.1)
    c_num = c_bound / s_x ** abs(p_bound - p_num)
    num, bound = (rg.RadialCurvature.from_spline([0.0, a], [c, c], tail=rg.PowerLawTail(c, p))
                  for c, p in ((c_num, p_num), (c_bound, p_bound)))
    return num, bound, p_num > p_bound


@settings(deadline=None, derandomize=True, database=None, max_examples=24)
@given(case=domination_cases())
def test_domination_family(case):
    num, bound, dominated = case
    mfd = rg.RotSymManifold.from_curvature(3, num)
    if dominated:
        rg.sectional_pinch_check(3, bound, numerator=mfd)
    else:
        with pytest.raises(rg.DomainError, match="declared domination fails"):
            rg.sectional_pinch_check(3, bound, numerator=mfd)


# the referee's error, 100 times the relative tolerance of its DOP853 solves
REFEREE_REL_ERROR = 1e-11


@st.composite
def growth_cases(draw):
    """(n, numerator, bound): a bump where(|t - c| < h, height, 0), with
    breakpoints at its edges, over a flat bound or the nonpositive part of a
    spline with a zero tail; a late bump, past the last horizon, over a flat
    bound. height * 2h * c, about the drop of m' across the bump, is at most
    0.9, so the limits (m'_N / m'_D)^(n - 1) fall on both sides of the
    threshold."""
    n = draw(st.sampled_from([2, 3, 4, 6]))
    late = draw(st.booleans())
    centre, half = draw(st.floats(17.0, 30.0) if late else st.floats(0.6, 3.0)), draw(
        st.floats(0.05, 0.5))
    height = draw(st.floats(0.0, 0.9)) / (2.0 * half * centre)
    num = formula_curvature(f"where(abs(t - {centre!r}) < {half!r}, {height!r}, 0.0)",
                            [0.0, centre - half, centre + half, centre + 2.0 * half])
    bound = rg.RadialCurvature.zero()
    if not late and draw(st.booleans()):
        vals = [-draw(st.floats(0.0, 0.15)) for _ in range(draw(st.integers(1, 4)))] + [0.0]
        bound = rg.nonpositive_min(rg.RadialCurvature.from_spline(
            np.linspace(0.0, draw(st.floats(1.0, 3.0)), len(vals)), vals))
    return n, num, bound


@settings(deadline=None, derandomize=True, database=None, max_examples=20)
@given(case=growth_cases())
def test_growth_limit_family(case):
    # B-2 against the DOP853 referee: never certified where the limit lies
    # below the threshold beyond the referee's error, always where it lies
    # above it by 10 times the limit's and the threshold's error bounds
    n, num, bound = case
    rep = rg.sectional_pinch_check(n, bound, numerator=rg.RotSymManifold.from_curvature(n, num))
    ends = np.array([0.0, max(num.t_tail, bound.t_tail)])
    slope_num, slope_bound = (dop853_nodes(k, ends, max_step=math.inf)[1, -1] for k in (num, bound))
    truth = (slope_num / slope_bound) ** (n - 1)
    referee_error = REFEREE_REL_ERROR * truth
    limit, limit_error, threshold_error = (float(x) for x in re.fullmatch(
        r"growth limit (\S+) \+/- (\S+) from the tails at their anchors; threshold error (\S+)",
        rep.diagnostics["notes"][2]).groups())
    assert abs(limit - truth) <= limit_error + referee_error
    lo, hi = rep.growth_limit
    assert lo <= truth + referee_error and truth - referee_error <= hi
    if rep.b2_holds == "Holds":
        assert truth >= rep.threshold - referee_error
    if truth > rep.threshold + 10.0 * (limit_error + threshold_error):
        assert rep.verdict == "DiffeoRn"


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


def test_domination_is_checked_once_per_distinct_bound(monkeypatch):
    from radialgeo import criteria

    # delta = 0 here, so the check also reads whether the model dominates the
    # numerator; only the numerator-over-bound reads are domination checks
    calls = []
    hyp, twin = rg.RadialCurvature.constant(-1.0), rg.RadialCurvature.constant(-1.0)
    mfd = rg.RotSymManifold.from_curvature(3, rg.RadialCurvature.zero(), t_max=17.0)
    monkeypatch.setattr(criteria, "_lowest_gap", lambda *args: (
        args[0] is mfd.curvature and calls.append(args)) or _lowest_gap(*args))
    shared = rg.ricci_pinch_check(3, hyp, hyp, numerator=mfd)
    assert len(calls) == 1
    calls.clear()
    assert rg.ricci_pinch_check(3, hyp, twin, numerator=mfd) == shared
    assert len(calls) == 2 and calls[0][1] is hyp and calls[1][1] is twin


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


def test_main_check_with_bounded_model_volumes_fails_b1():
    cusp = cusp_fixture()
    rep = rg.ricci_pinch_check(3, cusp, cusp, numerator=(0.0, 0.0))
    assert rep.verdict == "Inconclusive"
    assert rep.b1_holds is False
    assert rep.diagnostics["notes"][-1] == ("hypothesis B-1 fails: "
                                            "model ball volumes stay bounded")


@pytest.mark.parametrize("dimension, message", [
    (None, "numerator must be a RotSymManifold"),
    (4, "numerator dimension 4 does not match n = 3"),
], ids=["not-a-manifold", "dimension-4"])
def test_numerator_must_be_a_manifold_of_the_check_dimension(dimension, message):
    flat = rg.RadialCurvature.zero()
    numerator = "manifold" if dimension is None else rg.RotSymManifold.from_curvature(
        dimension, flat, t_max=16.0)
    with pytest.raises(rg.DomainError, match=message):
        rg.ricci_pinch_check(3, flat, flat, numerator=numerator)
    with pytest.raises(rg.DomainError, match=message):
        rg.sectional_pinch_check(3, flat, numerator=numerator)


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


@pytest.mark.parametrize("check", ["main", "corollary"])
def test_a_manifold_check_reads_one_volume_pair(monkeypatch, check):
    # B-2 is decided from the tails; the bracket top under domination is the
    # one ratio at the last default horizon, so two ball volumes are read
    from radialgeo import volume

    reads = []
    read = volume.model_ball_volume
    monkeypatch.setattr(volume, "model_ball_volume",
                        lambda n, w, t: reads.append(t) or read(n, w, t))
    model = rg.RadialCurvature.from_spline([0.0, 0.9, 1.8, 2.7], [-1.1, -0.25, -0.7, -0.2],
                                           tail=rg.PowerLawTail(-0.2, 3.0))
    mfd = rg.RotSymManifold.from_curvature(3, rg.RadialCurvature.zero(), t_max=17.0)
    rep = (rg.ricci_pinch_check(3, model, model, numerator=mfd) if check == "main"
           else rg.sectional_pinch_check(3, model, numerator=mfd))
    assert reads == [16.0, 16.0]
    notes = [note for note in rep.diagnostics["notes"] if note.startswith("growth ratio at")]
    assert len(notes) == 1 and notes[0].startswith("growth ratio at t = 16.0: ")
