"""Curvature model: construction, envelopes, the moment integral."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicSpline

import radialgeo as rg
from radialgeo import curvature

from conftest import random_compact_curvature, tail_referee

# Composite Simpson (2**20 + 1 points) of t * min(0, k(t)) for the spline
# below, whose interpolant overshoots to +1.01 near t = 2.1.
MULTIKNOT_KNOTS = [0.0, 0.5, 1.0, 1.5, 2.5]
MULTIKNOT_VALUES = [-0.9, -0.4, -1.1, -0.2, 0.0]
MULTIKNOT_ENVELOPE_MOMENT = -0.8319482082598326


def test_zero_curvature_moment_is_zero():
    mi = rg.moment_integral(rg.RadialCurvature.zero())
    assert mi.value == 0.0
    assert mi.abs_error == 0.0


def test_constant_negative_moment_diverges():
    mi = rg.moment_integral(rg.RadialCurvature.constant(-1.0))
    assert mi.divergent
    assert mi.value == rg.NEG_INFINITY


def test_ramp_moment_is_minus_one_sixth():
    # two knots force a linear core, so the integral is exactly
    # int_0^1 t(t-1) dt = -1/6
    k = rg.RadialCurvature.from_spline([0.0, 1.0], [-1.0, 0.0])
    mi = rg.moment_integral(k)
    assert abs(mi.value + 1.0 / 6.0) <= 1e-12


def test_power_tail_moment_closed_form():
    # linear core contributes -0.15, the p = 3 tail contributes exactly -0.2
    k = rg.RadialCurvature.from_spline(
        [0.0, 1.0], [-0.5, -0.2], tail=rg.PowerLawTail(-0.2, 3.0)
    )
    mi = rg.moment_integral(k)
    assert abs(mi.value + 0.35) <= 1e-12
    assert mi.abs_error <= 1e-10


@pytest.mark.parametrize("tail", [
    rg.ZeroTail(), rg.ConstantTail(-0.7), rg.PowerLawTail(-0.3, 3.5),
    rg.PowerLawTail(0.4, 2.5),
], ids=repr)
def test_tail_closed_forms_match_quadrature(tail):
    """moment against quad of its integrand beyond T > anchor (a divergent
    closed form must match partial integrals that fall without bound,
    quadratically in the upper limit), and continuation against a DOP853
    referee from a rising and a falling anchor state, each within the error
    bar a solve of k <= 0 gives it."""
    anchor, T = 1.5, 2.5
    closed, integrand = tail.moment(T, anchor), lambda t: t * float(tail.value(t, anchor))
    if closed == rg.NEG_INFINITY:
        near, far = (quad(integrand, T, x)[0] for x in (1e2, 1e4))
        assert far < 1e3 * near < 0.0
    else:
        ref = quad(integrand, T, math.inf, epsabs=1e-14, epsrel=1e-12)[0]
        assert abs(closed - ref) <= 1e-10 * max(1.0, abs(ref))
    for m_a, mp_a in ((3.0, 1.4), (3.0, -3.0)):
        kind, want = tail_referee(tail, anchor, m_a, mp_a)
        bars = 10.0 * rg.DEFAULT_REL_TOL * m_a, 10.0 * rg.DEFAULT_REL_TOL * abs(mp_a)
        if kind == "zero":
            with pytest.raises(rg.ConjugatePointError) as err:
                tail.continuation(anchor, m_a, mp_a, *bars)
            assert abs(err.value.t - want) <= 1e-9 * want
            continue
        limit, bound = tail.continuation(anchor, m_a, mp_a, *bars)
        if kind == "grows":  # the growing mode's amplitude, decided above its error
            assert tail.order > 0.0 and limit > bound
        else:
            assert abs(limit - want) <= 1e-9 * abs(want)


def _slow_power_tail_limit(tail, anchor, m_a, mp_a, s_end=16000.0):
    """Referee for lim m' past a power-law tail of p near 2, where m' takes
    t = e^(1 / (p - 2)) and more to settle: DOP853 (rtol 1e-13) in
    s = log(t / anchor) on the bounded state (m / t, m'), whose equations
    y1' = y2 - y1, y2' = -c anchor^2 e^((2 - p) s) y1 reach s_end, with the
    rest of the tail added to first order (second order: 1e-14 here)."""
    c, p = tail.c, tail.p
    rhs = lambda s, y: [y[1] - y[0], -c * anchor ** 2 * math.exp((2.0 - p) * s) * y[0]]
    sol = solve_ivp(rhs, (0.0, s_end), [m_a / anchor, mp_a], method="DOP853",
                    rtol=1e-13, atol=1e-16)
    y1, y2 = sol.y[:, -1]
    return y2 - c * anchor ** 2 * math.exp((2.0 - p) * s_end) / (p - 2.0) * y1


def test_a_power_law_tail_near_p_2_continues_by_the_0f1_series():
    """scipy's 0F1 is not finite at b above about 171 for x < 0; there the
    continuation sums its series for |x| <= 3 b, and beyond keeps its
    DomainError. At x > 0 it sums the series too. The series against
    40-digit mpmath, and the limit of a p = 2.001 tail against mpmath's 0F1
    and a DOP853 referee."""
    mp = pytest.importorskip("mpmath")
    assert special.hyp0f1(172.0, -10.0) == math.inf
    assert math.isnan(special.hyp0f1(1001.0, -1000.0))
    with mp.workdps(40):
        for b in (172.0, 500.5, 1001.0, 1002.0):
            for x in (-10.0, -b, -3.0 * b, 1.5, b - 1.0, 3.0 * b):
                want = mp.hyp0f1(b, x)
                assert abs(curvature._hyp0f1(b, x) - want) <= 1e-14 * abs(want)
    assert math.isnan(curvature._hyp0f1(1001.0, -3004.0))

    k = rg.RadialCurvature.from_spline([0.0, 1.0], [-0.2, 0.001],
                                       tail=rg.PowerLawTail(0.001, 2.001))
    klass = rg.classify_ball_volume(3, k)
    assert klass.kind == "divergent"
    w = rg.solve_warping(k)
    (m_a, mp_a), (limit, err) = w.anchor_state(), w.tail_limit
    assert err <= 1e-11 and abs(limit - 0.3799158326339853) <= 1e-13
    with mp.workdps(40):
        nu = 1 / (mp.mpf(k.tail.p) - 2)
        x = -mp.mpf(k.tail.c) * nu ** 2
        dphi = (2 - mp.mpf(k.tail.p)) * x * mp.hyp0f1(nu + 2, x) / (nu + 1)
        assert abs(limit - float(mp.hyp0f1(nu + 1, x) * mp_a - dphi * m_a)) <= 1e-14
    assert abs(limit - _slow_power_tail_limit(k.tail, 1.0, m_a, mp_a)) <= err
    beyond = rg.RadialCurvature.from_spline([0.0, 1.0], [-0.2, 0.01],
                                            tail=rg.PowerLawTail(0.01, 2.001))
    with pytest.raises(rg.DomainError, match="no closed-form continuation"):
        rg.classify_ball_volume(3, beyond)


@pytest.mark.parametrize("p", [2.0001, 2.001])
def test_a_negative_power_law_tail_near_p_2_holds_its_limit_in_its_bar(p):
    """At x > 0 every 0F1 term is positive and the series is summed there,
    where scipy's 0F1 loses accuracy as b grows (3e-10 at b = 1e5): the bar
    of the tail's limit holds mpmath's limit on the same anchor state (at
    p = 2.0001 scipy's 0F1 put it 1.10 bars away)."""
    mp = pytest.importorskip("mpmath")
    k = rg.RadialCurvature.from_spline([0.0, 1.0], [-0.2, -0.001],
                                       tail=rg.PowerLawTail(-0.001, p))
    w = rg.solve_warping(k)
    (m_a, mp_a), (limit, err) = w.anchor_state(), w.tail_limit
    with mp.workdps(40):
        nu = 1 / (mp.mpf(k.tail.p) - 2)
        x = -mp.mpf(k.tail.c) * nu ** 2
        dphi = (2 - mp.mpf(k.tail.p)) * x * mp.hyp0f1(nu + 2, x) / (nu + 1)
        assert abs(limit - (mp.hyp0f1(nu + 1, x) * mp_a - dphi * m_a)) <= err


def test_zero_curvature_has_one_encoding():
    for tail in (rg.ConstantTail(0.0), rg.PowerLawTail(0.0, 3.0), rg.ZeroTail()):
        k = rg.RadialCurvature.from_spline([0.0, 1.0], [-0.5, 0.0], tail=tail)
        assert type(k.tail) is rg.ZeroTail
    doc = rg.RadialCurvature.zero().to_json()
    assert doc["tail"] == {"kind": "zero"}
    assert type(rg.RadialCurvature.from_json(doc).tail) is rg.ZeroTail
    # every constant model, zero included, is the one spline through (c, c)
    for c, t_tail in ((0.0, 1.0), (-1.0, 1.0), (0.5, 2.0)):
        assert rg.RadialCurvature.constant(c, t_tail).to_json()["core"] == {
            "kind": "spline", "breakpoints": [0.0, t_tail], "values": [c, c]}
    assert doc == rg.RadialCurvature.constant(0.0).to_json()


def test_multiknot_envelope_moment_matches_simpson_oracle():
    k = rg.RadialCurvature.from_spline(MULTIKNOT_KNOTS, MULTIKNOT_VALUES)
    env = rg.nonpositive_min(k)
    mi = rg.moment_integral(env)
    assert abs(mi.value - MULTIKNOT_ENVELOPE_MOMENT) <= 1e-10


def test_moment_rejects_sign_indefinite_input():
    k = rg.RadialCurvature.from_spline(MULTIKNOT_KNOTS, MULTIKNOT_VALUES)
    assert not k.is_nonpositive()
    with pytest.raises(rg.DomainError):
        rg.moment_integral(k)


def test_moment_rejects_breakpoints_too_far_apart():
    # the log splits between 5e-324 and 1 would need a ratio past the float range
    k = rg.RadialCurvature.from_spline([0.0, 5e-324, 1.0], [-1.0, -1.0, 0.0])
    with pytest.raises(rg.DomainError, match="too far apart"):
        rg.moment_integral(k)


def test_envelope_is_pointwise_min():
    k1 = rg.RadialCurvature.from_spline([0.0, 0.7, 1.4, 2.1], [-1.2, -0.3, -0.8, 0.0])
    k2 = rg.RadialCurvature.from_spline(
        [0.0, 1.0], [-0.5, -0.2], tail=rg.PowerLawTail(-0.2, 3.0)
    )
    env = rg.nonpositive_min(k1, k2)
    ts = np.linspace(0.0, 6.0, 4001)
    expected = np.minimum(0.0, np.minimum(k1(ts), k2(ts)))
    assert np.max(np.abs(env(ts) - expected)) <= 1e-14
    assert env.is_nonpositive()


def test_envelope_records_zero_crossing_kinks():
    # the overshooting fixture crosses zero inside the support (then stays
    # positive up to the final knot); the crossing must show up as a
    # breakpoint or quadrature panels straddle the min(0, k) kink
    k = rg.RadialCurvature.from_spline(MULTIKNOT_KNOTS, MULTIKNOT_VALUES)
    env = rg.nonpositive_min(k)
    ts = np.linspace(0.0, env.t_tail, 20001)
    vals = k(ts)
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    assert len(flips) >= 1
    bp = np.asarray(env.breakpoints, dtype=float)
    for idx in flips:
        gap = np.min(np.abs(bp - ts[idx]))
        assert gap <= 2e-4, f"no breakpoint near crossing at t ~ {ts[idx]:.4f}"


def test_envelope_crossings_property():
    # every sign flip of the raw spline lands near a recorded breakpoint
    for seed in range(40):
        rng = np.random.default_rng(seed)
        k = random_compact_curvature(rng)
        env = rg.nonpositive_min(k)
        ts = np.linspace(0.0, env.t_tail, 5001)
        vals = k(ts)
        flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        if len(flips) == 0:
            continue
        bp = np.asarray(env.breakpoints, dtype=float)
        for idx in flips:
            assert np.min(np.abs(bp - ts[idx])) <= ts[1] + 1e-9


def test_envelope_records_a_kink_on_a_scan_grid_point():
    # the line crosses zero at t = 1, a point of the 801-point scan grid
    k = rg.RadialCurvature.from_spline([0.0, 2.0], [-1.0, 1.0], tail=rg.PowerLawTail(1.0, 3.0))
    assert rg.nonpositive_min(k).breakpoints.tolist() == [0.0, 1.0, 2.0]


def test_envelope_kink_next_to_a_breakpoint_is_that_breakpoint():
    # the line reads +2.8e-17 at its last knot and 0 an ulp before it, so the
    # minimiser changes an ulp before the knot; two nodes that close would
    # leave a sliver cell in the warping grid
    k = rg.RadialCurvature.from_spline([0.0, 2.9979402876626784], [-0.19526177682402457, 0.0])
    assert rg.nonpositive_min(k).breakpoints.tolist() == [0.0, 2.9979402876626784]


@pytest.mark.parametrize("a, b, want, t_from", [
    # the power law rises through the constant at 4^(1/3); the constant wins beyond
    ((rg.ConstantTail(-0.5), 1.0), (rg.PowerLawTail(-2.0, 3.0), 1.0),
     "ConstantTail(c=-0.5)", 4.0 ** (1.0 / 3.0)),
    # equal p: restated at the later anchor 2 the first reads -0.25, above -1
    ((rg.PowerLawTail(-2.0, 3.0), 1.0), (rg.PowerLawTail(-1.0, 3.0), 2.0),
     "PowerLawTail(c=-1.0, p=3.0)", 2.0),
    # a positive tail gives way
    ((rg.PowerLawTail(0.5, 3.0), 2.0), (rg.ConstantTail(-1.0), 1.0),
     "ConstantTail(c=-1.0)", 2.0),
], ids=["constant-power", "equal-p", "positive"])
def test_merged_tail_is_the_min_past_its_anchor(a, b, want, t_from):
    from radialgeo.curvature import _merge_tails

    ts = np.linspace(t_from, 10.0 * t_from, 400)[1:]
    floor = np.minimum(0.0, np.minimum(a[0].value(ts, a[1]), b[0].value(ts, b[1])))
    for pair in ((a, b), (b, a)):
        tail, anchor = _merge_tails(*pair)
        assert repr(tail) == want
        assert anchor == pytest.approx(t_from, rel=1e-15)
        assert np.array_equal(tail.value(ts, anchor), floor)


def test_tails_crossing_past_the_largest_float_raise_domain_error():
    # p = 3.001 and p = 3 decay, anchored together at 1, cross at t = e^2302.59
    k1 = rg.RadialCurvature.from_spline([0, 1], [-1, -1], tail=rg.PowerLawTail(-1.0, 3.001))
    k2 = rg.RadialCurvature.from_spline([0, 1], [-0.1, -0.1], tail=rg.PowerLawTail(-0.1, 3.0))
    with pytest.raises(rg.DomainError, match=r"tails cross at t = e\^2302\.59, past the largest"):
        rg.nonpositive_min(k1, k2)


def test_envelope_records_only_kinks_of_the_minimum():
    # k1 and k2 cross at t = 5/6, below zero but above the constant -2
    k1 = rg.RadialCurvature.from_spline([0.0, 2.0], [-1.0, -0.4], rg.ConstantTail(-0.4))
    k2 = rg.RadialCurvature.from_spline([0.0, 2.0], [-0.5, -1.1], rg.ConstantTail(-1.1))
    low = rg.RadialCurvature.constant(-2.0, 2.0)
    assert rg.nonpositive_min(k1, k2, low).breakpoints.tolist() == [0.0, 2.0]
    bp = rg.nonpositive_min(k1, k2).breakpoints
    assert bp.size == 3 and abs(bp[1] - 5.0 / 6.0) <= 1e-13


def test_envelope_kinks_are_refined_in_few_array_calls(monkeypatch):
    # min(0, -sin(20 t)) on [0, 3 pi / 10] has kinks at j pi / 20, j = 1..5
    k = rg.RadialCurvature(rg.FormulaCore(lambda t: -np.sin(20.0 * t)), rg.ZeroTail(),
                           0.3 * math.pi)
    calls = []
    call = rg.RadialCurvature.__call__

    def spy(self, t):
        if self is k:
            calls.append(np.shape(t))
        return call(self, t)

    monkeypatch.setattr(rg.RadialCurvature, "__call__", spy)
    bp = rg.nonpositive_min(k).breakpoints
    assert len(calls) <= 8
    assert np.max(np.abs(bp - np.arange(7) * math.pi / 20.0)) <= 1e-13
    # 64 curvatures and zero are 65 stacked functions; of the lines
    # -1 + s (1 - t), the smallest s is the minimum before t = 1 and the
    # largest after it
    monkeypatch.undo()
    lines = [rg.RadialCurvature.from_spline([0.0, 2.0], [s - 1.0, -s - 1.0],
                                            rg.ConstantTail(-s - 1.0))
             for s in np.linspace(-0.5, 0.5, 64)]
    env = rg.nonpositive_min(*lines)
    assert np.max(np.abs(env.breakpoints - [0.0, 1.0, 2.0])) <= 1e-13
    ts = np.linspace(0.0, 3.0, 301)
    assert np.array_equal(env(ts), np.minimum(0.0, np.min([k(ts) for k in lines], axis=0)))


def _corpus_style_member(rng):
    """A random spline curvature as the benchmark corpus draws them (compact,
    power-law or constant tail), without its redraw of splines that cross
    zero, so both the own envelope and the lazy minimum are taken."""
    kind = rng.integers(3)
    t_tail = rng.uniform(0.8, 3.0)
    vals = -rng.uniform(0.0, 1.5, int(rng.integers(4, 9)))
    tail = rg.ZeroTail()
    if kind == 0:
        vals[-1] = 0.0
    elif kind == 1:
        vals[-1] = -rng.uniform(0.1, 0.5)
        tail = rg.PowerLawTail(vals[-1], rng.uniform(3.0, 4.5))
    else:
        vals[-1] = -rng.uniform(0.2, 1.0)
        tail = rg.ConstantTail(vals[-1])
    return rg.RadialCurvature.from_spline(np.linspace(0.0, t_tail, vals.size), vals, tail)


def test_spline_envelope_matches_the_scan():
    # the same spline behind a formula core takes the scan and Illinois path
    own = 0
    for seed in range(240):
        raw = _corpus_style_member(np.random.default_rng(240_000 + seed))
        scanned = rg.nonpositive_min(rg.RadialCurvature(
            rg.FormulaCore(raw.core, breakpoints=raw.core.breakpoints), raw.tail, raw.t_tail))
        env = rg.nonpositive_min(raw)
        assert env.breakpoints.size == scanned.breakpoints.size
        assert np.max(np.abs(env.breakpoints - scanned.breakpoints)) <= 3.7e-14
        # the referee: the real roots of the spline where its sign changes
        roots = raw.core._spline.roots()
        roots = np.sort(roots[(roots > 0.0) & (roots < raw.t_tail)])
        ends = np.concatenate([[0.0], roots, [raw.t_tail]])
        below = raw(0.5 * (ends[:-1] + ends[1:])) < 0.0
        kinks = roots[below[:-1] != below[1:]]
        kinks = kinks[np.abs(kinks[:, None] - raw.breakpoints).min(axis=1)
                      > 1e-13 + 4.0 * np.spacing(kinks)]
        want = np.sort(np.concatenate([raw.breakpoints, kinks]))
        assert env.breakpoints.size == want.size
        assert np.max(np.abs(env.breakpoints - want)) <= 3.7e-14
        # kinks found later, after the envelope and its input are read, are the same
        later = rg.nonpositive_min(raw)
        later(np.linspace(0.0, 2.0 * raw.t_tail, 64)), raw.is_nonpositive()
        assert np.array_equal(later.breakpoints, env.breakpoints)
        a, b = rg.moment_integral(env), rg.moment_integral(scanned)
        # each is within its abs_error of the true moment
        assert a.value == b.value or abs(a.value - b.value) <= a.abs_error + b.abs_error
        if np.array_equal(scanned.breakpoints, raw.breakpoints):
            assert env.core is raw.core
            own += 1
    assert 0 < own < 240


def test_spline_cores_are_scipys_cubic_splines_bit_for_bit():
    """The slopes a spline core solves for are CubicSpline's, with natural
    ends for 2 knots and not-a-knot ends from 3: the same breakpoints and
    coefficients exactly, over 2 to 9 knots, even and random gaps and values
    from 1e-3 to 1e3 in size."""
    rng = np.random.default_rng(330_000)
    for _ in range(600):
        n = int(rng.integers(2, 10))
        knots = (np.linspace(0.0, rng.uniform(0.1, 10.0), n) if rng.random() < 0.5
                 else np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 3.0, n - 1))]))
        values = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0)
        core = rg.SplineCore(knots, values)
        want = CubicSpline(knots, values, bc_type="natural" if n == 2 else "not-a-knot")
        assert np.array_equal(core._spline.x, want.x)
        assert np.array_equal(core._spline.c, want.c)


@pytest.mark.parametrize("values, match", [
    ([-1.0, math.nan, 0.0], "finite"),
    ([-1.0, math.inf, 0.0], "finite"),
    ([[-1.0, 0.5, 0.0]], "equal length"),
])
def test_a_spline_core_refuses_values_it_cannot_interpolate(values, match):
    with pytest.raises(rg.DomainError, match=match):
        rg.SplineCore([0.0, 1.0, 2.0], values)


def test_spline_nonpositivity_is_decided_on_its_pieces():
    # between the knots 1 and 1.0005 the cubic rises to +6.15e-8, seen by no
    # point of the 801-point scan
    k = rg.RadialCurvature.from_spline([0.0, 1.0, 1.0005, 2.0], [-1.0, -1e-9, -1e-9, -1.0],
                                       tail=rg.ConstantTail(-1.0))
    assert not k.is_nonpositive()
    with pytest.raises(rg.DomainError, match="nonpositive"):
        rg.ModelSurface.from_curvature(k)
    kinks = rg.nonpositive_min(k).breakpoints[1:-1]
    assert kinks.size == 4 and kinks[0] == 1.0 and kinks[-1] == 1.0005
    assert np.allclose(kinks[1:3], [1.000002, 1.000498], rtol=0.0, atol=1e-6)
    # the first, second and last pieces peak below 0, at a knot or inside
    assert rg.RadialCurvature.from_spline([0.0, 1.0, 2.0], [-1.0, -1e-9, -1.0],
                                       tail=rg.ConstantTail(-1.0)).is_nonpositive()


def test_formula_nonpositivity_is_read_where_a_solve_reads_k():
    # +0.5 on (1.0008, 1.0018), between two points of an 801-point scan of [0, 2]
    bump = rg.RadialCurvature.from_json({
        "core": {"kind": "formula", "expr": "where(abs(t - 1.0013) < 0.0005, 0.5, -0.1)",
                 "breakpoints": [0.0, 2.0]},
        "tail": {"kind": "constant", "c": -0.1}, "t_tail": 2.0})
    assert not bump.is_nonpositive()
    with pytest.raises(rg.DomainError, match="nonpositive"):
        rg.moment_integral(bump)
    # no solve reads k past t = 4096
    far = rg.RadialCurvature(rg.FormulaCore(lambda t: np.full_like(t, -1.0)),
                             rg.ConstantTail(-1.0), 5000.0)
    with pytest.raises(rg.DomainError, match="up to t = 4096"):
        far.is_nonpositive()
    hole = rg.RadialCurvature(
        rg.FormulaCore(lambda t: np.where((t > 1.0) & (t < 1.5), np.nan, -1.0)),
        rg.ConstantTail(-1.0), 2.0)
    with pytest.raises(rg.DomainError, match="not finite"):
        hole.is_nonpositive()


@pytest.mark.parametrize("t_tail", [1.7, 2.0, 2.3], ids=["before", "at", "past"])
def test_spline_decisions_with_the_anchor_before_at_and_past_the_last_knot(t_tail):
    # the core is a spline on even knots of [0, 2], extrapolated past 2
    own = set()
    for seed in range(60):
        rng = np.random.default_rng(280_000 + seed)
        vals = rng.uniform(-1.5, 0.3, int(rng.integers(3, 7)))
        core = rg.SplineCore(np.linspace(0.0, 2.0, vals.size), vals)
        c = float(core(t_tail))
        k = rg.RadialCurvature(core, rg.ConstantTail(c) if c <= 0.0 else rg.PowerLawTail(c, 3.0),
                               t_tail)
        dense = np.linspace(0.0, t_tail, 20_001)
        top = np.max(k(dense))  # no tail rises above its anchor value
        assert top - 1e-14 <= -k._headroom <= top + 1e-7
        if abs(top) > 1e-7:
            assert k.is_nonpositive() == (rg.nonpositive_min(k) is k) == (top < 0.0)
            own.add(top < 0.0)
        if c <= 0.0:  # domination over a spline with a constant tail
            g_vals = rng.uniform(-1.5, 0.0, 4)
            g = rg.RadialCurvature.from_spline(np.linspace(0.0, rng.uniform(0.8, 3.0), 4),
                                               g_vals, rg.ConstantTail(g_vals[-1]))
            gap, t = curvature._lowest_gap(k, g)
            # with the anchors, where the gap has kinks; constant past both
            dense = np.concatenate([np.linspace(0.0, max(t_tail, g.t_tail), 20_001),
                                    k.breakpoints, g.breakpoints])
            low = np.min(k(dense) - g(dense))
            assert low - 1e-7 <= gap <= low + 1e-14
            assert abs(gap - (k(t) - g(t))) <= 1e-14
    assert own == {False, True}


def test_an_envelope_with_a_nan_hole_is_not_finite_to_moment_and_solve():
    # the envelope is known nonpositive, so no comparison reads k first
    k = rg.RadialCurvature(
        rg.FormulaCore(lambda t: np.where((t > 1.0) & (t < 1.5), np.nan, t - 2.0)),
        rg.ZeroTail(), 2.0)
    env = rg.nonpositive_min(k)
    for run in (rg.moment_integral, lambda env: rg.solve_warping(env, 4.0)):
        with pytest.raises(rg.DomainError, match="not finite"):
            run(env)


def test_nonpositivity_is_computed_once_per_curvature(monkeypatch):
    calls = []
    lowest_gap = curvature._lowest_gap
    monkeypatch.setattr(curvature, "_lowest_gap",
                        lambda f, g: calls.append((f, g)) or lowest_gap(f, g))
    k = rg.RadialCurvature.from_spline([0.0, 1.0, 2.0], [-1.0, -0.5, 0.0])
    assert rg.nonpositive_min(k) is k
    rg.moment_integral(k)
    assert k.is_nonpositive() and calls == [(None, k)]


def test_envelope_of_a_curvature_passed_twice_is_its_envelope():
    cases = [_corpus_style_member(np.random.default_rng(seed)) for seed in range(3)]
    cases += [rg.RadialCurvature.from_spline(MULTIKNOT_KNOTS, MULTIKNOT_VALUES),
              rg.RadialCurvature.constant(-0.5, 2.0)]
    ts = np.linspace(0.0, 8.0, 1601)
    for k in cases:
        once, twice = rg.nonpositive_min(k), rg.nonpositive_min(k, k)
        assert np.array_equal(once.breakpoints, twice.breakpoints)
        assert (repr(once.tail), once.t_tail) == (repr(twice.tail), twice.t_tail)
        assert np.array_equal(once(ts), twice(ts))


def test_envelope_of_a_nonpositive_spline_exports_the_spline():
    for tail in (rg.ZeroTail(), rg.ConstantTail(-0.3), rg.PowerLawTail(-0.3, 3.5)):
        k = rg.RadialCurvature.from_spline([0.0, 0.6, 1.2, 1.8], [-1.2, -0.4, -0.9,
                                                                  tail.c], tail)
        env = rg.nonpositive_min(k)
        assert env.core is k.core and env.is_nonpositive()
        assert env.to_json() == k.to_json()


def test_a_lazy_minimum_has_no_json_form():
    env = rg.nonpositive_min(rg.RadialCurvature.from_spline(MULTIKNOT_KNOTS, MULTIKNOT_VALUES))
    with pytest.raises(rg.DomainError, match="no JSON form"):
        env.to_json()


def test_a_nonpositive_spline_is_its_own_envelope_unless_its_tail_is_positive():
    own = 0
    for seed in range(40):
        raw = _corpus_style_member(np.random.default_rng(240_000 + seed))
        env = rg.nonpositive_min(raw)
        assert (env is raw) == (env.core is raw.core)
        own += env is raw
    assert 0 < own < 40
    # a positive tail passes the junction check at a core end of 0; the
    # envelope is min(0, k), with a zero tail
    k = rg.RadialCurvature.from_spline([0.0, 1.0], [-1.0, 0.0], tail=rg.PowerLawTail(1e-9, 3.0))
    env = rg.nonpositive_min(k)
    assert env is not k and isinstance(env.tail, rg.ZeroTail)
    assert k(5.0) > 0.0 and env(5.0) == 0.0


def test_json_round_trip_preserves_values_and_tail():
    cases = [
        rg.RadialCurvature.zero(),
        rg.RadialCurvature.constant(-0.7, t_tail=2.0),
        rg.RadialCurvature.from_spline([0.0, 0.7, 1.4, 2.1], [-1.2, -0.3, -0.8, 0.0]),
        rg.RadialCurvature.from_spline(
            [0.0, 1.0], [-0.5, -0.2], tail=rg.PowerLawTail(-0.2, 3.0)
        ),
    ]
    for k in cases:
        k2 = rg.RadialCurvature.from_json(k.to_json())
        ts = np.linspace(0.0, k.t_tail * 3.0, 801)
        assert np.max(np.abs(k(ts) - k2(ts))) <= 1e-15
        assert type(k2.tail) is type(k.tail)


def test_constructor_validation():
    with pytest.raises(rg.DomainError):
        rg.RadialCurvature.from_spline([0.0, 1.0, 0.5], [-1.0, -1.0, -1.0])
    with pytest.raises(rg.DomainError):
        rg.RadialCurvature.from_spline([0.5, 1.0], [-1.0, 0.0])
    with pytest.raises(rg.DomainError, match="p > 2"):
        rg.RadialCurvature.from_spline(
            [0.0, 1.0], [-0.5, -0.2], tail=rg.PowerLawTail(-0.2, 1.5)
        )
    # core ends at 0 but the tail starts at -1: discontinuous junction
    with pytest.raises(rg.DomainError, match="junction"):
        rg.RadialCurvature.from_spline(
            [0.0, 1.0], [-0.5, 0.0], tail=rg.ConstantTail(-1.0)
        )
    # a NaN core end is no value the tail can continue
    with pytest.raises(rg.DomainError, match="junction"):
        rg.RadialCurvature(rg.FormulaCore(lambda t: np.where(t > 1.0, np.nan, -1.0)),
                           rg.ConstantTail(-1.0), 2.0)


def test_moment_error_estimate_is_honest():
    for seed in range(25):
        env = rg.nonpositive_min(random_compact_curvature(np.random.default_rng(seed)))
        mi = rg.moment_integral(env)
        assert math.isfinite(mi.value)
        assert mi.abs_error <= 1e-8
        pts = [float(t) for t in env.breakpoints if 0.0 < t < env.t_tail]
        want = quad(lambda t: t * env(t), 0.0, env.t_tail, points=pts or None, limit=200,
                    epsabs=1e-13, epsrel=1e-13)[0] + env.tail.moment(env.t_tail, env.t_tail)
        assert abs(mi.value - want) <= mi.abs_error + 1e-15


def test_far_anchored_envelope_moment_matches_split_referee():
    # two power-law tails with close exponents: the envelope takes over the
    # slower one only where they cross, at t = 6.5e16
    a = rg.RadialCurvature.from_spline(
        [0.0, 1.4, 2.843172359121189], [-0.5, -0.4, -0.22997705783024244],
        tail=rg.PowerLawTail(-0.22997705783024244, 4.209322996540566))
    b = rg.RadialCurvature.from_spline(
        [0.0, 1.2, 2.511584572330144], [-0.6, -0.3, -0.25060501023507686],
        tail=rg.PowerLawTail(-0.25060501023507686, 4.197785018709158))
    env = rg.nonpositive_min(a, b)
    assert env.t_tail > 1e16
    # referee: one quad per piece between breakpoints, decade-wide gaps cut
    # at factors of 2
    edges = [0.0]
    for lo, hi in zip(env.breakpoints[:-1], env.breakpoints[1:]):
        if lo > 0.0:
            edges.extend(lo * 2.0 ** np.arange(1.0, math.log2(hi / lo)))
        edges.append(hi)
    want = env.tail.moment(env.t_tail, env.t_tail) + sum(
        quad(lambda t: t * env(t), lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:]))
    got = rg.moment_integral(env)
    assert abs(got.value - want) <= 1e-8
    assert got.abs_error <= 1e-8


def _counting(k):
    """k behind a formula core that records each array call."""
    calls = []
    counted = rg.RadialCurvature(
        rg.FormulaCore(lambda t: calls.append(t.size) or k(t), breakpoints=k.breakpoints),
        k.tail, k.t_tail)
    counted.is_nonpositive()
    calls.clear()
    return counted, calls


def test_moment_of_evenly_knotted_cores_adds_no_split_points():
    # no gap between consecutive knots h, 2h, ... exceeds a factor of 2, so
    # the panels are the knot intervals, on which t * k is a polynomial that
    # both rules integrate exactly: one array call of k, no bisection
    rng = np.random.default_rng(7)
    for _ in range(20):
        t_tail = rng.uniform(0.8, 3.0)
        knots = np.linspace(0.0, t_tail, int(rng.integers(3, 9)))
        values = -rng.uniform(0.1, 1.5, knots.size)
        env = rg.nonpositive_min(rg.RadialCurvature.from_spline(
            knots, values, tail=rg.PowerLawTail(values[-1], rng.uniform(3.0, 4.5))))
        pts = [float(t) for t in env.breakpoints if 0.0 < t < env.t_tail]
        core = quad(lambda t: t * env(t), 0.0, env.t_tail, points=pts or None,
                    limit=max(200, 10 * (len(pts) + 1)), epsabs=1e-12, epsrel=1e-12)[0]
        want = core + env.tail.moment(env.t_tail, env.t_tail)
        counted, calls = _counting(env)
        got = rg.moment_integral(counted)
        assert abs(got.value - want) <= 1e-14 * abs(want)
        assert len(calls) == 1


@pytest.mark.parametrize("breakpoints", [None, [0.0, 0.5, 1.0, 1.5, 2.0]], ids=["1", "4"])
@pytest.mark.parametrize("expr, kink, c", [
    ("-0.5 - 0.3*abs(t - 1.003)", 1.003, -0.7991),
    ("where(t < 1.003, -1.0, -0.5)", 1.003, -0.5),
    ("where(t < 0.9999999, -1.0, -0.5)", 0.9999999, -0.5),
    ("minimum(-0.6, -1.2 + 0.45*t*t)", math.sqrt(0.6 / 0.45), -0.6),
    ("-sqrt(abs(t - 1.0))", 1.0, -1.0),
])
def test_moment_of_formula_core_with_kink_inside_a_panel(expr, kink, c, breakpoints):
    # the kink, jump or cusp is no breakpoint: bisection finds it, also
    # where it lies between the centre or an end of a panel and the nearest
    # node of either rule (1.003 in [0, 2], and in [1, 2] after one bisection)
    t_tail = 2.0
    core = {"kind": "formula", "expr": expr}
    if breakpoints is not None:
        core["breakpoints"] = breakpoints
    k = rg.RadialCurvature.from_json(
        {"core": core, "tail": {"kind": "power_law", "c": c, "p": 3.0}, "t_tail": t_tail})
    want = k.tail.moment(t_tail, t_tail) + sum(
        quad(lambda t: t * k(t), lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        for lo, hi in ((0.0, kink), (kink, t_tail)))
    got = rg.moment_integral(k)
    assert abs(got.value - want) <= 1e-10
    assert abs(got.value - want) <= got.abs_error + 1e-14
    assert got.abs_error <= 1e-10


def test_moment_of_too_rough_core_raises():
    core = rg.FormulaCore(lambda t: -1.0 + 0.5 * np.sin(1e5 * t))
    k = rg.RadialCurvature(core, rg.PowerLawTail(float(core(1.0)), 3.0), 1.0)
    with pytest.raises(rg.DomainError, match="too fast"):
        rg.moment_integral(k)


@st.composite
def spline_curvatures(draw):
    """Spline core of 2 to 6 knots with a zero, constant or power-law tail,
    or the nonpositive envelope of one."""
    t_tail = draw(st.floats(0.5, 3.0))
    n = draw(st.integers(2, 6))
    values = draw(st.lists(st.floats(-1.5, 0.5), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["zero", "constant", "power_law"]))
    if kind == "zero":
        tail, values[-1] = rg.ZeroTail(), 0.0
    elif kind == "constant":
        values[-1] = min(values[-1], 0.0)
        tail = rg.ConstantTail(values[-1])
    else:
        tail = rg.PowerLawTail(values[-1], draw(st.floats(2.1, 5.0)))
    k = rg.RadialCurvature.from_spline(np.linspace(0.0, t_tail, n), values, tail=tail)
    return rg.nonpositive_min(k) if draw(st.booleans()) else k


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(deadline=None, derandomize=True, database=None)
@given(k=spline_curvatures(), frac=st.floats(0.0, 3.0))
def test_scalar_evaluation_matches_array_path(k, frac):
    for t in (frac * k.t_tail, k.t_tail):
        want = float(k(np.array([t]))[0])
        for arg in (t, np.float64(t), np.array(t)):
            got = k(arg)
            assert type(got) is float
            assert _same_float(got, want), (arg, got, want)
    for arg in (math.nan, np.array(math.nan)):
        assert _same_float(k(arg), float(k(np.array([math.nan]))[0]))
    for arg in (-frac - 1e-9, np.float64(-frac - 1e-9), np.array(-frac - 1e-9)):
        with pytest.raises(rg.DomainError):
            k(arg)


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(k=spline_curvatures())
def test_tail_continuation_properties(k):
    # classification ends in a class or a conjugate point, never a domain
    # error; on k <= 0 the slope limit lies in [1, exp(-moment)]
    try:
        rg.classify_ball_volume(3, k)
    except rg.ConjugatePointError:
        pass
    if k.is_nonpositive():
        w = rg.solve_warping(k, k.t_tail)
        mom = rg.moment_integral(k)
        if mom.divergent:
            with pytest.raises(rg.UnboundedError):
                rg.slope_limit(w)
        else:
            assert 1.0 - 1e-9 <= rg.slope_limit(w) <= math.exp(-mom.value) + 1e-6
