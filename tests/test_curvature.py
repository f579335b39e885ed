"""Curvature model: construction, envelopes, the moment integral."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import radialgeo as rg

from conftest import random_compact_curvature

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
    """moment and km_remainder against quad of their integrands beyond
    T > anchor; a divergent closed form must match partial integrals that
    fall without bound (quadratically in the upper limit)."""
    anchor, T, m_T, mp_T = 1.5, 2.5, 3.0, 1.4
    k = lambda t: float(tail.value(t, anchor))
    cases = [(tail.moment(T, anchor), lambda t: t * k(t)),
             (tail.km_remainder(T, m_T, mp_T, anchor), lambda t: k(t) * (m_T + mp_T * (t - T)))]
    for closed, integrand in cases:
        if closed == rg.NEG_INFINITY:
            near, far = (quad(integrand, T, x)[0] for x in (1e2, 1e4))
            assert far < 1e3 * near < 0.0
        else:
            ref = quad(integrand, T, math.inf, epsabs=1e-14, epsrel=1e-12)[0]
            assert abs(closed - ref) <= 1e-10 * max(1.0, abs(ref))


def test_zero_curvature_has_one_encoding():
    for tail in (rg.ConstantTail(0.0), rg.PowerLawTail(0.0, 3.0), rg.ZeroTail()):
        k = rg.RadialCurvature.from_spline([0.0, 1.0], [-0.5, 0.0], tail=tail)
        assert type(k.tail) is rg.ZeroTail
    doc = rg.RadialCurvature.zero().to_json()
    assert doc["tail"] == {"kind": "zero"}
    assert type(rg.RadialCurvature.from_json(doc).tail) is rg.ZeroTail


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


def test_nonpositive_part_equals_single_argument_envelope():
    k = rg.RadialCurvature.from_spline(MULTIKNOT_KNOTS, MULTIKNOT_VALUES)
    a = rg.nonpositive_part(k)
    b = rg.nonpositive_min(k)
    ts = np.linspace(0.0, 4.0, 1001)
    assert np.max(np.abs(a(ts) - b(ts))) == 0.0


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


def test_moment_error_estimate_is_honest():
    for seed in range(25):
        env = rg.nonpositive_min(random_compact_curvature(np.random.default_rng(seed)))
        mi = rg.moment_integral(env)
        assert math.isfinite(mi.value)
        assert mi.abs_error <= 1e-8


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
