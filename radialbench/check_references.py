"""Tests of reference.py against known values.

    python3 radialbench/check_references.py      # or: python3 -m pytest radialbench/check_references.py

Each test compares one reference with a value known independently of it:
a closed form, a textbook identity, or an outside high-accuracy integration.
"""

from __future__ import annotations

import math
import sys

import reference as ref


def test_laws_of_cosines():
    # 3-4-5 right triangle; equilateral triangle angles pi/3
    assert abs(ref.flat_distance(3.0, 4.0, math.pi / 2) - 5.0) <= 1e-15
    assert all(abs(a - math.pi / 3) <= 1e-12 for a in ref.flat_pole_angles(2.0, 2.0, 2.0))
    # hyperbolic Pythagoras: cosh c = cosh a cosh b at a right angle
    a, b = 0.7, 1.9
    c = ref.hyperbolic_distance(a, b, math.pi / 2)
    assert abs(math.cosh(c) - math.cosh(a) * math.cosh(b)) <= 1e-12
    apex, _x, _y = ref.hyperbolic_pole_angles(a, b, c)
    assert abs(apex - math.pi / 2) <= 1e-7
    # hyperbolic angle sum falls short of pi by the area, which is positive
    assert sum(ref.hyperbolic_pole_angles(1.0, 1.2, 1.5)) < math.pi
    # small triangles are nearly Euclidean
    flat = ref.flat_pole_angles(1e-3, 1.2e-3, 1.5e-3)
    hyp = ref.hyperbolic_pole_angles(1e-3, 1.2e-3, 1.5e-3)
    assert max(abs(f - h) for f, h in zip(flat, hyp)) <= 1e-6
    # distance across the pole
    assert abs(ref.hyperbolic_distance(1.0, 2.0, math.pi) - 3.0) <= 1e-12


def test_cap_fraction_and_sphere_areas():
    assert ref.cap_fraction_n3(0.0) == 0.0
    assert abs(ref.cap_fraction_n3(math.pi / 2) - 0.5) <= 1e-15
    assert abs(ref.cap_fraction_n3(math.pi) - 1.0) <= 1e-15
    assert abs(ref.sphere_area(1) - 2 * math.pi) <= 1e-14
    assert abs(ref.sphere_area(2) - 4 * math.pi) <= 1e-14


def test_closed_form_ball_volumes():
    assert abs(ref.flat_ball_volume(3, 1.0) - 4 * math.pi / 3) <= 1e-14
    assert abs(ref.flat_ball_volume(2, 2.0) - 4 * math.pi) <= 1e-14
    # pi (sinh 2t - 2t) against 4 pi * integral of sinh^2
    for t in (1e-3, 0.5, 3.0):
        quad = 4 * math.pi * (math.sinh(2 * t) / 4 - t / 2)
        assert abs(ref.hyperbolic3_ball_volume(t) - quad) <= 1e-9 * quad
    # curvature -a^2 is curvature -1 rescaled by 1/a
    assert abs(ref.hyperbolic3_ball_volume(2.0, 0.5)
               - ref.hyperbolic3_ball_volume(1.0) / 0.125) <= 1e-12


def test_spline_moment():
    # ramp -1 -> 0 on [0, 1]: integral of t (t - 1) = -1/6
    ramp = ref.SplineCurvature([0.0, 1.0], [-1.0, 0.0], ("zero",))
    assert abs(ref.spline_moment(ramp) + 1.0 / 6.0) <= 1e-13
    # constant -0.5 core with a p = 3 power-law tail: -0.5 a^2/2 - 0.5 a^2
    pl = ref.SplineCurvature([0.0, 2.0], [-0.5, -0.5], ("power_law", -0.5, 3.0))
    assert abs(ref.spline_moment(pl) - (-1.0 - 2.0)) <= 1e-12
    const = ref.SplineCurvature([0.0, 1.0], [-1.0, -1.0], ("constant", -1.0))
    assert ref.spline_moment(const) == -math.inf
    # a core that crosses zero contributes only its negative part:
    # k = 2t - 1 on [0, 1] gives integral of t (2t - 1) over [0, 1/2] = -1/24
    cross = ref.SplineCurvature([0.0, 1.0], [-1.0, 1.0], ("zero",))
    assert abs(ref.spline_moment(cross) + 1.0 / 24.0) <= 1e-12


def test_reference_warping_closed_forms():
    hyp = ref.ReferenceWarping(ref.SplineCurvature([0.0, 1.0], [-1.0, -1.0], ("constant", -1.0)), 5.0)
    for t in (0.5, 2.0, 5.0):
        m, mp = hyp.state(t)
        assert abs(m - math.sinh(t)) <= 1e-10 * math.cosh(t)
        assert abs(mp - math.cosh(t)) <= 1e-10 * math.cosh(t)
    assert abs(hyp.ball_volume(3, 3.0) / ref.hyperbolic3_ball_volume(3.0) - 1) <= 1e-10
    flat = ref.ReferenceWarping(ref.SplineCurvature([0.0, 1.0], [0.0, 0.0], ("zero",)), 4.0)
    assert abs(flat.ball_volume(3, 4.0) / ref.flat_ball_volume(3, 4.0) - 1) <= 1e-12
    # ramp: m' is constant past the support and stays below exp(-moment)
    ramp = ref.ReferenceWarping(ref.SplineCurvature([0.0, 1.0], [-1.0, 0.0], ("zero",)), 3.0)
    assert abs(ramp.state(2.0)[1] - ramp.state(3.0)[1]) <= 1e-12
    assert 1.0 < ramp.state(3.0)[1] < math.exp(1.0 / 6.0)


def test_power_law_slope_limit():
    # k = -0.5 -> -0.2 on [0, 1], tail -0.2 t^-3: slope limit 1.3867242867657819
    # from an outside adaptive integration to t = 20000 plus the exp(0.2 / T)
    # tail correction (error about 1e-8)
    k = ref.SplineCurvature([0.0, 1.0], [-0.5, -0.2], ("power_law", -0.2, 3.0))
    assert abs(ref.power_law_slope_limit(k) - 1.3867242867657819) <= 1e-8
    # a power-law tail with c -> 0 leaves the core's slope unchanged
    tiny = ref.SplineCurvature([0.0, 1.0], [-1.0, -1e-12], ("power_law", -1e-12, 3.5))
    core_slope = ref.ReferenceWarping(tiny, 1.0).end_state[1]
    assert abs(ref.power_law_slope_limit(tiny) - core_slope) <= 1e-9
    # the Bessel continuation agrees with integrating the tail numerically
    k = ref.SplineCurvature([0.0, 0.9, 1.8, 2.7], [-1.1, -0.25, -0.7, -0.2],
                            ("power_law", -0.2, 3.0))
    far = ref.ReferenceWarping(k, 400.0, rtol=1e-12).end_state[1]
    # m' keeps rising past t = 400 by roughly exp(|c| a^3 / 400) - 1
    limit = ref.power_law_slope_limit(k)
    assert far < limit < far * math.exp(0.2 * 2.7 ** 3 / 400.0)


def main() -> int:
    tests = [obj for name, obj in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError:
            failed += 1
            print(f"FAIL {test.__name__}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
