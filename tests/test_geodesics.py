"""Geodesics, distances, triangles, Gauss-Bonnet on model surfaces."""

import math

import numpy as np
import pytest

import radialgeo as rg

from conftest import random_envelope


def flat_surface(t_max=24.0):
    return rg.ModelSurface.from_curvature(rg.RadialCurvature.zero(), t_max)


def hyperbolic_surface(t_max=14.0):
    return rg.ModelSurface.from_curvature(rg.RadialCurvature.constant(-1.0), t_max)


def planar_distance(ra, tha, rb, thb):
    ax, ay = ra * math.cos(tha), ra * math.sin(tha)
    bx, by = rb * math.cos(thb), rb * math.sin(thb)
    return math.hypot(ax - bx, ay - by)


def hyperbolic_distance(ra, rb, dth):
    arg = math.cosh(ra) * math.cosh(rb) - math.sinh(ra) * math.sinh(rb) * math.cos(dth)
    return math.acosh(max(1.0, arg))


def test_flat_345_distance_and_angles():
    s = flat_surface()
    a = rg.SurfacePoint(3.0, 0.0)
    b = rg.SurfacePoint(4.0, math.pi / 2.0)
    assert abs(rg.distance(s, a, b) - 5.0) <= 1e-10
    tri = rg.comparison_triangle(s, 3.0, 4.0, 5.0)
    pole, ang_x, ang_y = tri.angles
    assert abs(pole - math.pi / 2.0) <= 1e-10
    assert abs(ang_x - math.acos(0.6)) <= 1e-10
    assert abs(ang_y - math.acos(0.8)) <= 1e-10
    assert abs(tri.angle_sum() - math.pi) <= 1e-9
    assert abs(rg.gauss_bonnet_residual(s, tri)) <= 1e-9


def test_distance_degenerate_configurations():
    s = flat_surface()
    # same meridian
    assert abs(rg.distance(s, rg.SurfacePoint(1.0, 0.5), rg.SurfacePoint(4.0, 0.5)) - 3.0) <= 1e-12
    # through the pole
    assert abs(rg.distance(s, rg.SurfacePoint(1.0, 0.0), rg.SurfacePoint(2.0, math.pi)) - 3.0) <= 1e-12
    # one endpoint at the pole
    assert abs(rg.distance(s, rg.SurfacePoint(0.0, 0.0), rg.SurfacePoint(2.5, 1.0)) - 2.5) <= 1e-12
    with pytest.raises(rg.DomainError):
        rg.distance(s, rg.SurfacePoint(1.0, 0.0), rg.SurfacePoint(1.0, math.pi + 0.01))


def test_flat_distances_match_law_of_cosines():
    s = flat_surface()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        ra, rb = rng.uniform(0.05, 8.0, 2)
        tha, thb = rng.uniform(0.0, 2.0 * math.pi, 2)
        dth = abs(math.remainder(thb - tha, 2.0 * math.pi))
        got = rg.distance(s, rg.SurfacePoint(ra, 0.0), rg.SurfacePoint(rb, dth))
        worst = max(worst, abs(got - planar_distance(ra, 0.0, rb, dth)))
    assert worst <= 1e-8


def test_hyperbolic_distances_match_law_of_cosines():
    s = hyperbolic_surface()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        ra, rb = rng.uniform(0.05, 6.0, 2)
        dth = rng.uniform(0.0, math.pi)
        got = rg.distance(s, rg.SurfacePoint(ra, 0.2), rg.SurfacePoint(rb, 0.2 + dth))
        worst = max(worst, abs(got - hyperbolic_distance(ra, rb, dth)))
    assert worst <= 1e-7


def test_shoot_flat_matches_planar_geometry():
    s = flat_surface()
    start = rg.SurfacePoint(2.0, 0.3)
    path = rg.shoot(s, start, 1.0, 4.0)
    px, py = 2.0 * math.cos(0.3), 2.0 * math.sin(0.3)
    ux, uy = math.cos(0.3), math.sin(0.3)
    vx, vy = -math.sin(0.3), math.cos(0.3)
    ex = px + 4.0 * (math.cos(1.0) * ux + math.sin(1.0) * vx)
    ey = py + 4.0 * (math.cos(1.0) * uy + math.sin(1.0) * vy)
    assert abs(path.end.t - math.hypot(ex, ey)) <= 1e-9
    assert abs(path.end.theta - math.atan2(ey, ex)) <= 1e-9


def test_shoot_conserves_clairaut_and_speed():
    for surface in (flat_surface(), hyperbolic_surface()):
        path = rg.shoot(surface, rg.SurfacePoint(1.5, 0.0), 0.9, 5.0)
        m = surface.m(path.t)
        assert np.max(np.abs(m**2 * path.v_theta - path.clairaut_constant)) <= 1e-8
        assert np.max(np.abs(path.v_t**2 + (m * path.v_theta) ** 2 - 1.0)) <= 1e-9


def test_shoot_meridians():
    s = flat_surface()
    out = rg.shoot(s, rg.SurfacePoint(1.0, 0.4), 0.0, 3.0)
    assert abs(out.end.t - 4.0) <= 1e-12
    assert abs(out.end.theta - 0.4) <= 1e-12
    # inward through the pole and out the other side
    back = rg.shoot(s, rg.SurfacePoint(1.0, 0.4), math.pi, 3.0)
    assert abs(back.end.t - 2.0) <= 1e-12
    assert abs(abs(math.remainder(back.end.theta - 0.4, 2.0 * math.pi)) - math.pi) <= 1e-12


def test_shoot_beyond_horizon_raises():
    s = flat_surface(t_max=6.0)
    with pytest.raises(rg.HorizonExceededError):
        rg.shoot(s, rg.SurfacePoint(1.0, 0.0), 0.0, 10.0)


def test_shoot_distance_round_trip():
    s = hyperbolic_surface()
    rng = np.random.default_rng(11)
    for _ in range(10):
        start = rg.SurfacePoint(rng.uniform(0.3, 3.0), rng.uniform(0.0, 1.0))
        angle = rng.uniform(0.15, math.pi - 0.15)
        length = rng.uniform(0.2, 2.5)
        path = rg.shoot(s, start, angle, length)
        assert abs(rg.distance(s, start, path.end) - length) <= 1e-7


def test_hyperbolic_equilateral_triangle():
    s = hyperbolic_surface()
    tri = rg.comparison_triangle(s, 2.0, 2.0, 2.0)
    pole, ax, ay = tri.angles
    # base angles equal by symmetry; all three below the flat value pi/3
    assert abs(ax - ay) <= 1e-10
    assert pole < math.pi / 3.0 and ax < math.pi / 3.0
    # hyperbolic law of cosines for the apex
    expect = math.acos(
        (math.cosh(2.0) ** 2 - math.cosh(2.0)) / (math.sinh(2.0) ** 2)
    )
    assert abs(pole - expect) <= 1e-9
    # angle defect equals area
    assert abs(rg.gauss_bonnet_residual(s, tri)) <= 1e-8


def test_comparison_angle_monotone_in_opposite_side():
    s = hyperbolic_surface()
    prev = 0.0
    for d in np.linspace(0.8, 5.8, 11):
        tri = rg.comparison_triangle(s, 3.0, 3.0, float(d))
        apex = tri.angles[0]
        assert apex > prev
        prev = apex


def test_angle_inequality_between_ordered_curvatures():
    # k1 >= k2 pointwise: every triangle angle is at least as large on the
    # k1 surface
    from conftest import random_compact_curvature

    rng = np.random.default_rng(8)
    for _ in range(5):
        raw = random_compact_curvature(rng)
        knots = np.asarray(raw.breakpoints, dtype=float)
        vals = np.asarray(raw(knots), dtype=float)
        # scaling values scales the interpolant, so min(0, 3k) = 3 min(0, k)
        k1 = rg.nonpositive_min(raw)
        k2 = rg.nonpositive_min(rg.RadialCurvature.from_spline(knots, 3.0 * vals))
        s1 = rg.ModelSurface.from_curvature(k1, 16.0)
        s2 = rg.ModelSurface.from_curvature(k2, 16.0)
        a, b = rng.uniform(0.5, 3.0, 2)
        c = rng.uniform(abs(a - b) + 0.1, a + b - 0.1)
        t1 = rg.comparison_triangle(s1, a, b, c)
        t2 = rg.comparison_triangle(s2, a, b, c)
        for ang1, ang2 in zip(t1.angles, t2.angles):
            assert ang1 >= ang2 - 1e-7


@pytest.mark.parametrize("t, theta", [(math.nan, 0.0), (-1.0, 0.0), (1.0, math.nan)])
def test_surface_point_rejects_nan_and_negative_radius(t, theta):
    with pytest.raises(rg.DomainError):
        rg.SurfacePoint(t, theta)


def test_triangle_inequality_enforced():
    s = flat_surface()
    with pytest.raises(rg.DomainError):
        rg.comparison_triangle(s, 1.0, 2.0, 3.5)
    with pytest.raises(rg.DomainError):
        rg.comparison_triangle(s, 5.0, 2.0, 1.0)


def test_gauss_bonnet_on_bump_surface():
    bump = rg.nonpositive_min(
        rg.RadialCurvature.from_spline([0.0, 0.8, 1.6, 2.4], [-1.0, -0.15, -0.6, 0.0])
    )
    s = rg.ModelSurface.from_curvature(bump, 16.0)
    rng = np.random.default_rng(21)
    for _ in range(6):
        a, b = rng.uniform(0.5, 4.0, 2)
        c = rng.uniform(abs(a - b) + 0.05, a + b - 0.05)
        tri = rg.comparison_triangle(s, float(a), float(b), float(c))
        assert abs(rg.gauss_bonnet_residual(s, tri)) <= 1e-6


def test_critical_angle_bound_flat_and_ramp():
    s = flat_surface()
    assert abs(rg.critical_angle_bound(s, 0.0) - math.pi / 2.0) <= 1e-14
    assert abs(rg.critical_angle_bound(s, 0.4) - (math.pi / 2.0 - 0.4)) <= 1e-14
    ramp = rg.RadialCurvature.from_spline([0.0, 1.0], [-1.0, 0.0])
    s2 = rg.ModelSurface.from_curvature(ramp, 10.0)
    expect = (math.pi / 2.0) * math.exp(-1.0 / 6.0)
    assert abs(rg.critical_angle_bound(s2, 0.0) - expect) <= 1e-12


def test_geodesic_path_csv(tmp_path):
    s = flat_surface()
    path = rg.shoot(s, rg.SurfacePoint(1.0, 0.0), 0.7, 2.0)
    out = tmp_path / "path.csv"
    path.to_csv(out, comment="smoke")
    text = out.read_text().splitlines()
    assert text[0] == "# smoke"
    assert text[1].split(",") == ["s", "t", "theta"]
    assert len(text) > 10
