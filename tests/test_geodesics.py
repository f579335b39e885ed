"""Geodesics, distances, triangles, Gauss-Bonnet on model surfaces."""

import json
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.optimize import brentq

import radialgeo as rg

from conftest import newton_inverse, random_envelope, shoot


def flat_surface(t_max=24.0):
    return rg.ModelSurface.from_curvature(rg.RadialCurvature.zero(), t_max)


def hyperbolic_surface(t_max=14.0):
    return rg.ModelSurface.from_curvature(rg.RadialCurvature.constant(-1.0), t_max)


def bump_surface(t_max=16.0):
    bump = rg.nonpositive_min(
        rg.RadialCurvature.from_spline([0.0, 0.8, 1.6, 2.4], [-1.0, -0.15, -0.6, 0.0])
    )
    return rg.ModelSurface.from_curvature(bump, t_max)


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
    path = shoot(s, start, 1.0, 4.0)
    px, py = 2.0 * math.cos(0.3), 2.0 * math.sin(0.3)
    ux, uy = math.cos(0.3), math.sin(0.3)
    vx, vy = -math.sin(0.3), math.cos(0.3)
    ex = px + 4.0 * (math.cos(1.0) * ux + math.sin(1.0) * vx)
    ey = py + 4.0 * (math.cos(1.0) * uy + math.sin(1.0) * vy)
    assert abs(path.end.t - math.hypot(ex, ey)) <= 1e-9
    assert abs(path.end.theta - math.atan2(ey, ex)) <= 1e-9


def test_shoot_conserves_clairaut_and_speed():
    for surface in (flat_surface(), hyperbolic_surface()):
        path = shoot(surface, rg.SurfacePoint(1.5, 0.0), 0.9, 5.0)
        m = surface.warping.m(path.t)
        assert np.max(np.abs(m**2 * path.v_theta - path.clairaut_constant)) <= 1e-8
        assert np.max(np.abs(path.v_t**2 + (m * path.v_theta) ** 2 - 1.0)) <= 1e-9


def test_shoot_meridians():
    s = flat_surface()
    out = shoot(s, rg.SurfacePoint(1.0, 0.4), 0.0, 3.0)
    assert abs(out.end.t - 4.0) <= 1e-12
    assert abs(out.end.theta - 0.4) <= 1e-12
    # inward through the pole and out the other side
    back = shoot(s, rg.SurfacePoint(1.0, 0.4), math.pi, 3.0)
    assert abs(back.end.t - 2.0) <= 1e-12
    assert abs(abs(math.remainder(back.end.theta - 0.4, 2.0 * math.pi)) - math.pi) <= 1e-12


def test_shoot_beyond_horizon_raises():
    s = flat_surface(t_max=6.0)
    with pytest.raises(rg.DomainError):
        shoot(s, rg.SurfacePoint(1.0, 0.0), 0.0, 10.0)


def test_shoot_distance_round_trip():
    s = hyperbolic_surface()
    rng = np.random.default_rng(11)
    for _ in range(10):
        start = rg.SurfacePoint(rng.uniform(0.3, 3.0), rng.uniform(0.0, 1.0))
        angle = rng.uniform(0.15, math.pi - 0.15)
        length = rng.uniform(0.2, 2.5)
        path = shoot(s, start, angle, length)
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


@pytest.mark.parametrize("sides", [
    (1.0, 1.5, 2.0), (1.760676806659212, 2.9087734919472004, 2.1), (4.4, 0.6, 4.3),
    (6.3, 7.1, 9.0)])
def test_triangle_on_a_surface_without_a_horizon_equals_a_longer_solve(sides):
    # the surface starts at t_tail = 1 and is carried on by the side solve
    carried = rg.ModelSurface.from_curvature(rg.RadialCurvature.constant(-1.0))
    longer = hyperbolic_surface(10.0)
    tri, want = rg.comparison_triangle(carried, *sides), rg.comparison_triangle(longer, *sides)
    assert tri.to_json() == want.to_json()  # angles, rotation number and turning
    assert rg.gauss_bonnet_residual(carried, tri) == rg.gauss_bonnet_residual(longer, want)


def test_a_tiny_flat_triangle_has_the_angles_of_its_shape():
    # sides s, 2s, 2.5s: the nu tolerance is relative to m at the inner
    # radius, so a side solve of a tiny triangle runs past its first pass,
    # also from sigma = 0 below r_in = 1e-150, where the model guess is NaN.
    # The slope's sqrt(m - nu) sqrt(m + nu) does not underflow where their
    # product would (subnormal from about 1e-155, zero from 1e-162 or so)
    want = (math.acos(-0.3125), math.acos(0.65), math.acos(0.925))
    surface = flat_surface()
    for e in range(5, 301):
        s = 10.0 ** -e
        for sides, angles in [((s, 2.0 * s, 2.5 * s), want), ((s, s, s), (math.pi / 3.0,) * 3)]:
            try:
                got = rg.comparison_triangle(surface, *sides).angles
            except rg.DomainError:
                if e <= 160:
                    raise
                continue
            assert max(abs(a - b) for a, b in zip(got, angles)) <= 1e-12, (e, sides)


def hyperbolic_half_angle(p, q, r):
    """Angle between sides p and q, opposite r, on the plane of curvature
    -1, by the half-angle law sin^2(angle/2) = sinh((r - p + q)/2)
    sinh((r + p - q)/2) / (sinh p sinh q), which keeps its digits where the
    cosine law cancels."""
    return 2.0 * math.asin(math.sqrt(math.sinh(0.5 * (r - p + q)) * math.sinh(0.5 * (r + p - q))
                                     / (math.sinh(p) * math.sinh(q))))


def far_side_passes(monkeypatch, start):
    """The rotation numbers of the side passes from now on, with the solve's
    first pass at the model's nu (exact on the plane of curvature -1), at
    four times it, or at sigma = 0 (nu = nu_c), from where a far turning side
    has to switch to x = sigma - 1 on its way in."""
    from radialgeo import geodesics

    model_nu = geodesics._model_nu
    if start == "four-times-nu":
        monkeypatch.setattr(geodesics, "_model_nu", lambda *args: 4.0 * model_nu(*args))
    elif start == "sigma-zero":
        monkeypatch.setattr(geodesics, "_model_nu", lambda *args: math.nan)
    return counted_side_values(monkeypatch)


FAR_STARTS = pytest.mark.parametrize("start", ["model", "four-times-nu", "sigma-zero"])


@FAR_STARTS
@pytest.mark.parametrize("sides", [(40.0, 40.0, 79.0), (20.0, 20.0, 39.99), (30.0, 30.0, 59.999),
                                   (35.0, 38.0, 72.5)])
def test_a_side_turning_far_inside_its_radii_meets_its_length(monkeypatch, sides, start):
    # nu / nu_c is 1.1e-17 at (40, 40, 79): sigma = 1 - 2^-53 is nu = 26 there,
    # where the side needs nu = 1.31
    nus = far_side_passes(monkeypatch, start)
    s = rg.ModelSurface.from_curvature(rg.RadialCurvature.constant(-1.0), 16.0)
    a, b, c = sides
    tri = rg.comparison_triangle(s, a, b, c)
    want = (hyperbolic_half_angle(a, b, c), hyperbolic_half_angle(a, c, b),
            hyperbolic_half_angle(b, c, a))
    assert max(abs(got - w) for got, w in zip(tri.angles, want)) <= 1e-9
    if start == "sigma-zero":  # the passes below 2^-16 nu_c are in x = sigma - 1
        assert nus[0] == s.warping.m(min(a, b)) and min(nus) < 2.0 ** -16 * nus[0]
    closing = rg.distance(s, rg.SurfacePoint(a, 0.0), rg.SurfacePoint(b, tri.angles[0]))
    assert abs(closing - c) <= 1e-9


@FAR_STARTS
def test_a_distance_past_the_pole_far_out_is_the_closed_form(monkeypatch, start):
    nus = far_side_passes(monkeypatch, start)
    s = rg.ModelSurface.from_curvature(rg.RadialCurvature.constant(-1.0), 16.0)
    for ra, rb, dth in [(50.0, 50.0, 3.1), (40.0, 30.0, 3.1), (60.0, 55.0, 3.14159),
                        (45.0, 44.0, 0.01)]:
        nus.clear()
        got = rg.distance(s, rg.SurfacePoint(ra, 0.0), rg.SurfacePoint(rb, dth))
        assert abs(got - hyperbolic_distance(ra, rb, dth)) <= 1e-9, (ra, rb, dth)
        if start == "sigma-zero" and dth > 3.0:
            assert min(nus) < 2.0 ** -16 * nus[0], (ra, rb, dth)


def test_false_position_step_rounded_onto_a_bracket_end_stays_inside():
    # three times a false-position step of this needle triangle rounds onto
    # an end of its bracket and is moved half the bracket inside
    tri = rg.comparison_triangle(flat_surface(), 5.0, 4.999, 0.001000000000000908)
    assert tri.angles == (0.0, 0.0, math.pi)


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
    s = bump_surface()
    rng = np.random.default_rng(21)
    for _ in range(6):
        a, b = rng.uniform(0.5, 4.0, 2)
        c = rng.uniform(abs(a - b) + 0.05, a + b - 0.05)
        tri = rg.comparison_triangle(s, float(a), float(b), float(c))
        assert abs(rg.gauss_bonnet_residual(s, tri)) <= 1e-6


def test_curvature_mass_matches_quadrature_referee():
    s = bump_surface()
    w = s.warping
    ts = np.array([0.0, 0.3, 0.8, 1.234, 2.4, 5.0, 16.0])
    want = [quad(lambda x: float(w.k(x)) * w.m(x), 0.0, t, points=[0.8, 1.6, 2.4],
                 limit=200, epsabs=1e-14, epsrel=1e-13)[0] for t in ts]
    assert np.max(np.abs(w.km_integral(ts) - want)) <= 1e-13
    assert np.max(np.abs(w.km_integral(ts) - (1.0 - w.m_prime(ts)))) <= 1e-11


def test_gauss_bonnet_residual_sees_curvature_mass_error(monkeypatch):
    # a mass offset of c along the side moves the area part by c times the
    # pole angle, so the residual is not an identity of the angle formulas
    s = bump_surface()
    tri = rg.comparison_triangle(s, 2.0, 3.0, 2.5)
    before = rg.gauss_bonnet_residual(s, tri)
    exact = s.warping.km_integral
    monkeypatch.setattr(s.warping, "km_integral", lambda t: exact(t) + 1e-6)
    after = rg.gauss_bonnet_residual(s, tri)
    assert after - before == pytest.approx(-1e-6 * tri.angles[0], rel=1e-6)


def carried_bump_surface():
    """The bump surface solved to t = 1: its triangles carry it on."""
    return bump_surface(t_max=1.0)


def random_triangles(rng, count):
    """count side triples as the geodesy benchmark draws them."""
    triples = []
    for _ in range(count):
        a, b = rng.uniform(0.4, 4.5, 2)
        c = rng.uniform(abs(a - b) + 0.05, min(a + b - 0.05, 9.5))
        triples.append((float(a), float(b), float(c)))
    return triples


@pytest.mark.parametrize("surface", [flat_surface, hyperbolic_surface, bump_surface,
                                     carried_bump_surface],
                         ids=["flat", "hyperbolic", "bump", "carried"])
def test_gauss_bonnet_from_the_kept_nodes_is_the_recomputed_residual(surface):
    from dataclasses import replace

    s = surface()
    kept = 0
    for sides in random_triangles(np.random.default_rng(41), 40):
        tri = rg.comparison_triangle(s, *sides)
        if tri._nodes is None:
            continue
        kept += 1
        assert tri._nodes[0] is s.warping
        assert rg.gauss_bonnet_residual(s, tri) == rg.gauss_bonnet_residual(
            s, replace(tri, _nodes=None))
        # after a carry a pass on the solution still reads the kept nodes
        s.warping.m(s.warping.t_max + 0.5)
        assert rg.gauss_bonnet_residual(s, tri) == rg.gauss_bonnet_residual(
            s, replace(tri, _nodes=None))
    assert kept >= 2


def test_gauss_bonnet_reads_new_nodes_only_off_its_triangles_pass(monkeypatch):
    from radialgeo import geodesics

    calls = []
    side_nodes = geodesics._side_nodes
    monkeypatch.setattr(geodesics, "_side_nodes",
                        lambda *args: calls.append(1) or side_nodes(*args))

    def node_passes(surface, tri):
        calls.clear()
        residual = rg.gauss_bonnet_residual(surface, tri)
        return len(calls), residual

    # the flat plane's first pass is its answer, so the side is a pass
    s = flat_surface()
    tri = rg.comparison_triangle(s, 2.0, 3.0, 2.5)
    passes, residual = node_passes(s, tri)
    assert tri._nodes is not None and passes == 0
    # the same solution on another surface object reads the kept nodes; a
    # solution of the same curvature that is another object does not
    assert node_passes(rg.ModelSurface(s.warping), tri) == (0, residual)
    assert node_passes(flat_surface(), tri) == (1, residual)
    # a bump side from a Newton step past its last pass has no nodes
    s = bump_surface()
    seen = set()
    for sides in random_triangles(np.random.default_rng(42), 20):
        tri = rg.comparison_triangle(s, *sides)
        seen.add(tri._nodes is None)
        assert node_passes(s, tri)[0] == (tri._nodes is None)
    assert seen == {False, True}


def test_side_root_find_reads_m_once_per_side(monkeypatch):
    from radialgeo import geodesics

    s = bump_surface()
    reads = {"breakpoint_values": 0, "m_and_prime": 0, "side_value": 0}

    def counted(name, func):
        def spy(*args, **kwargs):
            reads[name] += 1
            return func(*args, **kwargs)
        return spy

    knot_values = rg.WarpingSolution.breakpoint_values

    def counted_knot_values(self):
        # a computation, not a read of the values kept
        reads["breakpoint_values"] += self._breakpoint_values is None
        return knot_values(self)

    monkeypatch.setattr(rg.WarpingSolution, "breakpoint_values", counted_knot_values)
    monkeypatch.setattr(rg.WarpingSolution, "m_and_prime",
                        counted("m_and_prime", rg.WarpingSolution.m_and_prime))
    monkeypatch.setattr(geodesics, "_side_value", counted("side_value", geodesics._side_value))
    rg.distance(s, rg.SurfacePoint(1.3, 0.0), rg.SurfacePoint(3.1, 1.2))
    distance_passes = reads["side_value"]
    rg.comparison_triangle(s, 2.0, 3.0, 2.5)
    # the breakpoint radii are read once per surface and m, m' at the two
    # radii in one read per side solved, however many Newton passes
    # evaluate the side
    assert reads["breakpoint_values"] <= 1
    assert reads["m_and_prime"] <= 2
    # each solve makes the model-plane pass and Newton passes after it (4
    # each here: the bump is no model plane), and returns from its last pass
    # or one Newton step past it: no bracket probes, no separate read
    for passes in (distance_passes, reads["side_value"] - distance_passes):
        assert 4 <= passes <= 8


@pytest.mark.parametrize("sides, nu", [
    # the geodesy workload's seed-1, round-40 bump triangle
    ((3.344500818215339, 1.0713532821709226, 4.311735000611167), 0.3597115992687689),
    # here the length stays 1 ulp below the target while the Newton step in
    # nu stays above its tolerance: without the stop on the value the slow
    # steps fall back to bisection and the solve takes 47 passes
    ((2.2003908032264885, 3.5543796732067743, 5.688704274895482), 0.3293912655640854),
], ids=["round-40", "ulp-bound"])
def test_side_solve_stops_within_a_few_ulps_of_the_target(monkeypatch, sides, nu):
    from radialgeo import geodesics

    passes = []
    side_value = geodesics._side_value
    monkeypatch.setattr(geodesics, "_side_value",
                        lambda *args: passes.append(1) or side_value(*args))
    tri = rg.comparison_triangle(bump_surface(), *sides)
    assert len(passes) <= 10
    # nu from a bracketed brentq solve of the same side
    assert tri.to_json()["rotation_number"] == pytest.approx(nu, rel=1e-13)
    assert tri.to_json()["turning"] is True


def side_problems(seed, count):
    """(surface, r1, r2, target keyword) for count distances and count
    triangles on each test surface: radii in [0.05, 6], angles in
    [0.05, pi - 0.05] and side triples at least 0.05 from degenerate."""
    rng = np.random.default_rng(seed)
    problems = []
    for surface in (flat_surface(), hyperbolic_surface(), bump_surface()):
        for _ in range(count):
            ra, rb = rng.uniform(0.05, 6.0, 2)
            problems.append((surface, ra, rb, {"target_angle": rng.uniform(0.05, math.pi - 0.05)}))
            a, b = rng.uniform(0.4, 4.5, 2)
            c = rng.uniform(abs(a - b) + 0.05, min(a + b - 0.05, 9.5))
            problems.append((surface, a, b, {"target_length": c}))
    return problems


def counted_side_values(monkeypatch):
    """The rotation numbers of the side passes made from now on."""
    from radialgeo import geodesics

    nus = []
    side_value = geodesics._side_value
    monkeypatch.setattr(geodesics, "_side_value",
                        lambda surface, side: nus.append(side.nu) or side_value(surface, side))
    return nus


def test_side_solves_take_few_passes(monkeypatch):
    from radialgeo import geodesics

    nus = counted_side_values(monkeypatch)
    problems = side_problems(27, 40)
    for surface, r1, r2, target in problems:
        geodesics._solve_side(surface, r1, r2, **target)
    # 2.00 here (1 flat, 1.6 hyperbolic, 3.4 bump); 5.33 from the pass at
    # sigma = 0, 6.65 with bisection and a pass to confirm the last Newton step
    assert len(nus) / len(problems) <= 2.2
    # the bracket end at sigma = 1 reads pi: from the pass at sigma = 0 (no
    # model start) false position gets there in fewer passes than halving
    # the bracket (12 passes); from the model start the first pass meets it
    far = (rg.SurfacePoint(5.0, 0.0), rg.SurfacePoint(5.9, 0.7))
    nus.clear()
    rg.distance(hyperbolic_surface(), *far)
    assert len(nus) == 1
    monkeypatch.setattr(geodesics, "_model_nu", lambda *args: math.nan)
    nus.clear()
    rg.distance(hyperbolic_surface(), *far)
    assert len(nus) <= 11


def test_side_solve_without_a_confirming_pass_matches_a_pass(monkeypatch):
    from radialgeo import geodesics

    nus = counted_side_values(monkeypatch)
    stepped = 0
    for surface, r1, r2, target in side_problems(28, 80):
        nus.clear()
        side, angle, length, nodes = geodesics._solve_side(surface, r1, r2, **target)
        # a side from a pass comes with that pass's nodes, a Newton step with none
        assert (nodes is not None) == (side.nu in nus)
        if nodes is not None:
            continue
        stepped += 1
        # the target exactly, and the other part by the first variation
        assert target.get("target_angle", angle) == angle
        assert target.get("target_length", length) == length
        pass_angle, pass_length, dangle, _ = geodesics._side_value(surface, side)
        # the solve leaves nu within tol of the root
        nu_c = min(side.m1, side.m2)
        tol = 0.5 * (1e-15 * nu_c + 8.9e-16 * side.nu)
        assert abs(pass_angle - angle) <= 8.0 * (math.ulp(angle) + abs(dangle) * tol)
        assert abs(pass_length - length) <= 8.0 * (math.ulp(length)
                                                   + side.nu * abs(dangle) * tol)
    assert stepped >= 100


@pytest.mark.parametrize("solve", [
    lambda s: rg.distance(s, rg.SurfacePoint(1.3, 0.0), rg.SurfacePoint(3.1, 1.2)),
    lambda s: rg.comparison_triangle(s, 2.0, 3.0, 2.5),
], ids=["distance", "triangle"])
def test_side_solve_out_of_passes_raises_domain_error(monkeypatch, solve):
    from radialgeo import geodesics

    monkeypatch.setattr(geodesics, "_MAX_PASSES", 1)
    with pytest.raises(rg.DomainError, match="did not converge"):
        solve(bump_surface())


def model_cosine_side(a, p, q, angle):
    """Side opposite the angle between sides p and q, in the plane of
    curvature -a^2."""
    if a == 0.0:
        return math.sqrt(max(0.0, p * p + q * q - 2.0 * p * q * math.cos(angle)))
    return math.acosh(max(1.0, math.cosh(a * p) * math.cosh(a * q)
                          - math.sinh(a * p) * math.sinh(a * q) * math.cos(angle))) / a


def model_cosine_angle(a, p, q, r):
    """Angle between sides p and q, opposite side r, in the plane of
    curvature -a^2."""
    if a == 0.0:
        cos = (p * p + q * q - r * r) / (2.0 * p * q)
    else:
        cos = ((math.cosh(a * p) * math.cosh(a * q) - math.cosh(a * r))
               / (math.sinh(a * p) * math.sinh(a * q)))
    return math.acos(max(-1.0, min(1.0, cos)))


@pytest.mark.parametrize("curvature", [0.0, -1.0, -0.3])
def test_model_plane_sides_take_at_most_two_passes(monkeypatch, curvature):
    # the first pass is the answer up to rounding, so at most one Newton
    # step follows; tolerances are the geodesy workload's
    k = rg.RadialCurvature.constant(curvature) if curvature else rg.RadialCurvature.zero()
    s = rg.ModelSurface.from_curvature(k, 16.0)
    a = math.sqrt(-curvature)
    nus = counted_side_values(monkeypatch)
    rng = np.random.default_rng(36)
    for _ in range(40):
        ra, rb = rng.uniform(0.05, 6.0, 2)
        dth = rng.uniform(0.05, math.pi - 0.05)
        nus.clear()
        d = rg.distance(s, rg.SurfacePoint(ra, 0.0), rg.SurfacePoint(rb, dth))
        assert len(nus) <= 2
        assert abs(d - model_cosine_side(a, ra, rb, dth)) <= (1e-8 if a == 0.0 else 1e-7)
        p, q = rng.uniform(0.4, 4.5, 2)
        r = rng.uniform(abs(p - q) + 0.05, min(p + q - 0.05, 9.5))
        nus.clear()
        tri = rg.comparison_triangle(s, p, q, r)
        assert len(nus) <= 2
        want = (model_cosine_angle(a, p, q, r), model_cosine_angle(a, p, r, q),
                model_cosine_angle(a, q, r, p))
        assert max(abs(got - w) for got, w in zip(tri.angles, want)) <= 1e-7


def test_variable_curvature_sides_match_the_referee_in_few_passes(monkeypatch):
    from radialgeo import geodesics

    rng = np.random.default_rng(3636)
    surfaces = [bump_surface()] + [rg.ModelSurface.from_curvature(random_envelope(rng), 16.0)
                                   for _ in range(4)]
    nus = counted_side_values(monkeypatch)
    solves = 0
    for s in surfaces:
        for i in range(30):
            ra, rb = rng.uniform(0.05, 6.0, 2)
            dth = rng.uniform(0.05, math.pi - 0.05)
            a, b = rng.uniform(0.4, 4.5, 2)
            c = rng.uniform(abs(a - b) + 0.05, min(a + b - 0.05, 9.5))
            if i:
                geodesics._solve_side(s, ra, rb, target_angle=dth)
                geodesics._solve_side(s, a, b, target_length=c)
                solves += 2
                continue
            got = rg.distance(s, rg.SurfacePoint(ra, 0.0), rg.SurfacePoint(rb, dth))
            assert abs(got - referee_distance(s, ra, rb, dth)) <= 1e-9
            tri = rg.comparison_triangle(s, a, b, c)
            want = referee_triangle_angles(s, a, b, c)
            assert np.max(np.abs(np.array(tri.angles) - want)) <= 1e-9
    # 3.6 here, against 5.3 from the pass at sigma = 0
    assert len(nus) / (solves + 2 * len(surfaces)) <= 4.0


@pytest.mark.parametrize("guess", [math.nan, math.inf])
def test_a_non_finite_model_guess_starts_at_sigma_zero(monkeypatch, guess):
    from radialgeo import geodesics

    monkeypatch.setattr(geodesics, "_model_nu", lambda *args: guess)
    nus = counted_side_values(monkeypatch)
    s = hyperbolic_surface()
    d = rg.distance(s, rg.SurfacePoint(1.3, 0.0), rg.SurfacePoint(3.1, 1.2))
    # the first pass is the tangent geodesic at the inner radius, nu = m(1.3)
    assert nus[0] == s.warping.m(1.3) and len(nus) > 2
    assert abs(d - hyperbolic_distance(1.3, 3.1, 1.2)) <= 1e-7
    nus.clear()
    tri = rg.comparison_triangle(s, 2.0, 3.0, 2.5)
    assert nus[0] == s.warping.m(2.0) and len(nus) > 2
    want = (model_cosine_angle(1.0, 2.0, 3.0, 2.5), model_cosine_angle(1.0, 2.0, 2.5, 3.0),
            model_cosine_angle(1.0, 3.0, 2.5, 2.0))
    assert max(abs(got - w) for got, w in zip(tri.angles, want)) <= 1e-7


@pytest.mark.parametrize("turning", [False, True], ids=["monotone", "turning"])
@pytest.mark.parametrize("surface", [flat_surface, hyperbolic_surface, bump_surface],
                         ids=["flat", "hyperbolic", "bump"])
def test_side_derivative_matches_central_differences(surface, turning):
    from radialgeo import geodesics

    s = surface()
    w = s.warping
    for r1, r2 in [(1.3, 3.1), (2.2, 0.7), (4.0, 4.5), (0.3, 5.5)]:
        m1, m2 = w.m(np.array([r1, r2]))
        mp1, mp2 = w.m_prime(np.array([r1, r2]))
        for frac in (0.05, 0.3, 0.7, 0.95):
            nu = frac * min(m1, m2)
            h = 1e-6 * nu

            def parts(nu):
                side = geodesics._SideGeodesic(nu, turning, r1, r2, m1, m2, mp1, mp2)
                return geodesics._side_value(s, side)[:3]

            angle, length, dangle = parts(nu)
            (a_hi, l_hi, _), (a_lo, l_lo, _) = parts(nu + h), parts(nu - h)
            fd_angle, fd_length = (a_hi - a_lo) / (2 * h), (l_hi - l_lo) / (2 * h)
            # relative agreement, plus the roundoff of a difference quotient
            assert abs(dangle - fd_angle) <= 1e-7 * abs(fd_angle) + 1e-14 * (1 + angle) / h
            # the first variation: d length/d nu = nu * d angle/d nu
            for want in (nu * dangle, nu * fd_angle):
                assert abs(want - fd_length) <= 1e-7 * abs(fd_length) + 1e-14 * (1 + length) / h


# -- fine-panel referee -------------------------------------------------------
# Side integrals by 32-point Gauss panels 20 times narrower than the
# package's, split at every curvature breakpoint, with the radius inverted by
# Newton steps on the public m and m'.

_REF_NODES, _REF_WEIGHTS = leggauss(32)
_REF_PANEL = 1.0 / 20.0


def referee_side(surface, nu, turning, r1, r2):
    """(swept angle, length) of the side with rotation number nu."""
    w = surface.warping
    kinks = w.m(np.minimum(w.k.breakpoints, w.t_max)) / nu

    def up_to(T):
        ratio = w.m(T) / nu
        if ratio <= 1.0:
            return np.zeros(2)
        edges = np.unique(np.concatenate(
            [[0.0, math.acosh(ratio)], np.arccosh(kinks[(kinks > 1.0) & (kinks < ratio)])]))
        cuts = np.concatenate([np.linspace(a, b, int(math.ceil((b - a) / _REF_PANEL)) + 1)[1:]
                               for a, b in zip(edges[:-1], edges[1:])])
        lo, hi = np.concatenate([[0.0], cuts[:-1]]), cuts
        x = (0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * _REF_NODES).ravel()
        wt = (0.5 * (hi - lo)[:, None] * _REF_WEIGHTS).ravel()
        ch = np.cosh(x)
        t = newton_inverse(w, np.minimum(nu * ch, w.m(w.t_max)))
        mp = w.m_prime(t)
        return np.array([np.sum(wt / (ch * mp)), nu * np.sum(wt * ch / mp)])

    hi, lo = up_to(max(r1, r2)), up_to(min(r1, r2))
    return hi + lo if turning else hi - lo


def referee_rotation_number(surface, r1, r2, part, target):
    """(nu, turning) of the side between radii r1 and r2 whose angle
    (part 0) or length (part 1) equals target."""
    nu_c = surface.warping.m(min(r1, r2))
    turning = bool(target > referee_side(surface, nu_c, False, r1, r2)[part])
    nu = brentq(lambda nu: referee_side(surface, nu, turning, r1, r2)[part] - target,
                1e-15 * nu_c, nu_c, xtol=1e-15 * max(1.0, nu_c), rtol=8.9e-16)
    return nu, turning


def referee_distance(surface, ra, rb, dth):
    nu, turning = referee_rotation_number(surface, ra, rb, 0, dth)
    return referee_side(surface, nu, turning, ra, rb)[1]


def referee_triangle_angles(surface, a, b, c):
    nu, turning = referee_rotation_number(surface, a, b, 1, c)
    apex = referee_side(surface, nu, turning, a, b)[0]
    # the side leaves the inner end of a monotone side outward, so the angle
    # against the meridian to the pole is obtuse there and acute elsewhere
    base = [math.asin(min(1.0, nu / surface.warping.m(r))) for r in (a, b)]
    return [apex] + [math.pi - phi if not turning and r == min(a, b) else phi
                     for phi, r in zip(base, (a, b))]


def test_bump_distances_stay_between_flat_and_hyperbolic():
    # angular separations within 0.006 of 0 and 0.012 of pi, where panels
    # that straddled a curvature kink left these bounds by up to 2.1e-6
    s = bump_surface()
    for (ra, tha), (rb, thb) in [
        ((5.264298389655956, 0.0), (3.472398676133508, 3.13733404923172)),
        ((0.40007036021681913, 0.0), (4.276070615110392, 0.0017298977510716107)),
    ]:
        d = rg.distance(s, rg.SurfacePoint(ra, tha), rg.SurfacePoint(rb, thb))
        dth = abs(thb - tha)
        lower = planar_distance(ra, 0.0, rb, dth)
        upper = hyperbolic_distance(ra, rb, dth)
        assert lower - 1e-9 <= d <= upper + 1e-9


def test_bump_geodesy_matches_fine_panel_referee():
    s = bump_surface()
    rng = np.random.default_rng(31)
    dths = np.concatenate([rng.uniform(0.0, 0.05, 3), rng.uniform(0.05, math.pi - 0.05, 2),
                           rng.uniform(math.pi - 0.05, math.pi, 3)])
    for dth in dths:
        ra, rb = rng.uniform(0.05, 6.0, 2)
        got = rg.distance(s, rg.SurfacePoint(ra, 0.0), rg.SurfacePoint(rb, dth))
        assert abs(got - referee_distance(s, ra, rb, dth)) <= 1e-9
    for _ in range(3):
        a, b = rng.uniform(0.4, 4.5, 2)
        c = rng.uniform(abs(a - b) + 0.05, a + b - 0.05)
        tri = rg.comparison_triangle(s, a, b, c)
        want = referee_triangle_angles(s, a, b, c)
        assert np.max(np.abs(np.array(tri.angles) - want)) <= 1e-9


def test_triangle_json_has_python_types():
    tri = rg.comparison_triangle(bump_surface(), 1.0, 1.5, 2.0)
    doc = tri.to_json()
    assert type(doc["turning"]) is bool
    assert json.loads(json.dumps(doc)) == doc
