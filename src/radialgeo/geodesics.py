"""Geodesics and comparison triangles on model surfaces of revolution.

All operations are restricted to nonpositive curvature, where geodesics
between any two points are unique and the endpoint maps are monotone, so
every two-point problem reduces to one root of a smooth increasing function
of a branch variable on (-1, 1), found by a safeguarded Newton method.

The metric dt^2 + m(t)^2 dtheta^2 has the rotation number
nu = m(t) sin(phi) conserved along geodesics (phi = angle to the meridian).
A trajectory with nu > 0 either crosses the radius range monotonically or
dips to the turning radius t* (where m(t*) = nu) exactly once. Both the
swept angle and the arclength between radii are integrals of m alone; in the
variable w with m(t) = nu*cosh(w) they become smooth bounded integrands:

    angle  = integral of dw / (cosh(w) m'(t(w)))        from 0 to W,
    length = nu * integral of cosh(w) / m'(t(w)) dw     from 0 to W,

with W = arccosh(m(T)/nu). Gauss panels on these converge spectrally once
they are split at w_b = arccosh(m(b)/nu) for each curvature breakpoint b,
where the integrand has a kink; that is what makes shooting on the conserved
quantity cheap enough to use inside root-finds. t(w) comes from the inverse
map t(mu) of the warping function, built once per surface, and one Newton
polish; the same read gives m'' at the nodes, and with it the derivative of
the angle in nu that steers the root-find.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError
from .warping import ModelSurface

_POLE_TOL = 1e-13
_GL_NODES, _GL_WEIGHTS = leggauss(16)
_PANEL_WIDTH = 1.0


@dataclass(frozen=True)
class SurfacePoint:
    """Point (t, theta) in geodesic polar coordinates; the pole is t = 0
    (theta is normalized to 0 there)."""

    t: float
    theta: float = 0.0

    def __post_init__(self):
        if not self.t >= 0:  # also rejects NaN
            raise DomainError("radial coordinate must be nonnegative")
        if not math.isfinite(self.theta):
            raise DomainError("angular coordinate must be finite")
        if self.t < _POLE_TOL and self.theta != 0.0:
            object.__setattr__(self, "theta", 0.0)


# ---------------------------------------------------------------------------
# Rotation-number quadrature kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SideGeodesic:
    """Geodesic arc between radii r1 and r2, where the warping function
    takes the values m1, m2 and the slopes mp1, mp2, described by its
    rotation number and whether it passes an interior turning radius."""

    nu: float
    turning: bool
    r1: float
    r2: float
    m1: float
    m2: float
    mp1: float
    mp2: float

    @property
    def t_lo(self):
        return min(self.r1, self.r2)

    def ends(self):
        """(m, m', sign of the integral up to it) at the outer and the inner end."""
        ends = [(self.m1, self.mp1), (self.m2, self.mp2)]
        outer, inner = ends if self.r1 >= self.r2 else ends[::-1]
        return (*outer, 1.0), (*inner, 1.0 if self.turning else -1.0)


def _side_nodes(surface, side: _SideGeodesic):
    """cosh(w) and the signed weights at the Gauss nodes of the side, and t,
    m'(t) and m''(t) there. Each end above the turning radius adds panels
    from w = 0 up to W = arccosh(m_end/nu), split at the kinks
    w_b = arccosh(m(b)/nu) below W and none wider than ``_PANEL_WIDTH``. m
    at the ends comes with the side and at the breakpoints from the warping
    solution: a pass reads the interpolant only through the inverse map.
    """
    nu = side.nu
    w_kinks = [math.acosh(r) for b in surface.warping.breakpoint_values().tolist()
               if (r := b / nu) > 1.0]
    mids, halves, signs = [], [], []
    for m_end, _, sign in side.ends():
        if (ratio := m_end / nu) > 1.0:
            W = math.acosh(ratio)
            edges = [0.0, *(w for w in w_kinks if w < W), W]
            for a, b in zip(edges[:-1], edges[1:]):
                n = max(1, math.ceil((b - a) / _PANEL_WIDTH))
                half = 0.5 * (b - a) / n
                mids += [a + half * (2 * i + 1) for i in range(n)]
                halves += [half] * n
                signs += [sign] * n
    mid, half, sign = np.array([mids, halves, signs])
    ch = np.cosh((mid[:, None] + half[:, None] * _GL_NODES).ravel())
    weights = ((sign * half)[:, None] * _GL_WEIGHTS).ravel()
    return (ch, weights, *surface.warping.invert(nu * ch))


def _side_value(surface, side: _SideGeodesic):
    """The side's swept angle, its length and d angle/d nu, from one pass.

    Each is the integral from the turning radius of nu up to t_hi plus
    (turning side) or minus (monotone side) the same integral up to t_lo.
    At fixed w, dt/dnu = cosh(w)/m', so the angle integrand 1/(cosh(w) m')
    has the nu-derivative k m/m'^3 = -m''/m'^3 (m'' from the interpolant is
    enough to steer a root-find), and the upper limit of each end adds
    -sign/(m'_end sqrt(m_end^2 - nu^2)). By the first variation
    d length/d nu = nu d angle/d nu.
    """
    ch, weights, _, mp, mpp = _side_nodes(surface, side)
    nu = side.nu
    q = weights / mp
    dangle = -float(q @ (mpp / (mp * mp)))
    for m_end, mp_end, sign in side.ends():
        if m_end / nu > 1.0:
            dangle -= sign / (mp_end * math.sqrt((m_end - nu) * (m_end + nu)))
    return float((q / ch).sum()), nu * float(q @ ch), dangle


_MAX_PASSES = 100  # side passes per solve


def _solve_side(surface: ModelSurface, r1: float, r2: float, *,
                target_angle: float | None = None,
                target_length: float | None = None):
    """(side, angle, length) of the geodesic between radii r1, r2 with the
    given angle or length; exactly one target must be provided.

    With nu_c = m(min radius) the solve runs in sigma = -+sqrt(1 - nu/nu_c),
    negative on the monotone branch and positive on the turning one. Near
    nu_c a side's value goes like crit -+ c sqrt(nu_c - nu), where Newton in
    nu stalls; in sigma the angle (length) is smooth and increasing on
    (-1, 1), from 0 to pi (|r1 - r2| to r1 + r2). Its value at sigma = 0,
    crit, is the first pass, and its slope there sqrt(2)/m'(min radius),
    times nu_c for a length and doubled for equal radii. A safeguarded
    Newton method (rtsafe, Press et al., *Numerical Recipes* 9.4) runs in
    the bracket [-1, 0] or [0, 1] on the target's side of crit, bisecting
    where a step would leave it or shrinks too slowly. It stops when the
    value is within a few ulps of the target, or the next Newton step or
    the bracket is narrower in nu than 0.5 (1e-15 max(1, nu_c) + 8.9e-16 nu);
    the last pass gives angle and length. m, m' at both radii are read once.
    """
    m1, m2 = surface.warping.m(np.array([r1, r2])).tolist()
    mp1, mp2 = surface.warping.m_prime(np.array([r1, r2])).tolist()
    nu_c, mp_c = (m1, mp1) if r1 <= r2 else (m2, mp2)
    by_length = target_angle is None
    target = target_length if by_length else target_angle
    nu_at = lambda sigma: nu_c * ((1.0 - sigma) * (1.0 + sigma))

    def pass_at(sigma):
        side = _SideGeodesic(nu_at(sigma), sigma > 0.0, r1, r2, m1, m2, mp1, mp2)
        angle, length, dangle = _side_value(surface, side)
        # d nu/d sigma = -2 nu_c sigma
        dvalue = -2.0 * nu_c * sigma * dangle * (side.nu if by_length else 1.0)
        return side, angle, length, (length if by_length else angle) - target, dvalue

    side, angle, length, f, _ = pass_at(0.0)
    if abs(f) <= 1e-13 * max(abs(target), abs(f + target), 1e-30):
        return side, angle, length
    df = math.sqrt(2.0) / mp_c * (2.0 if r1 == r2 else 1.0) * (nu_c if by_length else 1.0)
    lo, hi = (0.0, 1.0) if f < 0.0 else (-1.0, 0.0)
    sigma, newton, step, step_before = 0.0, f / df, 1.0, 1.0
    for _ in range(_MAX_PASSES):
        # a Newton step inside the bracket and at most half the step before last
        if lo < sigma - newton < hi and 2.0 * abs(newton) <= step_before:
            step_before, step = step, abs(newton)
            sigma -= newton
        else:
            step_before, step = step, 0.5 * (hi - lo)
            sigma = lo + step
        side, angle, length, f, df = pass_at(sigma)
        newton = f / df if df > 0.0 else math.inf
        lo, hi = (sigma, hi) if f < 0.0 else (lo, sigma)
        tol = 0.5 * (1e-15 * max(1.0, nu_c) + 8.9e-16 * side.nu)
        if (abs(f) <= 4.0 * math.ulp(target) or abs(nu_at(lo) - nu_at(hi)) < 2.0 * tol
                or abs(nu_at(sigma - newton) - side.nu) < tol):
            return side, angle, length
    raise DomainError(f"side solve between radii {r1:.6g} and {r2:.6g} did not converge "
                      f"in {_MAX_PASSES} passes")


# ---------------------------------------------------------------------------
# Distance
# ---------------------------------------------------------------------------


def distance(surface: ModelSurface, a: SurfacePoint, b: SurfacePoint) -> float:
    """Geodesic distance between two points in a sector of width <= pi."""
    dth = abs(a.theta - b.theta)
    if dth > math.pi + 1e-9:
        raise DomainError(
            "angular separation exceeds pi; fold the points into one sector first")
    dth = min(dth, math.pi)
    if a.t < _POLE_TOL:
        return b.t
    if b.t < _POLE_TOL:
        return a.t
    if dth < 1e-14:
        return abs(a.t - b.t)
    if dth > math.pi - 1e-12:
        # limit of the turning branch: the connecting geodesic runs through the pole
        return a.t + b.t
    return _solve_side(surface, a.t, b.t, target_angle=dth)[2]


# ---------------------------------------------------------------------------
# Comparison triangles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeodesicTriangle:
    """Geodesic triangle with one vertex at the pole.

    vertices: (pole, x, y); side_lengths: (pole-x, pole-y, x-y);
    angles: (at pole, at x, at y). The pole sides are meridians, so the pole
    angle equals the angular separation of x and y by construction.
    """

    vertices: tuple
    side_lengths: tuple
    angles: tuple
    _side: _SideGeodesic

    def angle_sum(self) -> float:
        return float(sum(self.angles))

    def to_json(self) -> dict:
        return {
            "vertices": [[v.t, v.theta] for v in self.vertices],
            "side_lengths": list(self.side_lengths),
            "angles": list(self.angles),
            "rotation_number": self._side.nu,
            "turning": self._side.turning,
        }


def _endpoint_angle(side: _SideGeodesic, r: float, m_r: float) -> float:
    """Angle at the radius-r endpoint, where the warping function is m_r,
    between the meridian to the pole and the side, read off the conserved
    rotation number."""
    sin_phi = min(side.nu / m_r, 1.0)
    radial = math.sqrt(max(0.0, 1.0 - sin_phi * sin_phi))
    # leaving a monotone side from its inner endpoint moves outward (v_t > 0);
    # every other case starts inward. cos(angle) = -v_t against the meridian.
    outward = (not side.turning) and (r == side.t_lo)
    v_t = radial if outward else -radial
    return math.acos(max(-1.0, min(1.0, -v_t)))


def comparison_triangle(surface: ModelSurface, d_ox: float, d_oy: float,
                        d_xy: float) -> GeodesicTriangle:
    """Construct the triangle with one vertex at the pole realizing the
    three side lengths: x sits on the zero meridian, y at the angle theta*
    that makes the connecting geodesic exactly d_xy long.

    theta* exists, is unique and lies in (0, pi): in nonpositive curvature
    the side length grows strictly with the opening angle, from
    |d_ox - d_oy| at 0 to d_ox + d_oy at pi, and the strict triangle
    inequality puts d_xy between the two.
    """
    sides = (d_ox, d_oy, d_xy)
    if any(not (s > 0 and math.isfinite(s)) for s in sides):
        raise DomainError(f"side lengths must be positive and finite, got {sides}")
    if not (d_xy < d_ox + d_oy and d_ox < d_oy + d_xy and d_oy < d_ox + d_xy):
        raise DomainError(
            f"side lengths {sides} violate the strict triangle inequality")
    side, theta_star, _ = _solve_side(surface, d_ox, d_oy, target_length=d_xy)
    theta_star = min(theta_star, math.pi)

    pole = SurfacePoint(0.0, 0.0)
    x = SurfacePoint(d_ox, 0.0)
    y = SurfacePoint(d_oy, theta_star)
    angles = (
        theta_star,
        _endpoint_angle(side, d_ox, side.m1),
        _endpoint_angle(side, d_oy, side.m2),
    )
    return GeodesicTriangle((pole, x, y), sides, angles, _side=side)


def gauss_bonnet_residual(surface: ModelSurface, tri: GeodesicTriangle) -> float:
    """(angle sum - pi) minus the curvature integral over the triangle.

    The integral runs over the region bounded by the two meridian sides and
    the connecting geodesic; since theta is monotone along that side, Fubini
    collapses the double integral to a single integral of the cumulative
    curvature mass along the side. Vanishes identically on every geodesic
    triangle up to quadrature and solver error.
    """
    ch, weights, t, mp, _ = _side_nodes(surface, tri._side)
    # the mass up to t is the warping's km_integral, a quadrature of k*m that
    # never reads m': by m'' = -k m it equals 1 - m'(t), and the residual is
    # the gap between the two along the side
    area_integral = float(np.sum(weights * surface.warping.km_integral(t) / (ch * mp)))
    return (tri.angle_sum() - math.pi) - area_integral
