"""Geodesics and comparison triangles on model surfaces of revolution.

All operations are restricted to nonpositive curvature, where geodesics
between any two points are unique and the endpoint maps are monotone, so
every two-point problem reduces to a bracketed root-find.

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
polish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq

from .errors import DomainError, SectorExceededError
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
    takes the values m1 and m2, described by its rotation number and
    whether it passes an interior turning radius."""

    nu: float
    turning: bool
    r1: float
    r2: float
    m1: float
    m2: float

    @property
    def t_lo(self):
        return min(self.r1, self.r2)

    @property
    def m_hi_lo(self):
        """m at the outer and at the inner end."""
        return (self.m1, self.m2) if self.r1 >= self.r2 else (self.m2, self.m1)


_ANGLE, _LENGTH, _AREA_MASS = 0, 1, 2


def _side_value(surface, side: _SideGeodesic, part: int) -> float:
    """One part of the side: its swept angle, its length, or its area mass.

    Each is the integral from the turning radius of nu up to t_hi plus
    (turning side) or minus (monotone side) the same integral up to t_lo,
    both in one pass; an end at or below the turning radius adds nothing.
    The area mass integrates the cumulative curvature mass along the side
    against dtheta; by Fubini this equals the curvature integral over the
    region between the side and the pole (theta is monotone along the side).
    The mass up to t is the warping's ``km_integral``, a quadrature of k*m
    that never reads m': by m'' = -k m it equals 1 - m'(t), and the
    Gauss-Bonnet residual is the gap between the two along the side.

    m at the ends comes with the side and m at the curvature breakpoints
    from the warping solution, which keeps it: a call inside a root-find
    on nu reads the interpolant only through the inverse radius map.
    """
    nu = side.nu
    kinks = surface.warping.breakpoint_values() / nu
    w_kinks = np.arccosh(kinks[kinks > 1.0]).tolist()
    panels = []  # (mid, half-width, sign), none wider than _PANEL_WIDTH
    for m_end, sign in zip(side.m_hi_lo, (1.0, 1.0 if side.turning else -1.0)):
        ratio = m_end / nu
        if ratio > 1.0:
            W = math.acosh(ratio)
            edges = [0.0, *(w for w in w_kinks if w < W), W]
            for a, b in zip(edges[:-1], edges[1:]):
                n = max(1, math.ceil((b - a) / _PANEL_WIDTH))
                half = 0.5 * (b - a) / n
                panels += [(a + half * (2 * i + 1), half, sign) for i in range(n)]
    if not panels:
        return 0.0
    mid, half, sign = np.array(panels).T
    ch = np.cosh((mid[:, None] + half[:, None] * _GL_NODES).ravel())
    weights = ((sign * half)[:, None] * _GL_WEIGHTS).ravel()
    t, mp = surface.warping.invert(nu * ch)
    if part == _LENGTH:
        return nu * float(np.sum(weights * ch / mp))
    mass = surface.warping.km_integral(t) if part == _AREA_MASS else 1.0
    return float(np.sum(weights * mass / (ch * mp)))


def _solve_side(surface: ModelSurface, r1: float, r2: float, *,
                target_angle: float | None = None,
                target_length: float | None = None) -> _SideGeodesic:
    """Find the geodesic between radii r1, r2 subtending a given angle or
    having a given length. Exactly one target must be provided.

    Both endpoint maps are strictly monotone on each branch (monotone radius
    vs. turning), with the branch point at nu_c = m(min radius), so a
    safeguarded bracketed root-find is globally convergent. m at both radii
    is read once here and carried by every trial side.
    """
    m1, m2 = surface.m(np.array([r1, r2])).tolist()
    nu_c = m1 if r1 <= r2 else m2
    part, target = ((_ANGLE, target_angle) if target_angle is not None
                    else (_LENGTH, target_length))
    branch_point = _SideGeodesic(nu_c, False, r1, r2, m1, m2)  # turning at the min radius
    crit = _side_value(surface, branch_point, part)
    scale = max(abs(target), abs(crit), 1e-30)
    if abs(target - crit) <= 1e-13 * scale:
        return branch_point

    turning = target > crit
    f = lambda nu: _side_value(surface, _SideGeodesic(nu, turning, r1, r2, m1, m2),
                               part) - target
    # the value increases with nu from ~0 (radial limit) to crit, or, on the
    # turning branch, decreases with nu; small nu passes near the pole
    lo_br, hi_br = nu_c * 1e-15, nu_c
    if turning:
        for _ in range(6):
            if f(lo_br) > 0.0:
                break
            lo_br *= 1e-6
        else:
            raise DomainError("side target unreachable within the sector")
    nu = brentq(f, lo_br, hi_br, xtol=1e-15 * max(1.0, nu_c), rtol=8.9e-16,
                maxiter=200)
    return _SideGeodesic(float(nu), turning, r1, r2, m1, m2)


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
    side = _solve_side(surface, a.t, b.t, target_angle=dth)
    return _side_value(surface, side, _LENGTH)


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
    _side: _SideGeodesic | None = None

    def angle_sum(self) -> float:
        return float(sum(self.angles))

    def to_json(self) -> dict:
        return {
            "vertices": [[v.t, v.theta] for v in self.vertices],
            "side_lengths": list(self.side_lengths),
            "angles": list(self.angles),
            "rotation_number": None if self._side is None else self._side.nu,
            "turning": None if self._side is None else self._side.turning,
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

    theta* exists and is unique because side length grows strictly
    monotonically with the opening angle in nonpositive curvature; a
    triangle needing theta* > pi raises SectorExceededError.
    """
    sides = (d_ox, d_oy, d_xy)
    if any(not (s > 0 and math.isfinite(s)) for s in sides):
        raise DomainError(f"side lengths must be positive and finite, got {sides}")
    if not (d_xy < d_ox + d_oy and d_ox < d_oy + d_xy and d_oy < d_ox + d_xy):
        raise DomainError(
            f"side lengths {sides} violate the strict triangle inequality")
    side = _solve_side(surface, d_ox, d_oy, target_length=d_xy)
    theta_star = _side_value(surface, side, _ANGLE)
    if theta_star > math.pi + 1e-12:
        raise SectorExceededError(
            f"apex angle {theta_star:.6g} exceeds pi; the triangle does not "
            "fit in a half sector")
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
    side = tri._side
    if side is None:
        d_ox, d_oy, d_xy = tri.side_lengths
        side = _solve_side(surface, d_ox, d_oy, target_length=d_xy)
    area_integral = _side_value(surface, side, _AREA_MASS)
    return (tri.angle_sum() - math.pi) - area_integral
