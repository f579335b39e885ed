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

with W = arccosh(m(T)/nu). Gauss panels on these converge spectrally, which
is what makes shooting on the conserved quantity cheap enough to use inside
root-finds. The time-stepped geodesic flow (``shoot``) is kept for path
output and conservation tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .curvature import moment_integral
from .errors import (
    DomainError,
    HorizonExceededError,
    SectorExceededError,
)
from .warping import ModelSurface

_POLE_TOL = 1e-13
_RADIAL_SIN_TOL = 1e-12
_GL_NODES, _GL_WEIGHTS = leggauss(32)
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


def _invert_radius(surface: ModelSurface, mu: np.ndarray) -> np.ndarray:
    """Solve m(t) = mu elementwise. m is convex increasing with m' >= 1 here,
    so a grid-interpolated start plus a few Newton steps reaches roundoff."""
    w = surface.warping
    t = np.interp(mu, w.m_values, w.grid)
    for _ in range(4):
        t = t - (w.m(t) - mu) / w.m_prime(t)
        np.clip(t, 0.0, w.t_max, out=t)
    return t


def _gauss_panels(W: float):
    n_panels = max(1, int(math.ceil(W / _PANEL_WIDTH)))
    edges = np.linspace(0.0, W, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    w = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    wt = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return w, wt


def _side_integrals(surface: ModelSurface, nu: float, T: float,
                    with_area: bool = False):
    """(angle, length, area_mass) integrals from the turning radius of nu up
    to radius T; all zero when T is at or below the turning radius."""
    m_T = surface.m(T)
    ratio = m_T / nu
    if ratio <= 1.0:
        return 0.0, 0.0, 0.0
    W = math.acosh(ratio)
    w, wt = _gauss_panels(W)
    ch = np.cosh(w)
    mu = np.minimum(nu * ch, surface.m(surface.t_max))
    t = _invert_radius(surface, mu)
    mp = surface.m_prime(t)
    angle = float(np.sum(wt / (ch * mp)))
    length = nu * float(np.sum(wt * ch / mp))
    area = float(np.sum(wt * surface.curvature_mass(t) / (ch * mp))) if with_area else 0.0
    return angle, length, area


@dataclass(frozen=True)
class _SideGeodesic:
    """Geodesic arc between radii r1 and r2, described by its rotation
    number and whether it passes an interior turning radius."""

    nu: float
    turning: bool
    r1: float
    r2: float

    @property
    def t_lo(self):
        return min(self.r1, self.r2)

    @property
    def t_hi(self):
        return max(self.r1, self.r2)


_ANGLE, _LENGTH, _AREA_MASS = 0, 1, 2


def _side_value(surface, side: _SideGeodesic, part: int) -> float:
    """One part of the side: its swept angle, its length, or its area mass.

    Each is the ``_side_integrals`` part up to t_hi plus (turning side) or
    minus (monotone side) the same part up to t_lo. The area mass integrates
    the cumulative curvature mass along the side against dtheta; by Fubini
    this equals the curvature integral over the region between the side and
    the pole (theta is monotone along the side). Only that part builds the
    curvature-mass spline.
    """
    with_area = part == _AREA_MASS
    hi = _side_integrals(surface, side.nu, side.t_hi, with_area)[part]
    lo = _side_integrals(surface, side.nu, side.t_lo, with_area)[part]
    return hi + lo if side.turning else hi - lo


def _solve_side(surface: ModelSurface, r1: float, r2: float, *,
                target_angle: float | None = None,
                target_length: float | None = None) -> _SideGeodesic:
    """Find the geodesic between radii r1, r2 subtending a given angle or
    having a given length. Exactly one target must be provided.

    Both endpoint maps are strictly monotone on each branch (monotone radius
    vs. turning), with the branch point at nu_c = m(min radius), so a
    safeguarded bracketed root-find is globally convergent.
    """
    nu_c = surface.m(min(r1, r2))
    part, target = ((_ANGLE, target_angle) if target_angle is not None
                    else (_LENGTH, target_length))
    branch_point = _SideGeodesic(nu_c, False, r1, r2)  # turning at the min radius
    crit = _side_value(surface, branch_point, part)
    scale = max(abs(target), abs(crit), 1e-30)
    if abs(target - crit) <= 1e-13 * scale:
        return branch_point

    turning = target > crit
    f = lambda nu: _side_value(surface, _SideGeodesic(nu, turning, r1, r2), part) - target
    if not turning:
        # value increases with nu from ~0 (radial limit) to crit
        lo_br, hi_br = nu_c * 1e-15, nu_c
    else:
        # value decreases with nu; small nu passes near the pole
        lo_br, hi_br = nu_c * 1e-15, nu_c
        for _ in range(6):
            if f(lo_br) > 0.0:
                break
            lo_br *= 1e-6
        else:
            raise DomainError("side target unreachable within the sector")
    nu = brentq(f, lo_br, hi_br, xtol=1e-15 * max(1.0, nu_c), rtol=8.9e-16,
                maxiter=200)
    return _SideGeodesic(float(nu), turning, r1, r2)


# ---------------------------------------------------------------------------
# Distance
# ---------------------------------------------------------------------------


def distance(surface: ModelSurface, a: SurfacePoint, b: SurfacePoint) -> float:
    """Geodesic distance between two points in a sector of width <= pi."""
    for pt in (a, b):
        if pt.t > surface.t_max * (1.0 + 1e-12):
            raise HorizonExceededError(
                f"point radius {pt.t:.6g} beyond solved horizon {surface.t_max:.6g}")
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
# Geodesic flow (time stepping)
# ---------------------------------------------------------------------------


class GeodesicPath:
    """Unit-speed geodesic sampled along arclength.

    Arrays s, t, theta, v_t, v_theta hold the dense samples; v_t and
    v_theta are the coordinate velocities (dt/ds, dtheta/ds), so the
    conserved rotation number is m(t)^2 * v_theta at every sample.
    """

    def __init__(self, start, angle, length, s, t, theta, v_t, v_theta,
                 clairaut_constant):
        self.start = start
        self.initial_angle = float(angle)
        self.length = float(length)
        self.s = s
        self.t = t
        self.theta = theta
        self.v_t = v_t
        self.v_theta = v_theta
        self.clairaut_constant = float(clairaut_constant)

    @property
    def end(self) -> SurfacePoint:
        return SurfacePoint(float(self.t[-1]), float(self.theta[-1]))

    def to_csv(self, path, comment: str | None = None):
        import csv

        with open(path, "w", newline="") as fh:
            if comment:
                fh.write(f"# {comment}\n")
            writer = csv.writer(fh)
            writer.writerow(["s", "t", "theta"])
            for row in zip(self.s, self.t, self.theta):
                writer.writerow([repr(float(v)) for v in row])


def shoot(surface: ModelSurface, start: SurfacePoint, angle: float,
          length: float, rel_tol: float = 1e-11,
          n_samples: int | None = None) -> GeodesicPath:
    """Integrate the geodesic flow from ``start`` for the given arclength.

    ``angle`` is measured from the outward meridian direction, in [0, pi].
    Radial shots (sin(angle) ~ 0) are meridians and are emitted in closed
    form, including the pass through the pole for inward shots; everything
    else runs through the adaptive integrator with dense output.
    """
    if not 0.0 <= angle <= math.pi + 1e-12:
        raise DomainError("shot angle must lie in [0, pi] measured from the meridian")
    if length < 0:
        raise DomainError("arclength must be nonnegative")
    if start.t > surface.t_max * (1 + 1e-12):
        raise HorizonExceededError("start point beyond solved horizon")
    n = n_samples or max(65, int(math.ceil(length * 32)) + 1)
    s = np.linspace(0.0, length, n)

    sin_a = math.sin(angle)
    if start.t < _POLE_TOL or sin_a < _RADIAL_SIN_TOL:
        return _meridian_path(surface, start, angle, length, s)

    m0 = surface.m(start.t)
    nu = m0 * sin_a
    y0 = [start.t, start.theta, math.cos(angle), sin_a / m0]
    w = surface.warping

    def rhs(_s, y):
        t_c = y[0]
        m = w.m(t_c)
        mp = w.m_prime(t_c)
        return (y[2], y[3], m * mp * y[3] ** 2, -2.0 * (mp / m) * y[2] * y[3])

    def beyond(_s, y):
        return surface.t_max * (1.0 - 1e-9) - y[0]

    beyond.terminal = True
    beyond.direction = -1

    sol = solve_ivp(rhs, (0.0, length), y0, method="DOP853", dense_output=True,
                    events=beyond, rtol=rel_tol, atol=rel_tol * 1e-2)
    if sol.status == 1:
        raise HorizonExceededError(
            f"trajectory left the solved disc at arclength "
            f"{float(sol.t_events[0][0]):.6g}; re-solve the surface farther out")
    if not sol.success:
        raise RuntimeError(f"geodesic integration failed: {sol.message}")
    states = sol.sol(s)
    return GeodesicPath(start, angle, length, s, states[0], states[1],
                        states[2], states[3], nu)


def _meridian_path(surface, start, angle, length, s):
    outward = math.cos(angle) >= 0.0 or start.t < _POLE_TOL
    if outward:
        t = start.t + s
        theta = np.full_like(s, start.theta)
        v_t = np.ones_like(s)
    else:
        signed = start.t - s
        t = np.abs(signed)
        theta = np.where(signed >= 0.0, start.theta, start.theta + math.pi)
        v_t = np.where(signed >= 0.0, -1.0, 1.0)
    if np.any(t > surface.t_max * (1 + 1e-12)):
        raise HorizonExceededError("meridian shot leaves the solved disc")
    return GeodesicPath(start, angle, length, s, t, theta,
                        v_t, np.zeros_like(s), 0.0)


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


def _endpoint_angle(surface, side: _SideGeodesic, r: float) -> float:
    """Angle at the radius-r endpoint between the meridian to the pole and
    the side, read off the conserved rotation number."""
    sin_phi = min(side.nu / surface.m(r), 1.0)
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
    for r in (d_ox, d_oy):
        if r > surface.t_max * (1 + 1e-12):
            raise HorizonExceededError(
                f"vertex radius {r:.6g} beyond solved horizon {surface.t_max:.6g}")

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
        _endpoint_angle(surface, side, d_ox),
        _endpoint_angle(surface, side, d_oy),
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


def critical_angle_bound(surface: ModelSurface, apex: float) -> float:
    """Upper bound (pi/2 - apex) * exp(moment) for the base angles of thin
    pole triangles with the given apex angle; collapses to zero when the
    curvature moment diverges."""
    if not 0.0 <= apex <= math.pi / 2.0 + 1e-12:
        raise DomainError("apex angle must lie in [0, pi/2]")
    mom = moment_integral(surface.k)
    if mom.divergent:
        return 0.0
    return (math.pi / 2.0 - apex) * math.exp(mom.value)
