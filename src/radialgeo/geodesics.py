"""Geodesics and comparison triangles on model surfaces of revolution.

All operations are restricted to nonpositive curvature, where geodesics
between any two points are unique and the endpoint maps are monotone, so
every two-point problem reduces to one root of a smooth increasing function
of a branch variable on [-1, 1], found by Newton steps safeguarded by false
position on the ends, where its values are known in closed form. The first
step is the comparison model's answer: the same problem in closed form on
the plane of constant curvature K <= 0 fitted to m at the inner radius.

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
from dataclasses import dataclass, field

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
    """The side's swept angle, its length and d angle/d nu, from one pass,
    and the pass's nodes (``_side_nodes``).

    Each is the integral from the turning radius of nu up to t_hi plus
    (turning side) or minus (monotone side) the same integral up to t_lo.
    At fixed w, dt/dnu = cosh(w)/m', so the angle integrand 1/(cosh(w) m')
    has the nu-derivative k m/m'^3 = -m''/m'^3 (m'' from the interpolant is
    enough to steer a root-find), and the upper limit of each end adds
    -sign/(m'_end sqrt(m_end^2 - nu^2)). By the first variation
    d length/d nu = nu d angle/d nu.
    """
    nodes = ch, weights, _, mp, mpp = _side_nodes(surface, side)
    nu = side.nu
    q = weights / mp
    dangle = -float(q @ (mpp / (mp * mp)))
    for m_end, mp_end, sign in side.ends():
        if m_end / nu > 1.0:
            dangle -= sign / (mp_end * math.sqrt(m_end - nu) * math.sqrt(m_end + nu))
    return float((q / ch).sum()), nu * float(q @ ch), dangle, nodes


_MAX_PASSES = 100  # side passes per solve
# a turning side with nu below this fraction of nu_c is solved in sigma - 1:
# sigma itself is no closer to 1 than 2^-53, so nu = nu_c (1 - sigma^2) moves
# in steps of about 2^-52 nu_c, all of nu once m grows fast (2.2e-16 sinh 40
# is 26, where a side of length 79 between radii 40 needs nu = 1.31). Sides
# between radii up to 6 on the hyperbolic plane, angles at least 0.05 from
# pi, stay above 1.2e-4.
_NEAR_END = 2.0 ** -16


def _model_nu(r1: float, r2: float, nu_c: float, target: float, by_length: bool) -> float:
    """nu_K/nu_c of the same side problem, negative for a monotone side, in
    the plane of curvature -a^2 whose m_K(t) = sinh(a t)/a (t for a = 0) is
    nu_c at the inner radius (NaN where cosh(a (r1 + r2)) overflows or
    r_in < 1e-150 underflows m_K(r1) m_K(r2)): the K-law of cosines
    m_K(c/2)^2 = m_K((r1 - r2)/2)^2 + m_K(r1) m_K(r2) sin^2(theta/2) gives
    the side c or the angle theta, and Clairaut with the K-law of sines
    nu_K = m_K(r1) m_K(r2) sin(theta)/m_K(c). The side turns iff the angle
    at the inner vertex is acute, cosh(a r_in) cosh(a c) > cosh(a r_out) in
    half-angle form."""
    r_in, r_out = min(r1, r2), max(r1, r2)
    rho, x = nu_c / r_in, 0.0
    if rho > 1.0:  # asinh(rho x) = x, concave in x: Newton steps from bounds above the root
        x = min(math.sqrt(6.0 * (rho - 1.0)), 2.0 * math.log(2.0 * rho) + 2.0)
        for _ in range(16):
            step = (math.asinh(rho * x) - x) / (rho / math.hypot(1.0, rho * x) - 1.0)
            x -= step
            if step <= 1e-15 * x:
                break
    a = x / r_in
    if not (a * (r1 + r2) < 700.0 and r_in > 1e-150):
        return math.nan
    m_k = (lambda t: math.sinh(a * t) / a) if a > 0.0 else (lambda t: t)
    p, q = m_k(r1) * m_k(r2), m_k(0.5 * (r1 - r2)) ** 2
    if by_length:
        c = target
        theta = 2.0 * math.asin(math.sqrt(min(max((m_k(0.5 * c) ** 2 - q) / p, 0.0), 1.0)))
    else:
        theta, half = target, math.sqrt(q + p * math.sin(0.5 * target) ** 2)
        c = 2.0 * (math.asinh(a * half) / a if a > 0.0 else half)
    h_in, h_c = m_k(0.5 * r_in) ** 2, m_k(0.5 * c) ** 2
    ratio = p * math.sin(theta) / m_k(c) / nu_c
    return ratio if h_in + h_c + 2.0 * a * a * h_in * h_c > m_k(0.5 * r_out) ** 2 else -ratio


def _solve_side(surface: ModelSurface, r1: float, r2: float, *,
                target_angle: float | None = None,
                target_length: float | None = None):
    """(side, angle, length, nodes) of the geodesic between radii r1, r2
    with the given angle or length; exactly one target must be provided.
    nodes are those of the pass that evaluated side (``_side_nodes``), or
    None where a Newton step past the last pass gave it.

    With nu_c = m(min radius) the solve runs in sigma = -+sqrt(1 - nu/nu_c),
    negative on the monotone branch and positive on the turning one. Near
    nu_c a side's value goes like crit -+ c sqrt(nu_c - nu), where Newton in
    nu stalls; in sigma the angle (length) is smooth and increasing on
    [-1, 1], from 0 to pi (|r1 - r2| to r1 + r2). The first pass is at the
    sigma of ``_model_nu``, the answer up to rounding on a constant-curvature
    surface, or at sigma = 0 where that is not finite; the slope of a pass
    is its own, and at sigma = 0 sqrt(2)/m'(min radius), times nu_c for a
    length and doubled for equal radii. A safeguarded Newton method
    (rtsafe, Press et al., *Numerical Recipes* 9.4) runs in the bracket
    [sigma, 1] or [-1, sigma] that the first pass's sign picks, whose far
    end has its value in closed form, taking an Illinois false-position step
    (Dowell and Jarratt, *BIT* 11, 1971) on the bracket ends where a step
    would leave it or shrinks too slowly. A pass whose value is within a few
    ulps of the target, or whose next Newton step or one-signed bracket is
    narrower in nu than tol = 0.5 (1e-15 nu_c + 8.9e-16 nu), gives
    angle and length. A turning side with nu below 2^-16 nu_c
    (``_NEAR_END``), at its first pass or later, is solved in x = sigma - 1
    from there on, whose float holds nu to a few ulps, and 2|x| nu_c takes
    the place of nu_c in tol, which so stays relative to nu. Once Newton's
    estimate C newton^2 (C = |newton|/step^2) of the next step's error is
    below tol/100 in nu, that step is taken without a pass: the target is
    met and the other part moves by d length = nu d angle. m, m' at both
    radii come from one read.
    """
    (m1, mp1), (m2, mp2) = surface.warping.m_and_prime(np.array([r1, r2])).tolist()
    nu_c, mp_c = (m1, mp1) if r1 <= r2 else (m2, mp2)
    by_length = target_angle is None
    target = target_length if by_length else target_angle
    # sigma is carried as x = sigma - end: end is 1 near the turning end, else 0
    nu_at = lambda x: nu_c * (((1.0 - end) - x) * ((1.0 + end) + x))
    df_0 = math.sqrt(2.0) / mp_c * (2.0 if r1 == r2 else 1.0) * (nu_c if by_length else 1.0)

    def pass_at(x):
        sigma = x + end
        side = _SideGeodesic(nu_at(x), sigma > 0.0, r1, r2, m1, m2, mp1, mp2)
        angle, length, dangle, nodes = _side_value(surface, side)
        # d nu/d sigma = -2 nu_c sigma
        dvalue = -2.0 * nu_c * sigma * dangle * (side.nu if by_length else 1.0) if sigma else df_0
        return side, angle, length, nodes, (length if by_length else angle) - target, dvalue

    # the model's sigma = +-sqrt(1 - |ratio|), in x = sigma - 1 if nu starts
    # near the turning end; the bracket [-1, 1] in sigma is in the same form
    ratio = _model_nu(r1, r2, nu_c, target, by_length)
    end = 1.0 if 0.0 < ratio < _NEAR_END else 0.0
    if end:
        x = -ratio / (1.0 + math.sqrt(1.0 - ratio))
    else:
        x = math.copysign(min(math.sqrt(max(1.0 - abs(ratio), 0.0)), 1.0 - 2.0 ** -53), ratio)
        x = x if math.isfinite(x) else 0.0
    lo, f_lo = -1.0 - end, (abs(r1 - r2) if by_length else 0.0) - target
    hi, f_hi = 1.0 - end, (r1 + r2 if by_length else math.pi) - target
    step, step_before, by_newton, moved_lo = 1.0, 1.0, False, None
    for _ in range(_MAX_PASSES):
        if not end and x > 0.0 and nu_at(x) < _NEAR_END * nu_c:
            end, x, lo, hi = 1.0, x - 1.0, lo - 1.0, hi - 1.0
        side, angle, length, nodes, f, df = pass_at(x)
        newton = f / df if df > 0.0 else math.inf
        ahead = x - newton
        # Illinois: the value at an end kept twice running is halved
        moved_lo, kept_twice = f < 0.0, moved_lo == (f < 0.0)
        if moved_lo:
            lo, f_lo, f_hi = x, f, 0.5 * f_hi if kept_twice else f_hi
        else:
            hi, f_hi, f_lo = x, f, 0.5 * f_lo if kept_twice else f_lo
        tol = 0.5 * (1e-15 * nu_c * (2.0 * abs(x) if end else 1.0) + 8.9e-16 * side.nu)
        if (abs(f) <= 4.0 * math.ulp(target) or abs(nu_at(ahead) - side.nu) < tol
                or (lo + end) * (hi + end) >= 0.0 and abs(nu_at(lo) - nu_at(hi)) < 2.0 * tol):
            return side, angle, length, nodes
        if by_newton and lo < ahead < hi and abs(
                nu_at(ahead + newton ** 3 / step ** 2) - nu_at(ahead)) < 0.01 * tol:
            nu_mid = 0.5 * (side.nu + nu_at(ahead))
            side = _SideGeodesic(nu_at(ahead), ahead + end > 0.0, r1, r2, m1, m2, mp1, mp2)
            if by_length:
                return side, angle - f / nu_mid, target, None
            return side, target, length - f * nu_mid, None
        # a Newton step inside the bracket and at most half the step before last
        by_newton = lo < ahead < hi and 2.0 * abs(newton) <= step_before
        if by_newton:
            step_before, step, x = step, abs(newton), ahead
        else:
            step_before, step = step, 0.5 * (hi - lo)
            x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            if not lo < x < hi:  # rounded onto an end, where nu may be 0
                x = lo + step
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
    angle equals the angular separation of x and y by construction. _nodes
    is (warping solution, nodes) of the pass that evaluated the x-y side,
    which ``gauss_bonnet_residual`` reads on that solution's surface, or None.
    """

    vertices: tuple
    side_lengths: tuple
    angles: tuple
    _side: _SideGeodesic
    _nodes: tuple | None = field(default=None, compare=False, repr=False)

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
    side, theta_star, _, nodes = _solve_side(surface, d_ox, d_oy, target_length=d_xy)
    theta_star = min(theta_star, math.pi)

    pole = SurfacePoint(0.0, 0.0)
    x = SurfacePoint(d_ox, 0.0)
    y = SurfacePoint(d_oy, theta_star)
    angles = (
        theta_star,
        _endpoint_angle(side, d_ox, side.m1),
        _endpoint_angle(side, d_oy, side.m2),
    )
    return GeodesicTriangle((pole, x, y), sides, angles, _side=side,
                            _nodes=None if nodes is None else (surface.warping, nodes))


def gauss_bonnet_residual(surface: ModelSurface, tri: GeodesicTriangle) -> float:
    """(angle sum - pi) minus the curvature integral over the triangle.

    The integral runs over the region bounded by the two meridian sides and
    the connecting geodesic; since theta is monotone along that side, Fubini
    collapses the double integral to a single integral of the cumulative
    curvature mass along the side. Vanishes identically on every geodesic
    triangle up to quadrature and solver error. The side's nodes are those
    its triangle kept, where they were read from this surface's solution.
    """
    warping, nodes = tri._nodes or (None, None)
    if warping is not surface.warping:
        nodes = _side_nodes(surface, tri._side)
    ch, weights, t, mp, _ = nodes
    # the mass up to t is the warping's km_integral, a quadrature of k*m that
    # never reads m': by m'' = -k m it equals 1 - m'(t), and the residual is
    # the gap between the two along the side
    area_integral = float(np.sum(weights * surface.warping.km_integral(t) / (ch * mp)))
    return (tri.angle_sum() - math.pi) - area_integral
