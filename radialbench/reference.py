"""Reference values computed without the radialgeo package.

Every function here uses only the standard library, numpy and scipy, so the
benchmark can check the program's outputs against numbers that do not come
from the code under test. ``check_references.py`` tests these functions
against known values.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special
from scipy.interpolate import CubicSpline


# ---------------------------------------------------------------------------
# Constant-curvature geodesy: laws of cosines
# ---------------------------------------------------------------------------


def flat_distance(ra: float, rb: float, dtheta: float) -> float:
    """Distance between polar points (ra, 0) and (rb, dtheta) in the plane."""
    return math.sqrt(max(0.0, ra * ra + rb * rb - 2.0 * ra * rb * math.cos(dtheta)))


def hyperbolic_distance(ra: float, rb: float, dtheta: float) -> float:
    """The same distance in the hyperbolic plane of curvature -1."""
    arg = math.cosh(ra) * math.cosh(rb) - math.sinh(ra) * math.sinh(rb) * math.cos(dtheta)
    return math.acosh(max(1.0, arg))


def _clamped_acos(x: float) -> float:
    return math.acos(max(-1.0, min(1.0, x)))


def flat_pole_angles(a: float, b: float, c: float) -> tuple:
    """Angles (at the pole, at x, at y) of the Euclidean triangle with
    |pole x| = a, |pole y| = b, |x y| = c."""
    return (
        _clamped_acos((a * a + b * b - c * c) / (2.0 * a * b)),
        _clamped_acos((a * a + c * c - b * b) / (2.0 * a * c)),
        _clamped_acos((b * b + c * c - a * a) / (2.0 * b * c)),
    )


def hyperbolic_pole_angles(a: float, b: float, c: float) -> tuple:
    """The same angles in the hyperbolic plane of curvature -1."""
    ch, sh = math.cosh, math.sinh
    return (
        _clamped_acos((ch(a) * ch(b) - ch(c)) / (sh(a) * sh(b))),
        _clamped_acos((ch(a) * ch(c) - ch(b)) / (sh(a) * sh(c))),
        _clamped_acos((ch(b) * ch(c) - ch(a)) / (sh(b) * sh(c))),
    )


# ---------------------------------------------------------------------------
# Caps and ball volumes in closed form
# ---------------------------------------------------------------------------


def cap_fraction_n3(delta: float) -> float:
    """Share of the unit 2-sphere within angle delta of an axis."""
    return (1.0 - math.cos(delta)) / 2.0


def sphere_area(k: int) -> float:
    """Volume of the unit k-sphere, 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def flat_ball_volume(n: int, t: float) -> float:
    """Euclidean n-ball of radius t: omega_{n-1} t^n / n."""
    return sphere_area(n - 1) * t ** n / n


def hyperbolic3_ball_volume(t: float, a: float = 1.0) -> float:
    """3-ball of radius t at constant curvature -a^2:
    4 pi * integral of sinh(a r)^2 / a^2 = pi (sinh 2at - 2at) / a^3."""
    x = 2.0 * a * t
    # series below x = 1e-2 avoids the cancellation in sinh(x) - x
    diff = x ** 3 / 6.0 + x ** 5 / 120.0 if x < 1e-2 else math.sinh(x) - x
    return math.pi * diff / a ** 3


# ---------------------------------------------------------------------------
# Spline curvatures with declared tails
# ---------------------------------------------------------------------------


class SplineCurvature:
    """min(0, k) for a cubic-spline core on [0, a] followed by a tail.

    The core is the cubic spline through the knots (natural end conditions
    for two knots, not-a-knot otherwise), the same function a scenario file
    declares. ``tail`` is ("zero",), ("constant", c) or ("power_law", c, p),
    with the power law c (t / a)^(-p) anchored at the last knot.
    """

    def __init__(self, knots, values, tail):
        self.knots = np.asarray(knots, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.a = float(self.knots[-1])
        self.tail = tuple(tail)
        bc = "natural" if self.knots.size == 2 else "not-a-knot"
        self._spline = CubicSpline(self.knots, self.values, bc_type=bc)
        # knots plus the core's zero crossings: min(0, k) is smooth between them
        roots = self._spline.roots(extrapolate=False)
        self.crossings = roots[(roots > 0) & (roots < self.a * (1 - 1e-9))]
        self.edges = np.unique(np.concatenate([self.knots, self.crossings]))

    def __call__(self, t: float) -> float:
        if t <= self.a:
            return min(0.0, float(self._spline(t)))
        kind = self.tail[0]
        if kind == "zero":
            return 0.0
        if kind == "constant":
            return min(0.0, self.tail[1])
        c, p = self.tail[1], self.tail[2]
        return min(0.0, c * (t / self.a) ** (-p))

    @property
    def minimum(self) -> float:
        """Lowest value, from a dense sample of the core and the tail start."""
        grid = np.linspace(0.0, self.a, 4001)
        return min(0.0, float(np.min(self._spline(grid))), self(self.a * (1 + 1e-12)))


def spline_moment(k: SplineCurvature) -> float:
    """Integral of t * min(0, k(t)) over [0, inf): quad on the core split at
    the knots and zero crossings, plus the tail in closed form (-inf for a constant c < 0)."""
    core = 0.0
    for lo, hi in zip(k.edges[:-1], k.edges[1:]):
        val, _err = integrate.quad(lambda t: t * k(t), lo, hi,
                                   epsabs=1e-12, epsrel=1e-12, limit=200)
        core += val
    kind = k.tail[0]
    if kind == "zero":
        return core
    if kind == "constant":
        return core if k.tail[1] == 0.0 else -math.inf
    c, p = k.tail[1], k.tail[2]
    # integral of t c (t/a)^(-p) from a to infinity
    return core + min(c, 0.0) * k.a ** 2 / (p - 2.0)


class ReferenceWarping:
    """m'' + k m = 0, m(0) = 0, m'(0) = 1, integrated with scipy's DOP853
    one smooth piece at a time and kept as dense output. The pieces end at
    the knots and at the core's zero crossings: a step across a kink of
    min(0, k) can pass the error test yet miss the kink by 1e-7 in m."""

    def __init__(self, k: SplineCurvature, t_end: float, rtol: float = 1e-12):
        edges = [float(x) for x in k.edges if x < t_end] + [float(t_end)]
        edges = sorted(set(edges))
        self.pieces = []
        y = [0.0, 1.0]
        for lo, hi in zip(edges[:-1], edges[1:]):
            sol = integrate.solve_ivp(
                lambda t, s: (s[1], -k(t) * s[0]), (lo, hi), y,
                method="DOP853", dense_output=True, rtol=rtol, atol=1e-14)
            if not sol.success:
                raise RuntimeError(f"reference integration failed: {sol.message}")
            self.pieces.append((lo, hi, sol.sol))
            y = [float(sol.y[0, -1]), float(sol.y[1, -1])]
        self.t_end = float(t_end)
        self.end_state = tuple(y)

    def state(self, t: float) -> tuple:
        """(m(t), m'(t))."""
        for lo, hi, dense in self.pieces:
            if t <= hi:
                v = dense(max(t, lo))
                return float(v[0]), float(v[1])
        raise ValueError(f"t = {t} beyond the reference horizon {self.t_end}")

    def ball_volume(self, n: int, t: float) -> float:
        """omega_{n-1} * integral of m^(n-1) over [0, t], quad per piece."""
        total = 0.0
        for lo, hi, dense in self.pieces:
            if lo >= t:
                break
            val, _err = integrate.quad(lambda r: float(dense(r)[0]) ** (n - 1),
                                       lo, min(hi, t), epsabs=0.0, epsrel=1e-12,
                                       limit=200)
            total += val
        return sphere_area(n - 1) * total


def power_law_slope_limit(k: SplineCurvature) -> float:
    """lim m'(t) for a nonpositive core with a power-law tail c (t/a)^(-p).

    The core is integrated numerically to the anchor a. Beyond it the ODE
    m'' = |c| a^p t^(-p) m is solved exactly by
    m = sqrt(t) [A I_nu(beta t^q) + B K_nu(beta t^q)] with nu = 1/(p-2),
    q = 1 - p/2 and beta = sqrt(|c| a^p) / |q| (DLMF 10.13.2 with the
    modified Bessel functions). As t -> inf, beta t^q -> 0: the I part
    tends to a constant and the K part to
    B Gamma(nu) 2^(nu-1) beta^(-nu) t (DLMF 10.30.2), which gives the slope.
    """
    kind, c, p = k.tail
    if kind != "power_law" or c >= 0.0:
        raise ValueError("needs a power-law tail with c < 0")
    m_a, mp_a = ReferenceWarping(k, k.a).end_state
    a = k.a
    nu = 1.0 / (p - 2.0)
    q = 1.0 - p / 2.0
    beta = math.sqrt(-c * a ** p) / abs(q)
    z = beta * a ** q
    dz = beta * q * a ** (q - 1.0)
    sq = math.sqrt(a)
    i_val, k_val = special.iv(nu, z), special.kv(nu, z)
    i_der, k_der = special.ivp(nu, z), special.kvp(nu, z)
    mat = np.array([
        [sq * i_val, sq * k_val],
        [i_val / (2.0 * sq) + sq * i_der * dz, k_val / (2.0 * sq) + sq * k_der * dz],
    ])
    _A, B = np.linalg.solve(mat, np.array([m_a, mp_a]))
    return float(B * special.gamma(nu) * 2.0 ** (nu - 1.0) * beta ** (-nu))
