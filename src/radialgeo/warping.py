"""Warping functions of rotationally symmetric metrics.

The warping function m solves m'' + k(t) m = 0 with m(0) = 0, m'(0) = 1.
It is the Jacobian of the exponential map along meridians, so everything
downstream (volumes, geodesics, total curvature) reduces to integrals of m
and m'. Solutions come from an adaptive embedded Runge-Kutta pair with dense
output; for fast repeated evaluation the dense output is resampled onto a
fine grid and rebuilt as a piecewise quintic (values, slopes, and the exact
second derivative -k*m at every node), which keeps interpolation error far
below the solver tolerance.

The quintic of each cell is written in Bernstein form. With cell width h and
(m, m', m'') at its left (0) and right (1) nodes, the end-derivative
relations of a degree-5 Bezier segment (Farin, *Curves and Surfaces for
CAGD*, the derivatives of a Bezier curve at its end points) give the six
coefficients in closed form:

    c0 = m0                         c5 = m1
    c1 = m0 + h m0' / 5             c4 = m1 - h m1' / 5
    c2 = m0 + 2h m0' / 5 + h^2 m0'' / 20
    c3 = m1 - 2h m1' / 5 + h^2 m1'' / 20

They are computed for all cells at once and handed to scipy's ``BPoly``.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import solve_ivp
from scipy.interpolate import BPoly

from .curvature import NEG_INFINITY, RadialCurvature, moment_integral
from .errors import (
    ConjugatePointError,
    DomainError,
    HorizonExceededError,
    UnboundedError,
)

DEFAULT_REL_TOL = 1e-12
_REL_TOL_MIN = 1e-14
_REL_TOL_MAX = 1e-3
# dense interpolant nodes per unit length
_NODES_PER_UNIT = 64
# series start offset; below this m(t) = t to machine precision
_T_START = 1e-6
# a uniform node closer than this fraction of the node pitch to an interior
# curvature breakpoint gives way to it. Rounding in the Bernstein
# coefficients of a cell of width h perturbs m' by about eps * |m| / h, so a
# sliver cell returns garbage; at the end node, which stays, the breakpoint
# is dropped instead, and the kink it leaves inside the last cell moves m by
# about (fraction * pitch)**3
_SLIVER_FRACTION = 1e-3


def default_horizon(k: RadialCurvature) -> float:
    """Solving horizon policy: generous past the tail anchor."""
    return max(10.0, 5.0 * k.t_tail)


class WarpingSolution:
    """Dense solution of m'' + k m = 0, m(0) = 0, m'(0) = 1 on [0, t_max].

    Attributes
    ----------
    k : RadialCurvature
    t_max, rel_tol : float
    grid : ndarray
        Fine node grid (strictly increasing, grid[0] = 0, grid[-1] = t_max).
    m_values, m_prime_values : ndarray
        Node values; m_values[0] == 0 and m_prime_values[0] == 1 exactly.

    ``m`` and ``m_prime`` evaluate anywhere in [0, t_max], vectorized.
    """

    def __init__(self, k, t_max, rel_tol, grid, m_values, m_prime_values):
        self.k = k
        self.t_max = float(t_max)
        self.rel_tol = float(rel_tol)
        self.grid = grid
        self.m_values = m_values
        self.m_prime_values = m_prime_values
        # quintic pieces: value, slope, and curvature-exact second derivative
        m_second = -np.asarray(k(grid)) * m_values
        h = np.diff(grid)
        m0, m1 = m_values[:-1], m_values[1:]
        d0, d1 = h * m_prime_values[:-1] / 5.0, h * m_prime_values[1:] / 5.0
        s0, s1 = h * h * m_second[:-1] / 20.0, h * h * m_second[1:] / 20.0
        coeffs = np.stack([m0, m0 + d0, m0 + 2.0 * d0 + s0,
                           m1 - 2.0 * d1 + s1, m1 - d1, m1])
        self._m_poly = BPoly(coeffs, grid)
        self._m_prime_poly = self._m_poly.derivative()
        self._m_second_poly = self._m_prime_poly.derivative()

    def _check_range(self, t):
        arr = np.asarray(t, dtype=float)
        if np.any(arr < -1e-12):
            raise DomainError("warping functions are defined for t >= 0")
        if np.any(arr > self.t_max * (1.0 + 1e-12) + 1e-12):
            raise HorizonExceededError(
                f"evaluation at t = {float(np.max(arr)):.6g} exceeds the solved "
                f"horizon t_max = {self.t_max:.6g}; re-solve with a larger horizon"
            )
        return np.clip(arr, 0.0, self.t_max)

    def m(self, t):
        arr = self._check_range(t)
        out = self._m_poly(arr)
        return float(out) if np.ndim(t) == 0 else out

    def m_prime(self, t):
        arr = self._check_range(t)
        out = self._m_prime_poly(arr)
        return float(out) if np.ndim(t) == 0 else out

    def m_second(self, t):
        """Second derivative of the interpolated profile (equals -k*m at the
        grid nodes exactly, and to interpolation accuracy in between)."""
        arr = self._check_range(t)
        out = self._m_second_poly(arr)
        return float(out) if np.ndim(t) == 0 else out

    def to_csv(self, path, comment: str | None = None):
        """Write (t, m, m_prime) rows; optional provenance comment line."""
        with open(path, "w", newline="") as fh:
            if comment:
                fh.write(f"# {comment}\n")
            writer = csv.writer(fh)
            writer.writerow(["t", "m", "m_prime"])
            for t, m, mp in zip(self.grid, self.m_values, self.m_prime_values):
                writer.writerow([repr(float(t)), repr(float(m)), repr(float(mp))])

    def __repr__(self):
        return (f"WarpingSolution(t_max={self.t_max!r}, rel_tol={self.rel_tol!r}, "
                f"nodes={len(self.grid)})")


def solve_warping(k: RadialCurvature, t_max: float,
                  rel_tol: float = DEFAULT_REL_TOL) -> WarpingSolution:
    """Integrate the warping ODE out to t_max.

    Uses an eighth-order embedded pair with dense output. Integration starts
    from a series step at t = 1e-6 (m = t - k(0) t^3 / 6, exact to well below
    machine precision there) so the zero-crossing event can stay armed for
    the whole run without tripping on the initial condition m(0) = 0. The
    integration restarts at every curvature breakpoint: a step across a kink
    of k (the core/tail junction, a zero crossing clipped by an envelope)
    loses accuracy without the error estimate noticing.

    Raises ConjugatePointError when m vanishes at some t > 0, which happens
    for strongly positive curvature; the crossing location is bisection
    refined by the event machinery.
    """
    if not (t_max > 0 and math.isfinite(t_max)):
        raise DomainError(f"t_max must be positive and finite, got {t_max}")
    if not (_REL_TOL_MIN <= rel_tol <= _REL_TOL_MAX):
        raise DomainError(
            f"rel_tol must lie in [{_REL_TOL_MIN:g}, {_REL_TOL_MAX:g}], got {rel_tol:g}")

    t0 = min(_T_START, t_max / 100.0)
    k0 = float(k(0.0))
    y0 = [t0 - k0 * t0 ** 3 / 6.0, 1.0 - k0 * t0 ** 2 / 2.0]

    def rhs(t, y):
        return (y[1], -float(k(t)) * y[0])

    def vanish(t, y):
        return y[0]

    vanish.terminal = True
    vanish.direction = -1

    n_nodes = int(max(64, math.ceil(t_max * _NODES_PER_UNIT))) + 1
    grid = np.linspace(0.0, t_max, n_nodes)
    pitch = t_max / (n_nodes - 1)
    interior_bp = k.breakpoints[(k.breakpoints > 0) & (k.breakpoints < t_max)]
    # the breakpoint takes the place of a uniform node it nearly meets; next
    # to an end node, which must stay, the breakpoint is dropped instead
    nearest = np.rint(interior_bp / pitch).astype(int)
    close = np.abs(grid[nearest] - interior_bp) < _SLIVER_FRACTION * pitch
    at_end = close & ((nearest == 0) | (nearest == n_nodes - 1))
    keep = np.ones(n_nodes, dtype=bool)
    keep[nearest[close & ~at_end]] = False
    interior_bp = interior_bp[~at_end]
    grid = np.unique(np.concatenate([grid[keep], interior_bp]))

    m_vals = np.empty_like(grid)
    mp_vals = np.empty_like(grid)
    inner = grid < t0  # series region below the integration start
    m_vals[inner] = grid[inner] - k0 * grid[inner] ** 3 / 6.0
    mp_vals[inner] = 1.0 - k0 * grid[inner] ** 2 / 2.0

    edges = np.concatenate([[t0], interior_bp[interior_bp > t0], [t_max]])
    y = y0
    for a, b in zip(edges[:-1], edges[1:]):
        sol = solve_ivp(
            rhs, (a, b), y, method="DOP853", dense_output=True,
            events=vanish, rtol=max(rel_tol, 2.3e-14), atol=rel_tol * 1e-6,
        )
        if sol.status == 1:  # event hit
            raise ConjugatePointError(float(sol.t_events[0][0]))
        if not sol.success:
            raise RuntimeError(f"warping integration failed: {sol.message}")
        piece = ~inner & (grid >= a) & (grid <= b)
        m_vals[piece], mp_vals[piece] = sol.sol(grid[piece])
        y = sol.y[:, -1]

    return WarpingSolution(k, t_max, rel_tol, grid, m_vals, mp_vals)


# ---------------------------------------------------------------------------
# Slope limit and total curvature
# ---------------------------------------------------------------------------


def slope_limit(w: WarpingSolution, *, with_bound: bool = False):
    """Limit of m'(t) as t -> infinity for nonpositive curvature.

    For compactly supported curvature m' is constant past the support, so the
    value is exact. For an integrable power-law tail the limit is estimated
    by Richardson extrapolation over horizons T, 2T, 4T; the returned bound
    uses m'(4T) * (exp(remaining tail moment) - 1), which dominates the true
    remainder because (log m')' = -k m / m' <= -k t for convex m.

    With ``with_bound=True`` returns (value, error_bound).
    """
    k = w.k
    if not k.is_nonpositive():
        raise DomainError("slope_limit requires nonpositive curvature")
    tail = k.tail
    tail_moment = tail.moment(k.t_tail, k.t_tail)
    if tail_moment == NEG_INFINITY:
        raise UnboundedError(
            "m' grows without bound: constant negative tail has a divergent moment")

    if tail_moment == 0.0:  # zero tail: m' is constant beyond the anchor
        src = w if w.t_max >= k.t_tail else solve_warping(k, k.t_tail, w.rel_tol)
        value = float(src.m_prime(k.t_tail))
        return (value, 0.0) if with_bound else value

    T = max(w.t_max, k.t_tail)
    a1 = float((w if w.t_max >= T else solve_warping(k, T, w.rel_tol)).m_prime(T))
    a2 = float(solve_warping(k, 2 * T, w.rel_tol).m_prime(2 * T))
    a3 = float(solve_warping(k, 4 * T, w.rel_tol).m_prime(4 * T))
    q_theory = 2.0 ** (2.0 - tail.p)  # remainder scales like T^(2-p)
    d1, d2 = a2 - a1, a3 - a2
    q = d2 / d1 if abs(d1) > 1e-300 and 0.0 < d2 / d1 < 0.9 else q_theory
    value = a3 + d2 * q / (1.0 - q)
    bound = a3 * math.expm1(-tail.moment(4 * T, k.t_tail)) + abs(d2 * q / (1.0 - q))
    return (value, bound) if with_bound else value


def slope_limit_bounds(w: WarpingSolution) -> tuple[float, float]:
    """Two-sided bracket [1, exp(-moment)] containing the slope limit."""
    mom = moment_integral(w.k)
    upper = math.inf if mom.divergent else math.exp(-mom.value)
    return 1.0, upper


_GL_NODES_32, _GL_WEIGHTS_32 = leggauss(32)


def _integrate_km(w: WarpingSolution, t_end: float) -> float:
    """Integral of k(t) m(t) dt over [0, t_end] by composite Gauss panels
    split at curvature breakpoints (panel width <= 0.5)."""
    edges = [b for b in w.k.breakpoints if 0.0 < b < t_end] + [0.0, t_end]
    edges = np.unique(np.asarray(edges))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        n_sub = int(math.ceil((b - a) / 0.5))
        sub = np.linspace(a, b, n_sub + 1)
        for lo, hi in zip(sub[:-1], sub[1:]):
            x = 0.5 * (hi - lo) * _GL_NODES_32 + 0.5 * (hi + lo)
            total += 0.5 * (hi - lo) * float(
                np.sum(_GL_WEIGHTS_32 * np.asarray(w.k(x)) * w.m(x)))
    return total


def total_curvature_direct(w: WarpingSolution) -> float:
    """Total curvature of the surface of revolution: 2*pi * integral of k*m.

    Quadrature runs over the solved range; the tail contributes its
    closed-form k*m remainder with m extended linearly (m is asymptotically
    linear once the moment is finite). A zero tail contributes nothing, so
    quadrature stops at its anchor. A negative constant tail diverges and
    raises UnboundedError.
    """
    k = w.k
    tail_moment = k.tail.moment(k.t_tail, k.t_tail)
    if tail_moment == NEG_INFINITY:
        raise UnboundedError("total curvature diverges: constant negative tail")
    if w.t_max < k.t_tail:
        raise HorizonExceededError(
            "solve at least to the tail anchor before integrating total curvature")
    T = w.t_max if tail_moment else k.t_tail
    rem = k.tail.km_remainder(T, float(w.m(T)), float(w.m_prime(T)), k.t_tail)
    return 2.0 * math.pi * (_integrate_km(w, T) + rem)


def total_curvature_isoperimetric(w: WarpingSolution) -> float:
    """Total curvature through the boundary-length route: 2*pi*(1 - lim m').

    Integrating m'' = -k m once gives the same number as the direct
    quadrature; the two routes agreeing is a nontrivial consistency check on
    the solver and is exercised by the test suite.
    """
    return 2.0 * math.pi * (1.0 - slope_limit(w))


# ---------------------------------------------------------------------------
# Model surface
# ---------------------------------------------------------------------------


class ModelSurface:
    """Surface of revolution dt^2 + m(t)^2 dtheta^2 with nonpositive radial
    curvature (the Cartan-Hadamard setting every triangle operation needs).

    slope_limit and total_curvature are computed on first access and cached;
    both raise UnboundedError for divergent (negative constant tail) inputs,
    which does not impede geodesic work on the same surface.
    """

    def __init__(self, warping: WarpingSolution):
        if not warping.k.is_nonpositive():
            raise DomainError(
                "model surfaces are restricted to nonpositive radial curvature")
        self.warping = warping
        self._slope_limit = None
        self._total_curvature = None
        self._mass_antiderivative = None

    @classmethod
    def from_curvature(cls, k: RadialCurvature, t_max: float | None = None,
                       rel_tol: float = DEFAULT_REL_TOL) -> "ModelSurface":
        horizon = default_horizon(k) if t_max is None else float(t_max)
        return cls(solve_warping(k, horizon, rel_tol))

    @property
    def k(self) -> RadialCurvature:
        return self.warping.k

    @property
    def t_max(self) -> float:
        return self.warping.t_max

    def m(self, t):
        return self.warping.m(t)

    def m_prime(self, t):
        return self.warping.m_prime(t)

    @property
    def slope_limit(self) -> float:
        if self._slope_limit is None:
            self._slope_limit = slope_limit(self.warping)
        return self._slope_limit

    @property
    def total_curvature(self) -> float:
        if self._total_curvature is None:
            self._total_curvature = total_curvature_direct(self.warping)
        return self._total_curvature

    def curvature_mass(self, t):
        """Cumulative integral of k(r) m(r) dr from 0 to t, vectorized.

        Backed by the antiderivative of a fine spline of k*m (nodes at 1/512
        spacing plus every curvature breakpoint); built once per surface.
        """
        if self._mass_antiderivative is None:
            from scipy.interpolate import CubicSpline

            h = 1.0 / 512.0
            grid = np.arange(0.0, self.t_max + h, h)
            grid = grid[grid <= self.t_max]
            if grid[-1] < self.t_max:
                grid = np.append(grid, self.t_max)
            bp = self.k.breakpoints
            grid = np.unique(np.concatenate([grid, bp[bp <= self.t_max]]))
            vals = np.asarray(self.k(grid)) * self.warping.m(grid)
            self._mass_antiderivative = CubicSpline(grid, vals).antiderivative()
        out = self._mass_antiderivative(np.asarray(t, dtype=float))
        return float(out) if np.ndim(t) == 0 else out

    def __repr__(self):
        return f"ModelSurface({self.warping!r})"
