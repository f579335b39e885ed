"""Shared corpus generators. Every random corpus is seeded so failures replay."""

import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import PPoly

import radialgeo as rg
from radialgeo.curvature import _FIT_DEGREE, _cubics
from radialgeo.volume import _MONOTONE_TOL, _check_dim, _sin_power_half_integral
from radialgeo.warping import _MAX_TERMS, _TAYLOR_TOL

BENCH = Path(__file__).resolve().parents[1] / "radialbench"


class FormulaCore:
    """Referee core: an elementwise closed form, built in Python. Its
    ``breakpoints`` (none: only 0 and t_tail) are hints for quadrature
    splitting, where the function may have kinks; they do not affect
    evaluation. ``RadialCurvature`` takes it as any core: an object with
    ``__call__``, ``breakpoints``, ``kind`` and ``to_json``."""

    kind = "formula"

    def __init__(self, func, breakpoints=()):
        self._func = func
        self.breakpoints = np.asarray(breakpoints, dtype=float)

    def __call__(self, t):
        return self._func(np.asarray(t, dtype=float))

    def to_json(self):
        raise rg.DomainError("a formula core has no JSON form")


@pytest.fixture(scope="session")
def workloads():
    """``radialbench/workloads.py``, loaded by path and only read."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # workloads.py imports reference.py
        spec = importlib.util.spec_from_file_location("radialbench_workloads",
                                                      BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def cap_volume(n, delta):
    """Volume of the set of unit directions within angle delta of a fixed
    axis: omega_{n-2} times the integral of sin^(n-2) up to delta."""
    _check_dim(n)
    if not 0.0 <= delta <= math.pi + 1e-15:
        raise rg.DomainError(f"cap angle must lie in [0, pi], got {delta}")
    sin_integral = 2.0 * _sin_power_half_integral(n - 2) * rg.cap_fraction(n, delta)
    return rg.unit_sphere_volume(n - 2) * sin_integral


def bishop_monotonicity_check(ratio):
    """Volume-comparison sanity check: under declared curvature domination
    the ratio sequence must be nonincreasing (within 1e-9) and every sample
    must lie in [0, 1 + 1e-9]."""
    if not ratio.dominated:
        raise rg.DomainError(
            "monotonicity is only guaranteed under declared curvature domination")
    in_range = all(-1e-12 <= s[3] <= 1.0 + _MONOTONE_TOL for s in ratio.samples)
    return bool(ratio.monotone_nonincreasing and in_range)


def random_compact_curvature(rng):
    """Random nonpositive spline with compact support and a zero tail.

    Knots are evenly spaced; random knots can make the interpolant overshoot
    so far that the moment integral leaves the regime the corpus is meant to
    cover. The interpolant may still poke above zero between knots, which is
    exactly what nonpositive_min is for.
    """
    t_tail = rng.uniform(0.8, 3.0)
    nk = int(rng.integers(4, 9))
    knots = np.linspace(0.0, t_tail, nk)
    vals = -rng.uniform(0.0, 1.5, nk)
    vals[-1] = 0.0
    return rg.RadialCurvature.from_spline(knots, vals)


def random_envelope(rng):
    return rg.nonpositive_min(random_compact_curvature(rng))


def corpus_curvature(rng, kind):
    """A random spline curvature with evenly spaced knots and a zero,
    power-law or constant tail, as the benchmark corpus draws them."""
    if kind == "zero":
        return random_compact_curvature(rng)
    t_tail, vals = rng.uniform(0.8, 3.0), -rng.uniform(0.1, 1.2, rng.integers(4, 7))
    tail = (rg.ConstantTail(vals[-1]) if kind == "constant"
            else rg.PowerLawTail(vals[-1], rng.uniform(3.0, 4.5)))
    return rg.RadialCurvature.from_spline(np.linspace(0.0, t_tail, vals.size), vals, tail)


def bishop_pair(rng):
    """(n, numerator warping, denominator warping) with numerator curvature
    >= denominator curvature pointwise.

    The numerator core is linear from v0 down to the shared constant c, so
    the domination holds exactly (no interpolation overshoot to argue about).
    """
    n = int(rng.integers(2, 9))
    c = -rng.uniform(0.3, 1.2)
    t_tail = rng.uniform(0.5, 3.0)
    v0 = c * rng.uniform(0.0, 1.0)
    k_num = rg.RadialCurvature.from_spline(
        [0.0, t_tail], [v0, c], tail=rg.ConstantTail(c)
    )
    k_den = rg.RadialCurvature.constant(c, t_tail=t_tail)
    horizon = 16.0
    w_num = rg.solve_warping(k_num, horizon * 1.05)
    w_den = rg.solve_warping(k_den, horizon * 1.05)
    return n, w_num, w_den


@pytest.fixture(scope="session")
def compact_corpus():
    """100 compact-support envelopes with solved model surfaces.

    Shared between the sandwich and isoperimetric acceptance checks so the
    warping ODE is solved once per member.
    """
    out = []
    for i in range(100):
        rng = np.random.default_rng(i)
        k = random_compact_curvature(rng)
        env = rg.nonpositive_min(k)
        surface = rg.ModelSurface.from_curvature(env, max(8.0, env.t_tail * 2))
        out.append((k, env, surface))
    return out


def newton_inverse(w, mu):
    """Referee for the radius inversion m(t) = mu: a start interpolated
    linearly in the node values, then four Newton steps on the public,
    range-checked m and m'."""
    t = np.interp(mu, w.m_values, w.grid)
    for _ in range(4):
        t = np.clip(t - (w.m(t) - mu) / w.m_prime(t), 0.0, w.t_max)
    return t


def gauss_ball_volume(n, w, t):
    """Referee for model_ball_volume: one Gauss panel of order
    floor(5(n-1)/2) + 1 per cell from 0 to t, each read through the public,
    range-checked m, summed afresh on every call."""
    t = min(t, w.t_max)
    if t == 0.0:
        return 0.0
    edges = np.append(w.grid[w.grid < t], t)
    nodes, weights = leggauss(5 * (n - 1) // 2 + 1)
    lo, hi = edges[:-1], edges[1:]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * nodes[None, :]
    vals = w.m(x.ravel()).reshape(x.shape) ** (n - 1)
    return rg.unit_sphere_volume(n - 1) * float(np.sum(half * (vals @ weights)))


def dop853_nodes(k, grid, kinks=(), max_step=1.0 / 64.0):
    """Referee for the node values (m, m'): scipy's DOP853 at rtol 1e-13 from
    (0, 1) at t = 0, restarted at every curvature breakpoint and at the given
    kinks and jumps, and stepping at most one node pitch: with longer steps
    its dense output alone was off by 2.5e-11 on a smooth formula core. A
    grid of the two ends, which needs no dense output, may drop the step
    limit (``max_step=math.inf``)."""
    bp = np.concatenate([k.breakpoints, kinks])
    edges = np.unique(np.concatenate([[0.0], bp[bp < grid[-1]], [grid[-1]]]))
    out = np.empty((2, grid.size))
    y = np.array([0.0, 1.0])
    for a, b in zip(edges[:-1], edges[1:]):
        piece = (grid >= a) & (grid <= b)
        sol = solve_ivp(lambda t, y: (y[1], -float(k(t)) * y[0]), (a, b), y,
                        method="DOP853", t_eval=np.union1d(grid[piece], [b]),
                        rtol=1e-13, atol=1e-20, max_step=max_step)
        out[:, piece] = sol.y[:, :np.count_nonzero(piece)]
        y = sol.y[:, -1]
    return out


def loop_taylor_coefficients(kappa):
    """Referee for ``_taylor_coefficients``: the recurrence with each term
    summed one product kappa_i a_{j-i} at a time, the terms kept in a list
    and stacked at the end."""
    one, zero = np.ones(kappa.shape[1]), np.zeros(kappa.shape[1])
    a = [np.stack([one, zero]), np.stack([zero, one])]
    live = big = True
    for j in range(_MAX_TERMS - 2):
        nxt = kappa[0] * a[j]
        for i in range(1, min(j, _FIT_DEGREE) + 1):
            nxt += kappa[i] * a[j - i]
        nxt /= -(j + 2) * (j + 1)
        nxt *= live
        a.append(nxt)
        live = big | (big := np.abs(nxt).max(axis=0) >= _TAYLOR_TOL)
        if not live.any():
            break
    return np.stack(a)


def tensordot_transfer_rows(coef, half):
    """Referee for the transfer rows (a, b, c, d) of ``_carry_block``: the
    end values of the series by ``np.tensordot`` and each entry of
    P Q^-1 written out, b scaled by the half-width and c divided by it."""
    j = np.arange(coef.shape[0])
    sign = (-1.0) ** j
    p0, p1, q0, q1 = np.tensordot(np.stack([np.ones_like(sign), j, sign, -j * sign]), coef, 1)
    t00 = p0[0] * q1[1] - p0[1] * q1[0]
    t01 = p0[1] * q0[0] - p0[0] * q0[1]
    t10 = p1[0] * q1[1] - p1[1] * q1[0]
    t11 = p1[1] * q0[0] - p1[0] * q0[1]
    return t00, t01 * half, t10 / half, t11


def majorant_referee(k):
    """Referee for the majorant (M, M') a solve carries beside (m, m'): the
    anchor state of a solve of -|k|, M'' = |k| M from (0, 1), which bounds
    it by comparison. -|k| is a formula core, smooth between the knots of k
    and, for a spline core, its roots, inserted as knots; its tail is the
    constant -|c|."""
    x = k.breakpoints
    if k.core.kind == "spline":
        x = np.union1d(x, PPoly.construct_fast(_cubics(k, x), x).roots(extrapolate=False))
    core = FormulaCore(lambda t: -np.abs(k.core(t)), breakpoints=x)
    majorant = rg.RadialCurvature(core, rg.ConstantTail(-abs(k.tail.c)), k.t_tail)
    return rg.solve_warping(majorant).anchor_state()


def tail_referee(tail, anchor, m_a, mp_a, t_end=1e12):
    """Referee for a tail's ``continuation``: DOP853 (rtol 1e-13) on
    m'' = -tail(t) m from (m_a, mp_a) at the anchor, in the variable
    s = log t, out to t_end.

    Returns ("zero", t) at the first zero of m, ("grows", None) once m'
    passes 1e8 times the anchor state's scale, and otherwise
    ("limit", m'(t_end) - integral of tail * m beyond t_end with m extended
    linearly), whose error is second order in the tail past t_end.
    """
    k = lambda t: float(tail.value(t, anchor))

    def rhs(s, y):
        t = math.exp(s)
        return [t * y[1], -t * k(t) * y[0]]

    zero = lambda s, y: y[0]
    grows = lambda s, y: y[1] - 1e8 * (abs(m_a) + abs(mp_a))
    zero.terminal = grows.terminal = True
    sol = solve_ivp(rhs, (math.log(anchor), math.log(t_end)), [m_a, mp_a], method="DOP853",
                    rtol=1e-13, atol=1e-300, events=(zero, grows))
    if sol.t_events[0].size:
        return "zero", math.exp(sol.t_events[0][0])
    if sol.t_events[1].size:
        return "grows", None
    m_T, mp_T = sol.y[:, -1]
    # t = t_end * e^u: the integrand decays like e^((2 - p) u)
    rest = quad(lambda u: k(t_end * math.exp(u)) * t_end * math.exp(u)
                * (m_T + mp_T * t_end * math.expm1(u)), 0.0, math.inf,
                epsabs=1e-15 * abs(mp_T), epsrel=1e-10)[0]
    return "limit", mp_T - rest


@dataclass(frozen=True)
class GeodesicPath:
    """Unit-speed geodesic sampled along arclength.

    Arrays t, theta, v_t, v_theta hold the dense samples; v_t and v_theta
    are the coordinate velocities (dt/ds, dtheta/ds), so the conserved
    rotation number is m(t)^2 * v_theta at every sample.
    """

    t: np.ndarray
    theta: np.ndarray
    v_t: np.ndarray
    v_theta: np.ndarray
    clairaut_constant: float

    @property
    def end(self):
        return rg.SurfacePoint(float(self.t[-1]), float(self.theta[-1]))


def shoot(surface, start, angle, length):
    """Referee for the geodesic code: the geodesic flow of the metric
    dt^2 + m(t)^2 dtheta^2 from ``start`` for the given arclength, by DOP853
    (rtol 1e-11) with dense output.

    ``angle`` is measured from the outward meridian direction, in [0, pi].
    Radial shots (sin(angle) ~ 0) are meridians and are emitted in closed
    form, including the pass through the pole for inward shots. Leaving the
    solved disc raises DomainError.
    """
    w = surface.warping
    if start.t > w.t_max * (1 + 1e-12):
        raise rg.DomainError("start point beyond solved horizon")
    s = np.linspace(0.0, length, max(65, int(math.ceil(length * 32)) + 1))
    sin_a = math.sin(angle)
    if start.t < 1e-13 or sin_a < 1e-12:
        return _meridian_path(surface, start, angle, s)

    m0 = w.m(start.t)

    def rhs(_s, y):
        m = w.m(y[0])
        mp = w.m_prime(y[0])
        return (y[2], y[3], m * mp * y[3] ** 2, -2.0 * (mp / m) * y[2] * y[3])

    def beyond(_s, y):
        return w.t_max * (1.0 - 1e-9) - y[0]

    beyond.terminal = True
    beyond.direction = -1
    sol = solve_ivp(rhs, (0.0, length), [start.t, start.theta, math.cos(angle), sin_a / m0],
                    method="DOP853", dense_output=True, events=beyond,
                    rtol=1e-11, atol=1e-13)
    if sol.status == 1:
        raise rg.DomainError("trajectory left the solved disc")
    assert sol.success, sol.message
    return GeodesicPath(*sol.sol(s), m0 * sin_a)


def _meridian_path(surface, start, angle, s):
    if math.cos(angle) >= 0.0 or start.t < 1e-13:
        t = start.t + s
        theta = np.full_like(s, start.theta)
        v_t = np.ones_like(s)
    else:
        signed = start.t - s
        t = np.abs(signed)
        theta = np.where(signed >= 0.0, start.theta, start.theta + math.pi)
        v_t = np.where(signed >= 0.0, -1.0, 1.0)
    if np.any(t > surface.warping.t_max * (1 + 1e-12)):
        raise rg.DomainError("meridian shot leaves the solved disc")
    return GeodesicPath(t, theta, v_t, np.zeros_like(s), 0.0)
