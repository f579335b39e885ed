"""Radial curvature functions on [0, infinity) with declared tail behavior.

A curvature function is split at t_tail into a numeric core and a closed-form
tail. The split is what makes improper integrals over [0, inf) decidable:
quadrature handles the core, the tail contributes in closed form or forces a
declared divergence. Three tail classes are supported:

* ``ZeroTail``      -- curvature vanishes beyond t_tail,
* ``PowerLawTail``  -- c * (t / t_tail)**(-p) with p > 2 (integrable moment),
* ``ConstantTail``  -- constant c < 0 (moment diverges to -inf).

Tails own their closed forms: ``moment`` is the integral of t * tail(t) from
a point past the anchor to infinity, and ``continuation`` carries a state
(m, m') of m'' + k m = 0 at the anchor, within its error, through the exact
solution of the tail (linear, exponential modes, or Bessel functions of
t**(1 - p/2)) to the limit of (m' + r m) e^(-r t), r the tail's ``order``,
with its error, or to the first zero of m past the anchor.
The two with p = 0 also ``carry`` (m, m') past the anchor in closed form,
for the warping solver, with the zero of m of their ``continuation``.
Everything beyond t_tail that the comparison needs (the curvature moment,
the slope limit of m', whether ball volumes diverge) is read from these.
Every tail is one (c, p) form, c * (t / t_tail)**(-p) with c = 0 for
``ZeroTail`` and p = 0 for ``ConstantTail``: one ``value`` evaluates all
three, the value at the anchor is c, and the tail of a minimum follows from
(c, p) alone. Zero curvature has one encoding: ``RadialCurvature`` replaces
a tail with c = 0 (a zero constant or power-law coefficient) with ``ZeroTail``,
and ``RadialCurvature.constant`` builds every constant model, zero included,
as the spline through (c, c) on [0, t_tail].

Cores are either cubic splines over breakpoints or closed-form callables. A
curvature's knots are fixed at construction and computed on first read:
``breakpoints``, sorted once, from 0 to t_tail. Only ``_cubics`` reads a
spline's coefficients, as cubics on given knots: the exact comparison of two
curvatures (``_lowest_gap``) and the scan grid of an envelope read them.
Pointwise minima (the nonpositive envelope used by the growth criteria) are
represented exactly by lazy evaluation over the merged knots, and have no
JSON form; their kinks, the changes of the minimiser on a scan grid, are
refined together by regula falsi in array calls so downstream quadrature can
split there. The kinks are found on the first read of the knots: a moment
that diverges from the tail never reads them.

The core part of the curvature moment is integrated over panels between
the breakpoints by 16-point Gauss-Legendre rules, with the gap to the
8-point rule (and three probes for the spots both rules miss) as each
panel's error and bisection where it is too large; the reported error is
the summed estimate.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate, linalg, special
from scipy.interpolate import PPoly
from scipy.optimize import brentq

from .errors import ConjugatePointError, DomainError

NEG_INFINITY = float("-inf")

# Junction mismatch above this (relative to curvature scale) is a construction error.
_JUNCTION_TOL = 1e-8
# Uniform points of the kink scan of a lazy envelope.
_SCAN_POINTS = 801
# Warping solves read k on the cells of the 1/64 lattice up to t = 4096 (2^18
# nodes, about 75 MB for a solution and its tables); formulas are compared there.
_NODES_PER_UNIT = 64
_MAX_HORIZON = 4096.0
# a uniform node closer than this fraction of the node pitch to an interior
# curvature breakpoint gives way to it, and so does a breakpoint that close
# to the one before it. Rounding in the quintic coefficients of a cell of
# width h perturbs m' by about eps * |m| / h, so a sliver cell returns
# garbage; at the end node, which stays, the breakpoint is dropped instead,
# and the kink it leaves inside the last cell moves m by about
# (fraction * pitch)**3
_SLIVER_FRACTION = 1e-3
# k is sampled at these Chebyshev points of each piece of a cell (mapped to [-1, 1])
_FIT_DEGREE = 8
_CHEB = np.cos((2 * np.arange(_FIT_DEGREE + 1) + 1) * np.pi / (2 * _FIT_DEGREE + 2))
# Rounds of regula falsi refining the envelope's kinks, at most.
_KINK_ROUNDS = 100
# moment panels: the 8- and 16-point Gauss-Legendre rules on [-1, 1]. Both
# are symmetric, and no node of either lies within 0.0106 of an end or
# 0.095 of the centre, so a jump there changes neither result. Three probes
# (an ulp inside either end, and the centre) are compared with the
# degree-15 interpolant through the 16 nodes, which _PROBE_FIT gives at
# -1, 0 and 1; a miss times the width of its blind window bounds what the
# jump or kink there costs the 16-point result.
(_NODES_8, _WEIGHTS_8), (_NODES_16, _WEIGHTS_16) = leggauss(8), leggauss(16)
_PROBE_FIT = (np.polynomial.legendre.legvander([-1.0, 0.0, 1.0], 15)
              @ np.linalg.inv(np.polynomial.legendre.legvander(_NODES_16, 15)))
_BLIND = np.array([1.0 - _NODES_16[-1], 2.0 * _NODES_16[8], 1.0 - _NODES_16[-1]])
# open moment pieces per panel at most on average: isolated kinks and jumps
# keep a few open per round, a core that is rough everywhere doubles them
_MAX_PIECES_PER_PANEL = 16


class _Tail:
    """Curvature c * (t / t_tail)**(-p) beyond t_tail, its value at the
    anchor being c; subclasses fix what their class leaves out of (c, p)."""

    c = p = 0.0
    order = 0.0  # r of the leading term e^(r t) of m: sqrt(-c) for a constant tail

    def value(self, t, t_tail):
        return self.c * (np.asarray(t, dtype=float) / t_tail) ** (-self.p)

    def reanchored(self, old_t_tail: float, new_t_tail: float) -> "_Tail":
        return self


class ZeroTail(_Tail):
    """Curvature identically zero beyond t_tail."""

    def moment(self, t_from, t_tail):
        return 0.0

    def _zero(self, m0, mp0):
        """s > 0 where m0 + mp0 s (m0 > 0) vanishes, inf if nowhere."""
        return m0 / -mp0 if mp0 < 0.0 else math.inf

    def carry(self, t, m0, mp0):
        """(m, m') = (m0 + mp0 s, mp0), s = t - t[0], at t[1:] from (m0, mp0)
        at t[0] >= t_tail; a zero of m by t[-1] raises ConjugatePointError."""
        if (s := self._zero(m0, mp0)) <= t[-1] - t[0]:
            raise ConjugatePointError(t[0] + s)
        return m0 + mp0 * (t[1:] - t[0]), np.full(t.size - 1, mp0)

    def continuation(self, t_tail, m_a, mp_a, e_m, e_mp):
        """(lim m', its error) = (mp_a, e_mp) from (m, m') = (m_a, mp_a) at the
        anchor, within (e_m, e_mp): m is linear past it, and a line falling
        beyond e_mp vanishes at t_tail + m_a / -mp_a (ConjugatePointError)."""
        if mp_a < -e_mp:
            raise ConjugatePointError(t_tail + self._zero(m_a, mp_a),
                                      "flat tail with decreasing warping crosses zero")
        return float(mp_a), e_mp

    def to_json(self):
        return {"kind": "zero"}

    def __repr__(self):
        return "ZeroTail()"


class PowerLawTail(_Tail):
    """Curvature c * (t / t_tail)**(-p) beyond t_tail.

    p > 2 keeps the first moment integral finite; the constructor rejects
    anything else so divergence never hides inside a declared-integrable tail.
    """

    def __init__(self, c: float, p: float):
        if not p > 2.0:
            raise DomainError(f"power-law tail requires exponent p > 2, got p = {p}")
        if not math.isfinite(c):
            raise DomainError("power-law coefficient must be finite")
        self.c = float(c)
        self.p = float(p)

    def reanchored(self, old_t_tail: float, new_t_tail: float) -> "PowerLawTail":
        # same function, coefficient restated at a new anchor
        return PowerLawTail(self.c * (new_t_tail / old_t_tail) ** (-self.p), self.p)

    def moment(self, t_from, t_tail):
        c, p = self.c, self.p
        return c * t_tail ** p * t_from ** (2.0 - p) / (p - 2.0)

    def continuation(self, t_tail, m_a, mp_a, e_m, e_mp):
        """(lim m', its error) from (m, m') = (m_a, mp_a) at the anchor a within (e_m, e_mp).

        Past a, m = sqrt(t) [A Z(z) + B W(z)], z = beta t^(1 - p/2), of
        order nu = 1/(p - 2), with J, Y for c > 0 and I, K for c < 0 (DLMF
        10.13.1). The J or I solution over its leading power of z is
        phi = 0F1(; nu + 1; x) (``_hyp0f1``), x = -k(t) t^2 / (p - 2)^2: phi -> 1 and
        t phi' -> 0, so its Wronskian with the solution asymptotic to t is 1
        and the limit is L = phi(a) m'(a) - phi'(a) m(a), within
        |phi(a)| e_mp + |phi'(a)| e_m.

        The first zero of m past a raises ConjugatePointError. Where
        z >= z_s = max(nu, 1/2) (c > 0 only), zeros are more than 2 apart
        in z (Sturm comparison on the Bessel equation): m is sampled in
        closed form at z-steps of at most 1 and a sign change refined.
        Beyond t_s (z < z_s, or a for c <= 0) phi > 0 and
        m / phi = m(t_s) / phi(t_s) + L * integral of phi^-2 from t_s,
        which vanishes exactly when L < 0, sought below its error.
        """
        nu, q = 1.0 / (self.p - 2.0), 1.0 - 0.5 * self.p
        x_a = -self.c * (t_tail * nu) ** 2
        phi = lambda t: _hyp0f1(nu + 1.0, x_a * (t / t_tail) ** (2.0 * q))
        phi_a = phi(t_tail)
        dphi_a = 2.0 * q * x_a * _hyp0f1(nu + 2.0, x_a) / ((nu + 1.0) * t_tail)
        limit = float(phi_a * mp_a - dphi_a * m_a)
        err = float(abs(phi_a) * e_mp + abs(dphi_a) * e_m)
        t_s, m_s = t_tail, m_a
        z_a = 2.0 * math.sqrt(max(-x_a, 0.0))
        z_s = min(z_a, max(nu, 0.5))
        if z_a > z_s:
            # J and Y coefficients from m / sqrt(t) and its z-derivative at a;
            # the Wronskian of J and Y is 2 / (pi z)
            f = m_a / math.sqrt(t_tail)
            df = (mp_a - 0.5 * m_a / t_tail) * math.sqrt(t_tail) / (q * z_a)
            A = (f * special.yvp(nu, z_a) - df * special.yv(nu, z_a)) * 0.5 * math.pi * z_a
            B = (df * special.jv(nu, z_a) - f * special.jvp(nu, z_a)) * 0.5 * math.pi * z_a
            bessel = lambda z: A * special.jv(nu, z) + B * special.yv(nu, z)
            z = np.linspace(z_a, z_s, math.ceil(z_a - z_s) + 1)
            vals = bessel(z)
            down = np.flatnonzero(vals <= 0.0)
            if down.size:
                i = down[0]
                z_root = z[i] if vals[i] == 0.0 else brentq(bessel, z[i], z[i - 1], xtol=1e-15)
                raise ConjugatePointError(t_tail * (z_root / z_a) ** (1.0 / q))
            t_s = t_tail * (z_s / z_a) ** (1.0 / q)
            m_s = math.sqrt(t_s) * vals[-1]
        if not math.isfinite(limit):  # 0F1 of order above ~170 at x < -3 b, or overflow
            raise DomainError(f"no closed-form continuation of {self!r} from t = {t_tail:g}")
        if limit < -err:
            level = m_s / (phi(t_s) * -limit)
            psi = lambda t: integrate.quad(lambda u: phi(u) ** -2.0, t_s, t, epsabs=0.0,
                                           epsrel=1e-13, limit=200)[0] - level
            # phi^-2 >= min(1, phi(t_s)^-2) beyond t_s: psi changes sign before t_hi
            t_hi = t_s + level * max(1.0, phi(t_s) ** 2)
            raise ConjugatePointError(brentq(psi, t_s, t_hi, xtol=1e-14, rtol=1e-14))
        return limit, err

    def to_json(self):
        return {"kind": "power_law", "c": self.c, "p": self.p}

    def __repr__(self):
        return f"PowerLawTail(c={self.c!r}, p={self.p!r})"


def _hyp0f1(b: float, x: float) -> float:
    """0F1(; b; x) for b > 0 by its series, summed term by term at x >= 0,
    where every term is positive and ``special.hyp0f1`` loses accuracy as b
    grows (3e-10 at b = 1e5), and at x < 0 where scipy's is not finite (b
    above about 171: ``special.hyp0f1(172, -10)`` is inf) if |x| <= 3 b: each
    term is then at most 3 / (j + 1) times the one before, so none exceeds
    4.5. Otherwise scipy's value; a sum past the float range is inf."""
    if x < 0.0:
        value = float(special.hyp0f1(b, x))
        if math.isfinite(value) or not -x <= 3.0 * b:
            return value
    term = total = 1.0
    j = 0
    while abs(term) > 1e-17 * abs(total):
        term *= x / ((b + j) * (j + 1))
        total += term
        j += 1
    return total


class ConstantTail(_Tail):
    """Curvature constant c <= 0 beyond t_tail.

    A zero constant becomes ``ZeroTail`` inside ``RadialCurvature``, so the
    closed forms below are those of c < 0: both integrals diverge to -inf.
    """

    def __init__(self, c: float):
        if not math.isfinite(c):
            raise DomainError("constant tail value must be finite")
        if c > 0:
            raise DomainError(
                f"constant tail requires c <= 0, got c = {c}; positive curvature "
                "at infinity produces conjugate points and is not supported"
            )
        self.c = float(c)
        self.order = math.sqrt(-self.c)

    def moment(self, t_from, t_tail):
        return NEG_INFINITY

    def _zero(self, m0, mp0):
        """s > 0 where m0 cosh(r s) + (mp0 / r) sinh(r s) (m0 > 0) vanishes,
        tanh(r s) = -r m0 / mp0 < 1; inf if nowhere or if that rounds to 1."""
        ratio = -self.order * m0 / mp0 if mp0 + self.order * m0 < 0.0 else 1.0
        return math.atanh(ratio) / self.order if ratio < 1.0 else math.inf

    def carry(self, t, m0, mp0):
        """(m, m') at t[1:] from (m0, mp0) at t[0] >= t_tail: m0 cosh(r s) +
        (mp0 / r) sinh(r s) and its derivative, s = t - t[0], inf past
        overflow; a zero of m by t[-1] raises ConjugatePointError."""
        if (s := self._zero(m0, mp0)) <= t[-1] - t[0]:
            raise ConjugatePointError(t[0] + s)
        with np.errstate(over="ignore", invalid="ignore"):
            rs = self.order * (t[1:] - t[0])
            ch, sh = np.cosh(rs), np.sinh(rs)
            return m0 * ch + (mp0 / self.order) * sh, mp0 * ch + (self.order * m0) * sh

    def continuation(self, t_tail, m_a, mp_a, e_m, e_mp):
        """(amplitude, its error) from (m, m') = (m_a, mp_a) at the anchor within
        (e_m, e_mp): with r = sqrt(-c), (m' + r m) e^(-r (t - t_tail)) is the
        growing mode's amplitude mp_a + r m_a past it, within e_mp + r e_m.
        Within its error m is a pure decaying mode; below it m crosses zero
        where tanh(r (t - t_tail)) = -r m_a / mp_a (ConjugatePointError)."""
        amp, err = mp_a + self.order * m_a, e_mp + self.order * e_m
        if amp < -err:
            raise ConjugatePointError(t_tail + self._zero(m_a, mp_a),
                                      "decaying tail overshoots: warping crosses zero")
        return amp, err

    def to_json(self):
        return {"kind": "constant", "c": self.c}

    def __repr__(self):
        return f"ConstantTail(c={self.c!r})"


def _tail_from_json(obj) -> _Tail:
    kind = obj.get("kind")
    if kind == "zero":
        return ZeroTail()
    if kind == "power_law":
        return PowerLawTail(float(obj["c"]), float(obj["p"]))
    if kind == "constant":
        return ConstantTail(float(obj["c"]))
    raise DomainError(f"unknown tail kind {kind!r}")


class SplineCore:
    """Cubic spline interpolant over explicit breakpoints, held as a ``PPoly``
    that only ``_cubics`` and ``__call__`` read. Its slopes at the knots
    solve scipy's CubicSpline system (de Boor, *A Practical Guide to
    Splines*, ch. IV) with the same arrays and LAPACK calls, so the cubics
    are its own bit for bit (``_knot_slopes``)."""

    kind = "spline"

    def __init__(self, breakpoints: Sequence[float], values: Sequence[float]):
        bp = np.array(breakpoints, dtype=float)
        vals = np.array(values, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise DomainError("spline core needs at least two breakpoints")
        if bp.shape != vals.shape:
            raise DomainError("breakpoints and values must have equal length")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(vals))):
            raise DomainError("spline breakpoints and values must be finite")
        dx = np.diff(bp)
        if np.any(dx <= 0):
            raise DomainError("breakpoints must be strictly increasing")
        if bp[0] != 0.0:
            raise DomainError("core must start at t = 0")
        slope = np.diff(vals) / dx
        s = _knot_slopes(bp, dx, vals, slope)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self._spline = PPoly.construct_fast(
            np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], vals[:-1]]), bp)
        self.breakpoints = bp
        self.values = vals

    def __call__(self, t):
        return self._spline(t)

    def to_json(self):
        return {
            "kind": "spline",
            "breakpoints": self.breakpoints.tolist(),
            "values": self.values.tolist(),
        }


def _knot_slopes(x, dx, y, slope):
    """Slopes at the knots x of the cubic spline through y: the parabola
    through 3 knots, else the tridiagonal system in banded form, with natural
    ends for 2 knots (a line) and not-a-knot ends from 4."""
    n = x.size
    if n == 3:
        a = np.array([[1.0, 1.0, 0.0], [dx[1], 2 * (dx[0] + dx[1]), dx[0]], [0.0, 1.0, 1.0]])
        b = np.array([2 * slope[0], 3 * (dx[0] * slope[1] + dx[1] * slope[0]), 2 * slope[1]])
        return linalg.solve(a, b, overwrite_a=True, overwrite_b=True, check_finite=False)
    a, b = np.zeros((3, n)), np.empty(n)  # rows: upper, main and lower diagonal
    a[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    a[0, 2:], a[2, :-2] = dx[:-1], dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    if n == 2:  # zero second derivative at both ends
        a[1], a[0, 1], a[2, 0] = 2 * dx[0], dx[0], dx[0]
        b[:] = 3 * (y[1] - y[0])
    else:  # the third derivative continuous at the second and last-but-one knots
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        a[1, 0], a[0, 1], a[1, -1], a[2, -2] = dx[1], d0, dx[-2], d1
        b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    return linalg.solve_banded((1, 1), a, b, overwrite_ab=True, overwrite_b=True,
                               check_finite=False)


class FormulaCore:
    """Elementwise closed-form core, optionally serialized as an expression.

    ``breakpoints`` are hints for quadrature splitting (the function may have
    kinks there, e.g. for pointwise minima); they do not affect evaluation.
    Given as a function of no arguments they are found on first read, once:
    a lazy minimum's kinks. A solve and ``_lowest_gap`` read a formula at
    the same samples, so a feature narrower than every sample is invisible
    to both.
    """

    kind = "formula"

    def __init__(
        self,
        func: Callable,
        expr: str | None = None,
        breakpoints: Sequence[float] | Callable[[], Sequence[float]] | None = None,
    ):
        self._func = func
        self.expr = expr
        if callable(breakpoints):
            self._find_breakpoints = breakpoints
        elif breakpoints is None:
            self.breakpoints = None
        else:
            self.breakpoints = np.asarray(breakpoints, dtype=float)
            if self.breakpoints.ndim != 1:
                raise DomainError("formula core breakpoints must be a list of numbers")

    @cached_property
    def breakpoints(self) -> np.ndarray:
        return np.asarray(self._find_breakpoints(), dtype=float)

    def __call__(self, t):
        return self._func(np.asarray(t, dtype=float))

    def to_json(self):
        if self.expr is None:
            raise DomainError("formula core with no expression (a lazy minimum) has no JSON form")
        out = {"kind": "formula", "expr": self.expr}
        if self.breakpoints is not None:
            out["breakpoints"] = self.breakpoints.tolist()
        return out


# Names allowed inside serialized formula expressions.
_EXPR_NAMESPACE = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "abs": np.abs, "minimum": np.minimum, "maximum": np.maximum,
    "where": np.where, "tanh": np.tanh, "cosh": np.cosh, "sinh": np.sinh,
    "pi": np.pi, "e": np.e,
}


# Syntax allowed around the constants, names and calls of a formula.
_EXPR_NODES = (ast.Expression, ast.Load, ast.UnaryOp, ast.BinOp, ast.Compare,
               ast.BoolOp, ast.IfExp, ast.unaryop, ast.operator, ast.cmpop, ast.boolop)


def _compile_expr(expr: str) -> Callable:
    """Compile a formula in t after checking every syntax node: numeric
    constants, t, namespace names (functions called by plain name), and
    unary, binary, comparison, boolean and conditional expressions. Nothing
    else parses, so a scenario file cannot reach attributes or run code.
    Integer constants are read as floats, so a power tower overflows at once
    instead of running integer arithmetic; a formula nested too deeply to
    parse or compile raises DomainError too."""
    if not isinstance(expr, str):
        raise DomainError("formula expression must be a string")
    try:
        tree = ast.parse(expr, mode="eval")
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) in (int, float):
                ok, node.value = True, float(node.value)
            elif isinstance(node, ast.Name):
                ok = node.id == "t" or node.id in _EXPR_NAMESPACE
            elif isinstance(node, ast.Call):
                ok = isinstance(node.func, ast.Name) and callable(_EXPR_NAMESPACE.get(node.func.id))
            else:
                ok = isinstance(node, _EXPR_NODES)
            if not ok:
                raise DomainError(f"formula expression may not use {type(node).__name__} "
                                  f"at offset {node.col_offset}")
        code = compile(tree, "<curvature formula>", "eval")
    except SyntaxError as exc:
        raise DomainError(f"formula expression invalid at offset {exc.offset}: {exc.msg}") from exc
    except (MemoryError, RecursionError) as exc:
        raise DomainError("formula expression is nested too deeply") from exc

    def func(t):
        out = eval(code, {"__builtins__": {}}, {**_EXPR_NAMESPACE, "t": t})
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(t)).copy()

    return func


class RadialCurvature:
    """Curvature as a function of distance from the pole.

    Evaluation is vectorized; t < 0 raises DomainError. The core covers
    [0, t_tail]; the declared tail takes over beyond. The knots are fixed at
    construction and computed on first read: ``breakpoints`` is the sorted
    set of 0, t_tail and the core's breakpoints in [0, t_tail]. Value
    continuity at the junction is validated at construction. A tail that is
    zero at its anchor (c = 0) is zero everywhere and is stored as
    ``ZeroTail``.
    """

    def __init__(self, core, tail, t_tail: float, *, _known_nonpositive: bool | None = None):
        if not (t_tail > 0 and math.isfinite(t_tail)):
            raise DomainError(f"t_tail must be positive and finite, got {t_tail}")
        self.core = core
        self.tail = ZeroTail() if tail.c == 0 else tail
        self.t_tail = float(t_tail)
        self._nonpositive = _known_nonpositive
        self._check_junction()

    def _check_junction(self):
        core_end = float(self.core(np.array([self.t_tail]))[0])
        tail_start = self.tail.c
        scale = max(1.0, abs(core_end), abs(tail_start))
        if not abs(core_end - tail_start) <= _JUNCTION_TOL * scale:  # NaN fails too
            raise DomainError(
                f"core/tail junction is discontinuous at t = {self.t_tail:.6g}: "
                f"core -> {core_end:.9g}, tail -> {tail_start:.9g}"
            )

    @cached_property
    def breakpoints(self) -> np.ndarray:
        core_bp = getattr(self.core, "breakpoints", None)
        core_bp = np.empty(0) if core_bp is None else np.asarray(core_bp, dtype=float)
        if self.core.kind == "spline" and core_bp[-1] == self.t_tail:
            return core_bp  # strictly increasing from 0: already the set
        return np.unique(np.concatenate(
            [[0.0, self.t_tail], core_bp[(core_bp >= 0.0) & (core_bp <= self.t_tail)]]))

    # -- evaluation ---------------------------------------------------------

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        if np.count_nonzero(arr < 0):
            raise DomainError("curvature is defined for t >= 0")
        # NaN is not <= t_tail, so it takes the tail's value
        in_core = arr <= self.t_tail
        n_core = np.count_nonzero(in_core)
        if n_core == arr.size:
            out = np.asarray(self.core(arr), dtype=float)
        elif not n_core:
            out = self.tail.value(arr, self.t_tail)
        else:
            out = np.empty_like(arr)
            out[in_core] = self.core(arr[in_core])
            out[~in_core] = self.tail.value(arr[~in_core], self.t_tail)
        return float(out) if arr.ndim == 0 else out

    @cached_property
    def _headroom(self) -> float:
        return _lowest_gap(None, self)[0]  # smallest -k on [0, inf)

    def is_nonpositive(self) -> bool:
        """True when the function stays <= 0 everywhere, to 1e-12: exact for
        a spline core, where a solve reads k for a formula (``_lowest_gap``)."""
        return self._headroom >= -1e-12 if self._nonpositive is None else self._nonpositive

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """JSON object {core, tail, t_tail}; a formula core with no
        expression (a lazy minimum) has none and raises DomainError."""
        return {"core": self.core.to_json(), "tail": self.tail.to_json(), "t_tail": self.t_tail}

    @classmethod
    def from_json(cls, obj: dict) -> "RadialCurvature":
        """Inverse of ``to_json``; a malformed document raises DomainError."""
        try:
            core_obj, tail_obj = obj["core"], obj["tail"]
            if not (isinstance(core_obj, dict) and isinstance(tail_obj, dict)):
                raise DomainError("curvature core and tail must be objects")
            tail = _tail_from_json(tail_obj)
            t_tail = float(obj["t_tail"])
            kind = core_obj.get("kind")
            if kind == "spline":
                core = SplineCore(core_obj["breakpoints"], core_obj["values"])
            elif kind == "formula":
                core = FormulaCore(
                    _compile_expr(core_obj["expr"]),
                    expr=core_obj["expr"],
                    breakpoints=core_obj.get("breakpoints"),
                )
                # a branch or chained comparison on t fails only on arrays
                core(np.array([0.0, t_tail]))
            else:
                raise DomainError(f"unknown core kind {kind!r}")
            return cls(core, tail, t_tail)
        except DomainError:  # a ValueError too; its message already says what is wrong
            raise
        except KeyError as exc:
            raise DomainError(f"curvature object missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"malformed curvature object: {exc}") from exc

    # -- convenience constructors -------------------------------------------

    @classmethod
    def constant(cls, c: float, t_tail: float = 1.0) -> "RadialCurvature":
        """Constant curvature c on the core, the spline [0, t_tail] through
        (c, c): every constant model, zero included, is this one spline.

        For c <= 0 the constant extends to infinity. A positive constant has
        no admissible tail class (it would force conjugate points and a
        divergent moment of the wrong sign), so the tail decays as a p = 3
        power law beyond t_tail; the nonpositive envelope is unaffected.
        """
        core = SplineCore([0.0, t_tail], [c, c])
        tail = ConstantTail(c) if c <= 0 else PowerLawTail(c, 3.0)
        return cls(core, tail, t_tail, _known_nonpositive=(c <= 0))

    @classmethod
    def zero(cls) -> "RadialCurvature":
        return cls.constant(0.0)

    @classmethod
    def from_spline(cls, breakpoints, values, tail=None) -> "RadialCurvature":
        core = SplineCore(breakpoints, values)
        return cls(core, tail if tail is not None else ZeroTail(),
                   float(core.breakpoints[-1]))

    def __repr__(self):
        return (f"RadialCurvature(core={self.core.kind}, tail={self.tail!r}, "
                f"t_tail={self.t_tail!r})")


# ---------------------------------------------------------------------------
# Pointwise nonpositive envelope
# ---------------------------------------------------------------------------


def _node_grid(breakpoints: np.ndarray, first: int, last: int) -> np.ndarray:
    """The nodes first/64 .. last/64 of the 1/64 lattice with the interior
    curvature breakpoints merged in under the sliver rule."""
    pitch = 1.0 / _NODES_PER_UNIT
    grid = np.arange(first, last + 1) * pitch
    # sorted, from 0: a twin of the breakpoint before it is dropped
    bp = breakpoints[1:][np.diff(breakpoints) >= _SLIVER_FRACTION * pitch]
    interior_bp = bp[(bp > grid[0]) & (bp < grid[-1])]
    if not interior_bp.size:
        return grid
    # the breakpoint takes the place of a uniform node it nearly meets; next
    # to an end node, which must stay, the breakpoint is dropped instead
    nearest = np.rint((interior_bp - grid[0]) / pitch).astype(int)
    close = np.abs(grid[nearest] - interior_bp) < _SLIVER_FRACTION * pitch
    at_end = close & ((nearest == 0) | (nearest == last - first))
    keep = np.ones(grid.size, dtype=bool)
    keep[nearest[close & ~at_end]] = False
    return np.unique(np.concatenate([grid[keep], interior_bp[~at_end]]))


def _cell_samples(lo, hi):
    """(midpoint, half-width, t) of the pieces [lo, hi], t where a solve reads
    k in one round: the Chebyshev points, then an ulp inside either end."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid, half, np.concatenate([mid + half * _CHEB[:, None],
                                      [np.nextafter(lo, hi), np.nextafter(hi, lo)]])


def _cubics(k: RadialCurvature, x: np.ndarray) -> np.ndarray:
    """k on the pieces [x[i], x[i+1]] (its knots among x) as rows, highest
    power first, of cubics in t - x[i]: its spline re-expanded, from the
    knot value at any knot but its last, or past its anchor its zero or
    constant tail."""
    xs, cs = k.core._spline.x, k.core._spline.c  # each read converts the array
    left = x[:-1][x[:-1] < k.t_tail]
    j = np.searchsorted(xs[1:-1], left, side="right")  # past either end: the end piece
    d, (a3, a2, a1, a0) = left - xs[j], cs[:, j]
    out = np.zeros((4, x.size - 1))
    out[3] = k.tail.c
    out[:, :left.size] = [a3, a2 + 3.0 * a3 * d, a1 + (2.0 * a2 + 3.0 * a3 * d) * d,
                          a0 + (a1 + (a2 + a3 * d) * d) * d]
    return out


def _extremum_offsets(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Offsets from x[i] where each cubic c of ``_cubics(k, x)`` can take its
    extremes on [x[i], x[i+1]): 0, and each root of its derivative inside
    the piece (0 for one outside)."""
    h = x[1:] - x[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):  # roots of 3 c0 u^2 + 2 c1 u + c2
        q = -(c[1] + np.copysign(np.sqrt(c[1] * c[1] - 3.0 * c[0] * c[2]), c[1]))
        u = np.array([0.0 * h, q / (3.0 * c[0]), c[2] / q])
    return np.where((u > 0.0) & (u < h), u, 0.0)


def _lowest_gap(f: RadialCurvature | None, g: RadialCurvature | None):
    """(smallest f - g on [0, inf), first t where it is taken, inf for a
    limit), None being zero. Up to the later anchor T it is exact where each
    side is zero or cubic on every piece (a spline core, past its anchor a
    zero or constant tail): the sides are re-expanded at the merged knots
    (``_cubics``), and each piece of their difference is read at its left
    end and at the roots of its derivative inside it. T is read as a side's
    last knot value or k(T), never from a cubic at its right end, where it
    rounds. Else each side is read where its solve reads k, at the
    ``_cell_samples`` of the cells of ``_node_grid`` up to the first lattice
    node at or past T, or its anchor for a zero or constant tail; solves end
    at t = 4096. Past T the tails' difference is read at T, in the limit and
    at its one stationary point, where p c (t/a)**-p agree (``_log_cross``)."""
    sides = [(k, sign) for k, sign in ((f, 1.0), (g, -1.0)) if k is not None]
    t_end = max(k.t_tail for k, _sign in sides)
    if any(k.core.kind != "spline" or k.tail.p and k.t_tail < t_end for k, _sign in sides):
        if not t_end <= _MAX_HORIZON:
            raise DomainError(f"formula and power-law curvatures are compared up to t = "
                              f"{_MAX_HORIZON:g}, where solves end, not to t = {t_end:.6g}")
        grids = (_node_grid(k.breakpoints, 0, math.ceil(
            (t_end if k.tail.p else k.t_tail) * _NODES_PER_UNIT)) for k, _sign in sides)
        t = np.concatenate([_cell_samples(x[:-1], x[1:])[2].ravel() for x in grids])
        gap = sum(sign * k(t) for k, sign in sides)
        if not np.all(np.isfinite(gap)):
            raise DomainError(f"curvature is not finite on [0, {t_end:g}]")
    else:
        x = reduce(np.union1d, (k.breakpoints for k, _sign in sides))
        c = sum(sign * _cubics(k, x) for k, sign in sides)
        u = _extremum_offsets(c, x)
        at_end = sum(sign * (k.core.values[-1] if k.core.breakpoints[-1] == t_end == k.t_tail
                             else k(t_end)) for k, sign in sides)
        t = np.append(x[:-1] + u, t_end)
        gap = np.append(((c[0] * u + c[1]) * u + c[2]) * u + c[3], at_end)
    low = float(np.min(gap))
    (c1, p1, a1), (c2, p2, a2) = ((0.0, 0.0, 1.0) if k is None else (k.tail.c, k.tail.p, k.t_tail)
                                  for k in (f, g))
    tails = lambda t: c1 * (t / a1) ** -p1 - c2 * (t / a2) ** -p2
    # a power law vanishes at infinity, a constant stays
    lows = [(low, float(np.min(t[gap == low]))), (tails(t_end), t_end),
            ((0.0 if p1 else c1) - (0.0 if p2 else c2), math.inf)]
    if p1 != p2 and p1 * c1 * p2 * c2 > 0.0:
        t = math.exp(min(_log_cross(p1 * c1, p1, a1, p2 * c2, p2, a2), 709.0))
        lows += [(tails(t), t)] if t > t_end else []
    return min(lows)


def _log_cross(c1, p1, a1, c2, p2, a2) -> float:
    """log t where |c1| (t/a1)**-p1 = |c2| (t/a2)**-p2, for p1 != p2."""
    return (math.log(abs(c2)) + p2 * math.log(a2)
            - math.log(abs(c1)) - p1 * math.log(a1)) / (p2 - p1)


def _merge_tails(a, b):
    """Tail of min(0, f, g) as a (tail, anchor) pair from those of f and g,
    one of them nonpositive at infinity, by the (c, p) of c * (t/anchor)**-p.

    A zero or positive tail gives way to the other; of two with the same p
    the lower at the later anchor wins, else the smaller p (slower decay)
    from where the two cross. The returned anchor is where the closed form
    starts agreeing with the pointwise min, past both inputs' at a crossing.
    """
    (tail_a, anch_a), (tail_b, anch_b) = sorted((a, b), key=lambda pair: -pair[0].c)
    t0 = max(anch_a, anch_b)
    if tail_a.c >= 0.0:
        return tail_b.reanchored(anch_b, t0), t0
    if tail_a.p == tail_b.p:
        return min(tail_a.reanchored(anch_a, t0), tail_b.reanchored(anch_b, t0),
                   key=lambda tail: tail.c), t0
    if tail_a.p > tail_b.p:
        (tail_a, anch_a), (tail_b, anch_b) = (tail_b, anch_b), (tail_a, anch_a)
    log_cross = _log_cross(tail_a.c, tail_a.p, anch_a, tail_b.c, tail_b.p, anch_b)
    try:
        t_from = max(t0, math.exp(log_cross))
    except OverflowError:
        raise DomainError(f"the envelope's tails cross at t = e^{log_cross:.6g}, "
                          "past the largest float") from None
    return tail_a.reanchored(anch_a, t_from), t_from


def _kinks(funcs, grid) -> np.ndarray:
    """Points where the minimiser of funcs changes (kinks of their pointwise
    min). Where it goes from f_i to f_j between grid points, d = f_i - f_j
    goes from <= 0 to >= 0. These roots are refined together by the Illinois
    variant of regula falsi (Dowell and Jarratt, *BIT* 11, 1971), one array
    call of each function per round, until every next step is within
    1e-13 + 4 ulps.
    """
    vals = np.array([f(grid) for f in funcs])
    low = np.argmin(vals, axis=0)
    at = np.flatnonzero(low[:-1] != low[1:])
    if not at.size:
        return grid[at]
    i, j, n = low[at], low[at + 1], np.arange(at.size)
    ends = at + np.array([[0], [1]])
    t, d = grid[ends], vals[i, ends] - vals[j, ends]  # rows: d <= 0, d >= 0
    # an end that reads 0 is the root: NaN as the step before makes it final
    x, last = np.where((d == 0).any(axis=0), math.nan, math.inf), np.full(at.size, -1)
    for _ in range(_KINK_ROUNDS):
        # the secant root; the left end where both ends read 0
        x, x_old = t[0] + d[0] / np.where(d[0] < d[1], d[0] - d[1], -1.0) * (t[1] - t[0]), x
        if not np.any(np.abs(x - x_old) > 1e-13 + 4.0 * np.spacing(x)):  # NaN is done
            break
        fx = np.array([f(x) for f in funcs])
        dx = fx[i, n] - fx[j, n]
        r = (dx >= 0).astype(int)  # the end x replaces
        d[1 - r, n] *= np.where(r == last, 0.5, 1.0)  # an end kept twice is halved
        t[r, n], d[r, n], last = x, dx, r
    return x


def nonpositive_min(*curvatures: RadialCurvature) -> RadialCurvature:
    """Pointwise min of zero and the given curvature functions, an object
    passed more than once counting once.

    This is the envelope feeding the critical-angle moment: with one argument
    it is the nonpositive part, with two it is the combined floor for a
    manifold pinched between two radial bounds. Its tail folds
    ``_merge_tails`` over the inputs' tails from the zero tail. A spline
    input no piece or tail of which rises above 0 (``_lowest_gap``, kept
    for ``is_nonpositive``) is its own envelope, returned as it is. Every
    other envelope is the lazy minimum, with kinks where the minimiser of
    zero and the inputs changes on the scan grid (``_kinks``; two functions
    crossing above the minimum make none). The grid holds the knots of every
    input and, for a spline input, the roots of its derivative
    (``_extremum_offsets``): a lone spline is monotone between them, so each
    of its sign changes is bracketed. A lazy minimum is exact, never
    resampled. Its breakpoints are the merged ones plus the kinks, so
    quadrature can split at every kink; a kink within 1e-13 + 4 ulps of a
    breakpoint is that breakpoint. The tail merge (which can raise) and the
    own-envelope test run here; the scan and the kinks run on the first read
    of ``breakpoints``, once, so a moment that diverges from its tail (a
    negative constant) never pays for them.
    """
    curvatures = tuple(dict.fromkeys(curvatures))
    if not curvatures:
        raise DomainError("nonpositive_min needs at least one curvature")
    tail, t_tail = reduce(_merge_tails, ((c.tail, c.t_tail) for c in curvatures),
                          (ZeroTail(), 0.0))

    k = curvatures[0]
    if len(curvatures) == 1 and k.core.kind == "spline" and k._headroom >= 0.0:
        return k

    def envelope(t):
        return np.minimum.reduce([np.zeros_like(t), *(c(t) for c in curvatures)])

    def breakpoints():
        # every input's knots start at 0; RadialCurvature sorts the union once
        bp = np.concatenate([[t_tail], *(c.breakpoints for c in curvatures)])
        # a spline is monotone between its knots and the roots of its derivative
        grid = [np.linspace(0.0, t_tail, _SCAN_POINTS), bp] + [
            (c.breakpoints[:-1] + _extremum_offsets(_cubics(c, c.breakpoints),
                                                     c.breakpoints)).ravel()
            for c in curvatures if c.core.kind == "spline"]
        kinks = _kinks([np.zeros_like, *curvatures], np.unique(np.concatenate(grid)))
        return np.concatenate([bp, kinks[np.abs(kinks[:, None] - bp).min(axis=1)
                                         > 1e-13 + 4.0 * np.spacing(kinks)]])

    core = FormulaCore(envelope, breakpoints=breakpoints)
    return RadialCurvature(core, tail, t_tail, _known_nonpositive=True)


# ---------------------------------------------------------------------------
# Moment integral
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentIntegral:
    """Value of the improper integral of t * k(t) over [0, inf).

    ``value`` is -inf when a negative constant tail makes it diverge;
    ``abs_error`` is the error estimate of the Gauss panels of the core,
    summed: the gaps |I16 - I8| between the 16- and 8-point rules plus the
    probe terms of ``moment_integral`` (the tail contributes in closed form,
    exactly). For a jump of k inside a panel the estimate can understate the
    error by a small factor, since |I16 - I8| of a step tracks the distance
    between the step positions the two rules imply, not the true one: the
    core where(t < 1.417784167624666, -1.0, -0.5) with breakpoints
    [0, 0.5, 1, 1.5, 2] has error 6.4e-13 against an estimate of 2.4e-13,
    both below the 1e-12 target.
    """

    value: float
    abs_error: float

    @property
    def divergent(self) -> bool:
        return self.value == NEG_INFINITY


def moment_integral(curv: RadialCurvature) -> MomentIntegral:
    """First moment of a nonpositive curvature function over [0, inf).

    The input must be nonpositive (apply nonpositive_min first); this keeps
    the improper integral monotone and its divergence one-sided, so the
    answer is either a finite value <= 0 or -inf.

    The core is integrated over panels between its breakpoints, which for an
    envelope include the refined crossings, so t * k is smooth (for spline
    cores, polynomial) on each. A panel [a, b] with b > 2a > 0 is first cut at
    log-spaced points, ratio at most 2: one rule over a gap spanning decades
    (the envelope of two power laws can be anchored at 1e16) misses where
    the integrand lives. Each round samples k once for all open panels, at
    the nodes of the 8- and 16-point Gauss-Legendre rules and at three
    probes. A panel's value is its 16-point result; its error is the gap to
    the 8-point result plus the probe misses times their blind windows (see
    _BLIND). The target for the summed error, ``abs_error``, is 1e-12 of the
    first round's integral of |t * k| (the whole core moment, for k <= 0).
    In each round the panels kept may use half of what is left of it,
    equally; the others are bisected, down to a half-width of 64 ulps. This
    covers kinks, jumps and cusps of a formula core that are not
    breakpoints. More than 16 open pieces per panel on average (a core that
    is rough throughout) raise DomainError.
    """
    if not curv.is_nonpositive():
        raise DomainError(
            "moment_integral requires a nonpositive curvature; "
            "take nonpositive_min(...) first"
        )
    tail_part = curv.tail.moment(curv.t_tail, curv.t_tail)
    if tail_part == NEG_INFINITY:
        return MomentIntegral(NEG_INFINITY, 0.0)

    edges = curv.breakpoints.tolist()  # from 0 to t_tail
    pts = []
    for a, b in zip(edges[1:-1], edges[2:]):
        if b > 2.0 * a:
            if b / a == math.inf:
                raise DomainError(f"curvature breakpoints {a!r} and {b!r} are too far apart")
            n = math.ceil(math.log2(b / a))
            pts.append(a * (b / a) ** (np.arange(1, n) / n))
    edges = np.sort(np.concatenate([edges, *pts]))

    eps = np.finfo(float).eps
    lo, hi = edges[:-1], edges[1:]
    max_open = _MAX_PIECES_PER_PANEL * lo.size
    value = error = 0.0
    target = None
    while lo.size:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = np.concatenate([mid + half * _NODES_8[:, None], mid + half * _NODES_16[:, None],
                            [np.nextafter(lo, hi), mid, np.nextafter(hi, lo)]])
        f = t * np.asarray(curv(t.ravel()), dtype=float).reshape(t.shape)
        if not np.all(np.isfinite(f)):
            raise DomainError(f"curvature is not finite on [0, {curv.t_tail:g}]")
        f8, f16, probes = f[:8], f[8:24], f[24:]
        i16 = half * (_WEIGHTS_16 @ f16)
        miss = _BLIND @ np.abs(probes - _PROBE_FIT @ f16)
        err = np.abs(i16 - half * (_WEIGHTS_8 @ f8)) + half * miss
        if target is None:
            target = 1e-12 * float(np.sum(half * (_WEIGHTS_16 @ np.abs(f16))))
        # panels kept this round use at most half of what is left of the target
        split = ((err > (target - error) / (2 * lo.size))
                 & (half > 64 * eps * np.maximum(1.0, np.abs(mid))))
        keep = ~split
        value += float(np.sum(i16[keep]))
        error += float(np.sum(err[keep]))
        lo, hi = np.concatenate([lo[split], mid[split]]), np.concatenate([mid[split], hi[split]])
        if lo.size > max_open:
            raise DomainError(
                f"curvature varies too fast to integrate near t = {float(np.min(lo)):.6g}")
    # min: rounding on an identically-zero integrand
    return MomentIntegral(min(value + tail_part, 0.0), error)
