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
(m, m') of m'' + k m = 0 at the anchor through the exact solution of the
tail (linear, exponential modes, or Bessel functions of t**(1 - p/2)) to
the limit of m' at infinity, or to the first zero of m past the anchor.
Everything beyond t_tail that the comparison needs (the curvature moment,
the slope limit of m', whether ball volumes diverge) is read from these.
Zero curvature has one encoding: ``RadialCurvature`` replaces a tail that is
zero at its anchor (a zero constant or power-law coefficient) with ``ZeroTail``.

Cores are either cubic splines over breakpoints or closed-form callables.
Pointwise minima (the nonpositive envelope used by the growth criteria) are
represented exactly by lazy evaluation over the merged breakpoint grid, with
kink locations refined by root finding so downstream quadrature can split
there.

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
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate, special
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .errors import ConjugatePointError, DomainError

NEG_INFINITY = float("-inf")

# Junction mismatch above this (relative to curvature scale) is a construction error.
_JUNCTION_TOL = 1e-8
# Dense sampling used for sign checks and kink scans.
_SCAN_POINTS = 801
# Arguments that RadialCurvature evaluates as one float.
_SCALAR_TYPES = (float, int, np.floating, np.integer)
# A slope at the anchor within this fraction of the state's scale counts as zero.
_FLAT_SLOPE_TOL = 1e-12
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


class ZeroTail:
    """Curvature identically zero beyond t_tail."""

    kind = "zero"

    def value(self, t, t_tail):
        return np.zeros_like(np.asarray(t, dtype=float))

    def value_at_anchor(self, t_tail):
        return 0.0

    def moment(self, t_from, t_tail):
        return 0.0

    def continuation(self, t_tail, m_a, mp_a):
        """lim m' from (m, m') = (m_a, mp_a) at the anchor: m is linear past
        it, and a falling line vanishes at t_tail + m_a / -mp_a
        (ConjugatePointError)."""
        if mp_a < -_FLAT_SLOPE_TOL * (abs(m_a) + abs(mp_a)):
            raise ConjugatePointError(t_tail + m_a / -mp_a,
                                      "flat tail with decreasing warping crosses zero")
        return float(mp_a)

    def to_json(self):
        return {"kind": "zero"}

    def __repr__(self):
        return "ZeroTail()"

    def __eq__(self, other):
        return isinstance(other, ZeroTail)


class PowerLawTail:
    """Curvature c * (t / t_tail)**(-p) beyond t_tail.

    p > 2 keeps the first moment integral finite; the constructor rejects
    anything else so divergence never hides inside a declared-integrable tail.
    """

    kind = "power_law"

    def __init__(self, c: float, p: float):
        if not p > 2.0:
            raise DomainError(f"power-law tail requires exponent p > 2, got p = {p}")
        if not math.isfinite(c):
            raise DomainError("power-law coefficient must be finite")
        self.c = float(c)
        self.p = float(p)

    def value(self, t, t_tail):
        return self.c * (np.asarray(t, dtype=float) / t_tail) ** (-self.p)

    def value_at_anchor(self, t_tail):
        return self.c

    def reanchored(self, old_t_tail: float, new_t_tail: float) -> "PowerLawTail":
        # same function, coefficient restated at a new anchor
        return PowerLawTail(self.c * (new_t_tail / old_t_tail) ** (-self.p), self.p)

    def moment(self, t_from, t_tail):
        c, p = self.c, self.p
        return c * t_tail ** p * t_from ** (2.0 - p) / (p - 2.0)

    def continuation(self, t_tail, m_a, mp_a):
        """lim m' from (m, m') = (m_a, mp_a) at the anchor a.

        Past a, m = sqrt(t) [A Z(z) + B W(z)], z = beta t^(1 - p/2), of
        order nu = 1/(p - 2), with J, Y for c > 0 and I, K for c < 0 (DLMF
        10.13.1). The J or I solution over its leading power of z is
        phi = 0F1(; nu + 1; x), x = -k(t) t^2 / (p - 2)^2: phi -> 1 and
        t phi' -> 0, so its Wronskian with the solution asymptotic to t is 1
        and the limit is L = phi(a) m'(a) - phi'(a) m(a).

        The first zero of m past a raises ConjugatePointError. Where
        z >= z_s = max(nu, 1/2) (c > 0 only), zeros are more than 2 apart
        in z (Sturm comparison on the Bessel equation): m is sampled in
        closed form at z-steps of at most 1 and a sign change refined.
        Beyond t_s (z < z_s, or a for c <= 0) phi > 0 and
        m / phi = m(t_s) / phi(t_s) + L * integral of phi^-2 from t_s,
        which vanishes exactly when L < 0.
        """
        nu, q = 1.0 / (self.p - 2.0), 1.0 - 0.5 * self.p
        x_a = -self.c * (t_tail * nu) ** 2
        phi = lambda t: special.hyp0f1(nu + 1.0, x_a * (t / t_tail) ** (2.0 * q))
        phi_a = phi(t_tail)
        dphi_a = 2.0 * q * x_a * special.hyp0f1(nu + 2.0, x_a) / ((nu + 1.0) * t_tail)
        limit = float(phi_a * mp_a - dphi_a * m_a)
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
        if not math.isfinite(limit):  # 0F1 of order above ~170 at x < 0, or overflow
            raise DomainError(f"no closed-form continuation of {self!r} from t = {t_tail:g}")
        if limit < -_FLAT_SLOPE_TOL * (abs(phi_a * mp_a) + abs(dphi_a * m_a)):
            level = m_s / (phi(t_s) * -limit)
            psi = lambda t: integrate.quad(lambda u: phi(u) ** -2.0, t_s, t, epsabs=0.0,
                                           epsrel=1e-13, limit=200)[0] - level
            # phi^-2 >= min(1, phi(t_s)^-2) beyond t_s: psi changes sign before t_hi
            t_hi = t_s + level * max(1.0, phi(t_s) ** 2)
            raise ConjugatePointError(brentq(psi, t_s, t_hi, xtol=1e-14, rtol=1e-14))
        return limit

    def to_json(self):
        return {"kind": "power_law", "c": self.c, "p": self.p}

    def __repr__(self):
        return f"PowerLawTail(c={self.c!r}, p={self.p!r})"

    def __eq__(self, other):
        return isinstance(other, PowerLawTail) and (self.c, self.p) == (other.c, other.p)


class ConstantTail:
    """Curvature constant c <= 0 beyond t_tail.

    A zero constant becomes ``ZeroTail`` inside ``RadialCurvature``, so the
    closed forms below are those of c < 0: both integrals diverge to -inf.
    """

    kind = "constant"

    def __init__(self, c: float):
        if not math.isfinite(c):
            raise DomainError("constant tail value must be finite")
        if c > 0:
            raise DomainError(
                f"constant tail requires c <= 0, got c = {c}; positive curvature "
                "at infinity produces conjugate points and is not supported"
            )
        self.c = float(c)

    def value(self, t, t_tail):
        return np.full_like(np.asarray(t, dtype=float), self.c)

    def value_at_anchor(self, t_tail):
        return self.c

    def moment(self, t_from, t_tail):
        return NEG_INFINITY

    def continuation(self, t_tail, m_a, mp_a):
        """lim m' from (m, m') = (m_a, mp_a) at the anchor: with r = sqrt(-c),
        m = m_a cosh(r s) + (mp_a / r) sinh(r s) for s = t - t_tail. A growing
        mode (amplitude mp_a + r m_a above 1e-9 of the state's scale) gives
        inf, a pure decaying one 0.0; a negative amplitude crosses zero where
        tanh(r s) = -r m_a / mp_a (ConjugatePointError)."""
        root = math.sqrt(-self.c)
        amp, scale = mp_a + root * m_a, abs(m_a) + abs(mp_a)
        if amp > 1e-9 * scale:
            return math.inf
        if amp < -1e-9 * scale:
            raise ConjugatePointError(
                t_tail + math.atanh(-root * m_a / mp_a) / root,
                "decaying tail overshoots: warping crosses zero")
        return 0.0

    def to_json(self):
        return {"kind": "constant", "c": self.c}

    def __repr__(self):
        return f"ConstantTail(c={self.c!r})"

    def __eq__(self, other):
        return isinstance(other, ConstantTail) and self.c == other.c


def _tail_from_json(obj) -> "ZeroTail | PowerLawTail | ConstantTail":
    kind = obj.get("kind")
    if kind == "zero":
        return ZeroTail()
    if kind == "power_law":
        return PowerLawTail(float(obj["c"]), float(obj["p"]))
    if kind == "constant":
        return ConstantTail(float(obj["c"]))
    raise DomainError(f"unknown tail kind {kind!r}")


class SplineCore:
    """Cubic spline interpolant over explicit breakpoints."""

    kind = "spline"

    def __init__(self, breakpoints: Sequence[float], values: Sequence[float]):
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise DomainError("spline core needs at least two breakpoints")
        if bp.size != vals.size:
            raise DomainError("breakpoints and values must have equal length")
        if np.any(np.diff(bp) <= 0):
            raise DomainError("breakpoints must be strictly increasing")
        if bp[0] != 0.0:
            raise DomainError("core must start at t = 0")
        # two collinear points define a line; natural end conditions keep it one
        bc = "natural" if bp.size == 2 else "not-a-knot"
        self._spline = CubicSpline(bp, vals, bc_type=bc)
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


class FormulaCore:
    """Closed-form core; optionally serializable through an expression string.

    ``breakpoints`` are hints for quadrature splitting (the function may have
    kinks there, e.g. for pointwise minima); they do not affect evaluation.
    """

    kind = "formula"

    def __init__(
        self,
        func: Callable,
        expr: str | None = None,
        breakpoints: Sequence[float] | None = None,
    ):
        self._func = func
        self.expr = expr
        self.breakpoints = (
            np.asarray(breakpoints, dtype=float) if breakpoints is not None else None
        )

    def __call__(self, t):
        return self._func(np.asarray(t, dtype=float))

    def to_json(self):
        if self.expr is None:
            raise DomainError(
                "formula core without an expression string; "
                "serialize via RadialCurvature.to_json(sampled=True)"
            )
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
    else parses, so a scenario file cannot reach attributes or run code."""
    if not isinstance(expr, str):
        raise DomainError("formula expression must be a string")
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise DomainError(f"formula expression {expr!r} is not valid: {exc.msg}") from exc
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            ok = type(node.value) in (int, float)
        elif isinstance(node, ast.Name):
            ok = node.id == "t" or node.id in _EXPR_NAMESPACE
        elif isinstance(node, ast.Call):
            ok = isinstance(node.func, ast.Name) and callable(_EXPR_NAMESPACE.get(node.func.id))
        else:
            ok = isinstance(node, _EXPR_NODES)
        if not ok:
            raise DomainError(f"formula expression may not use {ast.unparse(node)!r}")
    code = compile(tree, "<curvature formula>", "eval")

    def func(t):
        out = eval(code, {"__builtins__": {}}, {**_EXPR_NAMESPACE, "t": t})
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(t)).copy()

    return func


class RadialCurvature:
    """Curvature as a function of distance from the pole.

    Evaluation is vectorized; t < 0 raises DomainError. The core covers
    [0, t_tail]; the declared tail takes over beyond. Value continuity at the
    junction is validated at construction. A tail that is zero at its anchor
    is zero everywhere and is stored as ``ZeroTail``.
    """

    def __init__(self, core, tail, t_tail: float, *, _known_nonpositive: bool | None = None):
        if not (t_tail > 0 and math.isfinite(t_tail)):
            raise DomainError(f"t_tail must be positive and finite, got {t_tail}")
        self.core = core
        self.tail = ZeroTail() if tail.value_at_anchor(t_tail) == 0 else tail
        self.t_tail = float(t_tail)
        self._nonpositive = _known_nonpositive
        self._check_junction()

    def _check_junction(self):
        core_end = float(np.asarray(self.core(self.t_tail)))
        tail_start = self.tail.value_at_anchor(self.t_tail)
        scale = max(1.0, abs(core_end), abs(tail_start))
        if abs(core_end - tail_start) > _JUNCTION_TOL * scale:
            raise DomainError(
                f"core/tail junction is discontinuous at t = {self.t_tail:.6g}: "
                f"core -> {core_end:.9g}, tail -> {tail_start:.9g}"
            )

    # -- evaluation ---------------------------------------------------------

    def __call__(self, t):
        # scalars (the root finder refining envelope kinks asks for one at a
        # time) skip the masks
        if isinstance(t, _SCALAR_TYPES) or (isinstance(t, np.ndarray) and t.ndim == 0):
            t = float(t)
            if t < 0:
                raise DomainError("curvature is defined for t >= 0")
            if t <= self.t_tail:
                return float(self.core(t))
            return float(self.tail.value(t, self.t_tail))
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0):
            raise DomainError("curvature is defined for t >= 0")
        scalar = arr.ndim == 0
        a = np.atleast_1d(arr)
        out = np.empty_like(a)
        in_core = a <= self.t_tail
        if np.any(in_core):
            out[in_core] = np.asarray(self.core(a[in_core]), dtype=float)
        if not np.all(in_core):
            sel = ~in_core
            out[sel] = self.tail.value(a[sel], self.t_tail)
        return float(out[0]) if scalar else out

    @property
    def breakpoints(self) -> np.ndarray:
        """Sorted knot/kink locations in [0, t_tail], endpoints included."""
        pts = [0.0, self.t_tail]
        core_bp = getattr(self.core, "breakpoints", None)
        if core_bp is not None:
            pts.extend(float(b) for b in core_bp if 0.0 <= b <= self.t_tail)
        return np.unique(np.asarray(pts, dtype=float))

    def is_nonpositive(self) -> bool:
        """True when the function stays <= 0 everywhere (dense-sample check
        on the core plus the tail's sign, cached)."""
        if self._nonpositive is None:
            grid = _scan_grid(self.breakpoints, self.t_tail)
            core_ok = bool(np.max(self.__call__(grid)) <= 1e-12)
            tail_ok = self.tail.value_at_anchor(self.t_tail) <= 1e-12
            self._nonpositive = core_ok and tail_ok
        return self._nonpositive

    # -- serialization ------------------------------------------------------

    def to_json(self, sampled: bool = False) -> dict:
        """JSON object {core, tail, t_tail}.

        ``sampled=True`` forces a spline export of the core on a dense grid;
        required for derived (lazy minimum) cores, which have no expression.
        Sampling is lossy near kinks at the level of the grid resolution.
        """
        if sampled or (self.core.kind == "formula" and self.core.expr is None):
            step = min(0.01, self.t_tail / 400.0)
            grid = np.union1d(self.breakpoints, np.arange(0.0, self.t_tail + step, step))
            grid = grid[grid <= self.t_tail]
            if grid[-1] < self.t_tail:
                grid = np.append(grid, self.t_tail)
            core = {
                "kind": "spline",
                "breakpoints": grid.tolist(),
                "values": np.asarray(self.__call__(grid)).tolist(),
            }
        else:
            core = self.core.to_json()
        return {"core": core, "tail": self.tail.to_json(), "t_tail": self.t_tail}

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
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed curvature object: {exc}") from exc

    # -- convenience constructors -------------------------------------------

    @classmethod
    def constant(cls, c: float, t_tail: float = 1.0) -> "RadialCurvature":
        """Constant curvature c on the core.

        For c <= 0 the constant extends to infinity. A positive constant has
        no admissible tail class (it would force conjugate points and a
        divergent moment of the wrong sign), so the tail decays as a p = 3
        power law beyond t_tail; the nonpositive envelope is unaffected.
        """
        core = FormulaCore(lambda t: np.full_like(np.asarray(t, float), float(c)),
                           expr=repr(float(c)))
        tail = ConstantTail(c) if c <= 0 else PowerLawTail(c, 3.0)
        return cls(core, tail, t_tail, _known_nonpositive=(c <= 0))

    @classmethod
    def zero(cls, t_tail: float = 1.0) -> "RadialCurvature":
        return cls.constant(0.0, t_tail)

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


def _scan_grid(breakpoints: np.ndarray, t_end: float) -> np.ndarray:
    base = np.linspace(0.0, t_end, _SCAN_POINTS)
    return np.unique(np.concatenate([base, breakpoints[breakpoints <= t_end]]))


def _normalized_tail(curv: RadialCurvature):
    """Tail of min(0, curv) as a (tail, anchor) pair."""
    if curv.tail.value_at_anchor(curv.t_tail) > 0:  # positive power law clamps to zero
        return ZeroTail(), curv.t_tail
    return curv.tail, curv.t_tail


# Order in which _merge_tails takes a pair of tails apart.
_MERGE_ORDER = {ZeroTail: 0, ConstantTail: 1, PowerLawTail: 2}


def _merge_tails(a, b):
    """Combine two normalized nonpositive (tail, anchor) pairs into one.

    The returned anchor is where the closed form starts agreeing with the
    pointwise min; it can exceed both input anchors when the tails cross.
    """
    (tail_a, anch_a), (tail_b, anch_b) = sorted(
        (a, b), key=lambda pair: _MERGE_ORDER[type(pair[0])])
    t0 = max(anch_a, anch_b)
    if isinstance(tail_a, ZeroTail):
        if isinstance(tail_b, PowerLawTail):
            return tail_b.reanchored(anch_b, t0), t0
        return tail_b, t0
    if isinstance(tail_b, ConstantTail):  # both constant
        return ConstantTail(min(tail_a.c, tail_b.c)), t0
    if isinstance(tail_a, ConstantTail):
        # the power law rises through the constant at t_cross; constant wins beyond
        t_cross = anch_b * (tail_b.c / tail_a.c) ** (1.0 / tail_b.p)
        return tail_a, max(t0, t_cross)
    if tail_a.p == tail_b.p:
        c_a = tail_a.reanchored(anch_a, t0).c
        c_b = tail_b.reanchored(anch_b, t0).c
        return PowerLawTail(min(c_a, c_b), tail_a.p), t0
    # slower decay (smaller p) is eventually more negative; find the crossing
    if tail_a.p > tail_b.p:
        (tail_a, anch_a), (tail_b, anch_b) = (tail_b, anch_b), (tail_a, anch_a)
    (c1, p1), (c2, p2) = (tail_a.c, tail_a.p), (tail_b.c, tail_b.p)
    log_cross = (math.log(abs(c2)) + p2 * math.log(anch_b)
                 - math.log(abs(c1)) - p1 * math.log(anch_a)) / (p2 - p1)
    t_from = max(t0, math.exp(log_cross))
    return tail_a.reanchored(anch_a, t_from), t_from


def _refined_crossings(funcs, grid) -> list[float]:
    """Roots of pairwise differences among funcs (kinks of their pointwise
    min), refined to 1e-12 in t."""
    crossings = []
    vals = [np.asarray(f(grid), dtype=float) for f in funcs]
    pairs = [(i, j) for i in range(len(funcs)) for j in range(i + 1, len(funcs))]
    for i, j in pairs:
        d = vals[i] - vals[j]
        sign_flip = np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]
        for idx in sign_flip:
            a, b = grid[idx], grid[idx + 1]
            froot = lambda t: float(funcs[i](t)) - float(funcs[j](t))
            fa, fb = froot(a), froot(b)
            if fa == 0.0 or fb == 0.0 or np.sign(fa) == np.sign(fb):
                continue
            # rtol floor: brentq rejects anything below 4*eps
            crossings.append(brentq(froot, a, b, xtol=1e-13, rtol=8.9e-16))
    return crossings


def nonpositive_min(*curvatures: RadialCurvature) -> RadialCurvature:
    """Pointwise min of zero and the given curvature functions.

    This is the envelope feeding the critical-angle moment: with one argument
    it is the nonpositive part, with two it is the combined floor for a
    manifold pinched between two radial bounds. The result evaluates the
    minimum lazily (exact, never resampled); merged breakpoints plus refined
    crossing locations are recorded so quadrature can split at every kink.
    Tail anchors of the inputs may differ; the result re-anchors as needed.
    """
    if not curvatures:
        raise DomainError("nonpositive_min needs at least one curvature")
    merged = _normalized_tail(curvatures[0])
    for curv in curvatures[1:]:
        merged = _merge_tails(merged, _normalized_tail(curv))
    tail, t_tail = merged

    funcs = list(curvatures) + [lambda t: np.zeros_like(np.asarray(t, dtype=float))]
    bp = [c.breakpoints for c in curvatures]
    bp.append(np.asarray([t_tail]))
    grid = _scan_grid(np.unique(np.concatenate(bp)), t_tail)
    kinks = _refined_crossings(funcs, grid)
    all_bp = np.unique(np.concatenate(
        [np.concatenate(bp), np.asarray(kinks, dtype=float), [0.0, t_tail]]))
    all_bp = all_bp[(all_bp >= 0.0) & (all_bp <= t_tail)]

    def envelope(t):
        arr = np.asarray(t, dtype=float)
        out = np.zeros_like(arr)
        for c in curvatures:
            out = np.minimum(out, c(arr))
        return out

    core = FormulaCore(envelope, breakpoints=all_bp)
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

    edges = [0.0, *(float(b) for b in curv.breakpoints if 0.0 < b < curv.t_tail), curv.t_tail]
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
