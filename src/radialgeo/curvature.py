"""Radial curvature functions on [0, infinity) with declared tail behavior.

A curvature function is split at t_tail into a numeric core and a closed-form
tail. The split is what makes improper integrals over [0, inf) decidable:
quadrature handles the core, the tail contributes in closed form or forces a
declared divergence. Three tail classes are supported:

* ``ZeroTail``      -- curvature vanishes beyond t_tail,
* ``PowerLawTail``  -- c * (t / t_tail)**(-p) with p > 2 (integrable moment),
* ``ConstantTail``  -- constant c < 0 (moment diverges to -inf).

Tails own their closed forms: ``moment`` is the integral of t * tail(t) from
a point past the anchor to infinity, and ``km_remainder`` the integral of
tail(t) * (m_T + m'_T (t - T)) from T to infinity, the k*m remainder under a
linearly extended warping function. Everything beyond t_tail that the
comparison needs (the curvature moment, the slope limit of m', whether ball
volumes diverge) is read from these. Zero curvature has one encoding:
``RadialCurvature`` replaces a tail that is zero at its anchor (a zero
constant or a zero power-law coefficient) with ``ZeroTail``.

Cores are either cubic splines over breakpoints or closed-form callables.
Pointwise minima (the nonpositive envelope used by the growth criteria) are
represented exactly by lazy evaluation over the merged breakpoint grid, with
kink locations refined by bisection so downstream quadrature can split there.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .errors import DomainError

NEG_INFINITY = float("-inf")

# Junction mismatch above this (relative to curvature scale) is a construction error.
_JUNCTION_TOL = 1e-8
# Dense sampling used for sign checks and kink scans.
_SCAN_POINTS = 801
# Arguments that RadialCurvature evaluates as one float.
_SCALAR_TYPES = (float, int, np.floating, np.integer)


class ZeroTail:
    """Curvature identically zero beyond t_tail."""

    kind = "zero"

    def value(self, t, t_tail):
        return np.zeros_like(np.asarray(t, dtype=float))

    def value_at_anchor(self, t_tail):
        return 0.0

    def moment(self, t_from, t_tail):
        return 0.0

    def km_remainder(self, T, m_T, m_prime_T, t_tail):
        return 0.0

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

    def km_remainder(self, T, m_T, m_prime_T, t_tail):
        c, p = self.c, self.p
        return c * t_tail ** p * (
            m_T * T ** (1.0 - p) / (p - 1.0)
            + m_prime_T * T ** (2.0 - p) / ((p - 1.0) * (p - 2.0)))

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

    def km_remainder(self, T, m_T, m_prime_T, t_tail):
        return NEG_INFINITY

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
        return np.broadcast_to(
            np.asarray(eval(code, {"__builtins__": {}}, {**_EXPR_NAMESPACE, "t": t}),
                       dtype=float),
            np.shape(t),
        ).copy() if np.ndim(t) else float(
            eval(code, {"__builtins__": {}}, {**_EXPR_NAMESPACE, "t": t})
        )

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
        # scalars (one per stage of the ODE right-hand side) skip the masks
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
            else:
                raise DomainError(f"unknown core kind {kind!r}")
            return cls(core, tail, t_tail)
        except DomainError:  # a ValueError too; its message already says what is wrong
            raise
        except KeyError as exc:
            raise DomainError(f"curvature object missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
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

    @classmethod
    def from_function(cls, func, t_tail, tail=None, expr=None, breakpoints=None):
        core = FormulaCore(func, expr=expr, breakpoints=breakpoints)
        return cls(core, tail if tail is not None else ZeroTail(), t_tail)

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


def nonpositive_part(curv: RadialCurvature) -> RadialCurvature:
    """min(0, curvature): the floor used by the sectional-bound criterion."""
    return nonpositive_min(curv)


# ---------------------------------------------------------------------------
# Moment integral
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentIntegral:
    """Value of the improper integral of t * k(t) over [0, inf).

    ``value`` is -inf when a negative constant tail makes it diverge;
    ``abs_error`` is the quadrature's own error estimate for the core part
    (tail contributions are closed-form exact).
    """

    value: float
    abs_error: float

    @property
    def divergent(self) -> bool:
        return self.value == NEG_INFINITY


def moment_integral(curv: RadialCurvature) -> MomentIntegral:
    """First moment of a nonpositive curvature function over [0, inf).

    The input must be nonpositive (apply nonpositive_min / nonpositive_part
    first); this keeps the improper integral monotone and its divergence
    one-sided, so the answer is either a finite value <= 0 or -inf.
    """
    if not curv.is_nonpositive():
        raise DomainError(
            "moment_integral requires a nonpositive curvature; "
            "take nonpositive_min(...) or nonpositive_part(...) first"
        )
    tail_part = curv.tail.moment(curv.t_tail, curv.t_tail)
    if tail_part == NEG_INFINITY:
        return MomentIntegral(NEG_INFINITY, 0.0)

    pts = [float(b) for b in curv.breakpoints if 0.0 < b < curv.t_tail]
    core_val, core_err = integrate.quad(
        lambda t: t * curv(t), 0.0, curv.t_tail,
        points=pts or None, limit=max(200, 10 * (len(pts) + 1)),
        epsabs=1e-12, epsrel=1e-12,
    )
    value = core_val + tail_part
    if value > 0.0:  # quadrature noise on an identically-zero integrand
        value = min(value, 0.0)
    return MomentIntegral(value, core_err)
