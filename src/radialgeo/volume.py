"""Volume calculus for rotationally symmetric balls and spheres.

Unit-sphere volumes come from the dimension recurrence so no special
functions are needed; the cap fraction (normalized integral of sin^(n-2))
and cap volumes share the same quadrature kernel, which makes the identity
cap_volume = omega_{n-1} * cap_fraction numerically tight. Ball volumes in a
model integrate m^(n-1) piecewise-exactly against the warping interpolant.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate

from .curvature import NEG_INFINITY, RadialCurvature
from .errors import (
    ConditionB1ViolatedError,
    ConjugatePointError,
    DomainError,
    HorizonExceededError,
)
from .warping import WarpingSolution, solve_warping

_MONOTONE_TOL = 1e-9


@lru_cache(maxsize=None)
def _sin_power_half_integral(q: int) -> float:
    """Integral of sin(t)^q over [0, pi/2]."""
    if q == 0:
        return math.pi / 2.0
    val, _ = integrate.quad(lambda t: math.sin(t) ** q, 0.0, math.pi / 2.0,
                            epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def _sin_power_integral(q: int, upper: float) -> float:
    """Integral of sin(t)^q over [0, upper], upper in [0, pi].

    Split at pi/2 so symmetric arguments give exactly symmetric values
    (in particular the half-sphere value is exact by construction).
    """
    if upper <= math.pi / 2.0:
        if q == 0:
            return upper
        val, _ = integrate.quad(lambda t: math.sin(t) ** q, 0.0, upper,
                                epsabs=1e-13, epsrel=1e-13, limit=200)
        return val
    return 2.0 * _sin_power_half_integral(q) - _sin_power_integral(q, math.pi - upper)


@lru_cache(maxsize=None)
def unit_sphere_volume(k: int) -> float:
    """Volume of the unit k-sphere via the recurrence
    omega_k = omega_{k-1} * integral of sin^(k-1) over [0, pi], omega_0 = 2."""
    if k < 0:
        raise DomainError("sphere dimension must be >= 0")
    if k == 0:
        return 2.0
    return unit_sphere_volume(k - 1) * 2.0 * _sin_power_half_integral(k - 1)


def cap_fraction(n: int, r: float) -> float:
    """Fraction of unit (n-1)-sphere volume within angular radius r.

    Strictly increasing bijection [0, pi] -> [0, 1]; equals 1/2 at pi/2 for
    every dimension by symmetry (the reflection identity
    F(pi - r) = 1 - F(r) holds exactly by construction).
    """
    _check_dim(n)
    if not 0.0 <= r <= math.pi + 1e-15:
        raise DomainError(f"angular radius must lie in [0, pi], got {r}")
    r = min(r, math.pi)
    full = 2.0 * _sin_power_half_integral(n - 2)
    return _sin_power_integral(n - 2, r) / full


def cap_volume(n: int, delta: float) -> float:
    """Volume of the set of unit directions within angle delta of a fixed
    axis: omega_{n-2} times the integral of sin^(n-2) up to delta."""
    _check_dim(n)
    if not 0.0 <= delta <= math.pi + 1e-15:
        raise DomainError(f"cap angle must lie in [0, pi], got {delta}")
    return unit_sphere_volume(n - 2) * _sin_power_integral(n - 2, min(delta, math.pi))


def _check_dim(n: int):
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise DomainError(f"dimension must be an integer >= 2, got {n!r}")


# ---------------------------------------------------------------------------
# Model ball volumes
# ---------------------------------------------------------------------------


def model_ball_volume(n: int, w: WarpingSolution, t: float) -> float:
    """Volume omega_{n-1} * integral of m(r)^(n-1) dr of the t-ball around
    the pole of the n-dimensional model with warping m.

    The integrand is a piecewise polynomial (the warping interpolant raised
    to n-1), so per-cell Gauss rules of matching order integrate it exactly;
    accuracy is limited only by the ODE tolerance.
    """
    _check_dim(n)
    if not t >= 0:  # also rejects NaN
        raise DomainError(f"ball radius must be nonnegative, got {t}")
    if t > w.t_max * (1.0 + 1e-12):
        raise HorizonExceededError(
            f"ball radius {t:.6g} exceeds solved horizon {w.t_max:.6g}")
    t = min(t, w.t_max)
    if t == 0.0:
        return 0.0
    edges = w.grid[w.grid < t]
    edges = np.append(edges, t)
    degree = 5 * (n - 1)
    nodes, weights = leggauss(degree // 2 + 1)
    lo, hi = edges[:-1], edges[1:]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * nodes[None, :]
    vals = w.m(x.ravel()).reshape(x.shape) ** (n - 1)
    return unit_sphere_volume(n - 1) * float(np.sum(half * (vals @ weights)))


# ---------------------------------------------------------------------------
# Volume class of a model at infinity (condition B-1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallVolumeClass:
    """Whether model ball volumes diverge, with the total when they do not.

    kind is 'divergent' or 'finite'. For 'finite', ``total`` carries the
    limit volume (solved part plus the closed-form decaying tail).
    """

    kind: str
    total: float | None
    note: str


def classify_ball_volume(n: int, k: RadialCurvature,
                         warping: WarpingSolution | None = None,
                         rel_tol: float = 1e-12) -> BallVolumeClass:
    """Decide divergence of ball volumes in the n-model built from k.

    The decision is made analytically at the tail anchor rather than by
    integrating far out. The tail's moment tells the cases apart; with
    f = m(t_tail) and s = m'(t_tail),

    * zero moment (zero tail): m is linear beyond, so s > 0 diverges, s < 0
      hits zero (conjugate point), s = 0 stays constant and still diverges;
    * divergent moment (constant tail c < 0): solutions split into
      growing/decaying exponential modes; the growing-mode amplitude is
      proportional to s + sqrt(-c) f, whose sign decides between divergence,
      a decaying (finite-volume) model, and a conjugate point;
    * finite moment (power-law tail), with f and s read at the solved
      horizon T instead: for c < 0 the curvature is nonpositive there, so
      any s > 0 diverges; for c > 0, m' keeps decreasing but by no more than
      the tail's k*m remainder under m <= f + s (t - T), so s above that
      remainder diverges. Otherwise the horizon is extended and the test
      repeated.

    Numerical integration alone cannot certify the borderline decaying case
    (the growing mode amplifies roundoff exponentially), which is why the
    mode split at the anchor is used instead.
    """
    _check_dim(n)
    t_anchor = k.t_tail
    w = warping
    if w is None or w.t_max < t_anchor:
        w = solve_warping(k, max(10.0, 1.25 * t_anchor), rel_tol)

    tail = k.tail
    tail_moment = tail.moment(t_anchor, t_anchor)
    if tail_moment == 0.0 or tail_moment == NEG_INFINITY:
        f = float(w.m(t_anchor))
        s = float(w.m_prime(t_anchor))
        scale = abs(s) + abs(f)

        if tail_moment == 0.0:
            if s < -1e-12 * scale:
                raise ConjugatePointError(
                    t_anchor + f / (-s),
                    "flat tail with decreasing warping crosses zero")
            return BallVolumeClass("divergent", None,
                                   "flat tail, nondecreasing linear warping")

        root = math.sqrt(-tail.value_at_anchor(t_anchor))
        amp = s + root * f  # growing-mode amplitude (up to a positive factor)
        if amp > 1e-9 * scale:
            return BallVolumeClass("divergent", None,
                                   "growing exponential mode present")
        if amp < -1e-9 * scale:
            raise ConjugatePointError(
                t_anchor + 1.0,
                "decaying tail overshoots: warping will cross zero")
        solved = model_ball_volume(n, w, t_anchor)
        tail_vol = unit_sphere_volume(n - 1) * f ** (n - 1) / ((n - 1) * root)
        return BallVolumeClass(
            "finite", solved + tail_vol,
            "pure decaying mode at the tail anchor; closed-form tail volume")

    horizon_mult = 1
    while True:
        T = w.t_max
        f = float(w.m(T))
        s = float(w.m_prime(T))
        scale = abs(s) + abs(f)
        if tail.value_at_anchor(t_anchor) < 0:
            if s > 1e-12 * scale:
                return BallVolumeClass("divergent", None,
                                       "nonpositive tail with positive slope")
        elif s - tail.km_remainder(T, f, max(s, 0.0), t_anchor) > 1e-12 * scale:
            return BallVolumeClass("divergent", None,
                                   "slope stays positive under the tail bound")
        if horizon_mult >= 64:
            raise DomainError(
                "could not classify ball volume growth within 64x the tail anchor")
        horizon_mult *= 2
        w = solve_warping(k, w.t_max * 2.0, rel_tol)


# ---------------------------------------------------------------------------
# Growth ratios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthRatio:
    """Sampled ratio of ball volumes at increasing horizons.

    samples : list of (t, numerator volume, denominator volume, ratio)
    limit_estimate : last-horizon ratio
    monotone_nonincreasing : whether ratios never rise beyond 1e-9
    first_violation : (t_prev, r_prev, t_next, r_next) for the first rise,
        or None
    dominated : caller-declared curvature domination (numerator curvature
        >= denominator curvature pointwise), which forces ratios into [0, 1]
    """

    n: int
    samples: list = field(default_factory=list)
    limit_estimate: float = math.nan
    monotone_nonincreasing: bool = False
    first_violation: tuple | None = None
    dominated: bool = False

    def bracket(self) -> tuple[float, float]:
        """Trend-based enclosure for the limit of the ratio.

        The last sample bounds the limit from above when the sequence is
        nonincreasing; the lower end subtracts the geometric tail of the
        recent drops (drops shrinking by factor q contribute at most
        d*q/(1-q) more). A sequence that is not settling returns a wide,
        honest bracket rather than a sharp guess.
        """
        ratios = [s[3] for s in self.samples]
        if len(ratios) == 1:
            lo = hi = ratios[0]
        else:
            d_last = ratios[-2] - ratios[-1]
            if abs(d_last) <= 1e-12:
                lo = ratios[-1] - 1e-12
                hi = ratios[-1] + 1e-12
            elif self.monotone_nonincreasing:
                hi = ratios[-1]
                q = math.nan
                if len(ratios) >= 3:
                    d_prev = ratios[-3] - ratios[-2]
                    if d_prev > 1e-300:
                        q = d_last / d_prev
                if math.isfinite(q) and 0.0 < q < 0.9:
                    lo = ratios[-1] - d_last * q / (1.0 - q)
                else:
                    lo = 0.0
            else:
                spread = 3.0 * abs(d_last)
                lo, hi = ratios[-1] - spread, ratios[-1] + spread
        if self.dominated:
            lo, hi = max(lo, 0.0), min(hi, 1.0)
            lo = min(lo, hi)
        return lo, hi

    def to_csv(self, path, comment: str | None = None):
        with open(path, "w", newline="") as fh:
            if comment:
                fh.write(f"# {comment}\n")
            writer = csv.writer(fh)
            writer.writerow(["t", "vol_num", "vol_den", "ratio"])
            for t, vn, vd, r in self.samples:
                writer.writerow([repr(t), repr(vn), repr(vd), repr(r)])


def growth_ratio(n: int, numerator: WarpingSolution, denominator: WarpingSolution,
                 horizons, dominated: bool = False) -> GrowthRatio:
    """Ratio of model ball volumes numerator/denominator at given horizons.

    Raises ConditionB1ViolatedError when the denominator's volume stays
    bounded: a finite denominator turns the ratio into a plain number with no
    growth content, and every consumer of the ratio assumes divergence.
    """
    horizons = sorted(float(h) for h in horizons)
    if not horizons:
        raise DomainError("at least one horizon is required")
    if horizons[0] <= 0:
        raise DomainError("horizons must be positive")
    for w, name in ((numerator, "numerator"), (denominator, "denominator")):
        if w.t_max < horizons[-1] * (1.0 - 1e-12):
            raise HorizonExceededError(
                f"{name} solved only to {w.t_max:.6g} but horizons reach "
                f"{horizons[-1]:.6g}")
    den_class = classify_ball_volume(n, denominator.k, warping=denominator)
    if den_class.kind == "finite":
        raise ConditionB1ViolatedError(
            f"denominator ball volumes stay bounded ({den_class.total:.6g}); "
            "growth ratios against it are not defined")
    return _assemble_ratio(n, numerator, denominator, horizons, dominated)


def _assemble_ratio(n, numerator, denominator, horizons, dominated):
    samples = []
    for t in horizons:
        vn = model_ball_volume(n, numerator, t)
        vd = model_ball_volume(n, denominator, t)
        samples.append((t, vn, vd, vn / vd))

    ratios = [s[3] for s in samples]
    monotone = True
    violation = None
    for i in range(len(ratios) - 1):
        if ratios[i + 1] > ratios[i] + _MONOTONE_TOL:
            monotone = False
            violation = (samples[i][0], ratios[i], samples[i + 1][0], ratios[i + 1])
            break
    limit = ratios[-1]
    if dominated:
        limit = min(max(limit, 0.0), 1.0)
    return GrowthRatio(n=n, samples=samples, limit_estimate=limit,
                       monotone_nonincreasing=monotone,
                       first_violation=violation, dominated=dominated)


def bishop_monotonicity_check(ratio: GrowthRatio) -> bool:
    """Volume-comparison sanity check: under declared curvature domination
    the ratio sequence must be nonincreasing (within 1e-9) and every sample
    must lie in [0, 1 + 1e-9]."""
    if not ratio.dominated:
        raise DomainError(
            "monotonicity is only guaranteed under declared curvature domination")
    in_range = all(-1e-12 <= s[3] <= 1.0 + _MONOTONE_TOL for s in ratio.samples)
    return bool(ratio.monotone_nonincreasing and in_range)
