"""Volume calculus for rotationally symmetric balls and spheres.

The integrals of sin^q behind sphere and cap volumes have closed forms in
beta functions: over [0, pi/2] the integral is B((q + 1)/2, 1/2) / 2, and
the cap fraction F(r) (the integral over [0, r] normalized by the one over
[0, pi]) is I(sin^2 r; (q + 1)/2, 1/2) / 2 for r <= pi/2, with I the
regularized incomplete beta function (DLMF 8.17). Past pi/2 the fraction is
1 - F(pi - r), so the reflection identity holds exactly. Unit-sphere volumes
come from the dimension recurrence omega_k = omega_{k-1} B(k/2, 1/2). A cap
volume is omega_{n-2} times the integral of sin^(n-2) up to its angle, so
comparing it with omega_{n-1} * F checks the recurrence. A ball volume in a
model is omega_{n-1} times the integral of m^(n-1), which each warping
solution reads from a cumulative table over its cells (one per exponent,
grown to the cell of the largest radius read, exact for the piecewise
quintic interpolant) plus one Gauss panel in the cell holding the radius.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .curvature import NEG_INFINITY, RadialCurvature
from .errors import ConditionB1ViolatedError, DomainError
from .warping import WarpingSolution, solve_warping

_MONOTONE_TOL = 1e-9


@lru_cache(maxsize=None)
def _sin_power_half_integral(q: int) -> float:
    """Integral of sin(t)^q over [0, pi/2]."""
    if q == 0:
        return math.pi / 2.0
    return 0.5 * float(special.beta(0.5 * (q + 1), 0.5))


@lru_cache(maxsize=None)
def unit_sphere_volume(k: int) -> float:
    """Volume of the unit k-sphere via the recurrence
    omega_k = omega_{k-1} * integral of sin^(k-1) over [0, pi], omega_0 = 2,
    which stays 0 once it underflows (k >= 455)."""
    if k < 0:
        raise DomainError("sphere dimension must be >= 0")
    omega, j = 2.0, 0
    while j < k and omega > 0.0:
        omega, j = omega * 2.0 * _sin_power_half_integral(j), j + 1
    return omega


def cap_fraction(n: int, r: float) -> float:
    """Fraction of unit (n-1)-sphere volume within angular radius r.

    Strictly increasing bijection [0, pi] -> [0, 1]; equals 1/2 at pi/2 for
    every dimension by symmetry. Past pi/2 it is computed as 1 - F(pi - r),
    so the reflection identity F(pi - r) = 1 - F(r) holds exactly whenever
    pi - r is exact (r in [pi/2, pi]).
    """
    _check_dim(n)
    if not 0.0 <= r <= math.pi + 1e-15:
        raise DomainError(f"angular radius must lie in [0, pi], got {r}")
    r = min(r, math.pi)
    if r > math.pi / 2.0:
        return 1.0 - cap_fraction(n, math.pi - r)
    return 0.5 * float(special.betainc(0.5 * (n - 1), 0.5, math.sin(r) ** 2))


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
    to n-1), which Gauss rules of matching order integrate exactly; accuracy
    is limited only by the ODE tolerance. A t > 0 volume that underflows to
    0 or overflows (large n) raises DomainError. The integral comes from
    ``WarpingSolution.power_integral``: a call grows the solution's table
    for the dimension to the cell holding t, if it ends before, and adds
    one panel from the last node below t to t (carrying the solution on
    first if t is past it), so growth-ratio horizons, read largest first,
    cost a panel each.
    """
    _check_dim(n)
    if not t >= 0:  # also rejects NaN
        raise DomainError(f"ball radius must be nonnegative, got {t}")
    omega = unit_sphere_volume(n - 1)
    # omega = 0 skips the m^(n-1) table, whose Gauss rule has order ~5n/2
    vol = omega * w.power_integral(n - 1, t) if omega > 0.0 else 0.0
    if t > 0 and not 0.0 < vol < math.inf:
        raise DomainError(f"ball volume of radius {t:.6g} in dimension {n} is "
                          "not a positive finite float")
    return vol


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
                         warping: WarpingSolution | None = None) -> BallVolumeClass:
    """Decide divergence of ball volumes in the n-model built from k.

    The decision is made in closed form at the tail anchor a, not by
    integrating far out (a growing mode amplifies roundoff exponentially):
    the tail's ``continuation`` carries the state (m, m') at a, read from
    the node values of ``warping`` (a solution of k itself, else DomainError)
    or of a solve to a when none is given, to the limit of m' at infinity.

    * A zero of m past the anchor raises ConjugatePointError there.
    * An infinite limit (growing mode of a constant tail c < 0) or any
      other limit of a zero or power-law tail diverges: a limit > 0 makes m
      grow linearly, and a zero limit leaves m at a positive constant.
    * A zero limit of a constant tail is its pure decaying mode,
      m = m(a) exp(-sqrt(-c) (t - a)): the total is the solved part plus
      the closed-form tail volume.
    """
    _check_dim(n)
    if warping is not None and warping.k is not k:
        raise DomainError("the warping solution is of another curvature")
    t_anchor = k.t_tail
    w = solve_warping(k) if warping is None else warping
    f, s = w.anchor_state()
    limit = k.tail.continuation(t_anchor, f, s)
    if limit == math.inf:
        return BallVolumeClass("divergent", None, "growing exponential mode present")
    if limit != 0.0 or k.tail.moment(t_anchor, t_anchor) != NEG_INFINITY:
        return BallVolumeClass("divergent", None, f"warping slope tends to {limit!r}")
    root = math.sqrt(-k.tail.c)
    solved = model_ball_volume(n, w, t_anchor)
    tail_vol = unit_sphere_volume(n - 1) * f ** (n - 1) / ((n - 1) * root)
    return BallVolumeClass(
        "finite", solved + tail_vol,
        "pure decaying mode at the tail anchor; closed-form tail volume")


# ---------------------------------------------------------------------------
# Growth ratios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthRatio:
    """Sampled ratio of ball volumes at increasing horizons.

    samples : list of (t, numerator volume, denominator volume, ratio)
    dominated : caller-declared curvature domination (numerator curvature
        >= denominator curvature pointwise), which forces ratios into [0, 1]
    """

    samples: list
    dominated: bool = False

    @property
    def first_violation(self) -> tuple | None:
        """(t_prev, r_prev, t_next, r_next) of the first rise beyond 1e-9, or None."""
        for (t0, *_, r0), (t1, *_, r1) in zip(self.samples, self.samples[1:]):
            if r1 > r0 + _MONOTONE_TOL:
                return t0, r0, t1, r1
        return None

    @property
    def monotone_nonincreasing(self) -> bool:
        """Whether the ratios never rise beyond 1e-9."""
        return self.first_violation is None

    def bracket(self) -> tuple[float, float]:
        """Enclosure for the limit of the ratio.

        A sequence that has settled (last drop at most 1e-12) is its own
        limit within 1e-12. The last sample bounds the limit from above when
        the sequence is nonincreasing; while it is still dropping, the samples
        give no lower bound on the limit, so the lower end is 0. A sequence
        that is not settling returns a wide, honest bracket rather than a
        sharp guess. Volumes are positive, so no lower end is below 0.
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
                lo, hi = 0.0, ratios[-1]
            else:
                spread = 3.0 * abs(d_last)
                lo, hi = ratios[-1] - spread, ratios[-1] + spread
        lo = max(lo, 0.0)
        if self.dominated:
            hi = min(hi, 1.0)
            lo = min(lo, hi)
        return lo, hi

    def to_csv(self, path, comment: str):
        with open(path, "w", newline="") as fh:
            fh.write(f"# {comment}\n")
            writer = csv.writer(fh)
            writer.writerow(["t", "vol_num", "vol_den", "ratio"])
            for t, vn, vd, r in self.samples:
                writer.writerow([repr(t), repr(vn), repr(vd), repr(r)])


def _checked_horizons(horizons) -> tuple:
    hs = tuple(sorted(float(h) for h in horizons))
    if not hs:
        raise DomainError("at least one growth horizon is required")
    if hs[0] <= 0 or not all(math.isfinite(h) for h in hs):
        raise DomainError(f"growth horizons must be positive and finite, got {hs}")
    return hs


def growth_ratio(n: int, numerator: WarpingSolution, denominator: WarpingSolution,
                 horizons, dominated: bool = False) -> GrowthRatio:
    """Ratio of model ball volumes numerator/denominator at given horizons.

    Raises ConditionB1ViolatedError when the denominator's volume stays
    bounded: a finite denominator turns the ratio into a plain number with no
    growth content, and every consumer of the ratio assumes divergence.
    """
    horizons = _checked_horizons(horizons)
    den_class = classify_ball_volume(n, denominator.k, warping=denominator)
    if den_class.kind == "finite":
        raise ConditionB1ViolatedError(
            f"denominator ball volumes stay bounded ({den_class.total:.6g}); "
            "growth ratios against it are not defined")
    return _assemble_ratio(n, numerator, denominator, horizons, dominated)


def _assemble_ratio(n, numerator, denominator, horizons, dominated):
    samples = []
    for t in reversed(horizons):  # largest first: each volume table is built once
        vn = model_ball_volume(n, numerator, t)
        vd = model_ball_volume(n, denominator, t)
        samples.append((t, vn, vd, vn / vd))
    return GrowthRatio(samples[::-1], dominated)
