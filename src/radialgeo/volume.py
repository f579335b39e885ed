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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .curvature import RadialCurvature
from .errors import ConditionB1ViolatedError, DomainError
from .warping import DEFAULT_REL_TOL, WarpingSolution, solve_warping

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
    integrating far out (a growing mode amplifies roundoff exponentially),
    from the tail's limit L within e (``WarpingSolution.tail_limit``) of
    ``warping`` (a solution of k itself, else DomainError) or of a solve.

    * A zero of m past the anchor raises ConjugatePointError there.
    * A zero or power-law tail diverges (m grows linearly or tends to a
      positive constant); a slope within e of 0 is noted with its error.
    * A constant tail c < 0 diverges when its growing-mode amplitude L
      exceeds e. Within e, m is its pure decaying mode to within the
      solve's error: the total is the solved part plus the closed-form tail
      volume, and the note gives the amplitude with its error.
    """
    _check_dim(n)
    if warping is not None and warping.k is not k:
        raise DomainError("the warping solution is of another curvature")
    w = solve_warping(k) if warping is None else warping
    limit, err = w.tail_limit
    if not k.tail.order:
        note = f"warping slope tends to {limit!r}"
        return BallVolumeClass("divergent", None, note if limit > err else f"{note} +/- {err!r}")
    if limit > err:
        return BallVolumeClass("divergent", None, "growing exponential mode present")
    solved, omega = model_ball_volume(n, w, k.t_tail), unit_sphere_volume(n - 1)
    tail_vol = omega * w.anchor_state()[0] ** (n - 1) / ((n - 1) * k.tail.order)
    return BallVolumeClass(
        "finite", solved + tail_vol,
        f"pure decaying mode at the tail anchor (growing-mode amplitude {limit!r} +/- "
        f"{err!r}); closed-form tail volume")


# ---------------------------------------------------------------------------
# Growth ratios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthRatio:
    """Ratio of ball volumes at increasing horizons, with the leading terms
    of both warping functions at infinity (``_leading_term``).

    samples : list of (t, numerator volume, denominator volume, ratio)
    dominated : caller-declared curvature domination (numerator curvature
        >= denominator curvature pointwise): ratios nonincreasing, in [0, 1]
    """

    samples: list
    dominated: bool
    n: int
    terms: tuple

    @property
    def monotone_nonincreasing(self) -> bool:
        """Whether the ratios never rise beyond 1e-9."""
        return all(b[3] <= a[3] + _MONOTONE_TOL for a, b in zip(self.samples, self.samples[1:]))

    def limit(self) -> tuple[float, float] | None:
        """(L, e_L): 0 for a numerator of lower order, exp((n - 1) (log
        coefficient difference)) for equal orders, with e_L = (n - 1) (d_N +
        d_D) L from the relative errors d of the two tails' limits, each read
        n - 1 times, or (0, U) if the numerator's limit is within its error,
        U the largest limit (L_N + e_N) / (L_D - e_D) allows; else None."""
        (r_num, c_num, d_num), (r_den, c_den, d_den) = self.terms
        if d_den is None or r_num > r_den:
            return None
        if r_num < r_den:
            return 0.0, 0.0
        if d_num is None:  # c_num is log (L_N + e_N) - r a, taken over L_D - e_D
            x = (self.n - 1) * (c_num - c_den - math.log1p(-d_den))
            return (0.0, math.exp(x)) if x <= 709.0 else None
        if (x := (self.n - 1) * (c_num - c_den)) > 709.0:
            return None  # exp overflows past 709.78
        return math.exp(x), (self.n - 1) * (d_num + d_den) * math.exp(x)

    def bracket(self) -> tuple[float, float]:
        """[max(0, L - e_L), L + e_L], DomainError without a limit; under declared
        domination the top is the last ratio, widened by 20 * DEFAULT_REL_TOL
        (two volumes' error) and capped at 1, and no limit leaves lo at 0."""
        limit = self.limit()
        if limit is None and not self.dominated:
            why = ("the denominator's warping slope tends to 0" if self.terms[1][2] is None
                   else "the numerator's ball volumes outgrow the denominator's")
            raise DomainError(f"{why}: the growth ratio has no finite decided limit")
        value, err = limit or (0.0, 0.0)
        last = self.samples[-1][3]
        hi = min(1.0, last * (1.0 + 20.0 * DEFAULT_REL_TOL)) if self.dominated else value + err
        return min(max(0.0, value - err), hi), hi


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


def _leading_term(w: WarpingSolution):
    """(order, log coefficient, relative error) of m at infinity from the
    tail's limit L within e at the anchor a (``WarpingSolution.tail_limit``):
    the tail's order r, log L - r a (less log 2r for r > 0, cancelled by
    equal orders) and e / L; for an L within e of 0, log (L + e) - r a and
    None."""
    limit, err = w.tail_limit
    root, a = w.k.tail.order, w.k.t_tail
    if limit <= err:
        return root, math.log(limit + err) - root * a, None
    return root, math.log(limit) - root * a, err / limit


def _assemble_ratio(n, numerator, denominator, horizons, dominated):
    samples = []
    for t in reversed(horizons):  # largest first: each volume table is built once
        vn = model_ball_volume(n, numerator, t)
        vd = model_ball_volume(n, denominator, t)
        samples.append((t, vn, vd, vn / vd))
    return GrowthRatio(samples[::-1], dominated, n,
                       (_leading_term(numerator), _leading_term(denominator)))
