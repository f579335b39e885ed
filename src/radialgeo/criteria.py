"""Decision procedures tying curvature envelopes to volume growth.

``ricci_pinch_check`` (the main theorem) and ``sectional_pinch_check`` (the
finite-volume corollary) share one body, ``_pinch_check``: the nonpositive
envelope of the model bounds gives the critical angle and the growth
threshold; one solution of the model curvature (``warping=``, as for
``classify_ball_volume``, or a solve) decides hypothesis B-1 (do model ball
volumes diverge?) and gives the t = 16 growth-ratio denominator of a synthetic
numerator, which must dominate each bound on [0, inf) (``_lowest_gap``).
B-2 compares the growth bracket, asserted or from the tails' closed-form
limit, with the threshold, each charged with its own error. Verdicts are
one-directional: a check certifies the conclusion when the hypotheses hold
and otherwise reports Inconclusive; it never claims the converse.

Verdict strings, tri-state values, and the report's JSON field order are wire
format shared with the command-line front end; do not reword them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .curvature import RadialCurvature, _lowest_gap, moment_integral, nonpositive_min
from .errors import DomainError
from .synthetic import RotSymManifold
from .volume import (
    _assemble_ratio,
    _sin_power_half_integral,
    cap_fraction,
    classify_ball_volume,
)
from .warping import WarpingSolution, solve_warping

DEFAULT_HORIZONS = (2.0, 4.0, 8.0, 16.0)
# domination slack in ulps of max(1, |bound|): one function as two cores rounds apart
_ROUNDING_ULPS = 64

VERDICT_DIFFEO = "DiffeoRn"
VERDICT_INCONCLUSIVE = "Inconclusive"
VERDICT_RIGIDITY = "DegenerateRigidity"
B2_HOLDS = "Holds"
B2_FAILS = "Fails"
B2_INCONCLUSIVE = "Inconclusive"


def critical_angle(envelope: RadialCurvature) -> float:
    """(pi/2) * exp of the first curvature moment: directions within this
    angle of a ray cannot be critical for the distance function. Returns 0
    when the moment diverges (the bound degenerates)."""
    return _angle(moment_integral(envelope))


def _angle(mom) -> float:
    return 0.0 if mom.divergent else (math.pi / 2.0) * math.exp(mom.value)


def growth_threshold(n: int, delta: float) -> float:
    """Volume-growth fraction 1 - F(delta) that forces every direction to be
    a ray once the growth limit reaches it."""
    return 1.0 - cap_fraction(n, delta)


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of a pinching check.

    growth_limit is a bracket [lo, hi]; b2_holds is tri-state because a
    bracket straddling the threshold supports no claim in either direction.
    diagnostics carries flags (machine-readable) and notes (human-readable),
    both deterministic for a given input.
    """

    n: int
    delta: float
    threshold: float
    growth_limit: tuple
    b1_holds: bool
    b2_holds: str
    verdict: str
    diagnostics: dict

    def to_json(self) -> dict:
        # field order is stable for diffing; keep in sync with the docstring
        return {
            "n": self.n,
            "delta": self.delta,
            "threshold": self.threshold,
            "growth_limit": [float(self.growth_limit[0]), float(self.growth_limit[1])],
            "b1_holds": self.b1_holds,
            "b2_holds": self.b2_holds,
            "verdict": self.verdict,
            "diagnostics": self.diagnostics,
        }


def _tri_state(growth_limit, threshold: float, threshold_error: float) -> str:
    """B-2 from the bracket, charged with the threshold's own error."""
    lo, hi = growth_limit
    if lo >= threshold + threshold_error:
        return B2_HOLDS
    if hi < threshold - threshold_error:
        return B2_FAILS
    return B2_INCONCLUSIVE


def _checked_bracket(bracket) -> tuple:
    """A declared growth bracket [lo, hi] as floats with 0 <= lo <= hi <= 1."""
    if len(bracket) != 2:
        raise DomainError("a declared growth bracket needs exactly [lo, hi]")
    try:
        lo, hi = float(bracket[0]), float(bracket[1])
    except (TypeError, ValueError, OverflowError):
        raise DomainError("invalid growth bracket: ends must be numbers in [0, 1]") from None
    if not 0.0 <= lo <= hi <= 1.0:  # also rejects NaN
        raise DomainError(f"invalid growth bracket [{lo!r}, {hi!r}]: "
                          "need 0 <= lo <= hi <= 1")
    return lo, hi


def _dominates(f, g):
    """(f >= g on [0, inf) to 64 ulps of max(1, |g|) where the gap is least, that place)"""
    gap, t = _lowest_gap(f, g)
    return gap >= -_ROUNDING_ULPS * np.spacing(max(1.0, abs(g(t)))), t


def _manifold_bracket(n, bounds, numerator, warping, delta, threshold_error):
    """(model ball-volume class, bracket, notes) for a manifold numerator, which
    must dominate each bound. One model solution, ``warping`` or a solve, gives
    the class (B-1) and the denominator of the t = 16 ratio. The bracket is
    ``GrowthRatio.bracket``, or [1, 1] at threshold 1 (delta = 0, met by the
    limit 1 only) where the model dominates the numerator too."""
    if not isinstance(numerator, RotSymManifold):
        raise DomainError(
            "numerator must be a RotSymManifold or a declared [lo, hi] bracket")
    if numerator.dimension != n:
        raise DomainError(
            f"numerator dimension {numerator.dimension} does not match n = {n}")

    model = bounds[0][0]
    den_warping = solve_warping(model) if warping is None else warping
    classification = classify_ball_volume(n, model, warping=den_warping)
    notes = [f"model ball volumes {classification.kind}: {classification.note}"]

    # every radial plane has the same curvature on this class, so the one
    # curvature stands for the radial Ricci and the radial sectional curvature
    own = numerator.curvature
    for i, (bound, label) in enumerate(bounds):
        if any(bound is earlier for earlier, _ in bounds[:i]):
            continue
        dominated, t = _dominates(own, bound)
        if not dominated:
            raise DomainError(
                f"declared domination fails near t = {t:.6g}: "
                f"{label} {own(t):.9g} < model curvature {bound(t):.9g}")
    notes.append("curvature domination verified on the synthetic numerator")

    ratio = _assemble_ratio(n, numerator.warping, den_warping, DEFAULT_HORIZONS[-1:], True)
    limit = ratio.limit()
    read = "growth limit {!r} +/- {!r}".format(*limit) if limit else "no growth limit"
    notes.append(f"{read} from the tails at their anchors; threshold error {threshold_error!r}")
    (t, _vn, _vd, r), = ratio.samples
    notes.append(f"growth ratio at t = {t!r}: {r!r}")
    bracket = (1.0, 1.0) if delta == 0.0 and _dominates(model, own)[0] else ratio.bracket()
    return classification, bracket, notes


def _pinch_check(n, bounds, numerator, warping):
    """The report both checks share, with the main theorem's verdict, and the
    model's total volume. ``bounds`` lists (curvature, label) pairs: all join
    the envelope that sets delta and the threshold, the first is the model.
    The threshold's error is F'(delta) delta times the moment's abs_error."""
    mom = moment_integral(nonpositive_min(*(bound for bound, _label in bounds)))
    delta = _angle(mom)
    threshold = growth_threshold(n, delta)
    # delta = (pi/2) e^moment, F' = sin^(n-2) / (integral of sin^(n-2) over [0, pi])
    threshold_error = (math.sin(delta) ** (n - 2) * delta * mom.abs_error
                       / (2.0 * _sin_power_half_integral(n - 2)))
    if isinstance(numerator, (tuple, list)):
        bracket = _checked_bracket(numerator)
        classification = classify_ball_volume(n, bounds[0][0], warping=warping)
        notes = [f"model ball volumes {classification.kind}: {classification.note}",
                 "growth bracket asserted by caller; domination not verified here"]
    else:
        classification, bracket, notes = _manifold_bracket(
            n, bounds, numerator, warping, delta, threshold_error)
    b1 = classification.kind == "divergent"
    b2 = _tri_state(bracket, threshold, threshold_error)
    verdict = VERDICT_INCONCLUSIVE
    if b1 and b2 == B2_HOLDS:
        verdict = VERDICT_RIGIDITY if delta == 0.0 else VERDICT_DIFFEO
    return CriterionReport(n, delta, threshold, bracket, b1, b2, verdict,
                           {"flags": [], "notes": notes}), classification.total


def ricci_pinch_check(n: int, ricci_bound: RadialCurvature,
                      sectional_bound: RadialCurvature, numerator,
                      warping: WarpingSolution | None = None) -> CriterionReport:
    """Full two-hypothesis check against a radial-Ricci model bound.

    ricci_bound generates the comparison model (volume denominators and the
    divergence hypothesis); sectional_bound joins it in the nonpositive
    envelope that sets the critical angle. The numerator manifold must
    dominate both bounds; declared brackets skip that verification.
    ``warping``, a solution of ricci_bound, saves the model solve.
    """
    report, _total = _pinch_check(
        n, [(ricci_bound, "radial Ricci"), (sectional_bound, "radial sectional")],
        numerator, warping)
    if not report.b1_holds:
        report.diagnostics["notes"].append("hypothesis B-1 fails: model ball volumes stay bounded")
    return report


def sectional_pinch_check(n: int, sectional_bound: RadialCurvature, numerator,
                          warping: WarpingSolution | None = None) -> CriterionReport:
    """Variant needing only a radial-sectional model bound.

    The envelope is the nonpositive part of that single bound. When the
    comparison model's total volume is finite the conclusion holds without
    the growth hypothesis at all; the report then carries the
    FiniteModelVolume flag and b1_holds stays False. ``warping``, a solution
    of sectional_bound, saves the model solve.
    """
    report, total = _pinch_check(
        n, [(sectional_bound, "radial sectional")], numerator, warping)
    if report.b1_holds:
        return report
    report.diagnostics["flags"].append("FiniteModelVolume")
    report.diagnostics["notes"].append(f"total model volume {total!r}; the finite-volume "
                                       "branch certifies the conclusion directly")
    return replace(report, verdict=VERDICT_DIFFEO)
