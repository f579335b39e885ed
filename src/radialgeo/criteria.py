"""Decision procedures tying curvature envelopes to volume growth.

``ricci_pinch_check`` (the main theorem) and ``sectional_pinch_check`` (the
finite-volume corollary) share one body, ``_pinch_check``: the nonpositive
envelope of the model bounds gives the critical angle and the growth
threshold; one solution of the model curvature both decides hypothesis B-1
(do model ball volumes diverge?) and gives the denominators of the growth
ratio of a synthetic numerator, whose own curvature is first checked to
dominate each bound on all of [0, inf) (``_lowest_gap``). An asserted growth
bracket passes through instead. A solution carries itself on to the
horizons read, so none is sized here. A caller holding a solution of the
model curvature passes it as ``warping=`` (as to ``classify_ball_volume``;
a solution of another curvature object raises DomainError) and the check
solves nothing for the model: the command-line front end keeps one
solution per curvature for a whole scenario run. The two checks differ only in their verdict
rules, which compare the growth bracket with the threshold (B-2). Verdicts
are one-directional: a check certifies the conclusion when the hypotheses
hold and otherwise reports Inconclusive; it never claims the converse.

Verdict strings, tri-state values, and the report's JSON field order are wire
format shared with the command-line front end; do not reword them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import RadialCurvature, _lowest_gap, moment_integral, nonpositive_min
from .errors import DomainError
from .synthetic import RotSymManifold
from .volume import (
    _assemble_ratio,
    _checked_horizons,
    cap_fraction,
    classify_ball_volume,
)
from .warping import WarpingSolution, solve_warping

DEFAULT_HORIZONS = (2.0, 4.0, 8.0, 16.0)
# comparison grace for bracket-vs-threshold decisions
_B2_EPS = 1e-9
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
    mom = moment_integral(envelope)
    if mom.divergent:
        return 0.0
    return (math.pi / 2.0) * math.exp(mom.value)


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


def _tri_state(growth_limit, threshold: float) -> str:
    lo, hi = growth_limit
    if lo >= threshold - _B2_EPS:
        return B2_HOLDS
    if hi < threshold - _B2_EPS:
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


def _pinch_check(n, bounds, numerator, horizons, warping):
    """The decision both checks share, up to the verdict.

    ``bounds`` lists (curvature, label) pairs: all of them join the
    nonpositive envelope that sets delta and the threshold, a manifold
    numerator must dominate each on [0, inf) (``_lowest_gap``, to 64 ulps of
    max(1, |bound|) where the gap is least, once per distinct object; the
    label names the failing one), and the first generates the comparison
    model. Its solution is ``warping`` (a solution of that curvature object,
    else DomainError) or, when None, a solve to its tail anchor; it serves
    both the ball-volume class (B-1) and the growth-ratio denominators. The
    ratios read the largest horizon first, so the first volume read carries
    each solution on in one step. Asserted brackets pass through. Returns
    (delta, threshold, model ball-volume class, growth bracket, notes).
    """
    horizons = _checked_horizons(horizons)
    delta = critical_angle(nonpositive_min(*(bound for bound, _label in bounds)))
    threshold = growth_threshold(n, delta)
    model = bounds[0][0]

    if isinstance(numerator, (tuple, list)):
        bracket = _checked_bracket(numerator)
        classification = classify_ball_volume(n, model, warping=warping)
        return delta, threshold, classification, bracket, [
            f"model ball volumes {classification.kind}: {classification.note}",
            "growth bracket asserted by caller; domination not verified here"]
    if not isinstance(numerator, RotSymManifold):
        raise DomainError(
            "numerator must be a RotSymManifold or a declared [lo, hi] bracket")
    if numerator.dimension != n:
        raise DomainError(
            f"numerator dimension {numerator.dimension} does not match n = {n}")

    den_warping = solve_warping(model) if warping is None else warping
    classification = classify_ball_volume(n, model, warping=den_warping)
    notes = [f"model ball volumes {classification.kind}: {classification.note}"]

    # every radial plane has the same curvature on this class, so the one
    # curvature stands for the radial Ricci and the radial sectional curvature
    own = numerator.curvature
    for i, (bound, label) in enumerate(bounds):
        if any(bound is earlier for earlier, _ in bounds[:i]):
            continue
        gap, t = _lowest_gap(own, bound)
        if gap < -_ROUNDING_ULPS * np.spacing(max(1.0, abs(bound(t)))):
            raise DomainError(
                f"declared domination fails near t = {t:.6g}: "
                f"{label} {own(t):.9g} < model curvature {bound(t):.9g}")
    notes.append("curvature domination verified on the synthetic numerator")

    # a bounded denominator leaves the ratio well defined pointwise; only its
    # reading as a growth limit needs B-1, which the verdict rules check
    ratio = _assemble_ratio(n, numerator.warping, den_warping, horizons, True)
    if not ratio.monotone_nonincreasing:
        t0, r0, t1, r1 = ratio.first_violation
        notes.append(f"ratio sequence not monotone: {r0!r} at t = {t0!r} "
                     f"then {r1!r} at t = {t1!r}")
    for t, _vn, _vd, r in ratio.samples:
        notes.append(f"growth ratio at t = {t!r}: {r!r}")
    return delta, threshold, classification, ratio.bracket(), notes


def ricci_pinch_check(n: int, ricci_bound: RadialCurvature,
                      sectional_bound: RadialCurvature, numerator,
                      horizons=DEFAULT_HORIZONS,
                      warping: WarpingSolution | None = None) -> CriterionReport:
    """Full two-hypothesis check against a radial-Ricci model bound.

    ricci_bound generates the comparison model (volume denominators and the
    divergence hypothesis); sectional_bound joins it in the nonpositive
    envelope that sets the critical angle. The numerator manifold must
    dominate both bounds; declared brackets skip that verification.
    ``warping``, a solution of ricci_bound, saves the model solve.
    """
    delta, threshold, classification, growth_limit, notes = _pinch_check(
        n, [(ricci_bound, "radial Ricci"), (sectional_bound, "radial sectional")],
        numerator, horizons, warping)
    b1 = classification.kind == "divergent"
    b2 = _tri_state(growth_limit, threshold)
    if b1 and b2 == B2_HOLDS:
        verdict = VERDICT_RIGIDITY if delta == 0.0 else VERDICT_DIFFEO
    else:
        verdict = VERDICT_INCONCLUSIVE
        if not b1:
            notes.append("hypothesis B-1 fails: model ball volumes stay bounded")
    return CriterionReport(n=n, delta=delta, threshold=threshold,
                           growth_limit=growth_limit, b1_holds=b1, b2_holds=b2,
                           verdict=verdict,
                           diagnostics={"flags": [], "notes": notes})


def sectional_pinch_check(n: int, sectional_bound: RadialCurvature, numerator,
                          horizons=DEFAULT_HORIZONS,
                          warping: WarpingSolution | None = None) -> CriterionReport:
    """Variant needing only a radial-sectional model bound.

    The envelope is the nonpositive part of that single bound. When the
    comparison model's total volume is finite the conclusion holds without
    the growth hypothesis at all; the report then carries the
    FiniteModelVolume flag and b1_holds stays False. ``warping``, a solution
    of sectional_bound, saves the model solve.
    """
    delta, threshold, classification, growth_limit, notes = _pinch_check(
        n, [(sectional_bound, "radial sectional")], numerator, horizons, warping)
    b1 = classification.kind == "divergent"
    b2 = _tri_state(growth_limit, threshold)
    flags = []
    if not b1:
        flags.append("FiniteModelVolume")
        notes.append(f"total model volume {classification.total!r}; the "
                     "finite-volume branch certifies the conclusion directly")
        verdict = VERDICT_DIFFEO
    elif b2 == B2_HOLDS:
        verdict = VERDICT_RIGIDITY if delta == 0.0 else VERDICT_DIFFEO
    else:
        verdict = VERDICT_INCONCLUSIVE
    return CriterionReport(n=n, delta=delta, threshold=threshold,
                           growth_limit=growth_limit, b1_holds=b1, b2_holds=b2,
                           verdict=verdict,
                           diagnostics={"flags": flags, "notes": notes})
