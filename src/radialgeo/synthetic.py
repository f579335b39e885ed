"""Rotationally symmetric test manifolds with a pole.

These are the ground-truth instances for the volume-growth machinery: around
a pole the metric dt^2 + g(t)^2 dtheta^2 on the (n-1)-sphere makes radii,
curvatures, ray sets, and ball volumes all computable from the single scalar
profile g, so every inequality the criteria module consumes can be checked
against exact values here. Nothing in this module handles general manifolds;
instances where the ray set would need cut-locus analysis are rejected.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline

from .curvature import ConstantTail, RadialCurvature, SplineCore
from .errors import DomainError, UnsupportedManifoldError
from .volume import model_ball_volume, unit_sphere_volume
from .warping import DEFAULT_REL_TOL, WarpingSolution, default_horizon, solve_warping

# grid pitch for values-only reconstruction of the profile's second derivative
_RECON_STEP = 1.0 / 512.0
# reconstruction accuracy is capped by the spline differentiation, not the ODE
_RECON_TOL = 1e-4
_T_FLOOR_EXACT = 1e-8


def _check_dimension(n) -> int:
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise DomainError(f"dimension must be an integer >= 2, got {n!r}")
    return int(n)


class RotSymManifold:
    """Complete rotationally symmetric n-manifold with metric
    dt^2 + g(t)^2 dtheta^2 around a pole, g solved from a radial curvature.

    When the generating curvature is kept (the default), radial curvature
    queries differentiate the stored dense profile, which is exact at the
    solver grid nodes. ``hide_curvature=True`` simulates an instance known
    only through a profile table: second derivatives then come from a
    twice-differentiated value spline, accuracy degrades to about 1e-4, and
    ``profile_derived`` is set so downstream reports can flag it.
    """

    def __init__(self, dimension: int, warping: WarpingSolution,
                 curvature: RadialCurvature | None = None):
        self._n = _check_dimension(dimension)
        self._warping = warping
        self._curvature = curvature
        self._recon = None  # lazy spline of m'' from the (t, m') table

    @classmethod
    def from_curvature(cls, dimension: int, curvature: RadialCurvature,
                       t_max: float | None = None,
                       rel_tol: float = DEFAULT_REL_TOL,
                       hide_curvature: bool = False) -> "RotSymManifold":
        if t_max is None:
            t_max = default_horizon(curvature)
        warping = solve_warping(curvature, t_max, rel_tol)
        return cls(dimension, warping, None if hide_curvature else curvature)

    @property
    def dimension(self) -> int:
        return self._n

    @property
    def warping(self) -> WarpingSolution:
        return self._warping

    @property
    def t_max(self) -> float:
        return self._warping.t_max

    @property
    def curvature(self) -> RadialCurvature | None:
        """Generating curvature, or None for profile-derived instances."""
        return self._curvature

    @property
    def profile_derived(self) -> bool:
        """True when curvature queries rely on the degraded values-only
        reconstruction rather than the generating curvature's profile."""
        return self._curvature is None

    # -- radial curvature ----------------------------------------------------

    def _reconstructed_second(self):
        if self._recon is None:
            w = self._warping
            n_pts = max(int(round(w.t_max / _RECON_STEP)) + 1, 16)
            grid = np.linspace(0.0, w.t_max, n_pts)
            mp = w.m_prime(grid)
            # m' is even around the pole; mirroring keeps the fitted spline's
            # derivative odd there instead of leaking boundary artifacts
            full_grid = np.concatenate([-grid[:0:-1], grid])
            full_mp = np.concatenate([mp[:0:-1], mp])
            self._recon = CubicSpline(full_grid, full_mp).derivative()
        return self._recon

    def radial_sectional(self, t):
        """Sectional curvature of planes containing the radial direction,
        -g''/g, with the even-extension limit at the pole."""
        arr = np.asarray(t, dtype=float)
        if np.any(arr < -1e-12):
            raise DomainError("radial curvature is defined for t >= 0")
        if self._curvature is not None:
            floor = _T_FLOOR_EXACT
            t_eff = np.maximum(arr, floor)
            out = -self._warping.m_second(t_eff) / self._warping.m(t_eff)
        else:
            # the mirrored spline is accurate down to the pole; the floor only
            # dodges the 0/0 at t = 0 itself
            recon = self._reconstructed_second()
            t_eff = np.maximum(arr, 1e-5)
            np.minimum(t_eff, self._warping.t_max, out=t_eff)
            out = -recon(t_eff) / self._warping.m(t_eff)
        return float(out) if np.ndim(t) == 0 else out

    def radial_ricci(self, t):
        """Normalized radial Ricci curvature. All sectional curvatures of
        radial planes coincide on this class, so it equals radial_sectional;
        kept as its own operation because callers bound it independently."""
        return self.radial_sectional(t)

    def curvature_envelope(self, t_max: float | None = None,
                           grid_step: float = 1.0 / 64.0) -> RadialCurvature:
        """Lower curvature envelope over all directions as a RadialCurvature.

        On this symmetric class the minimum over directions is the pointwise
        radial value. With the generating curvature present that minimum IS
        the generating curvature, so it is returned as-is (exact; sampling
        could only lose accuracy near its kinks). On profile-derived
        instances the value is sampled on a grid and splined, and the tail is
        read off the boundary sample (constant or zero); a boundary value
        more positive than the reconstruction tolerance cannot be capped by
        any available tail family and is rejected.
        """
        if grid_step <= 0:
            raise DomainError("grid_step must be positive")
        k = self._curvature
        if t_max is None:
            t_max = self.t_max if k is None else max(k.t_tail, min(self.t_max, 10.0))
        if t_max <= 0:
            raise DomainError("envelope horizon must be positive")

        if k is not None:
            return k

        if t_max > self.t_max * (1 + 1e-12):
            raise DomainError(
                f"profile-derived envelope horizon must lie within the solved "
                f"range (0, {self.t_max:.6g}]")
        end = float(t_max)
        grid = np.linspace(0.0, end, max(int(math.ceil(end / grid_step)) + 1, 4))
        values = np.asarray(self.radial_sectional(grid), dtype=float)
        c_end = float(values[-1])
        if c_end > _RECON_TOL:
            raise UnsupportedManifoldError(
                "boundary curvature is positive beyond the reconstruction "
                "tolerance; no declared tail family can extend it. Construct "
                "the instance with its generating curvature instead.")
        # a boundary value within 1e-9 of zero ends in a flat tail
        values[-1] = 0.0 if c_end > -1e-9 else c_end
        return RadialCurvature(SplineCore(grid, values), ConstantTail(values[-1]), end)

    # -- rays and volumes ------------------------------------------------------

    def ray_mass(self) -> float:
        """Measure of initial directions spawning rays. When g' > 0
        everywhere each meridian is minimizing forever, so the ray set is the
        whole unit sphere and its measure is the full sphere volume."""
        if float(np.min(self._warping.m_prime_values)) <= 0.0:
            raise UnsupportedManifoldError(
                "profile slope is not everywhere positive; the ray set is not "
                "determined without cut-locus analysis")
        return unit_sphere_volume(self._n - 1)

    def ball_volume(self, t: float) -> float:
        """Volume of the metric ball of radius t around the pole."""
        return model_ball_volume(self._n, self._warping, t)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        if self._curvature is None:
            raise UnsupportedManifoldError(
                "profile-derived instance has no declared curvature to serialize")
        doc = {"n": self._n}
        doc.update(self._curvature.to_json())
        doc["t_max"] = self.t_max
        return doc

    @classmethod
    def from_json(cls, doc: dict, rel_tol: float = DEFAULT_REL_TOL) -> "RotSymManifold":
        if "n" not in doc:
            raise DomainError("manifold document requires an 'n' field")
        n = _check_dimension(doc["n"])
        body = {key: val for key, val in doc.items() if key not in ("n", "t_max")}
        curvature = RadialCurvature.from_json(body)
        t_max = float(doc.get("t_max", default_horizon(curvature)))
        return cls.from_curvature(n, curvature, t_max=t_max, rel_tol=rel_tol)

    def __repr__(self):
        source = "profile" if self._curvature is None else "curvature"
        return (f"RotSymManifold(n={self._n}, t_max={self.t_max!r}, "
                f"source={source})")
