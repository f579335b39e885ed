"""Rotationally symmetric test manifolds with a pole.

These are the ground-truth instances for the volume-growth machinery: around
a pole the metric dt^2 + g(t)^2 dtheta^2 on the (n-1)-sphere makes radii,
curvatures and ball volumes all computable from the single scalar profile g,
which is solved from a declared radial curvature and keeps it, so the criteria
module checks curvature domination on the declared function itself. Nothing
in this module handles general manifolds.
"""

from __future__ import annotations

import sys

from .curvature import RadialCurvature
from .errors import DomainError
from .volume import _check_dim
from .warping import WarpingSolution, solve_warping


class RotSymManifold:
    """Complete rotationally symmetric n-manifold with metric
    dt^2 + g(t)^2 dtheta^2 around a pole, g solved from a radial curvature.

    The generating curvature is the warping's and the one reader of radial
    curvature (radial sectional and normalized radial Ricci coincide here);
    serialization writes it and the t_max reached so far back out. t_max only
    sets where the first solve stops.
    """

    def __init__(self, dimension: int, warping: WarpingSolution):
        _check_dim(dimension)
        self._n = int(dimension)
        self._warping = warping

    @classmethod
    def from_curvature(cls, dimension: int, curvature: RadialCurvature,
                       t_max: float | None = None) -> "RotSymManifold":
        return cls(dimension, solve_warping(curvature, t_max))

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
    def curvature(self) -> RadialCurvature:
        """Generating curvature."""
        return self._warping.k

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        doc = {"n": self._n}
        doc.update(self.curvature.to_json())
        doc["t_max"] = self.t_max
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "RotSymManifold":
        if "n" not in doc:
            raise DomainError("manifold document requires an 'n' field")
        n = doc["n"]
        _check_dim(n)
        body = {key: val for key, val in doc.items() if key not in ("n", "t_max")}
        curvature = RadialCurvature.from_json(body)
        t_max = doc.get("t_max")
        if "t_max" in doc and (isinstance(t_max, bool) or not isinstance(t_max, (int, float))
                               or not 0.0 < t_max <= sys.float_info.max):
            raise DomainError(f"manifold t_max must be a positive finite number, got {t_max!r}")
        return cls.from_curvature(n, curvature, t_max=t_max)

    def __repr__(self):
        return f"RotSymManifold(n={self._n}, t_max={self.t_max!r})"
