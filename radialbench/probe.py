"""Probe calls for layers a traced workload never reaches.

Each workload exercises only some layers (``geodesy`` computes no moments,
``curvature-corpus`` no distances), yet the traced run reports every
per-layer metric. For each layer without spans from the workload, ``cover``
makes one fixed, small call inside a "probe" root span, and fills any
accuracy figure the workload's checks left empty from the same calls. Such
figures measure the probe, not the workload; README.md lists which
workload reaches which layer.
"""

from __future__ import annotations

import json
import math

import reference as ref
from workloads import VERDICT_CASES, expect


def cover(rg, tracer, acc, output_bytes, workdir):
    seen = {tracer.names[i] for i in set(tracer.name)}

    def missing(*names):
        return any(name not in seen for name in names)

    def note(field, value):
        if acc.worst[field] is None:
            acc.note(field, value)

    ramp = rg.RadialCurvature.from_spline([0.0, 1.0], [-1.0, 0.0])
    flat_k = rg.RadialCurvature.zero()

    if missing("curvature.eval", "curvature.envelope", "curvature.moment"):
        tracer.root("probe", lambda: (ramp(0.5), rg.moment_integral(rg.nonpositive_min(ramp))))

    if missing("warping.solve", "warping.interp_build", "warping.eval"):
        tracer.root("probe", lambda: rg.solve_warping(ramp, 10.0).m(1.0))

    if missing("warping.slope_limit") or acc.worst["slope_err_over_bound"] is None:
        knots, values, tail = [0.0, 1.0], [-0.5, -0.2], ("power_law", -0.2, 3.0)
        w = rg.solve_warping(rg.RadialCurvature.from_spline(
            knots, values, tail=rg.PowerLawTail(tail[1], tail[2])), 10.0)
        s, bound = tracer.root("probe", lambda: rg.slope_limit(w, with_bound=True))
        want = ref.power_law_slope_limit(ref.SplineCurvature(knots, values, tail))
        note("slope_err_over_bound", abs(s - want) / bound)

    if missing("warping.total_curvature") or acc.worst["iso_diff"] is None:
        w = rg.solve_warping(ramp, 10.0)
        total, s = tracer.root("probe", lambda: (rg.total_curvature_direct(w),
                                                 rg.slope_limit(w)))
        note("iso_diff", abs(total - 2.0 * math.pi * (1.0 - s)))

    if missing("volume.ball_volume", "volume.classify", "volume.growth_ratio") \
            or acc.worst["vol_rel_err"] is None:
        w = rg.solve_warping(flat_k, 16.0)
        volume, _c, _g = tracer.root("probe", lambda: (
            rg.model_ball_volume(3, w, 4.0), rg.classify_ball_volume(3, flat_k, warping=w),
            rg.growth_ratio(3, w, w, (2.0, 4.0, 8.0, 16.0))))
        want = ref.flat_ball_volume(3, 4.0)
        note("vol_rel_err", abs(volume - want) / want)

    if missing("geodesics.distance", "geodesics.triangle", "geodesics.gauss_bonnet") \
            or acc.worst["geo_abs_err"] is None or acc.worst["gb_residual"] is None:
        surface = rg.ModelSurface.from_curvature(flat_k, 8.0)

        def geodesy():
            d = rg.distance(surface, rg.SurfacePoint(1.0, 0.0), rg.SurfacePoint(2.0, 1.0))
            tri = rg.comparison_triangle(surface, 1.0, 1.5, 2.0)
            return d, tri, rg.gauss_bonnet_residual(surface, tri)

        d, tri, residual = tracer.root("probe", geodesy)
        errs = [abs(d - ref.flat_distance(1.0, 2.0, 1.0))]
        errs += [abs(g - w) for g, w in zip(tri.angles, ref.flat_pole_angles(1.0, 1.5, 2.0))]
        note("geo_abs_err", max(errs))
        note("gb_residual", abs(residual))

    if missing("synthetic.manifold_build"):
        tracer.root("probe", lambda: rg.RotSymManifold.from_curvature(3, flat_k, t_max=10.0))

    if missing("criteria.check"):
        tracer.root("probe", lambda: rg.sectional_pinch_check(3, ramp, (0.9, 1.0)))

    if missing("cli.run") or not output_bytes:
        from radialgeo import cli

        doc, verdict, want_code = VERDICT_CASES["sub-threshold"]
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "probe.json"
        path.write_text(json.dumps({"name": "probe", "n": 3, **doc}))
        out = workdir / "out-probe"
        code = tracer.root("probe", lambda: cli.main(["--scenario", str(path),
                                                      "--out", str(out)]))
        report = json.loads((out / "report.json").read_text())
        expect((report["tasks"][0]["report"]["verdict"], code) == (verdict, want_code),
               "probe scenario verdict")
        output_bytes.append(sum(p.stat().st_size for p in out.iterdir()))
