"""Acceptance gate: ten numbered criteria, one test (and one printed
pass/fail line) per criterion, at the stated tolerances.

Run with -s to see the measured margins on passing runs; pytest -v already
gives the per-criterion pass/fail status lines.
"""

import json
import math

import numpy as np

import radialgeo as rg
from radialgeo import cli

from conftest import bishop_pair, random_compact_curvature


def report(criterion, ok, detail):
    line = f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_cap_identity():
    # |cap_volume(n, d) - omega_{n-1} F(d)| <= 1e-10 for n in 2..8, 50 angles
    worst = 0.0
    for n in range(2, 9):
        total = rg.unit_sphere_volume(n - 1)
        for delta in np.linspace(0.0, math.pi, 50):
            diff = abs(rg.cap_volume(n, float(delta))
                       - total * rg.cap_fraction(n, float(delta)))
            worst = max(worst, diff)
    report(1, worst <= 1e-10, f"cap identity, worst |diff| = {worst:.3e} (tol 1e-10)")


def test_criterion_02_threshold_calibration():
    # flat envelope: delta = pi/2 exactly and threshold 0.5 for every n;
    # ramp envelope: delta within 1e-10 of (pi/2) e^{-1/6}
    flat_env = rg.nonpositive_min(rg.RadialCurvature.zero())
    delta_flat = rg.critical_angle(flat_env)
    ok = delta_flat == math.pi / 2.0
    thr_err = max(abs(rg.growth_threshold(n, delta_flat) - 0.5) for n in range(2, 9))
    ok = ok and thr_err <= 1e-13
    ramp = rg.RadialCurvature.from_spline([0.0, 1.0], [-1.0, 0.0])
    delta_ramp = rg.critical_angle(rg.nonpositive_min(ramp))
    analytic = (math.pi / 2.0) * math.exp(-1.0 / 6.0)
    ramp_err = abs(delta_ramp - analytic)
    ok = ok and ramp_err <= 1e-10
    report(2, ok,
           f"flat delta = pi/2 exact, threshold err {thr_err:.1e}, "
           f"ramp delta err {ramp_err:.3e} (tol 1e-10)")


def test_criterion_03_slope_sandwich(compact_corpus):
    # 1 - 1e-9 <= slope_limit <= exp(-moment) + 1e-6 over the 100 corpus
    worst_low, worst_high = 0.0, 0.0
    for _k, env, surface in compact_corpus:
        s = rg.slope_limit(surface.warping)
        upper = math.exp(-rg.moment_integral(env).value)
        worst_low = max(worst_low, 1.0 - s)
        worst_high = max(worst_high, s - upper)
    ok = worst_low <= 1e-9 and worst_high <= 1e-6
    report(3, ok,
           f"sandwich over 100 curvatures, max(1 - s) = {worst_low:.3e}, "
           f"max(s - upper) = {worst_high:.3e}")


def test_criterion_04_isoperimetric_identity(compact_corpus):
    worst = 0.0
    for _k, _env, surface in compact_corpus:
        direct = rg.total_curvature_direct(surface.warping)
        iso = 2.0 * math.pi * (1.0 - rg.slope_limit(surface.warping))
        worst = max(worst, abs(direct - iso))
    report(4, worst <= 1e-6,
           f"isoperimetric identity over 100 curvatures, worst |diff| = {worst:.3e} (tol 1e-6)")


def test_criterion_05_closed_form_geodesy():
    flat = rg.ModelSurface.from_curvature(rg.RadialCurvature.zero(), 24.0)
    hyp = rg.ModelSurface.from_curvature(rg.RadialCurvature.constant(-1.0), 14.0)
    rng = np.random.default_rng(505)
    worst_flat = 0.0
    for _ in range(100):
        ra, rb = rng.uniform(0.05, 8.0, 2)
        dth = rng.uniform(0.0, math.pi)
        got = rg.distance(flat, rg.SurfacePoint(ra, 0.0), rg.SurfacePoint(rb, dth))
        expect = math.sqrt(ra * ra + rb * rb - 2.0 * ra * rb * math.cos(dth))
        worst_flat = max(worst_flat, abs(got - expect))
    worst_hyp = 0.0
    for _ in range(100):
        ra, rb = rng.uniform(0.05, 6.0, 2)
        dth = rng.uniform(0.0, math.pi)
        got = rg.distance(hyp, rg.SurfacePoint(ra, 0.0), rg.SurfacePoint(rb, dth))
        arg = math.cosh(ra) * math.cosh(rb) - math.sinh(ra) * math.sinh(rb) * math.cos(dth)
        expect = math.acosh(max(1.0, arg))
        worst_hyp = max(worst_hyp, abs(got - expect))
    ok = worst_flat <= 1e-8 and worst_hyp <= 1e-7
    report(5, ok,
           f"100 flat distances worst {worst_flat:.3e} (tol 1e-8), "
           f"100 hyperbolic worst {worst_hyp:.3e} (tol 1e-7)")


def random_triangle_sides(rng, lo=0.4, hi=4.5):
    a, b = rng.uniform(lo, hi, 2)
    c = rng.uniform(abs(a - b) + 0.05, min(a + b - 0.05, 9.5))
    return float(a), float(b), float(c)


def test_criterion_06_gauss_bonnet():
    bump = rg.nonpositive_min(
        rg.RadialCurvature.from_spline([0.0, 0.8, 1.6, 2.4], [-1.0, -0.15, -0.6, 0.0])
    )
    surfaces = {
        "flat": rg.ModelSurface.from_curvature(rg.RadialCurvature.zero(), 16.0),
        "hyperbolic": rg.ModelSurface.from_curvature(rg.RadialCurvature.constant(-1.0), 16.0),
        "bump": rg.ModelSurface.from_curvature(bump, 16.0),
    }
    rng = np.random.default_rng(606)
    worst = 0.0
    for name, surface in surfaces.items():
        for _ in range(30):
            a, b, c = random_triangle_sides(rng)
            tri = rg.comparison_triangle(surface, a, b, c)
            worst = max(worst, abs(rg.gauss_bonnet_residual(surface, tri)))
    report(6, worst <= 1e-6,
           f"30 triangles on each of 3 surfaces, worst |residual| = {worst:.3e} (tol 1e-6)")


def test_criterion_07_triangle_comparison():
    # k1 >= k2 pointwise (both <= 0): every angle on the k1 surface is at
    # least the matching k2 angle minus 1e-7
    rng = np.random.default_rng(707)
    worst = 0.0
    count = 0
    while count < 30:
        raw = random_compact_curvature(rng)
        knots = np.asarray(raw.breakpoints, dtype=float)
        vals = np.asarray(raw(knots), dtype=float)
        scale = rng.uniform(1.5, 4.0)
        k1 = rg.nonpositive_min(raw)
        k2 = rg.nonpositive_min(rg.RadialCurvature.from_spline(knots, scale * vals))
        s1 = rg.ModelSurface.from_curvature(k1, 16.0)
        s2 = rg.ModelSurface.from_curvature(k2, 16.0)
        for _ in range(5):
            a, b, c = random_triangle_sides(rng, lo=0.5, hi=3.5)
            t1 = rg.comparison_triangle(s1, a, b, c)
            t2 = rg.comparison_triangle(s2, a, b, c)
            for ang1, ang2 in zip(t1.angles, t2.angles):
                worst = max(worst, ang2 - ang1)
            count += 1
    report(7, worst <= 1e-7,
           f"30 side triples, worst (lower-curvature angle excess) = {worst:.3e} (tol 1e-7)")


def test_criterion_08_bishop_gromov():
    worst_step, worst_last = 0.0, 0.0
    for seed in range(20):
        n, w_num, w_den = bishop_pair(np.random.default_rng(seed))
        gr = rg.growth_ratio(n, w_num, w_den, (2.0, 4.0, 8.0, 16.0), dominated=True)
        ratios = [s[3] for s in gr.samples]
        for prev, nxt in zip(ratios, ratios[1:]):
            worst_step = max(worst_step, nxt - prev)
        worst_last = max(worst_last, ratios[-1] - 1.0)
        assert rg.bishop_monotonicity_check(gr)
    ok = worst_step <= 1e-9 and worst_last <= 1e-9
    report(8, ok,
           f"20 manifolds, worst ratio increase = {worst_step:.3e}, "
           f"worst final ratio excess over 1 = {worst_last:.3e} (tol 1e-9)")


def test_criterion_09_round_trip_curvature():
    k = rg.RadialCurvature.from_spline(
        [0.0, 0.9, 1.8, 2.7], [-1.1, -0.25, -0.7, -0.2],
        tail=rg.PowerLawTail(-0.2, 3.0),
    )
    mfd = rg.RotSymManifold.from_curvature(3, k, t_max=12.0)
    ts = np.linspace(0.0, 10.0, 4001)
    err = float(np.max(np.abs(mfd.radial_sectional(ts) - k(ts))))
    report(9, err <= 1e-6,
           f"solve-then-extract sup error on [0, 10] = {err:.3e} (tol 1e-6)")


def _spline_doc(breakpoints, values, tail, t_tail):
    return {"core": {"kind": "spline", "breakpoints": breakpoints, "values": values},
            "tail": tail, "t_tail": t_tail}


def test_criterion_10_end_to_end_verdicts(tmp_path):
    flat = _spline_doc([0.0, 1.0], [0.0, 0.0], {"kind": "zero"}, 1.0)
    hyp = {"core": {"kind": "spline", "breakpoints": [0.0, 1.0], "values": [-1.0, -1.0]},
           "tail": {"kind": "constant", "c": -1.0}, "t_tail": 1.0}
    a = 3.8205221749659675
    cusp = _spline_doc([0.0, 0.5, 1.0, 1.5, 2.0], [a, a, 0.5 * a, -0.5, -1.0],
                       {"kind": "constant", "c": -1.0}, 2.0)
    cases = [
        ("flat-met", {"curvatures": {"flat": flat},
                      "manifold": {**flat, "n": 3, "t_max": 17.0},
                      "commands": [{"task": "check-main", "g": "flat", "k": "flat",
                                    "numerator": "manifold"}]},
         "DiffeoRn", 0),
        ("sub-threshold", {"curvatures": {"flat": flat},
                           "commands": [{"task": "check-main", "g": "flat", "k": "flat",
                                         "numerator": [0.3, 0.4]}]},
         "Inconclusive", 2),
        ("rigidity", {"curvatures": {"hyp": hyp},
                      "commands": [{"task": "check-main", "g": "hyp", "k": "hyp",
                                    "numerator": [1.0, 1.0]}]},
         "DegenerateRigidity", 0),
        ("corollary-finite", {"curvatures": {"cusp": cusp},
                              "commands": [{"task": "check-corollary", "g": "cusp",
                                            "numerator": [0.0, 0.0]}]},
         "DiffeoRn", 0),
    ]
    results = []
    ok = True
    for name, doc, want_verdict, want_code in cases:
        scenario = {"name": name, "n": 3, "output_dir": "out", **doc}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / f"out-{name}"
        code = cli.main(["--scenario", str(path), "--out", str(out)])
        got = json.loads((out / "report.json").read_text())["tasks"][0]["report"]["verdict"]
        results.append(f"{name}: {got}/{code}")
        ok = ok and got == want_verdict and code == want_code
    report(10, ok, "CLI verdicts " + ", ".join(results))
