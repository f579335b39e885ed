"""The three benchmark workloads.

A workload is built from the imported ``radialgeo`` package and a seed. Its
``setup`` makes the inputs the program needs before the loop (files,
surfaces) and warms the code up; ``round(i)`` returns the operations of
round i. Every round has the same make-up, so a run that attempts whole
rounds attempts the same mix of operations whatever its length. Inputs of
round i come from the seed and i alone.

An operation is a ``call`` (the program's work, the only part the runner
times) and a ``check`` of its result against the references in
``reference.py`` or against a property the method guarantees. A check that
does not hold raises ``CheckFailed``.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from pathlib import Path

import numpy as np

import reference as ref


class CheckFailed(Exception):
    """An operation returned a wrong result."""


def expect(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


class Op:
    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


class Accuracy:
    """Worst errors seen by the checks, reported by the traced run."""

    FIELDS = ("geo_abs_err", "gb_residual", "iso_diff", "slope_err_over_bound",
              "vol_rel_err")

    def __init__(self):
        self.worst = {name: None for name in self.FIELDS}

    def note(self, name: str, value: float):
        prev = self.worst[name]
        self.worst[name] = value if prev is None else max(prev, value)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def triangle_sides(rng, lo=0.4, hi=4.5):
    """Side lengths (pole-x, pole-y, x-y) of a pole triangle that is not
    close to degenerate."""
    a, b = rng.uniform(lo, hi, 2)
    c = rng.uniform(abs(a - b) + 0.05, min(a + b - 0.05, 9.5))
    return float(a), float(b), float(c)


# ---------------------------------------------------------------------------
# scenario-mixed
# ---------------------------------------------------------------------------


def _spline_doc(knots, values, tail, t_tail):
    return {"core": {"kind": "spline", "breakpoints": knots, "values": values},
            "tail": tail, "t_tail": t_tail}


FLAT_DOC = _spline_doc([0.0, 1.0], [0.0, 0.0], {"kind": "zero"}, 1.0)
HYP_DOC = _spline_doc([0.0, 1.0], [-1.0, -1.0], {"kind": "constant", "c": -1.0}, 1.0)
SPL_KNOTS = [0.0, 0.9, 1.8, 2.7]
SPL_VALUES = [-1.1, -0.25, -0.7, -0.2]
SPL_DOC = _spline_doc(SPL_KNOTS, SPL_VALUES, {"kind": "power_law", "c": -0.2, "p": 3.0}, 2.7)
CUSP_A = 3.8205221749659675
CUSP_DOC = _spline_doc([0.0, 0.5, 1.0, 1.5, 2.0], [CUSP_A, CUSP_A, 0.5 * CUSP_A, -0.5, -1.0],
                       {"kind": "constant", "c": -1.0}, 2.0)
FLAT_MANIFOLD = {**FLAT_DOC, "n": 3, "t_max": 17.0}
GROWTH_HORIZONS = (2.0, 4.0, 8.0, 16.0)

# The four end-to-end verdict cases. Expected (verdict, exit code), derived
# from the hypotheses: flat-met has delta = pi/2, threshold 1/2 and a flat
# numerator with growth 1, so B-2 holds; sub-threshold asserts growth
# [0.3, 0.4] below that threshold; rigidity has a constant -1 tail, so the
# moment diverges, delta = 0, threshold 1 and the asserted growth [1, 1]
# meets it; the cusp's positive core makes its model volume finite, which
# certifies the corollary without the growth hypothesis.
VERDICT_CASES = {
    "flat-met": ({"curvatures": {"flat": FLAT_DOC}, "manifold": FLAT_MANIFOLD,
                  "commands": [{"task": "check-main", "g": "flat", "k": "flat",
                                "numerator": "manifold"}]},
                 "DiffeoRn", 0),
    "sub-threshold": ({"curvatures": {"flat": FLAT_DOC},
                       "commands": [{"task": "check-main", "g": "flat", "k": "flat",
                                     "numerator": [0.3, 0.4]}]},
                      "Inconclusive", 2),
    "rigidity": ({"curvatures": {"hyp": HYP_DOC},
                  "commands": [{"task": "check-main", "g": "hyp", "k": "hyp",
                                "numerator": [1.0, 1.0]}]},
                 "DegenerateRigidity", 0),
    "corollary-finite": ({"curvatures": {"cusp": CUSP_DOC},
                          "commands": [{"task": "check-corollary", "g": "cusp",
                                        "numerator": [0.0, 0.0]}]},
                         "DiffeoRn", 0),
}


class ScenarioMixed:
    """``radialgeo.cli.main`` in process on five scenario files."""

    name = "scenario-mixed"

    def __init__(self, rg, seed: int, workdir: Path):
        from radialgeo import cli

        self.cli = cli
        self.seed = seed
        self.workdir = workdir
        self.acc = Accuracy()
        self.report_bytes: dict[str, bytes] = {}
        self.output_bytes: list[int] = []
        spl = ref.SplineCurvature(SPL_KNOTS, SPL_VALUES, ("power_law", -0.2, 3.0))
        self.spl_moment = ref.spline_moment(spl)
        self.spl_delta = math.pi / 2.0 * math.exp(self.spl_moment)
        # flat numerator over the spl model at the last horizon; ratios are
        # nonincreasing (Bishop), so this is the top of the growth bracket
        t_last = GROWTH_HORIZONS[-1]
        self.spl_ratio = (ref.flat_ball_volume(3, t_last)
                          / ref.ReferenceWarping(spl, t_last).ball_volume(3, t_last))
        self.spl_threshold = 1.0 - ref.cap_fraction_n3(self.spl_delta)
        if not self.spl_ratio < self.spl_threshold - 1e-3:
            raise RuntimeError("mixed scenario no longer decides check-corollary")

    def _mixed_doc(self):
        rng = np.random.default_rng([self.seed, 1])
        self.hyp_sides = triangle_sides(rng)
        self.spl_sides = triangle_sides(rng)
        return {
            "curvatures": {"flat": FLAT_DOC, "hyp": HYP_DOC, "spl": SPL_DOC},
            "manifold": FLAT_MANIFOLD,
            "commands": [
                "threshold",
                {"task": "threshold", "curvatures": ["spl"]},
                {"task": "growth", "denominator": "flat", "numerator": "manifold"},
                {"task": "growth", "denominator": "hyp", "numerator": "manifold",
                 "dominated": True},
                {"task": "triangle", "surface": "hyp", "sides": list(self.hyp_sides)},
                {"task": "gauss-bonnet", "surface": "spl", "sides": list(self.spl_sides)},
                {"task": "check-main", "g": "hyp", "k": "hyp", "numerator": "manifold"},
                {"task": "check-corollary", "g": "spl", "numerator": "manifold"},
            ],
        }

    def setup(self):
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        docs = {name: doc for name, (doc, _v, _c) in VERDICT_CASES.items()}
        docs["mixed"] = self._mixed_doc()
        self.paths = {}
        for name, body in docs.items():
            path = self.workdir / f"{name}.json"
            path.write_text(json.dumps({"name": name, "n": 3, "output_dir": "out", **body}))
            self.paths[name] = path
        self.report_bytes = {}
        self._run_scenario("mixed")

    def _run_scenario(self, name):
        out = self.workdir / f"out-{name}"
        report = out / "report.json"
        if report.exists():
            report.unlink()
        return self.cli.main(["--scenario", str(self.paths[name]), "--out", str(out)]), out

    def round(self, index: int):
        return [Op(name, lambda name=name: self._run_scenario(name),
                   lambda res, name=name: self._check(name, *res))
                for name in (*VERDICT_CASES, "mixed")]

    def _check(self, name, code, out: Path):
        raw = (out / "report.json").read_bytes()
        first = self.report_bytes.setdefault(name, raw)
        expect(raw == first, f"{name}: report.json differs from the first run")
        self.output_bytes.append(sum(p.stat().st_size for p in out.iterdir()))
        tasks = json.loads(raw)["tasks"]
        if name in VERDICT_CASES:
            _doc, verdict, want_code = VERDICT_CASES[name]
            got = tasks[0]["report"]["verdict"]
            expect((got, code) == (verdict, want_code),
                   f"{name}: got {got}/{code}, expected {verdict}/{want_code}")
            if name == "flat-met":
                lo, hi = tasks[0]["report"]["growth_limit"]
                expect(lo <= 1.0 <= hi, f"flat-met growth bracket {lo}, {hi} misses 1")
            return
        self._check_mixed(code, out, tasks)

    def _check_mixed(self, code, out, tasks):
        expect(code == 2, f"mixed: exit code {code}, expected 2")
        thr_all, thr_spl, gr_flat, gr_hyp, tri, gb, main, cor = tasks
        # a constant -1 tail makes the envelope's moment diverge: delta = 0
        expect(thr_all["delta"] == 0.0 and thr_all["threshold"] == 1.0,
               f"mixed: threshold over all curvatures {thr_all}")
        expect(abs(thr_spl["delta"] - self.spl_delta) <= 1e-9,
               f"mixed: spl delta {thr_spl['delta']} vs reference {self.spl_delta}")
        expect(abs(thr_spl["threshold"] - self.spl_threshold) <= 1e-9,
               f"mixed: spl threshold {thr_spl['threshold']} vs {self.spl_threshold}")
        lo, hi = gr_flat["bracket"]
        expect(lo <= 1.0 <= hi, f"mixed: flat/flat growth bracket {lo}, {hi} misses 1")
        expect(gr_hyp["monotone_nonincreasing"], "mixed: flat/hyp ratios rise")
        for record, den_volume in ((gr_flat, lambda t: ref.flat_ball_volume(3, t)),
                                   (gr_hyp, ref.hyperbolic3_ball_volume)):
            with open(out / record["csv"]) as fh:
                rows = list(csv.reader(line for line in fh if not line.startswith("#")))
            for t, vn, vd, _r in rows[1:]:
                t = float(t)
                for got, want in ((float(vn), ref.flat_ball_volume(3, t)),
                                  (float(vd), den_volume(t))):
                    err = _rel(got, want)
                    self.acc.note("vol_rel_err", err)
                    expect(err <= 1e-8, f"mixed: ball volume at t = {t}: {got} vs {want}")
        want_angles = ref.hyperbolic_pole_angles(*self.hyp_sides)
        for got, want in zip(tri["angles"], want_angles):
            err = abs(got - want)
            self.acc.note("geo_abs_err", err)
            expect(err <= 1e-7, f"mixed: hyperbolic triangle angle {got} vs {want}")
        for residual, angle_sum in ((tri["gauss_bonnet_residual"], sum(tri["angles"])),
                                    (gb["residual"], gb["angle_sum"])):
            self.acc.note("gb_residual", abs(residual))
            expect(abs(residual) <= 1e-6, f"mixed: Gauss-Bonnet residual {residual}")
            expect(angle_sum <= math.pi + 1e-9, f"mixed: angle sum {angle_sum} > pi")
        t_last = GROWTH_HORIZONS[-1]
        hyp_ratio = ref.flat_ball_volume(3, t_last) / ref.hyperbolic3_ball_volume(t_last)
        checks = ((main["report"], 0.0, 1.0, hyp_ratio),
                  (cor["report"], self.spl_delta, self.spl_threshold, self.spl_ratio))
        for rep, delta, threshold, top in checks:
            # k <= 0 gives m' >= 1, so model volumes diverge (B-1); the
            # growth bracket tops out at the last ratio, below threshold
            expect((rep["verdict"], rep["b1_holds"], rep["b2_holds"])
                   == ("Inconclusive", True, "Fails"), f"mixed: check {rep}")
            expect(abs(rep["delta"] - delta) <= 1e-9
                   and abs(rep["threshold"] - threshold) <= 1e-9,
                   f"mixed: check delta/threshold {rep['delta']}, {rep['threshold']}")
            err = _rel(rep["growth_limit"][1], top)
            self.acc.note("vol_rel_err", err)
            expect(err <= 1e-7, f"mixed: growth bracket top {rep['growth_limit'][1]} vs {top}")


# ---------------------------------------------------------------------------
# geodesy
# ---------------------------------------------------------------------------

BUMP_KNOTS = [0.0, 0.8, 1.6, 2.4]
BUMP_VALUES = [-1.0, -0.15, -0.6, 0.0]
SURFACE_T_MAX = 16.0


class Geodesy:
    """distance, comparison_triangle and gauss_bonnet_residual on flat,
    hyperbolic and bump surfaces built during set-up."""

    name = "geodesy"

    def __init__(self, rg, seed: int, workdir: Path):
        self.rg = rg
        self.seed = seed
        self.acc = Accuracy()

    def setup(self):
        rg = self.rg
        bump = rg.nonpositive_min(rg.RadialCurvature.from_spline(BUMP_KNOTS, BUMP_VALUES))
        self.surfaces = {
            "flat": rg.ModelSurface.from_curvature(rg.RadialCurvature.zero(), SURFACE_T_MAX),
            "hyperbolic": rg.ModelSurface.from_curvature(
                rg.RadialCurvature.constant(-1.0), SURFACE_T_MAX),
            "bump": rg.ModelSurface.from_curvature(bump, SURFACE_T_MAX),
        }
        for surface in self.surfaces.values():
            tri = rg.comparison_triangle(surface, 1.0, 1.5, 2.0)
            rg.gauss_bonnet_residual(surface, tri)  # builds the curvature-mass spline

    def round(self, index: int):
        rg = self.rg
        rng = np.random.default_rng([self.seed, index])
        ops = []
        for name, surface in self.surfaces.items():
            ra, rb = (float(r) for r in rng.uniform(0.05, 6.0, 2))
            # angles within 0.05 of 0 or pi are left out: bump distances
            # there leave their comparison bounds (see CHANGES.md)
            dth = float(rng.uniform(0.05, math.pi - 0.05))
            sides = triangle_sides(rng)
            held = {}

            def make_triangle(surface=surface, sides=sides, held=held):
                held["tri"] = rg.comparison_triangle(surface, *sides)
                return held["tri"]

            ops.append(Op("distance",
                          lambda s=surface, ra=ra, rb=rb, dth=dth: rg.distance(
                              s, rg.SurfacePoint(ra, 0.0), rg.SurfacePoint(rb, dth)),
                          lambda d, name=name, ra=ra, rb=rb, dth=dth:
                              self._check_distance(name, d, ra, rb, dth)))
            ops.append(Op("triangle", make_triangle,
                          lambda tri, name=name, s=surface, sides=sides:
                              self._check_triangle(name, s, tri, sides)))
            ops.append(Op("gauss-bonnet",
                          lambda s=surface, held=held: rg.gauss_bonnet_residual(s, held["tri"]),
                          self._check_residual))
        return ops

    def _check_distance(self, name, d, ra, rb, dth):
        flat = ref.flat_distance(ra, rb, dth)
        hyp = ref.hyperbolic_distance(ra, rb, dth)
        if name == "bump":
            # -1 <= k <= 0 gives t <= m(t) <= sinh(t), so lengths, and with
            # them distances, are squeezed between the two model planes
            expect(flat - 1e-9 <= d <= hyp + 1e-9,
                   f"bump distance {d} outside [{flat}, {hyp}]")
            return
        want, tol = (flat, 1e-8) if name == "flat" else (hyp, 1e-7)
        err = abs(d - want)
        self.acc.note("geo_abs_err", err)
        expect(err <= tol, f"{name} distance {d} vs {want}")

    def _check_triangle(self, name, surface, tri, sides):
        rg = self.rg
        a, b, c = sides
        _pole, x, y = tri.vertices
        closing = rg.distance(surface, x, y)
        err = abs(closing - c)
        self.acc.note("geo_abs_err", err)
        expect(err <= 1e-9, f"{name} triangle closes at {closing}, side {c}")
        flat = ref.flat_pole_angles(a, b, c)
        hyp = ref.hyperbolic_pole_angles(a, b, c)
        if name == "bump":
            # Toponogov comparison for -1 <= k <= 0
            for got, hi, lo in zip(tri.angles, flat, hyp):
                expect(lo - 1e-7 <= got <= hi + 1e-7,
                       f"bump triangle angle {got} outside [{lo}, {hi}]")
            return
        for got, want in zip(tri.angles, flat if name == "flat" else hyp):
            err = abs(got - want)
            self.acc.note("geo_abs_err", err)
            expect(err <= 1e-7, f"{name} triangle angle {got} vs {want}")

    def _check_residual(self, residual):
        self.acc.note("gb_residual", abs(residual))
        expect(abs(residual) <= 1e-6, f"Gauss-Bonnet residual {residual}")


# ---------------------------------------------------------------------------
# curvature-corpus
# ---------------------------------------------------------------------------

# Make-up of one round: 7 compact zero-tail splines, 2 power-law tails and
# 1 constant negative tail.
CORPUS_ROUND = ("compact",) * 4 + ("power_law",) + ("compact",) * 3 + ("power_law", "constant")
BALL_N = 3
# Every member is solved to this horizon, a multiple of the solver's 1/64
# node pitch, so no random knot lands within an ulp of a grid node (the
# default horizon 5 * t_tail can put the tail anchor there; see CHANGES.md).
CORPUS_T_MAX = 12.0


def corpus_member(rng, kind):
    """(knots, values, tail) of one random nonpositive spline curvature.

    Knots are evenly spaced so the spline stays close to its values. A draw
    whose spline crosses zero inside the core is drawn again: the solver
    steps over the kinks nonpositive_min makes there (see CHANGES.md).
    """
    while True:
        if kind == "compact":
            t_tail = rng.uniform(0.8, 3.0)
            vals = -rng.uniform(0.0, 1.5, int(rng.integers(4, 9)))
            vals[-1] = 0.0
            tail = ("zero",)
        elif kind == "power_law":
            t_tail = rng.uniform(1.5, 3.0)
            vals = -rng.uniform(0.2, 1.2, int(rng.integers(4, 7)))
            vals[-1] = -rng.uniform(0.1, 0.5)
            tail = ("power_law", float(vals[-1]), float(rng.uniform(3.0, 4.5)))
        else:
            t_tail = rng.uniform(0.8, 2.5)
            vals = -rng.uniform(0.0, 1.0, int(rng.integers(4, 7)))
            vals[-1] = -rng.uniform(0.2, 1.0)
            tail = ("constant", float(vals[-1]))
        knots = np.linspace(0.0, t_tail, vals.size)
        if not ref.SplineCurvature(knots, vals, tail).crossings.size:
            return knots.tolist(), vals.tolist(), tail


class CurvatureCorpus:
    """One fresh seeded curvature per operation, through the whole
    curvature -> warping -> volume pipeline."""

    name = "curvature-corpus"

    def __init__(self, rg, seed: int, workdir: Path):
        from radialgeo.errors import UnboundedError

        self.rg = rg
        self.seed = seed
        self.acc = Accuracy()
        self.unbounded = UnboundedError

    def _raw(self, knots, values, tail):
        rg = self.rg
        if tail[0] == "zero":
            rtail = rg.ZeroTail()
        elif tail[0] == "constant":
            rtail = rg.ConstantTail(tail[1])
        else:
            rtail = rg.PowerLawTail(tail[1], tail[2])
        return rg.RadialCurvature.from_spline(knots, values, tail=rtail)

    def setup(self):
        # fixed warm-up members, so set-up does the same work on every seed
        rng = np.random.default_rng(0)
        for kind in ("compact", "power_law"):
            knots, values, tail = corpus_member(rng, kind)
            self._pipeline(self._raw(knots, values, tail))

    def _pipeline(self, raw):
        rg = self.rg
        env = rg.nonpositive_min(raw)
        moment = rg.moment_integral(env)
        surface = rg.ModelSurface.from_curvature(env, CORPUS_T_MAX)
        w = surface.warping
        try:
            slope = rg.slope_limit(w, with_bound=True)
        except self.unbounded:
            slope = None
        try:
            total = rg.total_curvature_direct(w)
        except self.unbounded:
            total = None
        klass = rg.classify_ball_volume(BALL_N, env, warping=w)
        t_vol = env.t_tail + 2.0
        volume = rg.model_ball_volume(BALL_N, w, t_vol)
        return moment, slope, total, klass, t_vol, volume

    def round(self, index: int):
        rng = np.random.default_rng([self.seed, index])
        ops = []
        for kind in CORPUS_ROUND:
            knots, values, tail = corpus_member(rng, kind)
            raw = self._raw(knots, values, tail)
            ops.append(Op(kind, lambda raw=raw: self._pipeline(raw),
                          lambda res, m=(knots, values, tail), kind=kind:
                              self._check(kind, m, *res)))
        return ops

    def _check(self, kind, member, moment, slope, total, klass, t_vol, volume):
        k = ref.SplineCurvature(*member)
        want_moment = ref.spline_moment(k)
        if kind == "constant":
            expect(moment.value == -math.inf, f"constant tail moment {moment.value}")
            expect(slope is None and total is None,
                   "constant negative tail: slope limit and total curvature must diverge")
        else:
            expect(abs(moment.value - want_moment) <= 1e-8 * max(1.0, abs(want_moment)),
                   f"moment {moment.value} vs reference {want_moment}")
            s, bound = slope
            expect(1.0 - 1e-9 <= s <= math.exp(-moment.value) + 1e-6,
                   f"slope {s} outside [1, exp(-moment)]")
            expect(total <= 1e-12, f"total curvature {total} > 0 for k <= 0")
        if kind == "compact":
            diff = abs(total - 2.0 * math.pi * (1.0 - s))
            self.acc.note("iso_diff", diff)
            expect(diff <= 1e-6, f"isoperimetric identity off by {diff}")
        elif kind == "power_law":
            want = ref.power_law_slope_limit(k)
            ratio = abs(s - want) / bound
            self.acc.note("slope_err_over_bound", ratio)
            expect(ratio <= 1.0, f"Bessel slope {want} outside {s} +- {bound}")
        # k <= 0 gives m' >= 1: ball volumes diverge
        expect(klass.kind == "divergent", f"ball volumes classified {klass.kind}")
        want_vol = ref.ReferenceWarping(k, t_vol).ball_volume(BALL_N, t_vol)
        err = _rel(volume, want_vol)
        self.acc.note("vol_rel_err", err)
        expect(err <= 1e-7, f"ball volume {volume} vs reference {want_vol}")
        # -min(k) <= a^2 gives t <= m(t) <= sinh(a t) / a
        a = math.sqrt(-k.minimum * (1.0 + 1e-3))  # slack for the sampled minimum
        upper = ref.hyperbolic3_ball_volume(t_vol, a) if a > 0 else ref.flat_ball_volume(3, t_vol)
        expect(ref.flat_ball_volume(3, t_vol) * (1 - 1e-9) <= volume <= upper * (1 + 1e-9),
               f"ball volume {volume} outside its comparison sandwich")


WORKLOADS = {cls.name: cls for cls in (ScenarioMixed, Geodesy, CurvatureCorpus)}
