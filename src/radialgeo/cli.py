"""Scenario-driven command line front end.

A scenario file is a JSON document naming curvature functions, optionally a
synthetic manifold, and a list of task commands. Running it produces a
deterministic report.json plus CSV curves for the plot-producing tasks; exit
status separates "hypotheses not met" (2) from genuine failure (1) so sweep
scripts can branch on it.

Example scenario::

    {
      "name": "flat-check",
      "n": 3,
      "curvatures": {"flat": {"core": {"kind": "spline",
                                       "breakpoints": [0.0, 1.0],
                                       "values": [0.0, 0.0]},
                              "tail": {"kind": "zero"}, "t_tail": 1.0}},
      "manifold": {"n": 3, "core": {...}, "tail": {...}, "t_tail": 1.0},
      "commands": ["threshold", {"task": "check-main", "g": "flat",
                                 "k": "flat", "numerator": "manifold"}],
      "output_dir": "out"
    }
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import __version__
from .criteria import (
    DEFAULT_HORIZONS,
    critical_angle,
    growth_threshold,
    ricci_pinch_check,
    sectional_pinch_check,
)
from .curvature import RadialCurvature, nonpositive_min
from .errors import GeometryError, ScenarioError
from .geodesics import comparison_triangle, gauss_bonnet_residual
from .synthetic import RotSymManifold
from .volume import growth_ratio
from .warping import DEFAULT_REL_TOL, ModelSurface, default_horizon, solve_warping

_TASKS = ("threshold", "growth", "triangle", "gauss-bonnet",
          "check-main", "check-corollary")


def _fail(path: str, message: str):
    raise ScenarioError(f"{path}: {message}")


def _field(obj: dict, key: str, types, path: str, what: str, required=True,
           default=None):
    if key not in obj:
        if required:
            _fail(path, f"missing required field '{key}'")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, types):
        _fail(f"{path}.{key}", f"expected {what}, got {type(value).__name__}")
    return value


class _Scenario:
    """Validated scenario with constructed geometry objects."""

    def __init__(self, doc: dict, rel_tol: float, horizon: float | None):
        if not isinstance(doc, dict):
            raise ScenarioError("scenario: top level must be a JSON object")
        self.name = _field(doc, "name", str, "scenario", "a string")
        n = _field(doc, "n", int, "scenario", "an integer")
        if n < 2:
            _fail("scenario.n", f"dimension must be >= 2, got {n}")
        self.n = n
        if horizon is not None and not (horizon > 0 and math.isfinite(horizon)):
            _fail("--horizon", f"expected a positive finite number, got {horizon}")
        self.rel_tol = rel_tol
        self.horizon = horizon
        self.output_dir = _field(doc, "output_dir", str, "scenario",
                                 "a string path", required=False, default=".")

        curv_doc = _field(doc, "curvatures", dict, "scenario",
                          "an object mapping names to curvature documents")
        if not curv_doc:
            _fail("scenario.curvatures", "at least one curvature is required")
        self.curvatures: dict[str, RadialCurvature] = {}
        for cname, body in curv_doc.items():
            if not isinstance(body, dict):
                _fail(f"scenario.curvatures.{cname}", "expected an object")
            try:
                self.curvatures[cname] = RadialCurvature.from_json(body)
            except GeometryError as exc:
                _fail(f"scenario.curvatures.{cname}", str(exc))

        self.manifold = None
        if "manifold" in doc:
            body = _field(doc, "manifold", dict, "scenario", "an object")
            if body.get("n") != self.n:
                _fail("scenario.manifold.n",
                      f"must equal the scenario dimension {self.n}")
            try:
                self.manifold = RotSymManifold.from_json(body, rel_tol=rel_tol)
            except GeometryError as exc:
                _fail("scenario.manifold", str(exc))

        commands = _field(doc, "commands", list, "scenario", "a list")
        if not commands:
            _fail("scenario.commands", "at least one command is required")
        self.commands = [self._check_command(c, i) for i, c in enumerate(commands)]
        self._surfaces: dict = {}

    def _check_command(self, cmd, index: int) -> dict:
        path = f"scenario.commands[{index}]"
        if isinstance(cmd, str):
            cmd = {"task": cmd}
        if not isinstance(cmd, dict):
            _fail(path, "expected a task name or an object with a 'task' field")
        task = _field(cmd, "task", str, path, "a task name string")
        if task not in _TASKS:
            _fail(f"{path}.task",
                  f"unknown task '{task}' (expected one of {'|'.join(_TASKS)})")
        return cmd

    # -- shared resolution helpers -----------------------------------------

    def curvature(self, cname, path: str) -> RadialCurvature:
        if not isinstance(cname, str) or cname not in self.curvatures:
            _fail(path, f"'{cname}' does not name a declared curvature "
                        f"(have: {', '.join(sorted(self.curvatures))})")
        return self.curvatures[cname]

    def surface(self, cname: str, needed_radius: float, path: str) -> ModelSurface:
        k = self.curvature(cname, path)
        t_max = max(default_horizon(k), needed_radius * 1.05,
                    self.horizon or 0.0)
        key = (cname, round(t_max, 9))
        if key not in self._surfaces:
            self._surfaces[key] = ModelSurface.from_curvature(
                k, t_max=t_max, rel_tol=self.rel_tol)
        return self._surfaces[key]

    def numerator(self, source, path: str):
        if source is None or source == "manifold":
            if self.manifold is None:
                _fail(path, "scenario declares no manifold to use as numerator")
            return self.manifold
        if isinstance(source, dict) and "bracket" in source:
            source = source["bracket"]
        if isinstance(source, list) and len(source) == 2 and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in source):
            return (float(source[0]), float(source[1]))
        _fail(path, "expected \"manifold\" or a two-element [lo, hi] bracket")

    def horizons(self, cmd: dict, path: str):
        hs = cmd.get("horizons")
        if hs is None:
            return DEFAULT_HORIZONS
        if (not isinstance(hs, list) or not hs or any(
                isinstance(h, bool) or not isinstance(h, (int, float)) or h <= 0
                for h in hs)):
            _fail(f"{path}.horizons", "expected a nonempty list of positive numbers")
        return tuple(float(h) for h in hs)

    def sides(self, cmd: dict, path: str):
        sides = _field(cmd, "sides", list, path, "a list of three side lengths")
        if len(sides) != 3 or any(
                isinstance(s, bool) or not isinstance(s, (int, float)) or s <= 0
                for s in sides):
            _fail(f"{path}.sides", "expected three positive side lengths")
        return tuple(float(s) for s in sides)


# ---------------------------------------------------------------------------
# Task runners
# ---------------------------------------------------------------------------


def _run_threshold(scn: _Scenario, cmd: dict, path: str, _outdir, _idx):
    names = cmd.get("curvatures", list(scn.curvatures))
    if not isinstance(names, list) or not names:
        _fail(f"{path}.curvatures", "expected a nonempty list of curvature names")
    curvs = [scn.curvature(nm, f"{path}.curvatures") for nm in names]
    envelope = nonpositive_min(*curvs)
    delta = critical_angle(envelope)
    return {
        "task": "threshold",
        "curvatures": list(names),
        "delta": delta,
        "threshold": growth_threshold(scn.n, delta),
    }


def _run_growth(scn: _Scenario, cmd: dict, path: str, outdir: Path, idx: int):
    den_name = _field(cmd, "denominator", str, path, "a curvature name",
                      required=False,
                      default=next(iter(scn.curvatures)))
    den_k = scn.curvature(den_name, f"{path}.denominator")
    numerator = scn.numerator(cmd.get("numerator", "manifold"),
                              f"{path}.numerator")
    if not isinstance(numerator, RotSymManifold):
        _fail(f"{path}.numerator", "the growth task needs a manifold numerator")
    horizons = scn.horizons(cmd, path)
    max_h = max(horizons)

    num_w = numerator.warping
    if num_w.t_max < max_h * (1 - 1e-12):
        if numerator.profile_derived:
            _fail(f"{path}.horizons",
                  f"manifold profile reaches only t = {num_w.t_max:.6g}")
        num_w = solve_warping(numerator.curvature, max_h, scn.rel_tol)
    den_w = solve_warping(den_k, max_h, scn.rel_tol)
    dominated = bool(cmd.get("dominated", False))
    ratio = growth_ratio(scn.n, num_w, den_w, horizons, dominated=dominated)

    csv_name = f"growth_{idx}.csv"
    ratio.to_csv(outdir / csv_name,
                 comment=f"scenario: {scn.name}, toolkit: radialgeo {__version__}")
    lo, hi = ratio.bracket()
    return {
        "task": "growth",
        "denominator": den_name,
        "horizons": list(horizons),
        "bracket": [lo, hi],
        "monotone_nonincreasing": ratio.monotone_nonincreasing,
        "csv": csv_name,
    }


def _triangle_pieces(scn: _Scenario, cmd: dict, path: str):
    surf_name = _field(cmd, "surface", str, path, "a curvature name")
    sides = scn.sides(cmd, path)
    surface = scn.surface(surf_name, max(sides[0], sides[1]), f"{path}.surface")
    tri = comparison_triangle(surface, *sides)
    residual = gauss_bonnet_residual(surface, tri)
    return surf_name, sides, surface, tri, residual


def _run_triangle(scn: _Scenario, cmd: dict, path: str, outdir: Path, idx: int):
    surf_name, _sides, _surface, tri, residual = _triangle_pieces(scn, cmd, path)
    csv_name = f"triangle_{idx}.csv"
    with open(outdir / csv_name, "w", newline="") as fh:
        fh.write(f"# scenario: {scn.name}, toolkit: radialgeo {__version__}\n")
        writer = csv.writer(fh)
        writer.writerow(["vertex", "t", "theta", "angle"])
        for label, vertex, angle in zip(("pole", "x", "y"), tri.vertices,
                                        tri.angles):
            writer.writerow([label, repr(vertex.t), repr(vertex.theta),
                             repr(angle)])
    record = {"task": "triangle", "surface": surf_name}
    record.update(tri.to_json())
    record["gauss_bonnet_residual"] = residual
    record["csv"] = csv_name
    return record


def _run_gauss_bonnet(scn: _Scenario, cmd: dict, path: str, _outdir, _idx):
    surf_name, sides, _surface, tri, residual = _triangle_pieces(scn, cmd, path)
    excess = tri.angle_sum() - math.pi
    return {
        "task": "gauss-bonnet",
        "surface": surf_name,
        "sides": list(sides),
        "angle_sum": tri.angle_sum(),
        "curvature_integral": excess - residual,
        "residual": residual,
    }


def _run_check_main(scn: _Scenario, cmd: dict, path: str, _outdir, _idx):
    g_name = _field(cmd, "g", str, path, "a curvature name")
    k_name = _field(cmd, "k", str, path, "a curvature name")
    report = ricci_pinch_check(
        scn.n,
        scn.curvature(g_name, f"{path}.g"),
        scn.curvature(k_name, f"{path}.k"),
        scn.numerator(cmd.get("numerator", "manifold"), f"{path}.numerator"),
        horizons=scn.horizons(cmd, path),
        rel_tol=scn.rel_tol,
    )
    return {"task": "check-main", "g": g_name, "k": k_name,
            "report": report.to_json()}


def _run_check_corollary(scn: _Scenario, cmd: dict, path: str, _outdir, _idx):
    g_name = _field(cmd, "g", str, path, "a curvature name")
    report = sectional_pinch_check(
        scn.n,
        scn.curvature(g_name, f"{path}.g"),
        scn.numerator(cmd.get("numerator", "manifold"), f"{path}.numerator"),
        horizons=scn.horizons(cmd, path),
        rel_tol=scn.rel_tol,
    )
    return {"task": "check-corollary", "g": g_name, "report": report.to_json()}


_RUNNERS = {
    "threshold": _run_threshold,
    "growth": _run_growth,
    "triangle": _run_triangle,
    "gauss-bonnet": _run_gauss_bonnet,
    "check-main": _run_check_main,
    "check-corollary": _run_check_corollary,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _select_commands(scn: _Scenario, task_filter: str | None):
    if not task_filter:
        return scn.commands
    chosen = []
    for raw in task_filter.split(","):
        name = raw.strip()
        if name not in _TASKS:
            _fail("--tasks", f"unknown task '{name}' "
                             f"(expected one of {'|'.join(_TASKS)})")
        match = next((c for c in scn.commands if c["task"] == name),
                     {"task": name})
        chosen.append(match)
    return chosen


def run(scenario_path, out_dir=None, rel_tol=DEFAULT_REL_TOL,
        horizon=None, tasks=None) -> int:
    """Execute a scenario file; returns the process exit status."""
    try:
        with open(scenario_path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: scenario is not valid JSON: {exc}", file=sys.stderr)
        return 1

    try:
        scn = _Scenario(doc, rel_tol, horizon)
        outdir = Path(out_dir) if out_dir else Path(scn.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        records = []
        for idx, cmd in enumerate(_select_commands(scn, tasks)):
            runner = _RUNNERS[cmd["task"]]
            records.append(runner(scn, cmd, f"scenario.commands[{idx}]",
                                  outdir, idx))
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = {
        "scenario": scn.name,
        "toolkit": {"name": "radialgeo", "version": __version__},
        "n": scn.n,
        "tasks": records,
    }
    with open(outdir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    verdicts = [r["report"]["verdict"] for r in records if "report" in r]
    if any(v == "Inconclusive" for v in verdicts):
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="radialgeo",
        description="Run volume-growth and comparison-geometry scenarios.")
    parser.add_argument("--scenario", required=True,
                        help="path to the scenario JSON file")
    parser.add_argument("--out", default=None,
                        help="output directory (default: scenario's output_dir)")
    parser.add_argument("--tol", type=float, default=DEFAULT_REL_TOL,
                        help="relative tolerance for ODE solves")
    parser.add_argument("--horizon", type=float, default=None,
                        help="minimum solving horizon for surfaces")
    parser.add_argument("--tasks", default=None,
                        help="comma-separated task subset overriding the "
                             "scenario's command list")
    args = parser.parse_args(argv)
    return run(args.scenario, out_dir=args.out, rel_tol=args.tol,
               horizon=args.horizon, tasks=args.tasks)


if __name__ == "__main__":
    sys.exit(main())
