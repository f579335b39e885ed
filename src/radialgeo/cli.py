"""Scenario-driven command line front end.

A scenario file is a JSON document naming curvature functions, optionally a
synthetic manifold, and a list of task commands. Running it produces a
deterministic report.json plus CSV curves for the plot-producing tasks; exit
status separates "hypotheses not met" (2) from genuine failure (1) so sweep
scripts can branch on it; a command-line usage error exits 1 too.

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
from functools import lru_cache
from pathlib import Path

from . import __version__
from .criteria import (
    DEFAULT_HORIZONS,
    _checked_bracket,
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
from .warping import ModelSurface, WarpingSolution, solve_warping

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


def _positive_finite(value) -> bool:
    """A JSON number in (0, inf); an integer too large for a float is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return 0 < float(value) < math.inf
    except OverflowError:
        return False


def _document_key(k: RadialCurvature) -> str:
    return json.dumps(k.to_json(), sort_keys=True)


class _Scenario:
    """Validated scenario with constructed geometry objects, and one warping
    solution per curvature object for the run."""

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise ScenarioError("scenario: top level must be a JSON object")
        self.name = _field(doc, "name", str, "scenario", "a string")
        n = _field(doc, "n", int, "scenario", "an integer")
        if n < 2:
            _fail("scenario.n", f"dimension must be >= 2, got {n}")
        self.n = n
        self.output_dir = _field(doc, "output_dir", str, "scenario",
                                 "a string path", required=False, default=".")

        curv_doc = _field(doc, "curvatures", dict, "scenario",
                          "an object mapping names to curvature documents")
        if not curv_doc:
            _fail("scenario.curvatures", "at least one curvature is required")
        # equal documents resolve to one curvature object, so to one solution
        self.curvatures: dict[str, RadialCurvature] = {}
        shared: dict[str, RadialCurvature] = {}
        for cname, body in curv_doc.items():
            if not isinstance(body, dict):
                _fail(f"scenario.curvatures.{cname}", "expected an object")
            try:
                k = RadialCurvature.from_json(body)
            except GeometryError as exc:
                _fail(f"scenario.curvatures.{cname}", str(exc))
            self.curvatures[cname] = shared.setdefault(_document_key(k), k)
        # the run's one warping solution per curvature object
        self._solutions: dict[RadialCurvature, WarpingSolution] = {}

        self.manifold = None
        if "manifold" in doc:
            body = _field(doc, "manifold", dict, "scenario", "an object")
            if body.get("n") != self.n:
                _fail("scenario.manifold.n",
                      f"must equal the scenario dimension {self.n}")
            try:
                self.manifold = RotSymManifold.from_json(body)
            except GeometryError as exc:
                _fail("scenario.manifold", str(exc))
            own = self.manifold.curvature
            twin = shared.get(_document_key(own))
            self.curvatures = {name: own if k is twin else k
                               for name, k in self.curvatures.items()}
            self._solutions[own] = self.manifold.warping

        commands = _field(doc, "commands", list, "scenario", "a list")
        if not commands:
            _fail("scenario.commands", "at least one command is required")
        self.commands = [self._check_command(c, i) for i, c in enumerate(commands)]

    def _check_command(self, cmd, index: int) -> dict:
        path = f"scenario.commands[{index}]"
        if isinstance(cmd, str):
            cmd = {"task": cmd}
        if not isinstance(cmd, dict):
            _fail(path, "expected a task name or an object with a 'task' field")
        task = _field(cmd, "task", str, path, "a task name string")
        if task not in _RUNNERS:
            _fail(f"{path}.task",
                  f"unknown task '{task}' (expected one of {'|'.join(_RUNNERS)})")
        return cmd

    # -- shared resolution helpers -----------------------------------------

    def curvature(self, cname, path: str) -> RadialCurvature:
        if not isinstance(cname, str) or cname not in self.curvatures:
            _fail(path, f"'{cname}' does not name a declared curvature "
                        f"(have: {', '.join(sorted(self.curvatures))})")
        return self.curvatures[cname]

    def warping(self, k: RadialCurvature) -> WarpingSolution:
        """The run's one solution of k, solved on the first request."""
        w = self._solutions.get(k)
        if w is None:
            w = self._solutions[k] = solve_warping(k)
        return w

    def surface(self, cname: str, path: str) -> ModelSurface:
        return ModelSurface(self.warping(self.curvature(cname, path)))

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
            try:
                return _checked_bracket(source)
            except GeometryError as exc:
                _fail(path, str(exc))
        _fail(path, "expected \"manifold\" or a two-element [lo, hi] bracket")

    def horizons(self, cmd: dict, path: str):
        hs = cmd.get("horizons")
        if hs is None:
            return DEFAULT_HORIZONS
        if not isinstance(hs, list) or not hs or not all(map(_positive_finite, hs)):
            _fail(f"{path}.horizons",
                  "expected a nonempty list of positive finite numbers")
        return tuple(float(h) for h in hs)

    def sides(self, cmd: dict, path: str):
        sides = _field(cmd, "sides", list, path, "a list of three side lengths")
        if len(sides) != 3 or not all(map(_positive_finite, sides)):
            _fail(f"{path}.sides", "expected three positive finite side lengths")
        return tuple(float(s) for s in sides)


# ---------------------------------------------------------------------------
# Task runners
# ---------------------------------------------------------------------------


def _write_csv(scn: _Scenario, path: Path, header: list, rows) -> str:
    """Write a task's CSV, headed by the run's provenance line; returns its name."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# scenario: {scn.name}, toolkit: radialgeo {__version__}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.name


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
    dominated = cmd.get("dominated", False)
    if not isinstance(dominated, bool):
        _fail(f"{path}.dominated",
              f"expected true or false, got {type(dominated).__name__}")

    ratio = growth_ratio(scn.n, scn.warping(numerator.curvature), scn.warping(den_k),
                         horizons, dominated=dominated)
    try:
        lo, hi = ratio.bracket()
    except GeometryError as exc:
        _fail(f"{path}.numerator", str(exc))

    csv_name = _write_csv(scn, outdir / f"growth_{idx}.csv", ["t", "vol_num", "vol_den", "ratio"],
                          [map(repr, sample) for sample in ratio.samples])
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
    surface = scn.surface(surf_name, f"{path}.surface")
    tri = comparison_triangle(surface, *sides)
    residual = gauss_bonnet_residual(surface, tri)
    return surf_name, sides, surface, tri, residual


def _run_triangle(scn: _Scenario, cmd: dict, path: str, outdir: Path, idx: int):
    surf_name, _sides, _surface, tri, residual = _triangle_pieces(scn, cmd, path)
    csv_name = _write_csv(scn, outdir / f"triangle_{idx}.csv", ["vertex", "t", "theta", "angle"],
                          [[label, repr(vertex.t), repr(vertex.theta), repr(angle)]
                           for label, vertex, angle in zip(("pole", "x", "y"), tri.vertices,
                                                           tri.angles)])
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


# each check task's function and the fields naming its curvatures, model first
_CHECKS = {"check-main": (ricci_pinch_check, ("g", "k")),
           "check-corollary": (sectional_pinch_check, ("g",))}


def _run_check(scn: _Scenario, cmd: dict, path: str, _outdir, _idx):
    if "horizons" in cmd:
        _fail(f"{path}.horizons", "check commands take no horizons; "
                                  "the growth task samples ratios")
    check, keys = _CHECKS[cmd["task"]]
    names = {key: _field(cmd, key, str, path, "a curvature name") for key in keys}
    curvs = [scn.curvature(name, f"{path}.{key}") for key, name in names.items()]
    numerator = scn.numerator(cmd.get("numerator", "manifold"), f"{path}.numerator")
    report = check(scn.n, *curvs, numerator, warping=scn.warping(curvs[0]))
    return {"task": cmd["task"], **names, "report": report.to_json()}


_RUNNERS = {
    "threshold": _run_threshold,
    "growth": _run_growth,
    "triangle": _run_triangle,
    "gauss-bonnet": _run_gauss_bonnet,
    "check-main": _run_check,
    "check-corollary": _run_check,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _select_commands(scn: _Scenario, task_filter: str | None):
    """(index, command) pairs to run, in document order: all, or those of the
    listed tasks, each of which must have a command."""
    if not task_filter:
        return list(enumerate(scn.commands))
    names = [raw.strip() for raw in task_filter.split(",")]
    for name in names:
        if name not in _RUNNERS:
            _fail("--tasks", f"unknown task '{name}' "
                             f"(expected one of {'|'.join(_RUNNERS)})")
        if not any(cmd["task"] == name for cmd in scn.commands):
            _fail("--tasks", f"the scenario has no '{name}' command")
    return [(idx, cmd) for idx, cmd in enumerate(scn.commands) if cmd["task"] in names]


def run(scenario_path, out_dir=None, tasks=None) -> int:
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
        scn = _Scenario(doc)
        outdir = Path(out_dir) if out_dir else Path(scn.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        records = []
        for idx, cmd in _select_commands(scn, tasks):
            path = f"scenario.commands[{idx}]"
            try:
                records.append(_RUNNERS[cmd["task"]](scn, cmd, path, outdir, idx))
            except ScenarioError:
                raise
            except GeometryError as exc:
                raise ScenarioError(f"{path}: {exc}") from exc
        report = {
            "scenario": scn.name,
            "toolkit": {"name": "radialgeo", "version": __version__},
            "n": scn.n,
            "tasks": records,
        }
        try:
            text = json.dumps(report, indent=2, allow_nan=False) + "\n"
        except ValueError:
            print("error: the report holds a NaN or infinity", file=sys.stderr)
            return 1
        (outdir / "report.json").write_text(text)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        field = "--out" if out_dir else "scenario.output_dir"
        print(f"error: {field}: cannot write output: {exc}", file=sys.stderr)
        return 1

    verdicts = [r["report"]["verdict"] for r in records if "report" in r]
    if any(v == "Inconclusive" for v in verdicts):
        return 2
    return 0


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: a parse keeps no state."""
    parser = argparse.ArgumentParser(
        prog="radialgeo",
        description="Run volume-growth and comparison-geometry scenarios.")
    parser.add_argument("--scenario", required=True,
                        help="path to the scenario JSON file")
    parser.add_argument("--out", default=None,
                        help="output directory (default: scenario's output_dir)")
    parser.add_argument("--tasks", default=None,
                        help="comma-separated task names: run only the "
                             "scenario's commands of those tasks")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message; exit 2 would read as Inconclusive
        return 1 if exc.code else 0
    return run(args.scenario, out_dir=args.out, tasks=args.tasks)


if __name__ == "__main__":
    sys.exit(main())
