"""Scenario CLI: exit codes, report shape, CSV provenance, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import radialgeo
from radialgeo import cli

SPLINE_FLAT = {
    "core": {"kind": "spline", "breakpoints": [0.0, 1.0], "values": [0.0, 0.0]},
    "tail": {"kind": "zero"},
    "t_tail": 1.0,
}

SPLINE_RAMP = {
    "core": {"kind": "spline", "breakpoints": [0.0, 1.0], "values": [-1.0, 0.0]},
    "tail": {"kind": "zero"},
    "t_tail": 1.0,
}


def base_scenario(**extra):
    doc = {
        "name": "flat-check",
        "n": 3,
        "curvatures": {"flat": SPLINE_FLAT},
        "manifold": {**SPLINE_FLAT, "n": 3, "t_max": 17.0},
        "commands": ["threshold"],
        "output_dir": "out",
    }
    doc.update(extra)
    return doc


def write_scenario(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def run_cli(tmp_path, doc, extra_args=()):
    p = write_scenario(tmp_path, doc)
    out = tmp_path / "out"
    code = cli.main(["--scenario", str(p), "--out", str(out), *extra_args])
    report = None
    report_path = out / "report.json"
    if report_path.exists():
        report = json.loads(report_path.read_text())
    return code, report, out


def test_threshold_task_flat(tmp_path):
    code, report, _ = run_cli(tmp_path, base_scenario())
    assert code == 0
    assert report["scenario"] == "flat-check"
    assert report["toolkit"] == {"name": "radialgeo", "version": radialgeo.__version__}
    assert report["n"] == 3
    rec = report["tasks"][0]
    assert rec["task"] == "threshold"
    assert abs(rec["threshold"] - 0.5) <= 1e-13


def test_check_main_flat_verdict_and_exit(tmp_path):
    doc = base_scenario(commands=[
        {"task": "check-main", "g": "flat", "k": "flat", "numerator": "manifold"},
    ])
    code, report, _ = run_cli(tmp_path, doc)
    assert code == 0
    rec = report["tasks"][0]
    assert rec["report"]["verdict"] == "DiffeoRn"


def test_inconclusive_verdict_exits_two(tmp_path):
    doc = base_scenario(commands=[
        {"task": "check-main", "g": "flat", "k": "flat", "numerator": [0.3, 0.4]},
    ])
    code, report, _ = run_cli(tmp_path, doc)
    assert code == 2
    assert report["tasks"][0]["report"]["verdict"] == "Inconclusive"


def test_bad_power_tail_is_scenario_error(tmp_path, capsys):
    doc = base_scenario()
    doc["curvatures"]["weird"] = {
        "core": {"kind": "spline", "breakpoints": [0.0, 1.0], "values": [-0.5, -0.2]},
        "tail": {"kind": "power_law", "c": -0.2, "p": 1.5},
        "t_tail": 1.0,
    }
    code, report, _ = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 1
    assert report is None
    assert "p > 2" in err
    assert "scenario.curvatures.weird" in err


def test_formula_sandbox_rejects_nested_code(tmp_path, capsys):
    # a lambda keeps its names out of the top-level code object; with the
    # tail matching t at the anchor the document is otherwise valid
    doc = base_scenario()
    doc["curvatures"]["evil"] = {
        "core": {"kind": "formula",
                 "expr": "(lambda: ().__class__.__base__.__subclasses__()[0].__name__)() and t"},
        "tail": {"kind": "power_law", "c": 1.0, "p": 3.0},
        "t_tail": 1.0,
    }
    code, report, _ = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 1
    assert report is None
    assert "scenario.curvatures.evil" in err and "may not use" in err


FLAT_CORE = {"kind": "spline", "breakpoints": [0.0, 1.0], "values": [0.0, 0.0]}


@pytest.mark.parametrize("body", [
    {"core": {"kind": "spline", "values": [0.0, 0.0]}, "tail": {"kind": "zero"}},
    {"core": FLAT_CORE, "tail": "zero"},
    {"core": {"kind": "formula", "expr": "0 * (t"}, "tail": {"kind": "zero"}},
    {"core": {**FLAT_CORE, "values": ["0", "zero"]}, "tail": {"kind": "zero"}},
], ids=["no-breakpoints", "string-tail", "formula-syntax", "string-values"])
def test_malformed_curvature_exits_one_with_path(tmp_path, capsys, body):
    doc = base_scenario()
    doc["curvatures"]["bad"] = {**body, "t_tail": 1.0}
    code, report, _ = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 1
    assert report is None
    assert err.startswith("error: scenario.curvatures.bad: ")


def test_nan_horizon_is_rejected(tmp_path, capsys):
    doc = base_scenario(commands=[
        {"task": "triangle", "surface": "flat", "sides": [1.0, 1.0, 1.0]},
    ])
    code, report, _ = run_cli(tmp_path, doc, extra_args=("--horizon", "nan"))
    err = capsys.readouterr().err
    assert code == 1
    assert report is None
    assert "--horizon" in err


def test_unknown_task_lists_valid_names(tmp_path, capsys):
    doc = base_scenario(commands=["no-such-task"])
    code, _, _ = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 1
    assert "threshold" in err and "check-corollary" in err


def test_missing_scenario_file(tmp_path, capsys):
    code = cli.main(["--scenario", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")])
    assert code == 1


def test_invalid_json_rejected(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code = cli.main(["--scenario", str(p), "--out", str(tmp_path / "o")])
    assert code == 1


def test_growth_task_writes_csv_with_provenance(tmp_path):
    doc = base_scenario(commands=[
        {"task": "growth", "denominator": "flat", "dominated": True},
    ])
    code, report, out = run_cli(tmp_path, doc)
    assert code == 0
    rec = report["tasks"][0]
    csv_path = out / rec["csv"]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == f"# scenario: flat-check, toolkit: radialgeo {radialgeo.__version__}"
    assert rec["monotone_nonincreasing"] is True


def test_triangle_and_gauss_bonnet_tasks(tmp_path):
    doc = base_scenario(commands=[
        {"task": "triangle", "surface": "flat", "sides": [3.0, 4.0, 5.0]},
        {"task": "gauss-bonnet", "surface": "flat", "sides": [3.0, 4.0, 5.0]},
    ])
    code, report, out = run_cli(tmp_path, doc)
    assert code == 0
    tri, gb = report["tasks"]
    assert abs(sum(tri["angles"]) - 3.141592653589793) <= 1e-9
    assert (out / tri["csv"]).exists()
    assert abs(gb["residual"]) <= 1e-9


def test_check_corollary_finite_volume(tmp_path):
    a = 3.8205221749659675
    cusp = {
        "core": {"kind": "spline", "breakpoints": [0.0, 0.5, 1.0, 1.5, 2.0],
                 "values": [a, a, 0.5 * a, -0.5, -1.0]},
        "tail": {"kind": "constant", "c": -1.0},
        "t_tail": 2.0,
    }
    doc = base_scenario(curvatures={"cusp": cusp}, commands=[
        {"task": "check-corollary", "g": "cusp", "numerator": [0.0, 0.0]},
    ])
    doc.pop("manifold")
    code, report, _ = run_cli(tmp_path, doc)
    assert code == 0
    rec = report["tasks"][0]["report"]
    assert rec["verdict"] == "DiffeoRn"
    assert "FiniteModelVolume" in rec["diagnostics"]["flags"]


def test_report_is_deterministic(tmp_path):
    doc = base_scenario(commands=[
        "threshold",
        {"task": "growth", "denominator": "flat", "dominated": True},
        {"task": "check-main", "g": "flat", "k": "flat", "numerator": "manifold"},
    ])
    p = write_scenario(tmp_path, doc)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["--scenario", str(p), "--out", str(out1)]) == 0
    assert cli.main(["--scenario", str(p), "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_console_entry_point(tmp_path):
    p = write_scenario(tmp_path, base_scenario())
    out = tmp_path / "out"
    # the child process imports the same package as this suite
    src = str(Path(radialgeo.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "radialgeo.cli",
         "--scenario", str(p), "--out", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    )
    assert proc.returncode == 0
    assert (out / "report.json").exists()


def test_task_filter_option(tmp_path):
    doc = base_scenario(commands=[
        "threshold",
        {"task": "gauss-bonnet", "surface": "flat", "sides": [1.0, 1.0, 1.0]},
    ])
    code, report, _ = run_cli(tmp_path, doc, extra_args=("--tasks", "threshold"))
    assert code == 0
    assert [t["task"] for t in report["tasks"]] == ["threshold"]
