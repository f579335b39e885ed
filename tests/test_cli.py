"""Scenario CLI: exit codes, report shape, CSV provenance, determinism."""

import copy
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_a_moment_divergent_from_its_tail_reads_no_envelope_kinks(tmp_path, monkeypatch):
    """delta = 0 when the envelope's tail is a negative constant, whatever
    its core: the corollary check on the cusp of criterion 10 and the
    threshold over the flat, hyperbolic and spline curvatures make no kink
    search. A finite moment reads the kinks, once."""
    from radialgeo import curvature

    searches = []
    kinks = curvature._kinks
    monkeypatch.setattr(curvature, "_kinks", lambda *args: searches.append(1) or kinks(*args))
    a = 3.8205221749659675
    spline = lambda knots, values, tail: {
        "core": {"kind": "spline", "breakpoints": knots, "values": values},
        "tail": tail, "t_tail": knots[-1]}
    curvatures = {
        "cusp": spline([0.0, 0.5, 1.0, 1.5, 2.0], [a, a, 0.5 * a, -0.5, -1.0],
                       {"kind": "constant", "c": -1.0}),
        "flat": SPLINE_FLAT,
        "hyp": spline([0.0, 1.0], [-1.0, -1.0], {"kind": "constant", "c": -1.0}),
        "spl": spline([0.0, 0.9, 1.8, 2.7], [-1.1, -0.25, -0.7, -0.2],
                      {"kind": "power_law", "c": -0.2, "p": 3.0}),
    }
    code, report, _ = run_cli(tmp_path, base_scenario(curvatures=curvatures, commands=[
        {"task": "check-corollary", "g": "cusp", "numerator": [0.0, 0.0]},
        {"task": "threshold", "curvatures": ["flat", "hyp", "spl"]},
    ]))
    assert code == 0
    assert report["tasks"][0]["report"]["verdict"] == "DiffeoRn"
    assert report["tasks"][1]["delta"] == 0.0
    assert searches == []
    env = radialgeo.nonpositive_min(radialgeo.RadialCurvature.from_json(SPLINE_RAMP),
                                    radialgeo.RadialCurvature.from_json(curvatures["spl"]))
    assert radialgeo.moment_integral(env).value > -math.inf and len(searches) == 1
    env.breakpoints  # kept from the first read
    assert len(searches) == 1


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
HALF_TAIL = {"kind": "constant", "c": -0.5}
MINUS_ONE = {"kind": "formula", "expr": "-1.0 + 0*t"}
CHECK_FLAT = {"task": "check-main", "g": "flat", "k": "flat"}


@pytest.mark.parametrize("body", [
    {"core": {"kind": "spline", "values": [0.0, 0.0]}, "tail": {"kind": "zero"}},
    {"core": FLAT_CORE, "tail": "zero"},
    {"core": {"kind": "formula", "expr": "0 * (t"}, "tail": {"kind": "zero"}},
    {"core": {**FLAT_CORE, "values": ["0", "zero"]}, "tail": {"kind": "zero"}},
    # formulas that evaluate on a scalar but not on an array of radii
    {"core": {"kind": "formula", "expr": "-1 if t < 0.5 else -0.5"}, "tail": HALF_TAIL},
    {"core": {"kind": "formula", "expr": "-0.5 * (0 <= t < 2)"}, "tail": HALF_TAIL},
    {"core": {"kind": "formula", "expr": "(t > 0.5 and -0.5) or -1"}, "tail": HALF_TAIL},
    # an integer no float can hold
    {"core": {**FLAT_CORE, "values": [0.0, 10**400]}, "tail": {"kind": "zero"}},
    # formula knots that are no list of numbers
    {"core": {**MINUS_ONE, "breakpoints": [[0.5, 1.0]]}, "tail": {"kind": "constant", "c": -1.0}},
    {"core": {**MINUS_ONE, "breakpoints": 0.5}, "tail": {"kind": "constant", "c": -1.0}},
    # formulas nested too deeply to compile, or to parse
    {"core": {"kind": "formula", "expr": "-" * 1000 + "1.0 + 0*t"},
     "tail": {"kind": "constant", "c": -1.0}},
    {"core": {"kind": "formula", "expr": "-" * 100000 + "t"}, "tail": {"kind": "zero"}},
    # integer constants are floats: exactly -10 as Python integers, an
    # overflow as floats; a power tower overflows without integer arithmetic
    {"core": {"kind": "formula", "expr": "-(10**400 // 10**399) + 0*t"},
     "tail": {"kind": "constant", "c": -10.0}},
    {"core": {"kind": "formula", "expr": "0*t + 3**3**15"}, "tail": {"kind": "zero"}},
    {"core": {"kind": "formula", "expr": "1/0 + 0*t"}, "tail": {"kind": "zero"}},
    # a syntax error at the end of a long formula
    {"core": {"kind": "formula", "expr": "t" + " + t" * 50000 + " +"}, "tail": {"kind": "zero"}},
    # long syntax the formula may not use: an unknown call and a list display
    {"core": {"kind": "formula", "expr": "foo(" + ", ".join(["t"] * 50000) + ")"},
     "tail": {"kind": "zero"}},
    {"core": {"kind": "formula", "expr": "[" + ", ".join(["t"] * 50000) + "]"},
     "tail": {"kind": "zero"}},
], ids=["no-breakpoints", "string-tail", "formula-syntax", "string-values",
        "formula-branch", "formula-chained", "formula-boolean", "huge-int",
        "formula-nested-knots", "formula-number-knots", "formula-deep-compile",
        "formula-deep-parse", "formula-integer-division", "formula-power-tower",
        "formula-zero-division", "formula-long-syntax", "formula-long-call",
        "formula-long-list"])
def test_malformed_curvature_exits_one_with_path(tmp_path, capsys, body):
    doc = base_scenario()
    doc["curvatures"]["bad"] = {**body, "t_tail": 1.0}
    code, report, _ = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 1
    assert report is None
    assert err.startswith("error: scenario.curvatures.bad: ")
    assert len(err) < 500  # a long formula is not echoed whole


def _without_manifold(doc):
    return {key: value for key, value in doc.items() if key != "manifold"}


@pytest.mark.parametrize("doc, args, path", [
    (base_scenario(n=1), (), "scenario.n"),
    (base_scenario(curvatures={}), (), "scenario.curvatures"),
    (base_scenario(curvatures={"flat": SPLINE_FLAT, "bad": 1.0}), (), "scenario.curvatures.bad"),
    (base_scenario(manifold={**SPLINE_FLAT, "n": 4}), (), "scenario.manifold.n"),
    (base_scenario(commands=[]), (), "scenario.commands"),
    (_without_manifold(base_scenario(commands=[CHECK_FLAT])), (),
     "scenario.commands[0].numerator"),
    (base_scenario(), ("--tasks", "threshold,no-such-task"), "--tasks"),
], ids=["n-below-two", "no-curvatures", "curvature-not-object", "manifold-n",
        "no-commands", "no-manifold", "unknown-task-filter"])
def test_scenario_failure_exits_one_with_path(tmp_path, capsys, doc, args, path):
    code, report, _ = run_cli(tmp_path, doc, extra_args=args)
    assert code == 1
    assert report is None
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_bracket_object_numerator_reads_as_its_list(tmp_path):
    reports = []
    for name, numerator in [("list", [0.3, 0.4]), ("object", {"bracket": [0.3, 0.4]})]:
        (tmp_path / name).mkdir()
        doc = base_scenario(commands=[{**CHECK_FLAT, "numerator": numerator}])
        reports.append(run_cli(tmp_path / name, doc)[1])
    assert reports[0] == reports[1]
    assert reports[0]["tasks"][0]["report"]["growth_limit"] == [0.3, 0.4]


@pytest.mark.parametrize("t_max", ["far", None, float("nan"), 0.0, 1e17])
def test_bad_manifold_horizon_exits_one_with_path(tmp_path, capsys, t_max):
    doc = base_scenario()
    doc["manifold"]["t_max"] = t_max
    code, report, _ = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 1
    assert report is None
    assert err.startswith("error: scenario.manifold: ")


@pytest.mark.parametrize("command, field, raw", [
    ({"task": "growth", "denominator": "flat"}, "dominated", '"no"'),
    ({"task": "growth", "denominator": "flat"}, "dominated", "1"),
    ({"task": "growth", "denominator": "flat"}, "horizons", "[2.0, 1e309]"),
    ({"task": "growth", "denominator": "flat"}, "horizons", "[NaN]"),
    ({"task": "growth", "denominator": "flat"}, "horizons", "[1" + "0" * 400 + "]"),
    ({"task": "triangle", "surface": "flat"}, "sides", "[1.0, 1.0, 1e309]"),
    ({"task": "gauss-bonnet", "surface": "flat"}, "sides", "[NaN, 1.0, 1.0]"),
    (CHECK_FLAT, "numerator", "[NaN, 0.5]"),
    (CHECK_FLAT, "numerator", "[0.3, Infinity]"),
    (CHECK_FLAT, "numerator", "[0.9, 0.1]"),
    (CHECK_FLAT, "numerator", "[-0.1, 0.5]"),
    (CHECK_FLAT, "numerator", "[1.2, 1.5]"),
    (CHECK_FLAT, "numerator", "[0.5, 1" + "0" * 400 + "]"),
    (CHECK_FLAT, "numerator", '"other"'),
    ({"task": "growth", "denominator": "flat"}, "numerator", "[0.1, 0.2]"),
    ({"task": "threshold"}, "curvatures", "[]"),
], ids=["dominated-string", "dominated-number", "horizon-inf", "horizon-nan",
        "horizon-huge-int", "side-inf", "side-nan", "bracket-nan", "bracket-inf",
        "bracket-reversed", "bracket-negative", "bracket-above-one",
        "bracket-huge-int", "numerator-name", "growth-bracket", "threshold-no-curvatures"])
def test_bad_command_field_exits_one_with_path(tmp_path, capsys, command, field, raw):
    # the raw JSON text goes in verbatim: 1e309 parses to inf, NaN to nan
    doc = base_scenario(commands=[{"task": "threshold"}, {**command, field: "@RAW@"}])
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc).replace('"@RAW@"', raw))
    code = cli.main(["--scenario", str(p), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert not (tmp_path / "out" / "report.json").exists()
    assert err.startswith(f"error: scenario.commands[1].{field}: ")


@pytest.mark.parametrize("args, flag", [
    ((), "--scenario"),
    (("--scenario", "s.json", "--no-such-flag"), "--no-such-flag"),
    # the flags were removed: the solver has one accuracy, and a horizon
    # comes from the commands' own fields
    (("--scenario", "s.json", "--tol", "1e-12"), "--tol"),
    (("--scenario", "s.json", "--horizon", "nan"), "--horizon"),
], ids=["missing-scenario", "unknown-flag", "removed-tol-flag", "removed-horizon-flag"])
def test_usage_error_returns_one(capsys, args, flag):
    # argparse's own exit status 2 would read as Inconclusive
    assert cli.main(list(args)) == 1
    assert flag in capsys.readouterr().err


def test_help_returns_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "--scenario" in capsys.readouterr().out


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


SHARED_COMMANDS = [
    {"task": "growth", "denominator": "hyp"},
    {"task": "growth", "denominator": "flat-again", "dominated": True},
    {"task": "triangle", "surface": "hyp", "sides": [1.5, 2.0, 1.2]},
    {"task": "gauss-bonnet", "surface": "ramp", "sides": [1.0, 1.4, 0.8]},
    {"task": "check-main", "g": "hyp", "k": "hyp", "numerator": "manifold"},
    {"task": "check-corollary", "g": "ramp", "numerator": "manifold"},
    {"task": "check-main", "g": "flat", "k": "flat", "numerator": [0.3, 0.4]},
]


def test_one_solve_per_distinct_curvature_and_the_same_report(tmp_path, monkeypatch):
    # flat, flat-again and the manifold are one document, hyp and ramp two more
    solved = []
    original = radialgeo.solve_warping

    def counted(k, *args, **kwargs):
        solved.append(json.dumps(k.to_json(), sort_keys=True))
        return original(k, *args, **kwargs)

    built = []
    init = radialgeo.WarpingSolution.__init__
    monkeypatch.setattr(radialgeo.WarpingSolution, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    # every module binding the run's calls go through
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "radialgeo" and \
                getattr(module, "solve_warping", None) is original:
            monkeypatch.setattr(module, "solve_warping", counted)
    curvatures = {"flat": SPLINE_FLAT, "hyp": SPLINE_HYP, "ramp": SPLINE_RAMP,
                  "flat-again": copy.deepcopy(SPLINE_FLAT)}
    code, report, out = run_cli(tmp_path, base_scenario(curvatures=curvatures,
                                                        commands=SHARED_COMMANDS))
    assert code == 2  # the asserted bracket is below the threshold
    assert len(solved) == len(set(solved)) == 3
    assert len(built) == 3  # carries append cells, never rebuild

    # each command as its own scenario, at its index behind threshold commands
    tasks = []
    for idx, command in enumerate(SHARED_COMMANDS):
        alone = tmp_path / f"alone{idx}"
        alone.mkdir()
        _code, single, single_out = run_cli(alone, base_scenario(
            curvatures=curvatures, commands=["threshold"] * idx + [command]))
        tasks.append(single["tasks"][-1])
        if "csv" in tasks[-1]:
            csv_name = tasks[-1]["csv"]
            assert (single_out / csv_name).read_bytes() == (out / csv_name).read_bytes()
    expected = {**report, "tasks": tasks}
    assert (out / "report.json").read_text() == json.dumps(expected, indent=2) + "\n"


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


FILTERED = [
    "threshold",
    {"task": "growth", "denominator": "flat", "horizons": [2.0, "x"]},
    {"task": "threshold", "curvatures": ["flat"]},
]


def test_task_filter_keeps_the_error_path_of_the_command(tmp_path, capsys):
    code, report, _ = run_cli(tmp_path, base_scenario(commands=FILTERED),
                              extra_args=("--tasks", "growth"))
    assert code == 1
    assert report is None
    assert capsys.readouterr().err.startswith("error: scenario.commands[1].horizons: ")


def test_task_filter_keeps_every_listed_command_in_document_order(tmp_path):
    code, report, _ = run_cli(tmp_path, base_scenario(commands=FILTERED),
                              extra_args=("--tasks", "threshold"))
    assert code == 0
    assert [t["curvatures"] for t in report["tasks"]] == [["flat"], ["flat"]]
    commands = ["threshold", {"task": "growth", "denominator": "flat", "horizons": [2.0]},
                "threshold", {"task": "gauss-bonnet", "surface": "flat",
                              "sides": [1.0, 1.0, 1.0]}]
    code, report, out = run_cli(tmp_path, base_scenario(commands=commands),
                                extra_args=("--tasks", "growth, threshold"))
    assert code == 0
    assert [t["task"] for t in report["tasks"]] == ["threshold", "growth", "threshold"]
    # the growth command keeps its index in the document for its CSV name
    assert report["tasks"][1]["csv"] == "growth_1.csv"
    assert (out / "growth_1.csv").exists()


def test_task_filter_naming_a_task_without_a_command_exits_one(tmp_path, capsys):
    code, report, _ = run_cli(tmp_path, base_scenario(commands=FILTERED),
                              extra_args=("--tasks", "threshold,gauss-bonnet"))
    err = capsys.readouterr().err
    assert code == 1
    assert report is None
    assert err.startswith("error: --tasks: ") and "gauss-bonnet" in err


# a seeded zero-tail spline whose solution the growth command starts at
# t = 2.3, off the 1/64 lattice, and check-corollary carries on to t = 16
ZERO_TAIL = {
    "core": {"kind": "spline",
             "breakpoints": [0.0, 0.36253500442171127, 0.7250700088434225, 1.0876050132651338,
                             1.450140017686845, 1.8126750221085564, 2.1752100265302676],
             "values": [-1.1635285353677902, -0.3378107849858878, -0.45024942736683815,
                        -1.3103301680943928, -0.007897956848362087, -1.2318426275741494, 0.0]},
    "tail": {"kind": "zero"},
    "t_tail": 2.1752100265302676,
}


def test_a_record_does_not_depend_on_the_commands_run_before_it(tmp_path):
    doc = base_scenario(curvatures={"z": ZERO_TAIL}, commands=[
        {"task": "growth", "denominator": "z", "horizons": [1.0, 2.3]},
        {"task": "check-corollary", "g": "z", "numerator": "manifold"},
    ])
    (tmp_path / "all").mkdir()
    (tmp_path / "one").mkdir()
    _code, everything, _ = run_cli(tmp_path / "all", doc)
    _code, alone, _ = run_cli(tmp_path / "one", doc, extra_args=("--tasks", "check-corollary"))
    assert everything["tasks"][1] == alone["tasks"][0]


SPLINE_HYP = {
    "core": {"kind": "spline", "breakpoints": [0.0, 1.0], "values": [-1.0, -1.0]},
    "tail": {"kind": "constant", "c": -1.0},
    "t_tail": 1.0,
}


@pytest.mark.parametrize("command, message", [
    ({"task": "growth", "denominator": "flat", "horizons": [2, 5000]},
     "warping functions are solved up to t = 4096"),
    ({"task": "triangle", "surface": "flat", "sides": [5000, 5000, 1]},
     "warping functions are solved up to t = 4096"),
    ({"task": "growth", "denominator": "hyp", "horizons": [2, 4000]},
     "the warping function overflows before t = 4000"),
], ids=["growth-horizon", "triangle-side", "growth-overflow"])
def test_geometry_failure_names_its_command(tmp_path, capsys, command, message):
    doc = base_scenario(curvatures={"flat": SPLINE_FLAT, "hyp": SPLINE_HYP},
                        commands=["threshold", command])
    code, report, _ = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 1
    assert report is None
    assert err.startswith("error: scenario.commands[1]: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [CHECK_FLAT, {"task": "check-corollary", "g": "flat"}],
                         ids=["check-main", "check-corollary"])
@pytest.mark.parametrize("horizons", [[2.0, 16.0], [5000], "x"],
                         ids=["defaults", "beyond-4096", "string"])
def test_a_check_command_with_horizons_exits_one(tmp_path, capsys, command, horizons):
    # B-2 comes from the tails; the growth task is the one that samples ratios
    doc = base_scenario(curvatures={"flat": SPLINE_FLAT},
                        commands=["threshold", {**command, "horizons": horizons}])
    code, report, _ = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert (code, report) == (1, None)
    assert err.startswith("error: scenario.commands[1].horizons: check commands take no horizons")


# m = sin t up to a = pi/2 - 1e-14, then linear with slope cos(a) = 1e-14,
# which the solve reads as 7.4e-15: a slope within the solve's error of 0,
# so ball volumes may grow only linearly
SLOPE_ZERO = {
    "core": {"kind": "formula", "expr": "where(t < 1.5707963267948866, 1.0, 0.0)",
             "breakpoints": [0.0, 1.5707963267948866]},
    "tail": {"kind": "zero"},
    "t_tail": 1.5707963267948866,
}


@pytest.mark.parametrize("manifold, denominator, message", [
    (SPLINE_HYP, "flat", "the numerator's ball volumes outgrow the denominator's"),
    (SPLINE_FLAT, "slope-zero", "the denominator's warping slope tends to 0"),
], ids=["hyperbolic-over-flat", "slope-zero-denominator"])
def test_growth_without_a_limit_exits_one_naming_the_numerator(tmp_path, capsys, manifold,
                                                               denominator, message):
    doc = base_scenario(curvatures={"flat": SPLINE_FLAT, "slope-zero": SLOPE_ZERO},
                        manifold={**manifold, "n": 3, "t_max": 17.0},
                        commands=[{"task": "growth", "denominator": denominator}])
    code, report, _ = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert (code, report) == (1, None)
    assert err.startswith("error: scenario.commands[0].numerator: ") and message in err
    assert err.rstrip().endswith("the growth ratio has no finite decided limit")


@pytest.mark.parametrize("n", [300, 3000])
def test_large_dimension_growth_exits_one(tmp_path, capsys, n):
    # m^(n-1) overflows at t = 16 for n = 300; the unit-sphere volume
    # underflows for n = 3000
    doc = base_scenario(n=n, manifold={**SPLINE_FLAT, "n": n, "t_max": 17.0},
                        commands=[{"task": "growth", "denominator": "flat"}])
    code, report, _ = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 1
    assert report is None
    assert err.startswith("error:") and "Traceback" not in err


def test_large_dimension_growth_warns_nothing(tmp_path, capsys):
    # the overflow of m^(n-1) is reported once, as the error, with no
    # numpy warning before it
    doc = base_scenario(n=300, manifold={**SPLINE_FLAT, "n": 300, "t_max": 17.0},
                        commands=[{"task": "growth", "denominator": "flat"}])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, report, _ = run_cli(tmp_path, doc)
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("use_flag", [False, True])
@pytest.mark.parametrize("below", ["", "sub"])
def test_unwritable_output_dir_exits_one(tmp_path, capsys, below, use_flag):
    # the output path names an existing file, or a directory below one
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    target = blocker / below if below else blocker
    doc = base_scenario(output_dir=str(target))
    p = write_scenario(tmp_path, doc)
    code = cli.run(p, out_dir=str(target) if use_flag else None)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: " + ("--out" if use_flag else "scenario.output_dir"))
    assert "Traceback" not in err


# -- property test over scenario documents ------------------------------------

FUZZ_SKELETON = {
    "name": "fuzz",
    "n": 3,
    "curvatures": {"flat": SPLINE_FLAT, "ramp": SPLINE_RAMP},
    "manifold": {**SPLINE_FLAT, "n": 3, "t_max": 5.0},
    "commands": [
        "threshold",
        {"task": "growth", "denominator": "ramp", "horizons": [1.0, 4.0],
         "dominated": True},
        {"task": "check-corollary", "g": "ramp", "numerator": "manifold"},
        {"task": "triangle", "surface": "ramp", "sides": [1.0, 1.5, 2.0]},
    ],
    "output_dir": "out",
}

# letters only, so a mutated output_dir stays inside the working directory
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**64, 2**64),
    st.sampled_from([10**30, -10**30, 10**400]), st.floats(),
    st.text(alphabet="abnr", max_size=4), st.lists(st.floats(-10, 10), max_size=3),
    st.dictionaries(st.text(alphabet="abnr", max_size=3), st.integers(), max_size=2),
)


def _field_paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _field_paths(child, prefix + (key,))


def _strict_constant(name):
    raise ValueError(f"report.json holds {name}")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_scenario_documents_exit_cleanly(data):
    """One field of a valid document is mutated per example; the run must
    end in exit status 0, 1 or 2 and leave only strict JSON reports."""
    doc = copy.deepcopy(FUZZ_SKELETON)
    kind = data.draw(st.sampled_from(["replace", "delete", "dimension", "file"]))
    if kind == "dimension":
        doc["n"] = doc["manifold"]["n"] = data.draw(st.integers(2, 10**4))
    elif kind == "file":
        doc["output_dir"] = "taken"
    else:
        paths = list(_field_paths(doc))[1 if kind == "delete" else 0:]
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "delete":
            del parent[path[-1]]
        elif path:
            parent[path[-1]] = data.draw(JSON_VALUES)
        else:
            doc = data.draw(JSON_VALUES)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("taken").write_text("")
            Path("scenario.json").write_text(json.dumps(doc))
            assert cli.run("scenario.json") in (0, 1, 2)
            for report in Path(tmp).rglob("report.json"):
                json.loads(report.read_text(), parse_constant=_strict_constant)
        finally:
            os.chdir(cwd)
