"""The benchmark's output checks hold on this tree.

``radialbench/workloads.py`` checks every result it times; a result that
fails its check makes the benchmark run fail. The scenario checks pin
report fields, among them the growth brackets: ``flat-met`` and the
flat-over-flat growth bracket must contain 1, and the tops of the mixed
checks' brackets must lie within 1e-7 of the t = 16 ratios. Running one
round here shows such a change in the tests first. The file is loaded by
path (the ``workloads`` fixture of ``conftest.py``) and only read.
"""

import pytest

import radialgeo as rg


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_scenario_mixed_round_passes_its_checks(workloads, tmp_path, seed):
    scenario = workloads.ScenarioMixed(rg, seed, tmp_path / "work")
    scenario.setup()
    ops = scenario.round(0)
    assert [op.kind for op in ops] == [*workloads.VERDICT_CASES, "mixed"]
    for op in ops:
        op.check(op.call())
