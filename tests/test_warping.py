"""Warping ODE solutions and model-surface scalars."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import BPoly

import radialgeo as rg

import radialgeo.warping as warping
from conftest import (dop853_nodes, loop_taylor_coefficients, newton_inverse,
                      random_compact_curvature, tail_referee, tensordot_transfer_rows)

# Classical fixed-step RK4 (h = 2e-5) for m'' = -k m on the spline fixture
# below, evaluated at t = 3. Independent of the solver in the package; the
# interpolant is shared because it defines the curvature.
RK4_KNOTS = [0.0, 0.7, 1.4, 2.1]
RK4_VALUES = [-1.2, -0.3, -0.8, 0.0]
RK4_M_AT_3 = 5.29965905815901
RK4_MP_AT_3 = 2.483018436036797

# Independent adaptive integration of the power-tail fixture to T = 20000
# followed by the exp(0.2 / T) tail correction; residual error ~1e-8.
POWER_TAIL_SLOPE = 1.3867242867657819


# the finite cusp of criterion 10 (test_acceptance)
CUSP_A_STAR = 3.8205221749659675
CUSP = rg.RadialCurvature.from_spline(
    [0.0, 0.5, 1.0, 1.5, 2.0], [CUSP_A_STAR, CUSP_A_STAR, 0.5 * CUSP_A_STAR, -0.5, -1.0],
    rg.ConstantTail(-1.0))


def power_tail_fixture():
    return rg.RadialCurvature.from_spline(
        [0.0, 1.0], [-0.5, -0.2], tail=rg.PowerLawTail(-0.2, 3.0)
    )


def formula_constant(c, t_tail=1.0):
    """Constant curvature c as a formula core, which the transfer matrices
    solve up to the anchor; ``RadialCurvature.constant`` builds the spline
    that the solver takes in closed form from the pole."""
    return rg.RadialCurvature(rg.FormulaCore(lambda t: np.full_like(t, c)),
                              rg.ConstantTail(c), t_tail)


def test_flat_profile_is_identity():
    w = rg.solve_warping(rg.RadialCurvature.zero(), 12.0)
    ts = np.linspace(0.0, 12.0, 601)
    assert np.max(np.abs(w.m(ts) - ts)) <= 1e-10
    assert np.max(np.abs(w.m_prime(ts) - 1.0)) <= 1e-10
    assert np.max(np.abs(w.m_second(ts))) <= 1e-9


def test_hyperbolic_profile_matches_sinh():
    w = rg.solve_warping(rg.RadialCurvature.constant(-1.0), 10.0)
    ts = np.linspace(0.0, 10.0, 501)
    # relative to cosh: the solution grows like e^t, so absolute tolerances
    # must scale with it
    assert np.max(np.abs(w.m(ts) - np.sinh(ts)) / np.cosh(ts)) <= 1e-9
    assert np.max(np.abs(w.m_prime(ts) - np.cosh(ts)) / np.cosh(ts)) <= 1e-9


def test_solver_matches_fixed_step_rk4_oracle():
    k = rg.RadialCurvature.from_spline(RK4_KNOTS, RK4_VALUES)
    w = rg.solve_warping(k, 5.0)
    assert abs(w.m(3.0) - RK4_M_AT_3) <= 1e-9
    assert abs(w.m_prime(3.0) - RK4_MP_AT_3) <= 1e-9


def test_hyperbolic_nodes_match_sinh_to_roundoff():
    w = rg.solve_warping(rg.RadialCurvature.constant(-1.0), 16.0)
    t = w.grid[1:]
    assert np.max(np.abs(w.m_values[1:] - np.sinh(t)) / np.sinh(t)) <= 1e-12
    assert np.max(np.abs(w.m_prime_values - np.cosh(w.grid)) / np.cosh(w.grid)) <= 1e-12


def test_nodes_past_a_zero_or_constant_tail_anchor_are_its_closed_form():
    # past the anchor t = 1 the nodes are cosh/sinh of the anchor state; over
    # 960 more transfer matrices the error grew to 9.5e-14
    w = rg.solve_warping(formula_constant(-1.0), 16.0)
    ts = np.array([1.0, 2.0, 4.0, 8.0, 12.0, 16.0])
    assert np.all(np.abs(w.m(ts) - np.sinh(ts)) <= 2e-14 * np.sinh(ts))
    assert np.all(np.abs(w.m_prime(ts) - np.cosh(ts)) <= 2e-14 * np.cosh(ts))
    flat = rg.solve_warping(formula_constant(0.0), 16.0)
    assert np.array_equal(flat.m_values, flat.grid)


FLAT_DOC = {"core": {"kind": "spline", "breakpoints": [0.0, 1.0], "values": [0.0, 0.0]},
            "tail": {"kind": "zero"}, "t_tail": 1.0}
HYP_DOC = {"core": {"kind": "spline", "breakpoints": [0.0, 1.0], "values": [-1.0, -1.0]},
           "tail": {"kind": "constant", "c": -1.0}, "t_tail": 1.0}


@pytest.mark.parametrize("k, m, mp", [
    (rg.RadialCurvature.from_json(FLAT_DOC), lambda t: t, np.ones_like),
    (rg.RadialCurvature.zero(), lambda t: t, np.ones_like),
    (rg.RadialCurvature.from_json(HYP_DOC), np.sinh, np.cosh),
    (rg.RadialCurvature.constant(-1.0), np.sinh, np.cosh),
], ids=["flat-doc", "zero", "hyperbolic-doc", "constant"])
def test_constant_models_are_their_closed_form_from_the_pole(k, m, mp, monkeypatch):
    calls = []
    monkeypatch.setattr(warping, "_carry_block", lambda *args: calls.append(args))
    full = rg.solve_warping(k, 16.0)
    assert np.array_equal(full.m_values, m(full.grid))
    assert np.array_equal(full.m_prime_values, mp(full.grid))
    w = rg.solve_warping(k, 1.0)
    w.m(np.array([0.5, 4.3]))
    w.m_prime(16.0)
    assert calls == []
    for name in ("grid", "m_values", "m_prime_values", "_m_second_values"):
        assert np.array_equal(getattr(w, name), getattr(full, name))
    assert np.array_equal(w._jet.c, full._jet.c)
    assert all(np.array_equal(a, b) for a, b in zip(w._state, full._state))


@pytest.mark.parametrize("k", [
    CUSP,  # equal to its tail at its last knot only
    rg.RadialCurvature.from_spline([0.0, 1.0], [-1.0, -1.0], rg.PowerLawTail(-1.0, 3.0)),
    rg.RadialCurvature.constant(0.05, 4.0),  # a p = 3 tail
    formula_constant(-1.0),
], ids=["cusp", "power-law-tail", "positive", "formula"])
def test_other_curvatures_keep_the_transfer_matrices(k, monkeypatch):
    calls = []
    carry_block = warping._carry_block
    monkeypatch.setattr(warping, "_carry_block",
                        lambda *args: calls.append(args) or carry_block(*args))
    rg.solve_warping(k, 2.0)
    assert calls


# the parent's (matrix) 3-ball volumes of the hyperbolic model at t = 2, 4, 8, 16
MATRIX_HYPERBOLIC_VOLUMES = [73.16743276921196, 4657.344588202929,
                             13958219.499624787, 124034727807707.5]


def test_hyperbolic_ball_volumes_from_the_closed_form_are_no_worse():
    mp = pytest.importorskip("mpmath")
    w = rg.solve_warping(rg.RadialCurvature.constant(-1.0), 16.0)
    with mp.workdps(40):
        for t, before in zip((2.0, 4.0, 8.0, 16.0), MATRIX_HYPERBOLIC_VOLUMES):
            exact = mp.pi * (mp.sinh(2 * t) - 2 * t)
            got = rg.model_ball_volume(3, w, t)
            assert abs(got - exact) <= abs(before - exact)
            assert abs(got - exact) <= 1e-15 * exact


def test_taylor_terms_and_transfer_rows_are_the_loops_bit_for_bit(workloads, monkeypatch):
    """Each block's Taylor coefficients and transfer rows against the loop
    and ``tensordot`` referees, over the benchmark's scenario and corpus
    curvatures, a kink and a jump that split cells, the steep spline, the
    cusp and a formula k = 0."""
    family = [rg.RadialCurvature.from_json(doc) for doc in (workloads.SPL_DOC, workloads.CUSP_DOC)]
    rng = np.random.default_rng(3)
    for kind in workloads.CORPUS_ROUND:
        knots, values, tail = workloads.corpus_member(rng, kind)
        raw = rg.RadialCurvature.from_spline(knots, values, {
            "zero": rg.ZeroTail, "constant": rg.ConstantTail,
            "power_law": rg.PowerLawTail}[tail[0]](*tail[1:]))
        family += [raw, rg.nonpositive_min(raw)]
    family += [rg.RadialCurvature.from_json(doc) for doc in (
        {"core": {"kind": "formula", "expr": "-1 - maximum(0, 0.5 - abs(t - 1.3))"},
         "tail": {"kind": "constant", "c": -1.0}, "t_tail": 4.0},
        {"core": {"kind": "formula", "expr": "where(t < 1.4177, -1.0, -0.5)",
                  "breakpoints": [0.0, 0.5, 1.0, 1.5, 2.0]},
         "tail": {"kind": "constant", "c": -0.5}, "t_tail": 2.0})]
    family += [rg.RadialCurvature.from_spline([0.0, 0.05], [-1e8, 0.0]), CUSP,
               formula_constant(0.0)]
    blocks = []
    fitted, taylor, product = warping._fitted_pieces, warping._taylor_coefficients, warping._product

    def record_fit(k, nodes):
        blocks.append({"pieces": fitted(k, nodes)})
        return blocks[-1]["pieces"]

    def record_taylor(kappa):
        blocks[-1]["coef"] = taylor(kappa)
        return blocks[-1]["coef"]

    def record_product(rows, m, mp):
        blocks[-1].setdefault("rows", rows)
        return product(rows, m, mp)

    monkeypatch.setattr(warping, "_fitted_pieces", record_fit)
    monkeypatch.setattr(warping, "_taylor_coefficients", record_taylor)
    monkeypatch.setattr(warping, "_product", record_product)
    for k in family:
        rg.solve_warping(k, 8.0)
    assert len(blocks) == len(family)
    assert any(np.any(np.diff(block["pieces"][2]) == 0) for block in blocks)  # a cell split
    for block in blocks:
        _mid, half, _cell, kappa = block["pieces"]
        coef = loop_taylor_coefficients(kappa)
        assert np.array_equal(block["coef"], coef)
        assert all(np.array_equal(a, b)
                   for a, b in zip(block["rows"], tensordot_transfer_rows(coef, half)))


@pytest.mark.parametrize("c, horizon", [
    (-400.0, 4.0),
    # (h/2)^2 |k| = 3.8 on the 1/256 pitch: every cell is split in two
    (-1e6, 0.25),
], ids=["k=-400", "split-cells"])
def test_large_curvature_matches_scaled_sinh(c, horizon):
    for k in (rg.RadialCurvature.constant(c), formula_constant(c)):
        w = rg.solve_warping(k, horizon)
        r = np.sqrt(-c)
        scale = np.cosh(r * w.grid)
        assert np.max(np.abs(w.m_values - np.sinh(r * w.grid) / r) * r / scale) <= 1e-10
        assert np.max(np.abs(w.m_prime_values - scale) / scale) <= 1e-10


def test_overflowing_solution_raises_domain_error():
    # sinh(100 t) passes the largest float before t = 7.1
    with pytest.raises(rg.DomainError, match="overflows"):
        rg.solve_warping(rg.RadialCurvature.constant(-1e4), 10.0)


def test_conjugate_point_located_at_pi():
    with pytest.raises(rg.ConjugatePointError) as info:
        rg.solve_warping(rg.RadialCurvature.constant(1.0, t_tail=4.0), 4.0)
    assert abs(info.value.t - np.pi) <= 1e-9


SPL = rg.RadialCurvature.from_spline([0.0, 0.9, 1.8, 2.7], [-1.1, -0.25, -0.7, -0.2],
                                     tail=rg.PowerLawTail(-0.2, 3.0))
# SPL sampled at step 2.7/400 and at its knots: 403 knots, with SPL's tail
DENSE_KNOTS = np.union1d(SPL.breakpoints, np.linspace(0.0, 2.7, 401))
DENSE_SPL = rg.RadialCurvature.from_spline(DENSE_KNOTS, SPL(DENSE_KNOTS), tail=SPL.tail)


def formula(expr, end_value):
    """Formula core on [0, 2] from a scenario document, with a p = 3 tail."""
    return rg.RadialCurvature.from_json({
        "core": {"kind": "formula", "expr": expr},
        "tail": {"kind": "power_law", "c": end_value, "p": 3.0}, "t_tail": 2.0})


@pytest.mark.parametrize("k, horizon, kinks", [
    # 403 knots, all of them cell boundaries
    (DENSE_SPL, 13.5, []),
    (rg.nonpositive_min(rg.RadialCurvature.from_spline([0.0, 0.8, 1.6, 2.4],
                                                       [-1.0, -0.15, -0.6, 0.0])), 16.0, []),
    (SPL, 16.0, []),
    # 2,560 cells, solved in two blocks
    (SPL, 40.0, []),
    # a jump and two kinks that are no breakpoints, each strictly inside a
    # cell (the nodes lie on multiples of 1/64)
    (formula("where(t < 1.003, -1.0, -0.5)", -0.5), 8.0, [1.003]),
    (formula("-0.5 - 0.3 * abs(t - 1.003)", -0.5 - 0.3 * 0.997), 8.0, [1.003]),
    (formula("minimum(-0.4, -1.2 + t)", -0.4), 8.0, [0.8]),
    # (h/2)^2 |k| > 1 on the 1/256 pitch splits every cell, and the kink
    # inside the cell of 0.1003 splits its halves again
    (formula("-1e6 - 2e5 * abs(t - 0.1003)", -1e6 - 2e5 * (2.0 - 0.1003)), 0.25, [0.1003]),
], ids=["403-knots", "bump", "power-law", "power-law-two-blocks", "formula-jump", "formula-abs",
        "formula-minimum", "formula-large-abs"])
def test_nodes_match_dop853_referee(k, horizon, kinks):
    w = rg.solve_warping(k, horizon)
    assert w.m_values[0] == 0.0 and w.m_prime_values[0] == 1.0
    assert not np.any(np.isin(kinks, w.grid))
    m_ref, mp_ref = dop853_nodes(k, w.grid, kinks)
    assert np.max(np.abs(w.m_values[1:] - m_ref[1:]) / m_ref[1:]) <= 1e-10
    assert np.max(np.abs(w.m_prime_values - mp_ref) / mp_ref) <= 1e-10


def test_integrals_at_the_nodes_are_their_table_entries():
    # a read at a node adds an empty panel to the cumulative table, so the
    # growth volumes at the node horizons 2, 4, 8 and 16 are table sums
    w = rg.solve_warping(SPL, 16.0)
    for q in (1, 2, 4):
        assert np.array_equal([w.power_integral(q, t) for t in w.grid], w._tables[q])
    assert np.array_equal([w.km_integral(t) for t in w.grid], w._tables["km"])
    assert np.array_equal(w.km_integral(w.grid), w._tables["km"])


class CountingCurvature(rg.RadialCurvature):
    """A curvature that counts its array calls."""

    def __init__(self, base):
        super().__init__(base.core, base.tail, base.t_tail)
        self.array_calls = 0

    def __call__(self, t):
        self.array_calls += np.ndim(t) > 0
        return super().__call__(t)


@pytest.mark.parametrize("horizon, blocks", [(16.0, 1), (48.0, 2)])
def test_smooth_curvature_is_sampled_once_per_block(horizon, blocks):
    k = CountingCurvature(SPL)
    rg.solve_warping(k, horizon)
    assert k.array_calls == blocks + 1  # the samples, then -k m at the nodes


def test_conjugate_point_in_a_later_block():
    # m = t up to t = 40, where a ramp to k = 1 and a p = 3 tail begin: m
    # turns over after t = 41, past the first block of 2,048 cells
    k = rg.RadialCurvature.from_json({
        "core": {"kind": "formula", "expr": "where(t < 40.0, 0.0, t - 40.0)"},
        "tail": {"kind": "power_law", "c": 1.0, "p": 3.0}, "t_tail": 41.0})
    rhs = lambda t, y: (y[1], -float(k(t)) * y[0])
    vanish = lambda t, y: y[0]
    vanish.terminal, vanish.direction = True, -1
    y41 = solve_ivp(rhs, (40.0, 41.0), [40.0, 1.0], method="DOP853",
                    rtol=1e-13, atol=1e-20, max_step=1.0 / 64.0).y[:, -1]
    sol = solve_ivp(rhs, (41.0, 50.0), y41, method="DOP853", events=vanish,
                    rtol=1e-13, atol=1e-20, max_step=1.0 / 64.0)
    with pytest.raises(rg.ConjugatePointError) as info:
        rg.solve_warping(k, 50.0)
    assert abs(info.value.t - sol.t_events[0][0]) <= 1e-9


def test_too_rough_curvature_raises_domain_error():
    # every cell misses its fit, and so does every half of it, and so on
    with pytest.raises(rg.DomainError, match="varies too fast"):
        rg.solve_warping(formula("-1.0 + 0.5 * sin(1e5 * t)", -1.0 + 0.5 * np.sin(2e5)), 4.0)


def test_large_curvature_at_the_ulp_floor_raises_domain_error():
    # k = -1e30 within 1e-15 of the node t = 1: the pieces next to it reach
    # the 64-ulp floor with (h/2)^2 |k| still far above 1, where a series cut
    # at its last term would return m' of order 1e40
    k = rg.RadialCurvature.from_json({
        "core": {"kind": "formula", "expr": "where(abs(t - 1.0) < 1e-15, -1e30, -1.0)"},
        "tail": {"kind": "constant", "c": -1.0}, "t_tail": 2.0})
    with pytest.raises(rg.DomainError, match="too large to solve"):
        rg.solve_warping(k, 2.0)


@pytest.mark.parametrize("c, horizon, match", [
    # bisection cuts each cell near t = 0 into 256 pieces ((h/2)^2 |k| <= 1
    # needs h <= 6.3e-5); 128 pieces per cell are allowed
    (1e9, 5.0, "too large to solve"),
    (-1e9, 5.0, "too large to solve"),
    # 6.4e18 nodes
    (-1.0, 1e17, "t_max must lie in"),
], ids=["huge-positive", "huge-negative", "far-horizon"])
def test_out_of_budget_solve_raises_domain_error(c, horizon, match):
    with pytest.raises(rg.DomainError, match=match):
        rg.solve_warping(rg.RadialCurvature.from_spline([0.0, 1.0], [c, 0.0]), horizon)


def test_a_steep_spline_inside_the_budget_solves():
    """k = -1e8 + 2e9 t on [0, 0.05] solves: |k| <= 1e8 is below the 2.7e8
    that a cell's 128 pieces allow, yet it raised, as next to the root at
    0.05 the fit check chased k's rounding noise, the size of the cell's
    larger values. The nodes up to the anchor against the Airy solution
    (40-digit mpmath): with c = 2e9^(1/3) and z = c (0.05 - t),
    m = pi (Bi(z0) Ai(z) - Ai(z0) Bi(z)) / c."""
    mp = pytest.importorskip("mpmath")
    w = rg.solve_warping(rg.RadialCurvature.from_spline([0.0, 0.05], [-1e8, 0.0]))
    with mp.workdps(40):
        c = mp.cbrt(mp.mpf(2e9))
        z0 = c * mp.mpf(0.05)
        for t, m, mp_ in zip(w.grid[1:], w.m_values[1:], w.m_prime_values[1:]):
            if t > 0.05:
                break
            z = c * (mp.mpf(0.05) - mp.mpf(float(t)))
            want = mp.pi * (mp.airybi(z0) * mp.airyai(z) - mp.airyai(z0) * mp.airybi(z)) / c
            slope = -mp.pi * (mp.airybi(z0) * mp.airyai(z, 1) - mp.airyai(z0) * mp.airybi(z, 1))
            assert abs(m / float(want) - 1.0) <= 1e-12
            assert abs(mp_ / float(slope) - 1.0) <= 1e-12


def test_a_smooth_formula_core_solves_at_large_t():
    """k = -1 + 25 sin(16 pi t) up to t = 100, then the constant -1, solves:
    the argument 16 pi t rounds by about 16 pi t eps, and the fit check took
    that noise for a miss and refused it near t = 64. The nodes at t = 64
    and 100 against Floquet in 20-digit mpmath: the map over one period 1/8
    from mpmath's Taylor integrator, to the powers 512 and 800."""
    mp = pytest.importorskip("mpmath")
    k = rg.RadialCurvature.from_json({
        "core": {"kind": "formula", "expr": "-1 + 25 * sin(16 * pi * t)"},
        "tail": {"kind": "constant", "c": -1.0}, "t_tail": 100.0})
    w = rg.solve_warping(k)
    with mp.workdps(20):
        rhs = lambda t, y: [y[1], (1 - 25 * mp.sin(16 * mp.pi * t)) * y[0]]
        period = mp.matrix([mp.odefun(rhs, 0, y0)(mp.mpf(1) / 8) for y0 in ([1, 0], [0, 1])]).T
        for t in (64.0, 100.0):
            want = period ** int(8 * t) * mp.matrix([0, 1])
            i = int(np.searchsorted(w.grid, t))
            assert abs(w.m_values[i] / float(want[0]) - 1.0) <= 1e-11
            assert abs(w.m_prime_values[i] / float(want[1]) - 1.0) <= 1e-11


def test_a_kink_of_a_formula_core_at_large_t_is_bisected():
    """The tent -1 - max(0, 0.5 - |t - 300.3|) kinks at 299.8, 300.3 and
    300.8, inside cells. The argument's rounding, 64 eps |c| / r times the
    fit's sum i |kappa_i|, stays far below the miss of a kink: the cell of
    300.3 is still cut to pieces below 1e-6 wide, and the nodes match the
    DOP853 referee restarted at the kinks."""
    from radialgeo.warping import _fitted_pieces

    k = rg.RadialCurvature.from_json({
        "core": {"kind": "formula", "expr": "-1 - maximum(0, 0.5 - abs(t - 300.3))"},
        "tail": {"kind": "constant", "c": -1.0}, "t_tail": 301.0})
    _mid, half, _cell, _kappa = _fitted_pieces(k, np.array([19219.0, 19220.0]) / 64.0)
    assert np.min(half) <= 0.5e-6
    w = rg.solve_warping(k)
    grid = np.array([0.0, 299.0, 301.0])
    i = np.searchsorted(w.grid, grid)
    m_ref, mp_ref = dop853_nodes(k, grid, [299.8, 300.3, 300.8], max_step=math.inf)
    assert np.max(np.abs(w.m_values[i[1:]] / m_ref[1:] - 1.0)) <= 1e-10
    assert np.max(np.abs(w.m_prime_values[i] / mp_ref - 1.0)) <= 1e-10


def test_an_overflowing_majorant_raises_domain_error():
    """The majorant M is checked for overflow like m: from M' = 1e308 at the
    pole it passes the largest float over the cusp's core, where m does
    not, so no error bar reads inf."""
    from radialgeo.warping import _carry

    k, grid = CUSP, np.linspace(0.0, 2.0, 129)
    assert all(np.isfinite(v[-1]) for v in _carry(k, grid, [0.0, 1.0, 0.0, 1.0]))
    with pytest.raises(rg.DomainError, match="overflows"):
        _carry(k, grid, [0.0, 1.0, 0.0, 1e308])


def test_conjugate_point_detected():
    # k >= 1 on most of [0, 3.5] forces the profile to vanish near pi < 4
    k = rg.RadialCurvature.from_spline([0.0, 3.5, 4.0], [1.0, 1.0, 0.0])
    with pytest.raises(rg.ConjugatePointError):
        rg.solve_warping(k, 4.0)


def test_slope_limit_trivials():
    w = rg.solve_warping(rg.RadialCurvature.zero(), 12.0)
    assert abs(rg.slope_limit(w) - 1.0) <= 1e-12
    assert abs(rg.total_curvature_direct(w)) <= 1e-12
    assert abs(2.0 * math.pi * (1.0 - rg.slope_limit(w))) <= 1e-11


def test_slope_limit_exact_beyond_compact_support():
    # m'' = 0 past the support, so the slope is already final at t_tail
    for seed in (3, 11, 42):
        env = rg.nonpositive_min(random_compact_curvature(np.random.default_rng(seed)))
        w = rg.solve_warping(env, max(8.0, env.t_tail * 2))
        assert abs(rg.slope_limit(w) - w.m_prime(env.t_tail)) <= 1e-12


def test_power_tail_slope_against_referee():
    w = rg.solve_warping(power_tail_fixture(), 40.0)
    value, bound = rg.slope_limit(w, with_bound=True)
    assert abs(value - POWER_TAIL_SLOPE) <= bound + 1e-8
    assert abs(value - POWER_TAIL_SLOPE) <= 1e-4
    assert bound <= 4e-3
    lo, hi = 1.0, math.exp(-rg.moment_integral(w.k).value)
    assert lo - 1e-12 <= POWER_TAIL_SLOPE <= hi + 1e-12


def bench_reference():
    """radialbench/reference.py, loaded by path and only read."""
    path = Path(__file__).resolve().parents[1] / "radialbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("radialbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SLOW_TAIL_KNOTS = [0.0, 0.9, 1.8, 2.7]
SLOW_TAIL_VALUES = [-0.6226, -1.1584, -0.5752, -0.1983]


@pytest.mark.parametrize("p", [2.1, 2.3, 2.8056, 3.0, 4.0, 5.0])
def test_power_tail_slope_matches_bessel_reference(p):
    c = SLOW_TAIL_VALUES[-1]
    k = rg.RadialCurvature.from_spline(SLOW_TAIL_KNOTS, SLOW_TAIL_VALUES,
                                       tail=rg.PowerLawTail(c, p))
    w = rg.solve_warping(k, 12.0)
    value, bound = rg.slope_limit(w, with_bound=True)
    ref = bench_reference()
    want = ref.power_law_slope_limit(
        ref.SplineCurvature(SLOW_TAIL_KNOTS, SLOW_TAIL_VALUES, ("power_law", c, p)))
    assert abs(value - want) <= min(1e-9 * want, bound)
    if p >= 4.0:
        kind, far = tail_referee(k.tail, k.t_tail, *w.anchor_state(), t_end=1e6)
        assert kind == "limit"
        assert abs(value - far) <= 1e-9 * far


def test_slope_reads_the_anchor_state_from_the_nodes():
    # the anchor node is followed by a cell 0.0017 of the pitch wide, where
    # the interpolant's m' is off by 1.4e-11
    knots = [0.0, 0.3812447509124314, 0.7624895018248627, 1.143734252737294,
             1.5249790036497255, 1.906223754562157]
    values = [-1.193021108536957, -0.5463498554043624, -1.1996071920142608,
              -0.4764033876007819, -0.6776730026260516, -0.20389743312528796]
    tail = ("power_law", values[-1], 3.609832296335494)
    k = rg.RadialCurvature.from_spline(knots, values, tail=rg.PowerLawTail(*tail[1:]))
    w = rg.solve_warping(k, 12.0)
    ref = bench_reference()
    want = ref.power_law_slope_limit(ref.SplineCurvature(knots, values, tail))
    assert abs(rg.slope_limit(w) - want) <= 2e-12 * want


def test_anchor_state_consumers_make_no_solve(monkeypatch):
    """slope_limit, total_curvature_direct, classify_ball_volume and a pinch
    check read the tail's continuation once per solution, and solve nothing,
    for a curvature positive somewhere too: the anchor's error bar reads the
    majorant the solve carried."""
    from radialgeo import criteria, volume, warping

    k_le0, cusp = power_tail_fixture(), CUSP
    w, w_cusp = rg.solve_warping(k_le0, k_le0.t_tail), rg.solve_warping(cusp)
    flat, cusp_numerator = (rg.RotSymManifold.from_curvature(3, k, 17.0)
                            for k in (rg.RadialCurvature.zero(), cusp))
    solves, reads = [], []
    solve = warping.solve_warping
    for module in (criteria, volume, warping):
        monkeypatch.setattr(module, "solve_warping",
                            lambda k, *a: solves.append(k) or solve(k, *a))
    for tail in (rg.ZeroTail, rg.PowerLawTail, rg.ConstantTail):
        monkeypatch.setattr(tail, "continuation", lambda self, *a, read=tail.continuation:
                            reads.append(type(self)) or read(self, *a))

    rg.slope_limit(w)
    rg.classify_ball_volume(3, k_le0, warping=w)
    rg.total_curvature_direct(w)
    rg.sectional_pinch_check(3, k_le0, flat, warping=w)
    assert solves == []
    assert sorted(reads, key=repr) == [rg.PowerLawTail, rg.ZeroTail]  # w and the numerator's

    reads.clear()
    rg.classify_ball_volume(3, cusp, warping=w_cusp)
    rg.total_curvature_direct(w_cusp)
    rg.sectional_pinch_check(3, cusp, cusp_numerator, warping=w_cusp)
    assert reads == [rg.ConstantTail, rg.ConstantTail]  # w_cusp and the numerator's
    assert solves == []


def test_total_curvature_diverges_for_constant_tail():
    w = rg.solve_warping(rg.RadialCurvature.constant(-1.0), 20.0)
    with pytest.raises(rg.UnboundedError):
        rg.total_curvature_direct(w)
    with pytest.raises(rg.UnboundedError):
        rg.slope_limit(w)


def test_ramp_isoperimetric_identity():
    k = rg.RadialCurvature.from_spline([0.0, 1.0], [-1.0, 0.0])
    w = rg.solve_warping(k, 10.0)
    direct = rg.total_curvature_direct(w)
    iso = 2.0 * math.pi * (1.0 - rg.slope_limit(w))
    assert direct < 0.0
    assert abs(direct - iso) <= 1e-6


def test_sturm_properties_over_corpus():
    # for k <= 0: m' nondecreasing, m >= t, and more negative curvature
    # gives the larger profile
    for seed in range(20):
        rng = np.random.default_rng(seed)
        k = random_compact_curvature(rng)
        env = rg.nonpositive_min(k)
        horizon = max(8.0, env.t_tail * 2)
        w = rg.solve_warping(env, horizon)
        ts = np.linspace(0.0, horizon, 401)
        mp = w.m_prime(ts)
        assert np.all(np.diff(mp) >= -1e-10)
        assert np.all(w.m(ts) >= ts - 1e-9)
        # doubling the curvature depth dominates the original
        deeper = rg.nonpositive_min(
            rg.RadialCurvature.from_spline(
                np.asarray(k.breakpoints, dtype=float),
                2.0 * np.asarray(k(k.breakpoints), dtype=float),
            )
        )
        w2 = rg.solve_warping(deeper, horizon)
        assert np.all(w2.m(ts) >= w.m(ts) - 1e-9)


def test_model_surface_wraps_solution():
    env = rg.nonpositive_min(random_compact_curvature(np.random.default_rng(5)))
    s = rg.ModelSurface.from_curvature(env, 10.0)
    ts = np.linspace(0.0, 10.0, 201)
    w = rg.solve_warping(env, 10.0)
    assert np.max(np.abs(s.warping.m(ts) - w.m(ts))) <= 1e-12


_INTERPOLANT_CASES = pytest.mark.parametrize("k, horizon", [
    (rg.RadialCurvature.constant(-1.0), 16.0),
    # knots 0.3, 1.1, 1.7 and 2.35 fall between the 1/64-spaced nodes
    (rg.RadialCurvature.from_spline([0.0, 0.3, 1.1, 1.7, 2.35],
                                    [-0.8, -1.2, -0.4, -0.6, -0.3],
                                    tail=rg.PowerLawTail(-0.3, 3.5)), 8.0),
], ids=["hyperbolic", "spline-off-grid"])


@_INTERPOLANT_CASES
def test_interpolant_matches_hermite_reference(k, horizon):
    w = rg.solve_warping(k, horizon)
    # reference: scipy's general Hermite construction from the same node data
    ref = BPoly.from_derivatives(w.grid, np.stack(
        [w.m_values, w.m_prime_values, -k(w.grid) * w.m_values], axis=1))
    assert np.array_equal(w.m(w.grid), w.m_values)
    assert np.max(np.abs(w.m_prime(w.grid) - w.m_prime_values)
                  / w.m_prime_values) <= 1e-12
    ts = np.linspace(0.0, horizon, 20001)
    cell = np.clip(np.searchsorted(w.grid, ts, side="right") - 1, 0, len(w.grid) - 2)
    h = np.diff(w.grid)[cell]
    m_ref = ref(ts)
    # Both constructions round their Bernstein coefficients at about eps*|m|,
    # and the j-th derivative divides that by h**j, so each derivative is
    # compared relative to max(|reference|, |m| / h**j).
    for j, got in enumerate((w.m(ts), w.m_prime(ts), w.m_second(ts))):
        want = ref.derivative(j)(ts) if j else m_ref
        scale = np.maximum(np.abs(want), np.abs(m_ref) / h ** j)
        assert np.all(np.abs(got - want) <= 1e-13 * scale), j


@_INTERPOLANT_CASES
def test_interpolant_reproduces_node_data_exactly(k, horizon):
    # every node, t_max included, starts a cell whose constant, linear and
    # quadratic coefficients are m, m' and m''/2 there
    w = rg.solve_warping(k, horizon)
    assert w.grid[-1] == horizon
    assert np.array_equal(w.m(w.grid), w.m_values)
    assert np.array_equal(w.m_prime(w.grid), w.m_prime_values)
    assert np.array_equal(w.m_second(w.grid), -k(w.grid) * w.m_values)


def test_breakpoint_next_to_a_node_leaves_no_sliver_cell():
    # the last knot is t_tail, so at the horizon 5 * t_tail it lies within
    # an ulp of the uniform node at a fifth of the horizon
    env = rg.nonpositive_min(rg.RadialCurvature.from_spline(
        [0.0, 0.957661404947431, 1.915322809894862, 2.872984214842293],
        [-1.1850741345986984, -0.7897154578683541, -1.1535533519483232, 0.0]))
    w = rg.solve_warping(env, 5.0 * env.t_tail)
    w12 = rg.solve_warping(env, 12.0)
    assert abs(w.m_prime(env.t_tail) - w12.m_prime(env.t_tail)) <= 1e-9
    assert abs(rg.slope_limit(w) - rg.slope_limit(w12)) <= 1e-9
    iso = 2.0 * math.pi * (1.0 - rg.slope_limit(w))
    assert abs(rg.total_curvature_direct(w) - iso) <= 1e-6


def test_two_close_breakpoints_leave_no_sliver_cell():
    # the kink at 1 is declared twice, 2 ulps apart; kept as two nodes they
    # made a cell 4.4e-16 wide whose m' read 1.28086 at both ends and
    # 1.69175 at its midpoint
    twin = 1.0 + 2.0 * np.spacing(1.0)
    core = rg.FormulaCore(lambda t: -np.abs(t - 1.0) - 0.2, expr="-abs(t - 1.0) - 0.2",
                          breakpoints=[0.0, 1.0, twin, 3.0])
    k = rg.RadialCurvature(core, rg.ConstantTail(-2.2), 3.0)
    w = rg.solve_warping(k, 3.0)
    assert twin not in w.grid
    assert np.min(np.diff(w.grid)) >= 1.0 / 64.0 * (1.0 - 1e-12)
    mp = w.m_prime(np.array([1.0, 0.5 * (1.0 + twin), twin]))
    assert np.max(np.abs(mp - mp[0])) <= 1e-12
    ref = solve_ivp(lambda t, y: [y[1], -k(t) * y[0]], (0.0, 2.0), [0.0, 1.0],
                    method="DOP853", rtol=1e-12, atol=1e-14, t_eval=[1.0, 2.0])
    assert np.allclose(w.m_prime(np.array([1.0, 2.0])), ref.y[1], rtol=1e-9, atol=0.0)


def test_anchor_state_off_a_node_reads_the_interpolant():
    # the anchor lies within the sliver distance of the end node 1, so it is
    # no node; its state is the interpolant's
    k = rg.RadialCurvature.from_spline([0.0, 1.0 - 1e-6], [-0.5, -0.2], rg.ConstantTail(-0.2))
    w = rg.solve_warping(k)
    a = k.t_tail
    assert w.t_max == 1.0 and a not in w.grid
    state = w.anchor_state()
    assert state == (w.m(a), w.m_prime(a))
    assert state == pytest.approx((1.0593524314116962, 1.1542137611496819), rel=1e-14)


@pytest.mark.parametrize("knots, values", [
    # the envelope clips a narrow positive excursion on [0.596, 0.606]
    (np.linspace(0.0, 2.502113312931691, 5),
     [-1.188696709433065, -0.0012358323063138, -0.38637881810235486,
      -0.21276237120798924, 0.0]),
    # the core meets the zero tail with a nonzero slope at t_tail
    ([0.0, 0.5869512851753205, 1.173902570350641, 1.7608538555259614,
      2.347805140701282],
     [-1.0918316713460046, -1.392676074111377, -0.8438432117082116,
      -0.9916010200672085, 0.0]),
], ids=["zero-crossing", "tail-junction"])
def test_isoperimetric_identity_across_curvature_kinks(knots, values):
    # a Runge-Kutta step across a kink of k missed m' by about 3e-7 here
    env = rg.nonpositive_min(rg.RadialCurvature.from_spline(knots, values))
    w = rg.solve_warping(env, 12.0)
    iso = 2.0 * math.pi * (1.0 - rg.slope_limit(w))
    assert abs(rg.total_curvature_direct(w) - iso) <= 1e-9


@pytest.mark.parametrize("k", [
    rg.RadialCurvature.zero(),
    rg.RadialCurvature.constant(-1.0),
    rg.nonpositive_min(rg.RadialCurvature.from_spline([0.0, 0.8, 1.6, 2.4],
                                                      [-1.0, -0.15, -0.6, 0.0])),
    rg.RadialCurvature.from_spline([0.0, 0.9, 1.8, 2.7], [-1.1, -0.25, -0.7, -0.2],
                                   tail=rg.PowerLawTail(-0.2, 3.0)),
], ids=["flat", "hyperbolic", "bump", "power-law"])
def test_inverse_matches_newton_referee(k):
    w = rg.solve_warping(k, 16.0)
    # radii between the nodes, on the nodes, at the pole and at the horizon
    ts = np.concatenate([np.linspace(0.0, 16.0, 4001), w.grid[::7], [1e-9]])
    mu = w.m(ts)
    t, mp, mpp = w.invert(mu)
    want = newton_inverse(w, mu)
    assert np.all(np.abs(t - want) <= 2e-15 * np.maximum(want, 1e-300))
    # m' and m'' are read where the Newton step starts, and m' is carried
    # over the step (about 1e-11) to first order, which is exact to rounding
    assert np.all(np.abs(mp - w.m_prime(t)) <= 4 * np.spacing(mp))
    assert np.all(np.abs(mpp - w.m_second(t)) <= 1e-10 * np.maximum(1.0, np.abs(mpp)))


def test_corpus_pipeline_builds_no_inverse():
    k = rg.nonpositive_min(random_compact_curvature(np.random.default_rng(3)))
    s = rg.ModelSurface.from_curvature(k, 12.0)
    rg.slope_limit(s.warping, with_bound=True)
    rg.total_curvature_direct(s.warping)
    rg.model_ball_volume(3, s.warping, k.t_tail + 2.0)
    assert s.warping._t_of_mu is None
    rg.distance(s, rg.SurfacePoint(1.0), rg.SurfacePoint(2.0, 1.0))
    assert s.warping._t_of_mu is not None


# ---------------------------------------------------------------------------
# Reads past t_max carry the solution on
# ---------------------------------------------------------------------------

_CARRY_CURVATURES = pytest.mark.parametrize("k", [
    rg.RadialCurvature.constant(-1.0),
    rg.nonpositive_min(rg.RadialCurvature.from_spline([0.0, 0.8, 1.6, 2.4],
                                                      [-1.0, -0.15, -0.6, 0.0])),
    SPL,
    # a constant tail whose anchor lies past t = 1: the carry from there
    # starts inside the transfer-matrix range
    rg.RadialCurvature.from_spline(
        [0.0, 0.7329240420869336, 1.4658480841738672, 2.198772126260801],
        [-0.7482242750812449, -0.0866813231145428, -0.4258562402940216, -0.3617344751803877],
        rg.ConstantTail(-0.3617344751803877)),
], ids=["hyperbolic", "bump", "power-law", "matrix-range"])

_READERS = {
    "m": lambda w, t: w.m(t),
    "m_prime": lambda w, t: w.m_prime(t),
    "m_second": lambda w, t: w.m_second(t),
    "power_integral": lambda w, t: w.power_integral(3, t),
    "km_integral": lambda w, t: w.km_integral(t),
}


@_CARRY_CURVATURES
@pytest.mark.parametrize("reader", list(_READERS))
def test_reads_past_the_horizon_equal_a_longer_solve(k, reader):
    full = rg.solve_warping(k, 16.0)
    w = rg.solve_warping(k, 1.0)
    read = _READERS[reader]
    # each of these reads is the one that carries w on to its t
    assert read(w, 4.3) == read(full, 4.3)
    assert w.t_max == 4.3125
    assert read(w, 16.0) == read(full, 16.0)
    assert w.t_max == 16.0
    assert np.array_equal(w.grid, full.grid)
    assert np.array_equal(w.m_values, full.m_values)
    assert np.array_equal(w.m_prime_values, full.m_prime_values)
    ts = np.linspace(0.0, 16.0, 1601)
    for other in _READERS.values():
        assert np.array_equal(other(w, ts), other(full, ts))
    mu = full.m(ts)
    assert all(np.array_equal(a, b) for a, b in zip(w.invert(mu), full.invert(mu)))


@_CARRY_CURVATURES
def test_carrying_on_keeps_the_node_data_already_computed(k):
    # 2.3 is no node of the 1/64 lattice: the solve stops at the next one
    w = rg.solve_warping(k, 2.3)
    assert w.t_max == 148 / 64
    grid, m, mp = w.grid.copy(), w.m_values.copy(), w.m_prime_values.copy()
    w.m_prime(np.array([0.5, 7.9]))
    assert w.t_max == 506 / 64
    assert np.array_equal(w.grid[:grid.size], grid)
    assert np.array_equal(w.m_values[:grid.size], m)
    assert np.array_equal(w.m_prime_values[:grid.size], mp)


@_CARRY_CURVATURES
def test_extend_to_carries_on_in_one_step_to_a_longer_solve(k):
    # reads past the last node carry the solution on, appending the cells of
    # a direct solve to its interpolant
    full = rg.solve_warping(k, 16.0)
    w = rg.solve_warping(k)
    w.m(np.array([0.3, 4.7]))
    assert w.m(16.0) == full.m(16.0)
    assert np.array_equal(w.grid, full.grid)
    assert np.array_equal(w.m_values, full.m_values)
    assert np.array_equal(w.m_prime_values, full.m_prime_values)
    assert np.array_equal(w._m_second_values, full._m_second_values)
    assert np.array_equal(w._jet.c, full._jet.c)
    assert np.array_equal(w._jet.x, full._jet.x)
    # a horizon already reached leaves the solution and its interpolant alone
    poly = w._jet
    w.m(8.0)
    assert w.t_max == 16.0 and w._jet is poly


@_CARRY_CURVATURES
def test_an_integral_table_outlives_a_carry(k):
    full = rg.solve_warping(k, 16.0)
    w = rg.solve_warping(k, 2.0)
    w.power_integral(2, 2.0)
    table = w._tables[2]
    w.m(16.0)
    assert w._tables[2] is table
    ts = np.array([1.1, 2.0, 7.3, 16.0])
    assert np.array_equal(w.power_integral(2, ts), full.power_integral(2, ts))
    assert np.array_equal(w._tables[2], full._tables[2][:w._tables[2].size])
    assert np.array_equal(w.km_integral(ts), full.km_integral(ts))


def _spike(c, at):
    """k = c on [at - 0.015, at + 0.015], between two breakpoints, and -1 elsewhere."""
    return rg.RadialCurvature.from_json({
        "core": {"kind": "formula", "expr": f"where(abs(t - {at}) < 0.015, {c}, -1.0)",
                 "breakpoints": [0.0, at - 0.015, at + 0.015, 16.0]},
        "tail": {"kind": "constant", "c": -1.0}, "t_tail": 16.0})


def test_the_piece_budget_is_per_cell_whatever_the_carries():
    # k = -1e8 cuts each cell in [0.29, 0.32] into 128 pieces, the most a
    # cell may have: a carry over the six cells from 0.28 to 0.34 solves
    # them as a direct solve does
    k = _spike(-1e8, 0.305)
    full = rg.solve_warping(k, 16.0)
    w = rg.solve_warping(k, 0.28)
    assert w.m(0.34) == full.m(0.34)
    w.m(16.0)
    assert np.array_equal(w.m_values, full.m_values)
    assert np.array_equal(w._jet.c, full._jet.c)
    # k = -1e9 needs 256: carries by steps raise where a direct solve does
    k = _spike(-1e9, 10.305)
    with pytest.raises(rg.DomainError, match="too large to solve") as direct:
        rg.solve_warping(k, 16.0)
    w = rg.solve_warping(k, 4.0)
    w.m(8.0)
    with pytest.raises(rg.DomainError, match="too large to solve") as stepwise:
        w.m(12.0)
    assert str(stepwise.value) == str(direct.value)
    assert w.t_max == 8.0


def _corpus_curvature(rng, kind):
    """A random spline curvature with evenly spaced knots and a zero,
    power-law or constant tail, as the benchmark corpus draws them."""
    if kind == "zero":
        return random_compact_curvature(rng)
    t_tail, vals = rng.uniform(0.8, 3.0), -rng.uniform(0.1, 1.2, rng.integers(4, 7))
    tail = (rg.ConstantTail(vals[-1]) if kind == "constant"
            else rg.PowerLawTail(vals[-1], rng.uniform(3.0, 4.5)))
    return rg.RadialCurvature.from_spline(np.linspace(0.0, t_tail, vals.size), vals, tail)


def test_a_solution_carried_on_is_a_direct_solve_whatever_its_first_horizon():
    rng = np.random.default_rng(23)
    sliver = 1e-3 / 64
    for i in range(36):
        raw = _corpus_curvature(rng, ("zero", "power-law", "constant")[i % 3])
        for k in (raw, rg.nonpositive_min(raw)):
            full = rg.solve_warping(k, 16.0)
            for first in (1.0, 2.3, 3.0, k.t_tail):
                stop = math.ceil(64 * first) / 64
                if np.any(np.abs(k.breakpoints - stop) < sliver):
                    continue  # the one exception: a breakpoint in the stop node's place
                w = rg.solve_warping(k, first)
                assert w.t_max == stop
                w.m(16.0)
                assert np.array_equal(w.grid, full.grid)
                assert np.array_equal(w.m_values, full.m_values)
                assert np.array_equal(w.m_prime_values, full.m_prime_values)


def test_solution_without_a_horizon_starts_at_the_lattice_node_past_the_anchor():
    # t_tail = 2.7 lies between the nodes 172/64 and 173/64
    assert rg.solve_warping(SPL).t_max == 173 / 64
    assert rg.ModelSurface.from_curvature(SPL).warping.t_max == 173 / 64
    assert rg.RotSymManifold.from_curvature(3, SPL).t_max == 173 / 64
    doc = rg.RotSymManifold.from_curvature(3, SPL, t_max=5.0).to_json()
    del doc["t_max"]
    assert rg.RotSymManifold.from_json(doc).t_max == 173 / 64
    assert rg.solve_warping(rg.RadialCurvature.constant(-1.0)).t_max == 1.0


# the criterion-10 cusp of test_acceptance, 1e-10 steeper: its growing-mode
# amplitude at the anchor is negative, so m reaches zero in the constant tail
CUSP_A = 3.8205221749659675 * (1.0 + 1e-10)


@pytest.mark.parametrize("k, error", [
    # m' = -0.603 at the anchor 2 of a zero tail: m falls through zero at 2.49
    (rg.RadialCurvature.from_spline([0.0, 1.0, 2.0], [2.0, 2.0, 0.0]), rg.ConjugatePointError),
    (rg.RadialCurvature.from_spline([0.0, 0.5, 1.0, 1.5, 2.0],
                                    [CUSP_A, CUSP_A, 0.5 * CUSP_A, -0.5, -1.0],
                                    rg.ConstantTail(-1.0)), rg.ConjugatePointError),
    # sinh(100 t) passes the largest float before t = 7.1
    (rg.RadialCurvature.constant(-1e4), rg.DomainError),
], ids=["falling-zero-tail", "cusp", "overflow"])
def test_a_tail_raises_alike_in_a_solve_and_a_carry(k, error):
    with pytest.raises(error) as direct:
        rg.solve_warping(k, 16.0)
    w = rg.solve_warping(k)
    grid, poly = w.grid, w._jet
    with pytest.raises(error) as carried:
        w.m(16.0)
    assert str(carried.value) == str(direct.value)
    if error is rg.ConjugatePointError:
        assert carried.value.t == direct.value.t and direct.value.t > k.t_tail
    # the failed read leaves the solution as it was
    assert w.grid is grid and w._jet is poly


def test_read_past_4096_raises_domain_error():
    w = rg.solve_warping(rg.RadialCurvature.zero(), 1.0)
    for read in _READERS.values():
        with pytest.raises(rg.DomainError, match="solved up to t = 4096"):
            read(w, np.array([0.5, 4096.5]))
    assert w.t_max == 1.0


def test_read_past_a_conjugate_point_raises_where_a_solve_does():
    k = rg.RadialCurvature.constant(1.0, t_tail=4.0)
    with pytest.raises(rg.ConjugatePointError) as direct:
        rg.solve_warping(k, 3.5)
    w = rg.solve_warping(k, 1.0)
    with pytest.raises(rg.ConjugatePointError) as carried:
        w.m(3.5)
    assert carried.value.t == direct.value.t
    assert abs(carried.value.t - np.pi) <= 1e-9
    # the failed read leaves the solution as it was
    assert w.t_max == 1.0 and w.m(1.0) == rg.solve_warping(k, 1.0).m(1.0)
