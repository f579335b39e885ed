"""Sphere caps, model ball volumes, growth ratios."""

import math

import numpy as np
import pytest

import radialgeo as rg

from conftest import (FormulaCore, bishop_monotonicity_check, bishop_pair, cap_volume,
                      corpus_curvature, gauss_ball_volume, majorant_referee)

# Total volume of the finite fixture below: classical RK4 (h = 1e-5) to the
# tail anchor plus the closed-form integral of the decaying tail mode.
CUSP_AMPLITUDE = 3.8205221749659675
CUSP_TOTAL_VOLUME = 3.7774359874679977


def cusp_fixture(a=CUSP_AMPLITUDE):
    # interior values tuned (bisection on the growing-mode amplitude) so the
    # profile decays like e^{-t} past the anchor
    return rg.RadialCurvature.from_spline(
        [0.0, 0.5, 1.0, 1.5, 2.0],
        [a, a, 0.5 * a, -0.5, -1.0],
        tail=rg.ConstantTail(-1.0),
    )


def test_unit_sphere_closed_forms():
    assert abs(rg.unit_sphere_volume(1) - 2.0 * math.pi) <= 1e-14
    assert abs(rg.unit_sphere_volume(2) - 4.0 * math.pi) <= 1e-13
    assert abs(rg.unit_sphere_volume(3) - 2.0 * math.pi**2) <= 1e-13
    # omega_k = 2 pi omega_{k-2} / (k - 1)
    for k in range(3, 11):
        expect = 2.0 * math.pi * rg.unit_sphere_volume(k - 2) / (k - 1)
        assert abs(rg.unit_sphere_volume(k) - expect) <= 1e-12 * expect


def test_cap_fraction_trivials_and_symmetry():
    for n in range(2, 9):
        assert rg.cap_fraction(n, 0.0) == 0.0
        assert abs(rg.cap_fraction(n, math.pi) - 1.0) <= 1e-13
        assert abs(rg.cap_fraction(n, math.pi / 2.0) - 0.5) <= 1e-13
    # n = 3 closed form: (1 - cos r) / 2
    rs = np.linspace(0.0, math.pi, 41)
    for r in rs:
        assert abs(rg.cap_fraction(3, float(r)) - (1.0 - math.cos(r)) / 2.0) <= 1e-13
    assert abs(rg.cap_fraction(3, 2.0 * math.pi / 3.0) - 0.75) <= 1e-13


@pytest.mark.parametrize("n", [3, 4, 300, 3000, 10**4])
def test_cap_fraction_matches_mpmath_at_any_dimension(n):
    # referee: the regularized incomplete beta function at 50 digits, at
    # every angle where the fraction is a normal float
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for r in np.linspace(0.05, math.pi - 0.05, 13):
        r = float(r)
        lower = mp.betainc((n - 1) / mp.mpf(2), 0.5, 0, mp.sin(mp.mpf(r)) ** 2,
                           regularized=True) / 2
        want = lower if r <= math.pi / 2.0 else 1 - lower
        if want > 1e-300:
            assert abs(rg.cap_fraction(n, r) - want) <= 1e-12 * want, r
        # reflection, bit for bit: pi - r is exact for r in [pi/2, pi]
        if r >= math.pi / 2.0:
            assert rg.cap_fraction(n, r) == 1.0 - rg.cap_fraction(n, math.pi - r)


def test_cap_volume_consistent_with_fraction():
    # cap_volume integrates sin^{n-2} directly; the fraction normalizes by a
    # separately computed total, so agreement checks the sphere recurrence
    for n in range(2, 9):
        total = rg.unit_sphere_volume(n - 1)
        for delta in np.linspace(0.0, math.pi, 50):
            diff = cap_volume(n, float(delta)) - total * rg.cap_fraction(n, float(delta))
            assert abs(diff) <= 1e-10


def test_flat_ball_volume_closed_form():
    w = rg.solve_warping(rg.RadialCurvature.zero(), 8.0)
    for n in range(2, 7):
        for r in (0.5, 1.0, 2.0, 5.0):
            expect = math.pi ** (n / 2.0) * r**n / math.gamma(n / 2.0 + 1.0)
            got = rg.model_ball_volume(n, w, r)
            assert abs(got - expect) <= 1e-10 * expect


def test_hyperbolic_ball_volume_closed_form_n3():
    # H^3: vol B_r = pi (sinh 2r - 2r)
    w = rg.solve_warping(rg.RadialCurvature.constant(-1.0), 8.0)
    for r in (0.5, 1.0, 2.0, 4.0):
        expect = math.pi * (math.sinh(2.0 * r) - 2.0 * r)
        got = rg.model_ball_volume(3, w, r)
        assert abs(got - expect) <= 1e-9 * expect


def test_growth_ratio_flat_over_flat_is_one():
    w1 = rg.solve_warping(rg.RadialCurvature.zero(), 18.0)
    w2 = rg.solve_warping(rg.RadialCurvature.zero(), 18.0)
    gr = rg.growth_ratio(3, w1, w2, rg.DEFAULT_HORIZONS, dominated=True)
    assert gr.monotone_nonincreasing
    assert abs(gr.samples[-1][3] - 1.0) <= 1e-9
    for _, _, _, ratio in gr.samples:
        assert abs(ratio - 1.0) <= 1e-10


def test_growth_ratio_flat_over_hyperbolic_decays():
    num = rg.solve_warping(rg.RadialCurvature.zero(), 18.0)
    den = rg.solve_warping(rg.RadialCurvature.constant(-1.0), 18.0)
    gr = rg.growth_ratio(3, num, den, rg.DEFAULT_HORIZONS, dominated=True)
    assert gr.monotone_nonincreasing
    assert bishop_monotonicity_check(gr)
    ratios = [s[3] for s in gr.samples]
    assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert gr.samples[-1][3] <= 1e-6


def test_growth_ratio_violation_reported():
    # swapped orientation grows, so monotonicity must fail loudly
    num = rg.solve_warping(rg.RadialCurvature.constant(-1.0), 18.0)
    den = rg.solve_warping(rg.RadialCurvature.zero(), 18.0)
    gr = rg.growth_ratio(3, num, den, rg.DEFAULT_HORIZONS)
    assert not gr.monotone_nonincreasing
    # the comparison lemma only speaks under declared domination
    with pytest.raises(rg.DomainError):
        bishop_monotonicity_check(gr)


def formula_curvature(func, breakpoints, tail):
    """The closed form func on [0, last breakpoint], then the tail."""
    return rg.RadialCurvature(FormulaCore(func, breakpoints=breakpoints), tail,
                              breakpoints[-1])


def test_growth_limit_of_equal_growing_modes_is_their_amplitude_ratio():
    # flat to t = 1, then k = -1: m = e^(t - 1) against sinh t ~ e^t / 2
    num = rg.solve_warping(formula_curvature(lambda t: np.where(t < 1.0, 0.0, -1.0), [0.0, 1.0],
                                             rg.ConstantTail(-1.0)))
    den = rg.solve_warping(rg.RadialCurvature.constant(-1.0))
    for n in (2, 3, 5):
        limit, err = rg.growth_ratio(n, num, den, rg.DEFAULT_HORIZONS, dominated=True).limit()
        assert err == 20 * (n - 1) * rg.DEFAULT_REL_TOL * limit
        assert abs(limit - (2.0 / math.e) ** (n - 1)) <= err


def test_a_growth_limit_beyond_the_largest_float_is_no_limit():
    # m = sin t to t = 1.57, then m' = cos(1.57), about 8e-4, so for n = 300
    # the limit 1250^299 of flat over it is no float
    num = rg.solve_warping(rg.RadialCurvature.zero())
    den = rg.solve_warping(formula_curvature(lambda t: np.where(t < 1.57, 1.0, 0.0), [0.0, 1.57],
                                             rg.ZeroTail()))
    gr = rg.growth_ratio(300, num, den, (1.0,))
    assert gr.limit() is None
    with pytest.raises(rg.DomainError, match="the numerator's ball volumes outgrow"):
        gr.bracket()


def test_bishop_corpus_sample():
    for seed in (0, 1, 2, 3):
        n, w_num, w_den = bishop_pair(np.random.default_rng(seed))
        gr = rg.growth_ratio(n, w_num, w_den, rg.DEFAULT_HORIZONS, dominated=True)
        ratios = [s[3] for s in gr.samples]
        assert all(a >= b - 1e-9 for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] <= 1.0 + 1e-9
        assert bishop_monotonicity_check(gr)


def test_growth_ratio_against_a_finite_model_raises():
    flat = rg.solve_warping(rg.RadialCurvature.zero(), 16.0)
    cusp = rg.solve_warping(cusp_fixture())
    with pytest.raises(rg.ConditionB1ViolatedError,
                       match=r"denominator ball volumes stay bounded \(3\.77744\)"):
        rg.growth_ratio(3, flat, cusp, rg.DEFAULT_HORIZONS)


def test_classify_flat_and_hyperbolic_divergent():
    assert rg.classify_ball_volume(3, rg.RadialCurvature.zero()).kind == "divergent"
    out = rg.classify_ball_volume(3, rg.RadialCurvature.constant(-1.0))
    assert out.kind == "divergent"
    assert out.total is None


def test_classify_cusp_finite_matches_quadrature_oracle():
    out = rg.classify_ball_volume(3, cusp_fixture())
    assert out.kind == "finite"
    assert out.total == pytest.approx(CUSP_TOTAL_VOLUME, rel=1e-8)


def test_classify_rejects_a_solution_of_another_curvature():
    # read as the cusp's, a flat solution made its finite volume "divergent"
    flat = rg.solve_warping(rg.RadialCurvature.zero(), 4.0)
    with pytest.raises(rg.DomainError, match="another curvature"):
        rg.classify_ball_volume(3, cusp_fixture(), warping=flat)


def test_classify_overshooting_cusp_at_exact_conjugate_point():
    k = cusp_fixture(CUSP_AMPLITUDE * (1.0 + 1e-8))
    with pytest.raises(rg.ConjugatePointError) as solved:
        rg.solve_warping(k, 40.0)
    with pytest.raises(rg.ConjugatePointError) as classified:
        rg.classify_ball_volume(3, k)
    assert abs(classified.value.t - solved.value.t) <= 1e-6


def mpmath_cusp_amplitude(k):
    """Referee: the growing-mode amplitude (m' + m)(a) of a spline core with
    a constant -1 tail, from 30-digit mpmath ``odefun`` (Taylor series) run
    piece by piece on the spline's float64 cubics."""
    mp = pytest.importorskip("mpmath")
    spline = k.core._spline
    with mp.workdps(30):
        y = [mp.mpf(0), mp.mpf(1)]
        for i in range(spline.c.shape[1]):
            x0 = mp.mpf(float(spline.x[i]))
            cubic = [mp.mpf(float(v)) for v in spline.c[:, i]]
            rhs = lambda t, y: [y[1], -mp.polyval(cubic, t - x0) * y[0]]
            y = mp.odefun(rhs, x0, y)(mp.mpf(float(spline.x[i + 1])))
        return float(y[1] + y[0])


def step_core(a):
    """k = 1 up to a, then a zero tail: m = sin t there, so m'(a) = cos a."""
    return rg.RadialCurvature(FormulaCore(lambda t: np.where(t < a, 1.0, 0.0),
                                          breakpoints=[0.0, a]), rg.ZeroTail(), a)


ANCHOR_CASES = {
    **{f"cusp{j:+d}": (lambda j=j: cusp_fixture(CUSP_AMPLITUDE * (1.0 + j * 1e-10)))
       for j in range(-3, 4)},
    # pi/2 itself is the zero-slope reproducer: the solve reads -2.5e-15
    **{f"step-{a!r}": (lambda a=a: step_core(a))
       for a in (math.pi / 2 - 1e-9, math.pi / 2 - 1e-14, 1.57079632679, math.pi / 2)},
}


@pytest.mark.parametrize("case", list(ANCHOR_CASES))
def test_the_anchor_error_bar_holds_the_truth(case):
    """The tail's limit at the anchor, within its reported error, against the
    truth: 30-digit mpmath for the cusp family a* (1 + j 1e-10), the closed
    form cos a for the step cores. Outside the bar the class agrees with
    the truth; a slope within it is given with its error, never negative."""
    k = ANCHOR_CASES[case]()
    cusp = case.startswith("cusp")
    truth = mpmath_cusp_amplitude(k) if cusp else math.cos(k.t_tail)
    w = rg.solve_warping(k)
    try:
        out = rg.classify_ball_volume(3, k, warping=w)
    except rg.ConjugatePointError as err:
        assert truth < 0.0
        with pytest.raises(rg.ConjugatePointError) as solved:
            rg.solve_warping(k, 16.0)
        assert err.t == solved.value.t
        return
    limit, bound = w.tail_limit
    assert abs(truth - limit) <= bound
    if abs(truth) > bound:
        assert truth > 0.0 and out.kind == "divergent"
    elif cusp:
        assert out.kind == "finite" and f"{limit!r} +/- {bound!r}" in out.note
    else:
        assert limit >= 0.0 and out.note == f"warping slope tends to {limit!r} +/- {bound!r}"
    if case == "cusp-1":  # a grace of 1e-9 of the state's scale made it finite
        assert out.kind == "divergent"


def positive_tail(c, p):
    return rg.RadialCurvature.from_spline([0.0, 1.0], [-0.2, c], tail=rg.PowerLawTail(c, p))


@pytest.mark.parametrize("c, p", [(0.05, 3.0), (0.3, 2.5), (1.0, 4.0)])
def test_classify_positive_power_tail_divergent(c, p):
    assert rg.classify_ball_volume(3, positive_tail(c, p)).kind == "divergent"


def test_a_numerator_limit_within_its_error_bounds_the_growth_limit():
    """m = sin t up to a = pi/2 - 1e-14, then a zero tail: the slope cos a =
    1e-14 lies within its error bar, so over flat at n = 3 the limit, truly
    cos(a)^2 = 1e-28, is (0, U) with U = ((L_N + e_N) / (L_D - e_D))^2, once
    (0, 0). A numerator of lower order gives (0, 0); of higher order (the
    cusp's decaying mode, within its bar) no limit."""
    a = math.pi / 2 - 1e-14
    num, flat = rg.solve_warping(step_core(a)), rg.solve_warping(rg.RadialCurvature.zero())
    (l_num, e_num), (l_den, e_den) = num.tail_limit, flat.tail_limit
    assert l_num <= e_num
    limit, bound = rg.growth_ratio(3, num, flat, (2.0,)).limit()
    assert limit == 0.0 and math.cos(a) ** 2 <= bound
    assert bound == pytest.approx(((l_num + e_num) / (l_den - e_den)) ** 2, rel=1e-13)
    hyp = rg.solve_warping(rg.RadialCurvature.constant(-1.0))
    assert rg.growth_ratio(3, num, hyp, (2.0,)).limit() == (0.0, 0.0)
    assert rg.growth_ratio(3, rg.solve_warping(cusp_fixture()), flat, (2.0,)).limit() is None


def nonpositive_spline(seed, tail):
    """A k <= 0 spline curvature drawn as the benchmark's curvature corpus
    draws one: 4 to 6 evenly spaced knots, values in [-1.2, -0.2], the last
    the tail's value, through ``nonpositive_min``."""
    rng = np.random.default_rng(seed)
    vals = -rng.uniform(0.2, 1.2, int(rng.integers(4, 7)))
    knots = np.linspace(0.0, rng.uniform(1.0, 3.0), vals.size)
    if tail == "zero":
        vals[-1] = 0.0
    tails = {"zero": lambda c: rg.ZeroTail(), "constant": rg.ConstantTail,
             "power_law": lambda c: rg.PowerLawTail(c, 3.5)}
    return rg.nonpositive_min(rg.RadialCurvature.from_spline(knots, vals, tails[tail](vals[-1])))


MAJORANT_CASES = {
    **ANCHOR_CASES,
    **{f"nonpositive-{tail}-{seed}": (lambda tail=tail, seed=seed: nonpositive_spline(seed, tail))
       for tail in ("zero", "constant", "power_law") for seed in (0, 1)},
    "positive-power-tail": lambda: positive_tail(0.3, 2.5),
    "steep": lambda: rg.RadialCurvature.from_spline([0.0, 0.05], [-1e8, 0.0]),
}


@pytest.mark.parametrize("case", list(MAJORANT_CASES))
def test_the_carried_majorant_lies_between_m_and_the_referee(case):
    """The majorant (M, M') a solve carries beside (m, m'), at the tail
    anchor's node, against the referee solve of -|k|: |m| <= M <= M_ref
    within 1e-12 relative, M = m bit for bit at every node for k <= 0, and
    past the anchor's node, where a power-law tail is solved to t = 4."""
    k = MAJORANT_CASES[case]()
    w = rg.solve_warping(k, 4.0 if k.tail.p else None)
    i = int(np.searchsorted(w.grid, k.t_tail))
    assert w.grid[i] == k.t_tail
    state = w._state
    for v, big, ref in zip(state[:2], state[2:], majorant_referee(k)):
        assert abs(v[i]) <= big[i] * (1.0 + 1e-12)
        assert big[i] <= ref * (1.0 + 1e-12)
    assert k.is_nonpositive() == all(np.array_equal(v, big) for v, big in zip(state[:2], state[2:]))
    assert all(np.array_equal(v[i:][1:], big[i:][1:]) for v, big in zip(state[:2], state[2:]))
    assert not k.tail.p or w.grid[-1] == 4.0


@pytest.mark.parametrize("c, p, t_zero", [
    (2.0, 3.0, 4.35710095583), (5.0, 2.2, 1.69178234182), (0.6, 2.2, 246.817040539),
])
def test_classify_positive_power_tail_conjugate_point(monkeypatch, c, p, t_zero):
    from radialgeo import volume

    horizons = []
    solve = volume.solve_warping

    def spy(*args, **kwargs):
        w = solve(*args, **kwargs)
        horizons.append(w.t_max)
        return w

    monkeypatch.setattr(volume, "solve_warping", spy)
    with pytest.raises(rg.ConjugatePointError) as err:
        rg.classify_ball_volume(3, positive_tail(c, p))
    assert abs(err.value.t - t_zero) <= 1e-8
    assert horizons == [1.0]


def test_ball_volume_rejects_negative_and_nan_radius():
    w = rg.solve_warping(rg.RadialCurvature.zero(), 5.0)
    for bad in (-0.5, math.nan):
        with pytest.raises(rg.DomainError):
            rg.model_ball_volume(3, w, bad)


def _ball_curvatures():
    return {
        "flat": (rg.RadialCurvature.zero(), 8.0),
        "hyperbolic": (rg.RadialCurvature.constant(-1.0), 8.0),
        "bump": (rg.nonpositive_min(rg.RadialCurvature.from_spline(
            [0.0, 0.8, 1.6, 2.4], [-1.0, -0.15, -0.6, 0.0])), 16.0),
        "power-law": (rg.RadialCurvature.from_spline(
            [0.0, 0.9, 1.8, 2.7], [-1.1, -0.25, -0.7, -0.2],
            tail=rg.PowerLawTail(-0.2, 3.0)), 12.0),
    }


@pytest.fixture(scope="module")
def ball_solutions():
    return {name: rg.solve_warping(k, t_max)
            for name, (k, t_max) in _ball_curvatures().items()}


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("name", list(_ball_curvatures()))
def test_ball_volume_matches_per_cell_referee(ball_solutions, name, n):
    w = ball_solutions[name]
    breakpoint = float(w.k.breakpoints[w.k.breakpoints > 0][0])
    radii = (0.0, float(w.grid[37]), 0.3 * float(w.grid[100] + w.grid[102]), breakpoint,
             w.t_max, w.t_max * (1.0 + 1e-13))
    for t in radii:
        expect = gauss_ball_volume(n, w, t)
        got = rg.model_ball_volume(n, w, t)
        assert abs(got - expect) <= 1e-13 * expect, (t, got, expect)


class _ReadCounter:
    """Stands in for a solution's interpolant and counts the points it is
    evaluated at; a read of its coefficients counts six points for each
    cell it takes, and ``last_cell`` is the last cell so read."""

    def __init__(self, poly):
        self.poly, self.points, self.last_cell = poly, 0, -1
        self.c = _CoefficientReads(self)

    def __getattr__(self, name):
        return getattr(self.poly, name)

    def __call__(self, x, *args):
        self.points += np.size(x)
        return self.poly(x, *args)


class _CoefficientReads:
    """The coefficients of a ``_ReadCounter``'s interpolant: a slice counts
    the cells it takes."""

    def __init__(self, spy):
        self.spy = spy

    def __getitem__(self, key):
        cells = np.arange(self.spy.poly.c.shape[1])[key[1]]
        self.spy.points += 6 * cells.size
        self.spy.last_cell = max(self.spy.last_cell, int(cells.max(initial=-1)))
        return self.spy.poly.c[key]


def test_ball_volume_repeat_call_reads_one_panel():
    k, t_max = _ball_curvatures()["bump"]
    w = rg.solve_warping(k, t_max)
    for n in (2, 3, 6):
        rg.model_ball_volume(n, w, t_max)
        w._jet = spy = _ReadCounter(w._jet)
        try:
            for t in (2.0, 9.3, 0.8, t_max):
                before = spy.points
                rg.model_ball_volume(n, w, t)
                assert spy.points - before <= 5 * (n - 1) // 2 + 1
        finally:
            w._jet = spy.poly


@pytest.mark.parametrize("key", [2, "km"])
def test_first_integral_read_reads_no_cell_past_t(key):
    k, t_max = _ball_curvatures()["power-law"]
    w = rg.solve_warping(k, t_max)
    w._jet = spy = _ReadCounter(w._jet)
    t = 2.3
    w.km_integral(t) if key == "km" else w.power_integral(key, t)
    i = int(np.searchsorted(w.grid, t)) - 1  # the cell holding t: one panel
    assert spy.last_cell == i - 1
    assert spy.points == 6 * i + (8 if key == "km" else 6)
    assert w._tables[key].size == i + 1


def test_integral_table_grown_in_steps_is_the_table_built_at_once():
    # a cell's weighted sum once rounded by its place among the cells summed
    # with it: grown through these horizons, the "km" table of corpus member
    # 18 differed from the one built at once in 23 entries, by up to 2.2e-16
    # relative; the step of one cell past t = 1.3 sums one cell alone
    rng = np.random.default_rng(7)
    curvatures = [corpus_curvature(rng, ("zero", "power-law", "constant")[i % 3])
                  for i in range(20)]
    for k in [_ball_curvatures()["power-law"][0], *curvatures]:
        steps, once = rg.solve_warping(k, 16.0), rg.solve_warping(k, 16.0)
        for key in (1, 2, 5, "km"):
            for w, horizons in ((steps, (1.3, 1.3 + 1 / 64, 2.0, 4.7, 8.0, 16.0)),
                                (once, (16.0,))):
                for t in horizons:
                    w.km_integral(t) if key == "km" else w.power_integral(key, t)
            assert np.array_equal(steps._tables[key], once._tables[key])
            assert steps._tables[key].size == steps.grid.size


def test_cap_volume_rejects_out_of_range_angle():
    with pytest.raises(rg.DomainError):
        cap_volume(3, -0.1)
    with pytest.raises(rg.DomainError):
        cap_volume(3, math.pi + 0.1)
