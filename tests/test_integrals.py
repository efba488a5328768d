import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import follmer as fl
import follmer.functions as fn
from follmer.integrals import integral_at, integral_curve, integral_curves
from follmer.quadvar import product_curve, qv_curve
from follmer.stieltjes import running_sum, stieltjes_fv, stieltjes_fv_curve, stieltjes_left, stieltjes_left_curve


def riemann_sum(xi_vals, x_vals, p, g):
    """Oracle: the left Riemann sum of xi against X along pi at grid index g,
    sum xi_{t_i} (X_{t_{i+1} ^ t} - X_{t_i ^ t}), added pairwise by ``np.sum``."""
    idx = p.indices
    return float(np.sum(xi_vals[idx[:-1]] * np.diff(x_vals[np.minimum(idx, g)])))


@pytest.fixture(scope="module")
def bm_setup():
    seq = fl.dyadic_sequence(1.0, 5, 11)
    w = fl.DyadicBrownianGenerator(seed=17).generate(seq.grid)
    return seq, w


class TestRiemannSum:
    """The left Riemann sum, read at one grid index by ``integral_at``."""

    def test_unit_integrand_telescopes(self, bm_setup):
        seq, w = bm_setup
        for p in seq:
            v = integral_at(np.ones(len(w.grid)), w.x, p, len(w.grid) - 1)
            assert v == pytest.approx(w.x[-1] - w.x[0], rel=1e-14)

    def test_left_sampling_at_jump(self):
        g = fl.dyadic_grid(1.0, 5)
        x = fl.StepGenerator(c=2.0, t0=0.5).generate(g)
        p = fl.dyadic_sequence(1.0, 1, 1, grid=g).top  # {0, .5, 1} straddles
        assert integral_at(x.x, x.x, p, len(g) - 1) == 0.0

    def test_non_anticipation(self, bm_setup):
        # the sum samples the integrand at left endpoints only: changing it
        # anywhere off the partition points cannot move the result
        seq, w = bm_setup
        p = seq.levels[1]
        rng = np.random.default_rng(0)
        vals = np.cos(w.x)
        noisy = vals.copy()
        mask = np.ones(len(w.grid), dtype=bool)
        mask[p.indices] = False
        noisy[mask] = rng.normal(size=mask.sum())
        g = w.grid.clamp_index(0.8)
        assert integral_at(vals, w.x, p, g) == integral_at(noisy, w.x, p, g)

    def test_linearity_exact_per_level(self, bm_setup):
        seq, w = bm_setup
        xi = np.sin(w.x)
        eta = np.cos(w.x)
        g = len(w.grid) - 1
        for p in seq.levels[:3]:
            lhs = integral_at(2.0 * xi + 3.0 * eta, w.x, p, g)
            rhs = 2.0 * integral_at(xi, w.x, p, g) + 3.0 * integral_at(eta, w.x, p, g)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    def test_shift_rule_exact(self, bm_setup):
        # integrating against X + A splits into the two sums by telescoping
        seq, w = bm_setup
        a = fl.as_fv(fl.StepGenerator(c=0.7, t0=0.25).generate(seq.grid))
        y = fl.add_paths(w, a)
        xi, g = np.tanh(w.x), len(w.grid) - 1
        for p in seq.levels[:3]:
            lhs = integral_at(xi, y.x, p, g)
            rhs = integral_at(xi, w.x, p, g) + integral_at(xi, a.x, p, g)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


class TestFollmerIntegral:
    def test_doubling_rule_on_brownian(self, bm_setup):
        # int 2 X_- dX = X^2 - X_0^2 - [X,X], both sides independent
        seq, w = bm_setup
        xi = fl.AdmissibleIntegrand(fn.polynomial([0.0, 0.0, 1.0]), None, w)
        res = fl.follmer_integral(xi, w, seq, tol=fl.STOCHASTIC_TOL)
        qv = fl.qv_sequence(w, seq, tol=fl.STOCHASTIC_TOL)
        rhs = w.x**2 - w.x[0] ** 2 - qv.estimate
        assert np.max(np.abs(res.estimate - rhs)) < 1e-12

    def test_fv_integrator_is_left_stieltjes_sum(self):
        seq = fl.dyadic_sequence(1.0, 3, 8)
        a = fl.as_fv(fl.StepGenerator(c=2.0, t0=0.5, x0=1.0).generate(seq.grid))
        xi_vals = np.exp(-seq.grid.times)
        res = fl.follmer_integral(fl.GridPath(seq.grid, xi_vals), a, seq)
        p = seq.top
        manual = float(np.sum(xi_vals[p.indices[:-1]] * np.diff(a.x[p.indices])))
        assert res.at(1.0) == manual
        assert res.claim == "fv-integrator"
        assert isinstance(res.path, fl.FVPath)

    def test_constant_integrand_every_level(self, bm_setup):
        seq, w = bm_setup
        res = fl.follmer_integral(3.0, w, seq)
        for c in res.level_curves:
            assert np.allclose(c, 3.0 * (w.x - w.x[0]), rtol=1e-13, atol=1e-14)

    def test_integral_path_jump_law(self):
        seq = fl.dyadic_sequence(1.0, 2, 8)
        x = fl.add_paths(
            fl.DyadicBrownianGenerator(seed=23, x0=2.0).generate(seq.grid),
            fl.StepGenerator(c=0.8, t0=0.5).generate(seq.grid),
        )
        xi = fl.AdmissibleIntegrand(fn.square(), None, x)
        res = fl.follmer_integral(xi, x, seq, tol=fl.STOCHASTIC_TOL)
        i = seq.grid.index_of(0.5)
        # d(int xi dX) = xi_- dX with xi_- = 2 X_{t-}
        expect = 2.0 * fl.left_values(x)[i] * 0.8
        assert res.path.dX[i] == pytest.approx(expect, rel=1e-12)


class TestItoFormula:
    def test_step_path_exact_by_hand(self):
        # f = x^2, X = step(c at .5): LHS = c^2; integral term 0 (left
        # samples sit at 0); QV^c term 0; jump term c^2 - 2*0*c = c^2
        c = 2.0
        seq = fl.dyadic_sequence(1.0, 1, 6)
        x = fl.as_fv(fl.StepGenerator(c=c, t0=0.5).generate(seq.grid))
        rep = fl.ito_formula_eval(fn.square(), None, x, seq, 1.0)
        assert rep.lhs == c * c
        assert rep.integral_term == 0.0
        assert rep.qv_term == 0.0
        assert rep.jump_term == c * c
        assert rep.residual == 0.0

    def test_identity_function_trivial(self, bm_setup):
        seq, w = bm_setup
        rep = fl.ito_formula_eval(fn.identity_fn(), None, w, seq, 1.0)
        assert rep.qv_term == 0.0 and rep.jump_term == 0.0
        assert rep.residual == pytest.approx(0.0, abs=1e-13)

    def test_bilinear_cross_checks_with_parts(self, bm_setup):
        seq, w = bm_setup
        a = fl.as_fv(fl.FormulaGenerator(lambda t: t).generate(seq.grid))
        rep = fl.ito_formula_eval(fn.fv_scale(), a, w, seq, 1.0, tol=fl.STOCHASTIC_TOL)
        assert rep.trend.converged
        # independent route: parts residual for the pair (A, X)
        parts = fl.integration_by_parts(fl.GridPath(w.grid, a.x), w, seq, 1.0, tol=fl.STOCHASTIC_TOL)
        assert parts.trend.converged

    def test_exp_on_jumpy_brownian_trend(self):
        seq = fl.dyadic_sequence(1.0, 6, 12)
        x = fl.add_paths(
            fl.DyadicBrownianGenerator(seed=29, sigma=0.5, x0=1.0).generate(seq.grid),
            fl.CompoundJumpGenerator(seed=29, intensity=3.0, size=0.4).generate(seq.grid),
        )
        rep = fl.ito_formula_eval(fn.exp_affine(), None, x, seq, 1.0, tol=fl.STOCHASTIC_TOL)
        assert rep.trend.converged
        assert abs(rep.residual) < fl.STOCHASTIC_TOL

    def test_domain_violation_rejected(self):
        seq = fl.dyadic_sequence(1.0, 2, 6)
        x = fl.StepGenerator(c=-2.0, t0=0.5, x0=1.0).generate(seq.grid)  # goes negative
        with pytest.raises(ValueError):
            fl.ito_formula_eval(fn.log_fn(), None, x, seq, 1.0)


class TestIntegrationByParts:
    def test_discrete_identity_all_levels(self, bm_setup):
        seq, w = bm_setup
        y = fl.DyadicBrownianGenerator(seed=99).generate(seq.grid)
        rep = fl.integration_by_parts(w, y, seq, 1.0, tol=fl.STOCHASTIC_TOL)
        scale = max(1.0, float(np.max(np.abs(w.x * y.x))))
        assert rep.discrete_identity_worst <= 1e-10 * scale

    def test_common_step_path(self):
        # X = Y = step(c): c^2 = 2 * 0 + [X,X]_1 with both integrals zero
        seq = fl.dyadic_sequence(1.0, 1, 6)
        x = fl.StepGenerator(c=3.0, t0=0.5).generate(seq.grid)
        rep = fl.integration_by_parts(x, x, seq, 1.0)
        assert rep.trend.final_gap == 0.0
        for p in seq:
            assert integral_at(x.x, x.x, p, len(seq.grid) - 1) == 0.0

    def test_constant_second_factor(self, bm_setup):
        seq, w = bm_setup
        ones = fl.FormulaGenerator(lambda t: np.ones_like(t)).generate(seq.grid)
        rep = fl.integration_by_parts(w, ones, seq, 1.0)
        assert rep.trend.final_gap == pytest.approx(0.0, abs=1e-12)


class TestQvOfIntegral:
    def test_unit_integrand_reproduces_qv(self, bm_setup):
        seq, w = bm_setup
        one = fl.AdmissibleIntegrand(fn.identity_fn(), None, w)
        rep = fl.qv_of_integral(one, w, seq, tol=fl.STOCHASTIC_TOL)
        qv = fl.qv_sequence(w, seq, tol=fl.STOCHASTIC_TOL)
        for cy, cx in zip(rep.qv.level_curves, qv.level_curves):
            assert np.allclose(cy, cx, rtol=1e-12, atol=1e-13)

    def test_constant_scaling(self, bm_setup):
        seq, w = bm_setup
        c = 2.5
        ci = fl.AdmissibleIntegrand(fn.polynomial([0.0, c]), None, w)
        rep = fl.qv_of_integral(ci, w, seq, tol=fl.STOCHASTIC_TOL)
        qv = fl.qv_sequence(w, seq, tol=fl.STOCHASTIC_TOL)
        assert np.allclose(rep.qv.estimate, c * c * qv.estimate, rtol=1e-12, atol=1e-12)

    def test_linear_integrand_against_weighted_target(self, bm_setup):
        # xi = X via f = x^2/2: [Y,Y] ~ integral of X^2 d[X,X]
        seq, w = bm_setup
        xi = fl.AdmissibleIntegrand(fn.polynomial([0.0, 0.0, 0.5]), None, w)
        rep = fl.qv_of_integral(xi, w, seq, tol=fl.STOCHASTIC_TOL)
        assert rep.trend.converged
        assert rep.trend.final_gap < fl.STOCHASTIC_TOL


class TestAssociativity:
    def test_unit_eta(self, bm_setup):
        # eta = 1 telescopes the left side to the top-level integral value,
        # so the gap at level n is exactly the integral's own level gap at t
        seq, w = bm_setup
        xi = fl.AdmissibleIntegrand(fn.square(), None, w)
        y_res = fl.follmer_integral(xi, w, seq, tol=fl.STOCHASTIC_TOL)
        rep = fl.associativity_check([1.0], [xi], w, seq, 1.0, tol=fl.STOCHASTIC_TOL)
        own = [abs(float(c[-1] - y_res.estimate[-1])) for c in y_res.level_curves]
        assert rep.trend.gaps == pytest.approx(own, rel=1e-10, abs=1e-14)
        assert rep.trend.final_gap == 0.0

    def test_unit_integrand(self, bm_setup):
        # Y = X - X_0 has the same increments as X
        seq, w = bm_setup
        one = fl.AdmissibleIntegrand(fn.identity_fn(), None, w)
        eta = [np.cos(w.x)]
        rep = fl.associativity_check(eta, [one], w, seq, 1.0, tol=fl.STOCHASTIC_TOL)
        assert max(rep.trend.gaps) <= 1e-12

    def test_integral_as_eta_on_brownian(self):
        # eta = Y = int X dX: int Y dY vs int Y X dX, deep enough that the
        # side integrals certify too
        seq = fl.dyadic_sequence(1.0, 7, 13)
        w = fl.DyadicBrownianGenerator(seed=17).generate(seq.grid)
        xi = fl.AdmissibleIntegrand(fn.polynomial([0.0, 0.0, 0.5]), None, w)
        y_res = fl.follmer_integral(xi, w, seq, tol=fl.STOCHASTIC_TOL)
        eta = [y_res.estimate]
        rep = fl.associativity_check(eta, [xi], w, seq, 1.0, tol=fl.STOCHASTIC_TOL)
        assert rep.trend.converged
        assert rep.trend.gaps[-2] < fl.STOCHASTIC_TOL
        assert rep.status == "converged"

    def test_pure_jump_exact(self):
        seq = fl.dyadic_sequence(1.0, 2, 8)
        x = fl.as_fv(fl.StepGenerator(c=1.0, t0=0.5, x0=1.0).generate(seq.grid))
        xi = fl.AdmissibleIntegrand(fn.square(), None, x)
        y_res = fl.follmer_integral(xi, x, seq)
        eta = [y_res.estimate]
        rep = fl.associativity_check(eta, [xi], x, seq, 1.0)
        assert rep.trend.final_gap <= 1e-12


class TestIntegralCurves:
    """The one place that picks the integration rule: Riemann sums along the
    partitions, or one Stieltjes curve for a finite-variation integrator."""

    @staticmethod
    def _integrand(grid):
        h = np.cos(3.0 * grid.times) + (grid.times >= 0.5)
        h_left = fl.left_values(fl.GridPath(grid, h, np.where(grid.times == 0.5, 1.0, 0.0)))
        return h, h_left

    def test_riemann_sums_along_every_partition(self, bm_setup):
        seq, w = bm_setup
        x = fl.add_paths(w, fl.StepGenerator(c=0.3, t0=0.25).generate(seq.grid))
        h, h_left = self._integrand(seq.grid)
        got = integral_curves(h, h_left, x, seq)
        want = fl.follmer_integral(fl.GridPath(seq.grid, h), x, seq).level_curves
        assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("continuous", [False, True])
    def test_one_stieltjes_curve_for_a_finite_variation_path(self, continuous):
        seq = fl.dyadic_sequence(1.0, 2, 8)
        g = seq.grid
        steps = fl.StepGenerator(c=-0.4, t0=0.625).generate(g)
        x = fl.as_fv(fl.add_paths(steps, fl.FormulaGenerator(np.sin).generate(g)) if continuous else steps)
        h, h_left = self._integrand(g)
        (got,) = integral_curves(h, h_left, x, seq)
        assert np.array_equal(got, stieltjes_fv_curve(h, h_left, x))


@settings(max_examples=40, deadline=None)
@given(
    level=st.integers(1, 9),
    slope=st.floats(-3, 3, allow_nan=False),
    jumps=st.lists(st.tuples(st.integers(1, 512), st.floats(-1, 1, allow_nan=False)), max_size=6),
)
def test_stieltjes_fv_is_its_curve_at_every_point(level, slope, jumps):
    # an FV path with a continuous part and jumps: the point reader sums the
    # curve's increments in the curve's order, so they agree bit for bit
    g = fl.dyadic_grid(1.0, level)
    vals = slope * g.times + 0.3 * np.sin(7.0 * g.times)
    dX = np.zeros(len(g))
    for i, c in jumps:
        i = min(i, len(g) - 1)
        vals[i:] += c
        dX[i] += c
    a = fl.FVPath(g, vals, dX)
    h, h_left = np.exp(-a.x), np.exp(-fl.left_values(a))
    curve = stieltjes_fv_curve(h, h_left, a)
    points = np.array([stieltjes_fv(h, h_left, a, upto=k) for k in range(len(g))])
    assert points.view(np.int64).tolist() == curve.view(np.int64).tolist()
    assert stieltjes_fv(h, h_left, a) == curve[-1]


def test_integral_curve_matches_riemann_sum(bm_setup):
    seq, w = bm_setup
    p = seq.levels[1]
    xi = np.sin(w.x)
    curve = integral_curve(xi, w.x, p)
    for g_idx in (0, 7, 100, len(seq.grid) - 1):
        direct = riemann_sum(xi, w.x, p, g_idx)
        assert curve[g_idx] == pytest.approx(direct, rel=1e-12, abs=1e-14)


def test_stieltjes_left_step_mass():
    g = fl.dyadic_grid(1.0, 4)
    f_curve = np.where(g.times >= 0.5, 2.0, 0.0)  # jump of 2 at .5
    h_left = g.times.copy()  # integrand value .5- at the mass point
    v = stieltjes_left(h_left, f_curve)
    assert v == pytest.approx(0.5 * 2.0)


def test_stieltjes_left_is_its_curve_at_every_point(bm_setup):
    # the curve adds h(t_k-) (F_k - F_{k-1}) left to right, as a Python loop
    # does, and the point reader is the curve at that point bit for bit
    seq, w = bm_setup
    f = fl.qv_sequence(w, seq).estimate
    h_left = np.cos(fl.left_values(w))
    total, expect = 0.0, [0.0]
    for v in (h_left[1:] * np.diff(f)).tolist():
        total += v
        expect.append(total)
    curve = stieltjes_left_curve(h_left, f)
    assert curve.tolist() == expect
    points = np.array([stieltjes_left(h_left, f, upto=k) for k in range(len(f))])
    assert points.view(np.int64).tolist() == curve.view(np.int64).tolist()


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(st.one_of(st.just(-0.0), st.just(0.0), st.floats(-1e300, 1e300)), max_size=40),
    k=st.integers(0, 40),
)
def test_running_sum_is_the_loop_from_zero(steps, k):
    # the one summation order: a Python loop from +0.0, whose prefixes are
    # the sums of the prefixes, and which never holds -0.0
    total, expect = 0.0, [0.0]
    for v in steps:
        total += v
        expect.append(total)
    curve = running_sum(np.array(steps, dtype=float))
    bits = curve.view(np.int64).tolist()
    assert bits == np.array(expect).view(np.int64).tolist()
    k = min(k, len(steps))
    assert running_sum(np.array(steps[:k], dtype=float)).view(np.int64).tolist() == bits[: k + 1]
    assert not np.any(np.signbit(curve) & (curve == 0.0))


@pytest.mark.parametrize("c,t0_k", [(2.0, 8), (-1.5, 3), (0.25, 13)])
def test_ito_square_on_steps_exact_property(c, t0_k):
    seq = fl.dyadic_sequence(1.0, 1, 4)
    x = fl.as_fv(fl.StepGenerator(c=c, t0=t0_k / 16).generate(seq.grid))
    rep = fl.ito_formula_eval(fn.square(), None, x, seq, 1.0)
    assert rep.residual == pytest.approx(0.0, abs=1e-13)
    assert rep.jump_term == pytest.approx(c * c, rel=1e-13)


# Reference step curves: the anchor of every grid index g (the last partition
# point <= g) found by a binary search of g, as the curve kernels used to.


def _anchors_searched(p, n):
    k = np.searchsorted(p.indices, np.arange(n), side="right") - 1
    return k, p.indices[k]


def _product_curve_searched(x, y, p):
    idx = p.indices
    csum = np.concatenate([[0.0], np.cumsum(np.diff(x[idx]) * np.diff(y[idx]))])
    k, a = _anchors_searched(p, x.size)
    return csum[k] + (x - x[a]) * (y - y[a])


def _integral_curve_searched(xi_vals, x_vals, p):
    # each product + 0.0: a zero product is +0.0, as the d-dimensional dot
    # product the kernels once took gave it
    idx = p.indices
    inc = xi_vals[idx[:-1]] * np.diff(x_vals[idx]) + 0.0
    csum = np.concatenate([[0.0], np.cumsum(inc)])
    k, a = _anchors_searched(p, x_vals.size)
    return csum[k] + (xi_vals[a] * (x_vals - x_vals[a]) + 0.0)


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(2, 400),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["random", "two-point", "last-gap-one", "every-point"]),
    zeros=st.booleans(),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
)
def test_curves_match_the_searched_anchor_formula(size, seed, shape, zeros, scale):
    rng = np.random.default_rng(seed)
    steps = rng.exponential(size=size - 1)
    g = fl.TimeGrid(np.concatenate([[0.0], np.cumsum(steps) / steps.sum()]))
    inner = np.arange(1, size - 1)
    if shape == "random":
        inner = inner[rng.random(inner.size) < rng.uniform(0.0, 0.5)]
    elif shape == "two-point":
        inner = inner[:0]
    elif shape == "last-gap-one":
        inner = inner[(rng.random(inner.size) < 0.2) | (inner == size - 2)]
    p = fl.Partition(g, np.concatenate([[0], inner, [size - 1]]))
    x = scale * np.cumsum(rng.normal(size=size))
    xi = rng.normal(size=size)
    if zeros:  # zero integrands and flat stretches make signed zero products
        xi[rng.random(size) < 0.5] = 0.0
        x[rng.random(size) < 0.5] = 0.0
    assert np.array_equal(product_curve(x, xi, p), _product_curve_searched(x, xi, p))
    want = _product_curve_searched(x, x, p)
    assert np.array_equal(qv_curve(fl.GridPath(g, x), p), want)
    want = _integral_curve_searched(xi, x, p)
    assert np.array_equal(integral_curve(xi, x, p).view(np.uint64), want.view(np.uint64))  # signed zeros too
    got = np.array([integral_at(xi, x, p, j) for j in range(size)])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
