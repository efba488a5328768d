import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import follmer as fl
from follmer import equations
from follmer import functions as fn
from follmer.equations import OdeBlowUp


def linear_fv(grid):
    return fl.as_fv(fl.FormulaGenerator(lambda t: t).generate(grid))


def ode_oracle(rhs, y0, t_end=1.0):
    sol = solve_ivp(rhs, (0.0, t_end), [y0], rtol=1e-12, atol=1e-14, dense_output=True)
    return float(sol.y[0, -1])


class TestDoleans:
    def test_continuous_fv_matches_ode(self):
        seq = fl.dyadic_sequence(1.0, 6, 12)
        se = fl.doleans_exponential(linear_fv(seq.grid), seq)
        oracle = ode_oracle(lambda t, y: y, 1.0)  # y' = y
        assert se.values[-1] == pytest.approx(oracle, rel=1e-11)
        assert np.allclose(se.values, np.exp(seq.grid.times), rtol=1e-12)

    def test_step_path(self):
        seq = fl.dyadic_sequence(1.0, 2, 8)
        x = fl.as_fv(fl.StepGenerator(c=0.7, t0=0.5).generate(seq.grid))
        se = fl.doleans_exponential(x, seq)
        assert se.values[seq.grid.index_of(0.25)] == 1.0
        assert se.values[-1] == pytest.approx(1.7, rel=1e-14)
        assert se.positive and not se.zero_hit

    def test_zero_absorption(self):
        seq = fl.dyadic_sequence(1.0, 2, 8)
        x = fl.as_fv(fl.StepGenerator(c=-1.0, t0=0.5).generate(seq.grid))
        se = fl.doleans_exponential(x, seq)
        assert se.zero_hit and not se.positive
        i = seq.grid.index_of(0.5)
        assert np.all(se.values[i:] == 0.0)
        assert np.all(se.values[:i] > 0.0)

    def test_multiplicative_jump_law(self):
        seq = fl.dyadic_sequence(1.0, 4, 10)
        x = fl.add_paths(
            fl.DyadicBrownianGenerator(seed=31, sigma=0.4).generate(seq.grid),
            fl.CompoundJumpGenerator(seed=31, intensity=4.0, size=0.3, sampler="uniform").generate(seq.grid),
        )
        se = fl.doleans_exponential(x, seq, tol=fl.STOCHASTIC_TOL)
        lv = fl.left_values(se.path)
        for i in x.jumps:
            dx = float(x.dX[i])
            assert se.path.dX[i] == pytest.approx(lv[i] * dx, rel=1e-12)

    def test_inconclusive_qv_is_carried(self):
        # an uncertified QV of X is part of the result, not an exception
        seq = fl.dyadic_sequence(1.0, 1, 4)
        w = fl.DyadicBrownianGenerator(seed=1).generate(seq.grid)
        se = fl.doleans_exponential(w, seq, tol=1e-9)
        assert se.qv.status == "inconclusive"
        assert np.array_equal(se.exponent, w.x - w.x[0] - 0.5 * se.qv.continuous_part)


def homogeneous_residuals(y, x, seq, tol=fl.DETERMINISTIC_TOL) -> fl.TrendReport:
    """Per-level |Y_1 - 1 - int_0^1 Y_- dX| of a candidate solution Y."""
    res = fl.follmer_integral(y, x, seq, tol=tol)
    return fl.TrendReport(tuple(abs(y.x[-1] - 1.0 - c[-1]) for c in res.level_curves), tol)


class TestVerifyHomogeneous:
    def test_exponential_on_brownian(self):
        seq = fl.dyadic_sequence(1.0, 7, 13)
        w = fl.DyadicBrownianGenerator(seed=3, sigma=0.5).generate(seq.grid)
        se = fl.doleans_exponential(w, seq, tol=fl.STOCHASTIC_TOL)
        assert homogeneous_residuals(se.path, w, seq, tol=fl.STOCHASTIC_TOL).converged

    def test_exponential_on_step_exact(self):
        seq = fl.dyadic_sequence(1.0, 1, 7)
        x = fl.as_fv(fl.StepGenerator(c=0.5, t0=0.5).generate(seq.grid))
        se = fl.doleans_exponential(x, seq)
        assert homogeneous_residuals(se.path, x, seq).final_gap == 0.0


class TestReciprocal:
    def test_linear_fv(self):
        seq = fl.dyadic_sequence(1.0, 6, 12)
        se = fl.doleans_exponential(linear_fv(seq.grid), seq)
        rep = fl.reciprocal_exponential(se, seq, 1.0)
        assert np.allclose(rep.path.x, np.exp(-seq.grid.times), rtol=1e-12)
        assert abs(rep.residual) < 1e-8

    def test_single_jump_algebra(self):
        c = 0.8
        seq = fl.dyadic_sequence(1.0, 2, 8)
        x = fl.as_fv(fl.StepGenerator(c=c, t0=0.5).generate(seq.grid))
        se = fl.doleans_exponential(x, seq)
        rep = fl.reciprocal_exponential(se, seq, 1.0)
        assert rep.path.x[-1] == pytest.approx(1.0 / (1.0 + c), rel=1e-14)
        assert abs(rep.residual) < 1e-14
        # hand expansion: -c + c^2/(1+c) = -c/(1+c)
        assert rep.terms["jumps"] == pytest.approx(c * c / (1.0 + c), rel=1e-14)

    def test_constant_path(self):
        seq = fl.dyadic_sequence(1.0, 2, 6)
        x = fl.as_fv(fl.FormulaGenerator(lambda t: 0 * t).generate(seq.grid))
        se = fl.doleans_exponential(x, seq)
        rep = fl.reciprocal_exponential(se, seq, 1.0)
        assert rep.residual == 0.0
        assert np.all(rep.path.x == 1.0)

    def test_zero_hit_rejected(self):
        seq = fl.dyadic_sequence(1.0, 2, 6)
        x = fl.as_fv(fl.StepGenerator(c=-1.0, t0=0.5).generate(seq.grid))
        se = fl.doleans_exponential(x, seq)
        with pytest.raises(ValueError):
            fl.reciprocal_exponential(se, seq, 1.0)


class TestSolveLinear:
    def test_constant_forcing_reduces_to_exponential(self):
        seq = fl.dyadic_sequence(1.0, 5, 11)
        x = fl.add_paths(
            fl.DyadicBrownianGenerator(seed=8, sigma=0.3).generate(seq.grid),
            fl.StepGenerator(c=0.4, t0=0.5).generate(seq.grid),
        )
        rep = fl.solve_linear(1.0, x, seq, tol=fl.STOCHASTIC_TOL)
        se = fl.doleans_exponential(x, seq, tol=fl.STOCHASTIC_TOL)
        assert np.allclose(rep.z.x, se.values, rtol=1e-10, atol=1e-12)

    def test_ode_oracle_h_constant(self):
        seq = fl.dyadic_sequence(1.0, 8, 14)
        rep = fl.solve_linear(1.0, linear_fv(seq.grid), seq)
        oracle = ode_oracle(lambda t, y: y, 1.0)  # z' = z, z(0) = 1
        assert rep.z.x[-1] == pytest.approx(oracle, abs=1e-9)

    def test_ode_oracle_h_linear(self):
        seq = fl.dyadic_sequence(1.0, 8, 14)
        x = linear_fv(seq.grid)
        h = fl.GridPath(seq.grid, seq.grid.times.copy())
        rep = fl.solve_linear(h, x, seq, decomposition=(0.0, x))
        oracle = ode_oracle(lambda t, y: y + 1.0, 0.0)  # z' = z + 1, z(0) = 0
        assert oracle == pytest.approx(math.e - 1.0, abs=1e-11)
        assert rep.z.x[-1] == pytest.approx(oracle, abs=1e-6)
        assert rep.z_alt.x[-1] == pytest.approx(oracle, abs=1e-6)
        assert rep.agreement <= 1e-6
        assert rep.trend.final_gap <= 1e-6

    def test_jumpy_forcing_substitution(self):
        seq = fl.dyadic_sequence(1.0, 6, 12)
        x = fl.add_paths(
            fl.DyadicBrownianGenerator(seed=12, sigma=0.25).generate(seq.grid),
            fl.StepGenerator(c=0.3, t0=0.25).generate(seq.grid),
        )
        h = fl.as_fv(fl.StepGenerator(c=-0.5, t0=0.75, x0=2.0).generate(seq.grid))
        rep = fl.solve_linear(h, x, seq, decomposition=(0.0, h), tol=fl.STOCHASTIC_TOL)
        assert rep.trend.converged
        assert rep.agreement < fl.STOCHASTIC_TOL

    def test_zero_hit_rejected(self):
        seq = fl.dyadic_sequence(1.0, 2, 6)
        x = fl.as_fv(fl.StepGenerator(c=-1.0, t0=0.5).generate(seq.grid))
        with pytest.raises(ValueError):
            fl.solve_linear(1.0, x, seq)

    def test_raw_path_labeled_unverified(self):
        seq = fl.dyadic_sequence(1.0, 4, 10)
        w = fl.DyadicBrownianGenerator(seed=2, sigma=0.2).generate(seq.grid)
        h = fl.GridPath(seq.grid, np.cos(seq.grid.times))
        rep = fl.solve_linear(h, w, seq, tol=fl.STOCHASTIC_TOL)
        assert rep.hypothesis == "unverified-hypothesis"

    def test_admissible_integrand_h(self, monkeypatch):
        # H = grad f(X) for f = x^2 jumps with X; its left values go to the
        # integrals exactly as the integrand holds them
        seq = fl.dyadic_sequence(1.0, 6, 12)
        x = fl.add_paths(
            fl.DyadicBrownianGenerator(seed=8, sigma=0.3).generate(seq.grid),
            fl.StepGenerator(c=0.4, t0=0.5).generate(seq.grid),
        )
        h = fl.AdmissibleIntegrand(fn.square(), None, x)
        seen = []
        real = equations.integral_curves

        def spy(values, left, *args):
            seen.append((values, left))
            return real(values, left, *args)

        monkeypatch.setattr(equations, "integral_curves", spy)
        rep = fl.solve_linear(h, x, seq, tol=fl.STOCHASTIC_TOL)
        assert rep.hypothesis == "admissible"
        values, left = seen[0]
        assert values is h.values and left is h.values_left
        jumps = rep.z.x - (rep.z.x - (h.values - h.values_left)) / (1.0 + x.dX)
        assert np.array_equal(rep.z.dX, jumps)
        assert rep.trend.converged and rep.trend.final_gap < fl.STOCHASTIC_TOL


class TestSolveNonlinear:
    def test_zero_drift_reduces_to_exponential(self):
        seq = fl.dyadic_sequence(1.0, 5, 11)
        x = fl.add_paths(
            fl.DyadicBrownianGenerator(seed=4, sigma=0.3).generate(seq.grid),
            fl.StepGenerator(c=0.2, t0=0.5).generate(seq.grid),
        )
        rep = fl.solve_nonlinear(lambda t, z: 0.0, x, 2.0, seq, tol=fl.STOCHASTIC_TOL)
        se = fl.doleans_exponential(x, seq, tol=fl.STOCHASTIC_TOL)
        assert np.allclose(rep.z.x, 2.0 * se.values, rtol=1e-12)

    def test_pure_ode(self):
        seq = fl.dyadic_sequence(1.0, 4, 10)
        x = fl.as_fv(fl.FormulaGenerator(lambda t: 0 * t).generate(seq.grid))
        rep = fl.solve_nonlinear(lambda t, z: 1.0, x, 3.0, seq)
        assert np.allclose(rep.z.x, 3.0 + seq.grid.times, rtol=1e-12)

    def test_combined_linear_drift(self):
        # z' = z drift plus dX = dt drive: overall z' = 2z
        seq = fl.dyadic_sequence(1.0, 8, 12)
        rep = fl.solve_nonlinear(lambda t, z: z, linear_fv(seq.grid), 1.0, seq)
        oracle = ode_oracle(lambda t, y: 2.0 * y, 1.0)
        assert rep.z.x[-1] == pytest.approx(oracle, rel=1e-9)
        assert rep.trend.final_gap < 1e-6

    def test_blow_up_reported_with_time(self):
        seq = fl.dyadic_sequence(1.0, 4, 8)
        x = fl.as_fv(fl.FormulaGenerator(lambda t: 0 * t).generate(seq.grid))
        with pytest.raises(OdeBlowUp) as exc:
            fl.solve_nonlinear(lambda t, z: z * z, x, 3.0, seq)  # blows up at 1/3
        assert 0.0 < exc.value.t <= 1.0

    def test_exponential_underflow_reported_as_blow_up(self):
        # E(X) = exp(-1000 t) underflows to 0 just after t = 0.745; with
        # Y constant the step after that divides by zero
        seq = fl.dyadic_sequence(1.0, 4, 12)
        x = fl.as_fv(fl.FormulaGenerator(lambda t: -1000.0 * t).generate(seq.grid))
        with pytest.raises(OdeBlowUp) as exc:
            fl.solve_nonlinear(lambda t, z: 0.0 * z, x, 1.0, seq)
        assert 0.745 < exc.value.t <= 0.746

    def test_errors_raised_by_f_propagate(self):
        seq = fl.dyadic_sequence(1.0, 4, 8)
        x = fl.as_fv(fl.FormulaGenerator(lambda t: 0 * t).generate(seq.grid))
        with pytest.raises(OverflowError):
            fl.solve_nonlinear(lambda t, z: math.exp(z), x, 1000.0, seq)
        with pytest.raises(ZeroDivisionError):
            fl.solve_nonlinear(lambda t, z: 1.0 / (z - z), x, 1.0, seq)


class TestGronwall:
    def test_two_verified_solutions_agree(self):
        # uniqueness: the linear solver with H = 1 and E(X) solve one equation
        seq = fl.dyadic_sequence(1.0, 2, 9)
        x = fl.as_fv(fl.StepGenerator(c=0.5, t0=0.5).generate(seq.grid))
        z1 = fl.solve_linear(1.0, x, seq).z
        z2 = fl.doleans_exponential(x, seq).path
        assert np.max(np.abs(z1.x - z2.x)) <= 1e-9 * max(1.0, np.max(np.abs(z1.x)))


def test_exponential_of_continuous_fv_has_no_ito_correction():
    seq = fl.dyadic_sequence(1.0, 4, 10)
    a = fl.as_fv(fl.FormulaGenerator(lambda t: np.sin(2 * t)).generate(seq.grid))
    se = fl.doleans_exponential(a, seq)
    assert np.array_equal(se.values, np.exp(a.x - a.x[0]))


def test_solve_linear_nontrivial_decomposition_agreement():
    # H = int xi dX + A with constant xi and a jumpy A on a jumpy driver:
    # exercises the dH, d[H,X]^c, and jump-sum pieces of the alternative
    # expression together
    seq = fl.dyadic_sequence(1.0, 7, 13)
    g = seq.grid
    x = fl.add_paths(
        fl.DyadicBrownianGenerator(seed=61, sigma=0.3).generate(g),
        fl.StepGenerator(c=0.4, t0=0.5).generate(g),
    )
    a = fl.as_fv(fl.StepGenerator(c=-0.3, t0=0.75, x0=1.0).generate(g))
    xi_c = 0.5
    h_int = fl.follmer_integral(xi_c, x, seq, tol=fl.STOCHASTIC_TOL)
    hv = h_int.estimate + a.x
    h = fl.GridPath(g, hv, xi_c * x.dX + a.dX)
    rep = fl.solve_linear(h, x, seq, decomposition=(xi_c, a), tol=fl.STOCHASTIC_TOL)
    assert rep.agreement < fl.STOCHASTIC_TOL
    assert rep.trend.converged


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "value, bound, expected",
    [
        (1.0, 1.0, True),  # equal to the bound is within it
        (np.nextafter(1.0, 2.0), 1.0, False),
        (-_INF, 1.0, False),
        (_INF, _INF, False),
        (_NAN, 1.0, False),
        (0.5, _NAN, False),
        ([0.1, 0.2, 1.0], 1.0, True),
        ([0.1, _NAN, 0.2], 1.0, False),
        ([0.1, 2.0], np.array([1.0, 3.0]), True),  # a bound per value
        ([0.1, 2.0], np.array([1.0, 1.5]), False),
        ([], 1.0, True),
    ],
)
def test_within_passes_only_finite_values_at_most_the_bound(value, bound, expected):
    assert fl.within(value, bound) is expected


@pytest.mark.parametrize(
    "gaps, status",
    [
        ((0.3, 0.2, 1e-7), "converged"),
        ((0.3, 0.2, 1e-6), "converged"),  # a final gap equal to tol
        ((0.3, 0.2, 0.1), "inconclusive"),
        ((0.3, 0.2, _NAN), "non-finite"),
        ((_INF, 1e-7, 1e-8), "non-finite"),  # not only the final gap
        ((0.3, -_INF), "non-finite"),
        ((), "inconclusive"),
    ],
)
def test_a_trend_with_a_non_finite_gap_is_non_finite(gaps, status):
    trend = fl.TrendReport(gaps, 1e-6)
    assert trend.status == status
    assert trend.converged is (status == "converged")
