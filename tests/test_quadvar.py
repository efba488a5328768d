import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import follmer as fl
from follmer.io import make_generator
from follmer.quadvar import product_curve, qv_curve


def discrete_qv(path, p, t):
    """Oracle: [X,X]^pi_t, the sum of (X_{t_{i+1} ^ t} - X_{t_i ^ t})^2 over
    pi, added pairwise by ``np.sum``."""
    d = np.diff(path.x[np.minimum(p.indices, path.grid.clamp_index(t))])
    return float(np.sum(d * d))


def measure_check(x, seq, t):
    return fl.measure_vs_qv_check(x, seq, t, [qv_curve(x, p) for p in seq])


def zigzag(base=0.0, amplitude=1.0, period=0.5):
    return lambda t: base + amplitude * (2.0 / period) * np.minimum(
        np.mod(t, period), period - np.mod(t, period)
    )


class TestDiscreteQV:
    def test_step_single_squared_jump(self):
        g = fl.dyadic_grid(1.0, 6)
        x = fl.StepGenerator(c=2.0, t0=0.5).generate(g)
        for n in (1, 2, 4):
            p = fl.dyadic_sequence(1.0, n, n, grid=g).top
            assert qv_curve(x, p)[-1] == 4.0

    def test_linear_closed_form(self):
        # sum over 2^n intervals of (2^-n)^2 = 2^-n, independently derived
        for n in (2, 4, 7):
            g = fl.dyadic_grid(1.0, n)
            x = fl.FormulaGenerator(lambda t: t).generate(g)
            p = fl.dyadic_sequence(1.0, n, n, grid=g).top
            assert qv_curve(x, p)[-1] == pytest.approx(0.5**n, rel=1e-12)

    def test_constant(self):
        g = fl.dyadic_grid(1.0, 5)
        x = fl.FormulaGenerator(lambda t: 0 * t + 3.0).generate(g)
        p = fl.dyadic_sequence(1.0, 2, 2, grid=g).top
        assert qv_curve(x, p)[g.clamp_index(0.7)] == 0.0

    def test_brute_force_oracle_at_interior_t(self):
        g = fl.dyadic_grid(1.0, 5)
        x = fl.DyadicBrownianGenerator(seed=1).generate(g)
        p = fl.dyadic_sequence(1.0, 2, 2, grid=g).top
        t = 0.3
        total = 0.0
        ts = p.times
        for a, b in zip(ts, ts[1:]):
            xa = x.x[g.clamp_index(min(a, t))]
            xb = x.x[g.clamp_index(min(b, t))]
            total += (xb - xa) ** 2
        assert qv_curve(x, p)[g.clamp_index(t)] == pytest.approx(total, rel=1e-14)


class TestQvSequence:
    def test_fv_zigzag(self):
        g = fl.dyadic_grid(1.0, 10)
        x = fl.as_fv(fl.FormulaGenerator(zigzag()).generate(g))
        seq = fl.dyadic_sequence(1.0, 2, 10)
        qv = fl.qv_sequence(x, seq)
        assert qv.status == "exact-fv"
        assert qv.at(1.0) == 0.0
        assert np.all(qv.continuous_part == 0.0)
        # per-level curves carry the 2^-n * const trend
        finals = [c[-1] for c in qv.level_curves]
        ratios = [a / b for a, b in zip(finals, finals[1:])]
        assert all(abs(r - 2.0) < 0.2 for r in ratios)

    def test_step_path(self):
        g = fl.dyadic_grid(1.0, 8)
        x = fl.as_fv(fl.StepGenerator(c=1.5, t0=0.5).generate(g))
        qv = fl.qv_sequence(x, fl.dyadic_sequence(1.0, 1, 8))
        i = g.index_of(0.5)
        expect = np.where(np.arange(len(g)) >= i, 1.5**2, 0.0)
        assert np.array_equal(qv.estimate, expect)
        assert np.all(qv.continuous_part == 0.0)

    def test_brownian_statistics(self):
        # Monte Carlo over seeds: the QV of the construction at T=1 is 1,
        # and without declared jumps the whole variation is continuous
        vals = []
        seq = fl.dyadic_sequence(1.0, 6, 12)
        for seed in range(24):
            w = fl.DyadicBrownianGenerator(seed=seed).generate(seq.grid)
            qv = fl.qv_sequence(w, seq, tol=fl.STOCHASTIC_TOL)
            assert qv.status != "no-qv"
            assert np.array_equal(qv.continuous_part, qv.estimate)
            vals.append(qv.at(1.0))
        assert abs(np.mean(vals) - 1.0) < 0.02

    def test_brownian_trend_certifies_at_depth(self):
        seq = fl.dyadic_sequence(1.0, 8, 14)
        w = fl.DyadicBrownianGenerator(seed=0).generate(seq.grid)
        qv = fl.qv_sequence(w, seq, tol=fl.STOCHASTIC_TOL)
        assert qv.status == "converged"

    def test_level_curves_start_at_zero_top_level_monotone(self):
        # increasingness can fail transiently at coarse levels; it is
        # asserted for the limit estimate only
        seq = fl.dyadic_sequence(1.0, 3, 9)
        w = fl.DyadicBrownianGenerator(seed=11).generate(seq.grid)
        qv = fl.qv_sequence(w, seq, tol=fl.STOCHASTIC_TOL)
        for c in qv.level_curves:
            assert c[0] == 0.0
        assert np.all(np.diff(qv.estimate) >= -1e-15)

    def test_jump_identity_split_is_exact_for_flat_paths(self):
        g = fl.dyadic_grid(1.0, 9)
        x = fl.as_fv(fl.StepGenerator(c=0.3, t0=0.25).generate(g))
        qv = fl.qv_sequence(x, fl.dyadic_sequence(1.0, 2, 9))
        assert qv.cond2_worst <= 1e-15


class TestCovariation:
    def test_against_continuous_fv_is_pure_jump_zero(self):
        seq = fl.dyadic_sequence(1.0, 6, 12)
        x = fl.DyadicBrownianGenerator(seed=2).generate(seq.grid)
        a = fl.as_fv(fl.FormulaGenerator(lambda t: t).generate(seq.grid))
        cov = fl.covariation(x, a, seq, tol=fl.STOCHASTIC_TOL)
        assert np.all(cov.jump_part == 0.0)
        assert np.max(np.abs(cov.estimate)) < fl.STOCHASTIC_TOL

    def test_diagonal_matches_qv(self):
        seq = fl.dyadic_sequence(1.0, 4, 10)
        x = fl.DyadicBrownianGenerator(seed=5).generate(seq.grid)
        cov = fl.covariation(x, x, seq, tol=fl.STOCHASTIC_TOL)
        qv = fl.qv_sequence(x, seq, tol=fl.STOCHASTIC_TOL)
        assert np.allclose(cov.estimate, qv.estimate, rtol=1e-13, atol=1e-15)

    def test_simultaneous_jumps(self):
        g = fl.dyadic_grid(1.0, 6)
        x = fl.StepGenerator(c=2.0, t0=0.5).generate(g)
        y = fl.StepGenerator(c=3.0, t0=0.5).generate(g)
        cov = fl.covariation(x, y, fl.dyadic_sequence(1.0, 1, 6), fv_exact=True)
        assert cov.at(1.0) == 6.0
        assert cov.at(0.4) == 0.0

    def test_polarization_equals_product_curve(self):
        seq = fl.dyadic_sequence(1.0, 3, 8)
        x = fl.DyadicBrownianGenerator(seed=7).generate(seq.grid)
        y = fl.DyadicBrownianGenerator(seed=8).generate(seq.grid)
        cov = fl.covariation(x, y, seq, tol=fl.STOCHASTIC_TOL)
        for p, curve in zip(seq, cov.level_curves):
            assert np.array_equal(curve, product_curve(x.x, y.x, p))

    def test_polarization_identity_within_rounding(self):
        # (1/2)([X+Y] - [X] - [Y]) adds rounded squares, so it is [X,Y] up
        # to rounding only: each curve is a sequential sum of at most m
        # terms on a partition of m points, so the two differ by at most
        # m eps ([X+Y] + [X] + [Y]) (X + Y stays O(1) here, so its own
        # rounding is of the increments' order)
        seq = fl.dyadic_sequence(1.0, 4, 10)
        x = fl.DyadicBrownianGenerator(seed=1, sigma=0.3).generate(seq.grid)
        y = fl.DyadicBrownianGenerator(seed=2, sigma=0.3).generate(seq.grid)
        s = fl.add_paths(x, y)
        cov = fl.covariation(x, y, seq, tol=fl.STOCHASTIC_TOL)
        eps = np.finfo(float).eps
        moved = 0
        for p, curve in zip(seq, cov.level_curves, strict=True):
            qs, qx, qy = qv_curve(s, p), qv_curve(x, p), qv_curve(y, p)
            gap = np.abs(0.5 * (qs - qx - qy) - curve)
            assert np.all(gap <= len(p) * eps * (qs + qx + qy))
            moved += np.count_nonzero(gap)
        assert moved  # not bit for bit

    def test_different_grids_rejected(self):
        x = fl.DyadicBrownianGenerator(seed=1).generate(fl.dyadic_grid(1.0, 4))
        y = fl.DyadicBrownianGenerator(seed=1).generate(fl.dyadic_grid(1.0, 5))
        with pytest.raises(ValueError, match="different grids"):
            fl.covariation(x, y, fl.dyadic_sequence(1.0, 1, 4))

    def test_fv_plus_qv_rules(self):
        # [X+A, X+A]^c = [X,X]^c within tolerance; [X,A] jumps exact
        seq = fl.dyadic_sequence(1.0, 6, 12)
        g = seq.grid
        x = fl.DyadicBrownianGenerator(seed=9).generate(g)
        a = fl.as_fv(fl.StepGenerator(c=0.5, t0=0.25, x0=1.0).generate(g))
        xa = fl.add_paths(x, a)
        qx = fl.qv_sequence(x, seq, tol=fl.STOCHASTIC_TOL)
        qxa = fl.qv_sequence(xa, seq, tol=fl.STOCHASTIC_TOL)
        assert np.max(np.abs(qxa.continuous_part - qx.continuous_part)) < fl.STOCHASTIC_TOL
        cov = fl.covariation(x, a, seq, tol=fl.STOCHASTIC_TOL)
        i = g.index_of(0.25)
        expect = np.where(np.arange(len(g)) >= i, x.dX[i] * 0.5, 0.0)
        assert np.array_equal(cov.jump_part, expect)


class TestQvMeasure:
    def test_step_weight_lands_on_straddling_left_endpoint(self):
        g = fl.dyadic_grid(1.0, 4)
        x = fl.StepGenerator(c=2.0, t0=0.5).generate(g)
        p = fl.Partition(g, np.array([0, g.index_of(0.5), len(g) - 1]))
        mu = fl.qv_measure(x, x, p)
        assert np.array_equal(mu.times, [0.0, 0.5])
        assert np.array_equal(mu.weights, [4.0, 0.0])

    def test_constant_gives_zero_weights(self):
        g = fl.dyadic_grid(1.0, 4)
        x = fl.FormulaGenerator(lambda t: 0 * t + 1.0).generate(g)
        mu = fl.qv_measure(x, x, fl.dyadic_sequence(1.0, 2, 2, grid=g).top)
        assert np.all(mu.weights == 0.0)

    def test_linear_squared_increments(self):
        g = fl.dyadic_grid(1.0, 4)
        x = fl.FormulaGenerator(lambda t: t).generate(g)
        p = fl.Partition(g, np.array([0, 8, 16]))
        mu = fl.qv_measure(x, x, p)
        assert np.allclose(mu.times, [0.0, 0.5])
        assert np.allclose(mu.weights, [0.25, 0.25])

    def test_bilinearity_atomwise(self):
        g = fl.dyadic_grid(1.0, 5)
        p = fl.dyadic_sequence(1.0, 3, 3, grid=g).top
        x = fl.DyadicBrownianGenerator(seed=1).generate(g)
        y = fl.DyadicBrownianGenerator(seed=2).generate(g)
        z = fl.DyadicBrownianGenerator(seed=3).generate(g)
        comb = fl.add_paths(x, y, 2.0, -3.0)
        lhs = fl.qv_measure(comb, z, p).weights
        rhs = 2.0 * fl.qv_measure(x, z, p).weights - 3.0 * fl.qv_measure(y, z, p).weights
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-15)


    @pytest.mark.parametrize("seed", range(5))
    def test_integrating_one_is_the_mass(self, seed):
        # one summation order: f = 1 gives mu([0, t]) bit for bit at every atom
        seq = fl.dyadic_sequence(1.0, 3, 10)
        x = fl.DyadicBrownianGenerator(seed=seed).generate(seq.grid)
        for p in seq:
            mu = fl.qv_measure(x, x, p)
            for t in mu.times:
                assert mu.integrate(np.ones_like, t) == mu.mass(t)


class TestMeasureVsQV:
    def test_partition_point_open_mass_agrees_exactly(self):
        seq = fl.dyadic_sequence(1.0, 2, 6)
        x = fl.DyadicBrownianGenerator(seed=4).generate(seq.grid)
        rep = measure_check(x, seq, 0.5)
        assert all(d == 0.0 for d in rep.diff_open)
        assert fl.within(rep.diff_closed, rep.cap)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(0, 1024))
    def test_open_mass_is_the_curve_at_partition_points(self, seed, k):
        # mu^pi([0, t_k[) adds the atoms of [X]^pi_{t_k} in the same order
        seq = fl.dyadic_sequence(1.0, 4, 10)
        x = fl.add_paths(
            fl.DyadicBrownianGenerator(seed=seed).generate(seq.grid),
            fl.CompoundJumpGenerator(seed=seed, intensity=3.0, size=0.5, sampler="uniform").generate(seq.grid),
        )
        t = float(seq.grid.times[k])
        rep = measure_check(x, seq, t)
        for p, v, do in zip(seq, rep.qv, rep.diff_open):
            assert v == qv_curve(x, p)[k]
            if t in p.times:
                assert do == 0.0  # |curve - open mass|: the two floats are equal

    def test_linear_interior_t_bound(self):
        seq = fl.dyadic_sequence(1.0, 2, 8)
        x = fl.FormulaGenerator(lambda t: t).generate(seq.grid)
        rep = measure_check(x, seq, 0.3)
        assert fl.within(rep.diff_closed, rep.cap)
        assert rep.diff_closed[-1] <= rep.diff_closed[0] + 1e-15

    def test_step_path_straddle(self):
        seq = fl.dyadic_sequence(1.0, 1, 8)
        x = fl.StepGenerator(c=1.0, t0=0.5).generate(seq.grid)
        t = 0.5 - 0.5**8  # just below the jump
        rep = measure_check(x, seq, t)
        assert fl.within(rep.diff_closed, rep.cap)
        # the open mass counts the jump square until the mesh separates t
        # from the jump time; the closed mass keeps the straddling atom
        assert rep.diff_open[0] == pytest.approx(1.0)
        assert rep.diff_open[-1] == 0.0
        assert rep.diff_closed[-1] == pytest.approx(1.0)


def pushforward(mu, times):
    weights = np.zeros(len(times) - 1)
    for s, w in zip(mu.times, mu.weights):
        i = int(np.searchsorted(times, s, side="left")) - 1
        if 0 <= i < weights.size:
            weights[i] += w
    return fl.DiscreteMeasure(times[:-1], weights, boundaries=times)


class TestMeasureConvergence:
    def test_dirac_pushforward_hits_left_limit(self):
        seq = fl.dyadic_sequence(1.0, 2, 10)
        mu = fl.DiscreteMeasure(np.array([0.5]), np.array([1.0]))
        mus = [pushforward(mu, p.times) for p in seq]
        f = fl.StepGenerator(c=2.0, t0=0.5, x0=1.0).generate(seq.grid)
        rep = fl.measure_convergence_check(mus, mu, f, 1.0)
        assert rep.integral_target == 1.0  # f(0.5-) * 1
        assert rep.trend.final_gap == 0.0
        assert rep.hypotheses_ok

    def test_smooth_measure_against_quadrature_oracle(self):
        # F(t) = t^2 discretized finely stands in for the continuous target
        seq = fl.dyadic_sequence(1.0, 3, 9)
        grid = seq.grid
        fine = np.diff(grid.times**2)
        mu = fl.DiscreteMeasure(grid.times[:-1], fine, boundaries=grid.times)
        mus = [pushforward(mu, p.times) for p in seq]
        f = fl.FormulaGenerator(lambda t: np.cos(3 * t)).generate(grid)
        rep = fl.measure_convergence_check(mus, mu, f, 1.0, tol=1e-2)
        oracle = quad(lambda s: np.cos(3 * s) * 2 * s, 0.0, 1.0, epsabs=1e-12)[0]
        # the tabulated target uses left-point masses: O(grid step) bias
        assert rep.integral_target == pytest.approx(oracle, abs=5e-3)
        assert rep.trend.final_gap < 1e-2
        assert rep.trend.converged

    def test_indicator_is_distribution_convergence(self):
        seq = fl.dyadic_sequence(1.0, 2, 8)
        mu = fl.DiscreteMeasure(np.array([0.25, 0.5]), np.array([1.0, 2.0]))
        mus = [pushforward(mu, p.times) for p in seq]
        f = fl.FormulaGenerator(lambda t: np.ones_like(t)).generate(seq.grid)
        rep = fl.measure_convergence_check(mus, mu, f, 0.9)
        assert rep.integral_per_level[-1] == pytest.approx(mu.mass(0.9))

    def test_integrals_match_per_atom_lookup(self):
        seq = fl.dyadic_sequence(1.0, 2, 9)
        grid = seq.grid
        mu = fl.DiscreteMeasure(grid.times[:-1], np.diff(grid.times**2), boundaries=grid.times)
        mus = [pushforward(mu, p.times) for p in seq]
        # atoms between grid times too
        off = grid.times[:-1] + 0.3 * (grid.times[1] - grid.times[0])
        mus.append(fl.DiscreteMeasure(off, mu.weights, boundaries=np.concatenate([[0.0], off])))
        f = fl.DyadicBrownianGenerator(seed=4).generate(grid)
        rep = fl.measure_convergence_check(mus, mu, f, 0.7, tol=1e-2)
        for m, got in zip(mus, rep.integral_per_level):
            k = int(np.searchsorted(m.times, 0.7, side="right"))
            f_at = np.array([f.x[grid.clamp_index(s)] for s in m.times[:k]])
            # added left to right from 0.0, as mass adds the weights
            assert got == float(np.cumsum(np.concatenate([[0.0], m.weights[:k] * f_at]))[-1])

    def test_negative_atom_time_rejected(self):
        seq = fl.dyadic_sequence(1.0, 2, 4)
        mu = fl.DiscreteMeasure(np.array([0.5]), np.array([1.0]))
        early = fl.DiscreteMeasure(
            np.array([-0.25, 0.5]), np.array([0.0, 1.0]), boundaries=np.array([-0.5, 0.25, 1.0])
        )
        f = fl.FormulaGenerator(lambda t: np.ones_like(t)).generate(seq.grid)
        with pytest.raises(ValueError, match="negative time"):
            fl.measure_convergence_check([early], mu, f, 1.0)

    def test_negative_atoms_rejected(self):
        seq = fl.dyadic_sequence(1.0, 2, 4)
        mu = fl.DiscreteMeasure(np.array([0.5]), np.array([1.0]))
        bad = fl.DiscreteMeasure(np.array([0.25]), np.array([-1.0]))
        f = fl.FormulaGenerator(lambda t: np.ones_like(t)).generate(seq.grid)
        with pytest.raises(ValueError):
            fl.measure_convergence_check([bad], mu, f, 1.0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    c=st.floats(-2, 2, allow_nan=False),
    t0_k=st.integers(1, 15),
)
def test_condition_ii_with_jump_on_flat_window(seed, c, t0_k):
    # a declared jump over a locally flat path keeps the split exact
    g = fl.dyadic_grid(1.0, 4)
    x = fl.StepGenerator(c=c, t0=t0_k / 16).generate(g)
    qv = fl.qv_sequence(fl.as_fv(x), fl.dyadic_sequence(1.0, 1, 4))
    assert qv.cond2_worst <= 1e-12


def test_qv_curve_matches_discrete_qv_on_grid_times():
    seq = fl.dyadic_sequence(1.0, 3, 6)
    x = fl.DyadicBrownianGenerator(seed=20).generate(seq.grid)
    p = seq.levels[0]
    curve = qv_curve(x, p)
    for g_idx in (0, 5, 17, len(seq.grid) - 1):
        t = float(seq.grid.times[g_idx])
        assert curve[g_idx] == pytest.approx(discrete_qv(x, p, t), rel=1e-14)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
    seeds=st.tuples(st.integers(0, 999), st.integers(0, 999), st.integers(0, 999)),
)
def test_measure_bilinearity_property(a, b, seeds):
    g = fl.dyadic_grid(1.0, 5)
    p = fl.dyadic_sequence(1.0, 3, 3, grid=g).top
    x, y, z = (fl.DyadicBrownianGenerator(seed=s).generate(g) for s in seeds)
    comb = fl.add_paths(x, y, a, b)
    lhs = fl.qv_measure(comb, z, p).weights
    rhs = a * fl.qv_measure(x, z, p).weights + b * fl.qv_measure(y, z, p).weights
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 9999), level=st.integers(2, 5))
def test_polarization_identity_property(seed, level):
    g = fl.dyadic_grid(1.0, 6)
    p = fl.dyadic_sequence(1.0, level, level, grid=g).top
    x = fl.DyadicBrownianGenerator(seed=seed).generate(g)
    y = fl.DyadicBrownianGenerator(seed=seed + 10_000).generate(g)
    s = fl.add_paths(x, y)
    pol = 0.5 * (qv_curve(s, p) - qv_curve(x, p) - qv_curve(y, p))
    assert np.allclose(pol, product_curve(x.x, y.x, p), rtol=1e-12, atol=1e-14)


def test_a_nan_jump_identity_violation_is_no_qv():
    # the linear command's driver with jumps of size 1e300 is finite, but its
    # squared increments overflow: a NaN violation compares false with any
    # bound, and it must fail the jump identity all the same
    g = fl.dyadic_grid(1.0, 8)
    jumps = {"kind": "compound-jump", "intensity": 3.0, "size": 1e300, "sampler": "uniform"}
    ref = {"kind": "affine-combination", "x": {"kind": "dyadic-brownian"}, "y": jumps}
    x = make_generator(ref, g, "x", None).generate(g)
    assert np.all(np.isfinite(x.x))
    with pytest.warns(RuntimeWarning):
        qv = fl.qv_sequence(x, fl.dyadic_sequence(1.0, 3, 8, grid=g), tol=0.5)
    assert qv.status == "no-qv" and np.isnan(qv.cond2_worst)
    assert qv.trend.status == "non-finite"
