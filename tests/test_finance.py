import numpy as np
import pytest

import follmer as fl


def constant_path(grid, c):
    return fl.GridPath(grid, np.full(len(grid), float(c)))


def make_strategy(market, xi, eta):
    """Holdings (xi, eta) with their value path xi S + eta B and its jumps."""
    v = xi.x * market.s.x + eta.x * market.b.x
    xl, el = fl.left_values(xi), fl.left_values(eta)
    sl, bl = fl.left_values(market.s), fl.left_values(market.b)
    return fl.Strategy(xi, eta, fl.GridPath(market.grid, v, v - (xl * sl + el * bl)))


def geometric_market(seq, seed=21, sigma=0.2, rate=0.03, jumps=2.0):
    s = fl.GeometricGenerator(
        seed=seed, sigma=sigma, mu=-0.02, jump_intensity=jumps, jump_size=0.15
    ).generate(seq.grid)
    b = fl.FVPath(seq.grid, np.exp(rate * seq.grid.times))
    return fl.Market(s, b)


@pytest.fixture(scope="module")
def seq():
    return fl.dyadic_sequence(1.0, 6, 12)


class TestMarket:
    def test_positivity_enforced(self, seq):
        bad = fl.FormulaGenerator(lambda t: t - 0.5).generate(seq.grid)
        b = fl.FVPath(seq.grid, np.ones(len(seq.grid)))
        with pytest.raises(ValueError):
            fl.Market(bad, b)

    def test_b0_must_be_one(self, seq):
        s = fl.FormulaGenerator(lambda t: 1.0 + 0 * t).generate(seq.grid)
        b = fl.FVPath(seq.grid, np.full(len(seq.grid), 2.0))
        with pytest.raises(ValueError):
            fl.Market(s, b)


class TestDppi:
    def test_full_risky_unit_bank_closed_form(self, seq):
        # m = 1, B = 1, constant L: V = L0 + (v0 - L0) S / S0
        s = fl.GeometricGenerator(seed=21, sigma=0.2, jump_intensity=2.0, jump_size=0.15).generate(seq.grid)
        mkt = fl.Market(s, fl.FVPath(seq.grid, np.ones(len(seq.grid))))
        spec = fl.FloorSpec(fl.FVPath(seq.grid, np.full(len(seq.grid), 0.6)))
        rep = fl.dppi(mkt, 1.0, spec, 1.0, seq, tol=fl.STOCHASTIC_TOL)
        target = 0.6 + 0.4 * s.x / s.x[0]
        assert np.max(np.abs(rep.strategy.value.x - target)) < 1e-4
        assert rep.floor_ok

    def test_all_riskless(self, seq):
        mkt = geometric_market(seq)
        spec = fl.FloorSpec(fl.FVPath(seq.grid, np.full(len(seq.grid), 0.5)))
        rep = fl.dppi(mkt, 0.0, spec, 1.0, seq, tol=fl.STOCHASTIC_TOL)
        # all wealth rides the riskless account: V ~ L B + (v0 - L0) B
        target = 0.5 * mkt.b.x + 0.5 * mkt.b.x
        assert np.max(np.abs(rep.strategy.value.x - target)) < 1e-4
        assert np.max(np.abs(rep.strategy.xi.x)) < 1e-12

    def test_convex_multipliers_keep_driver_above_minus_one(self, seq):
        mkt = geometric_market(seq, jumps=4.0)
        spec = fl.FloorSpec(fl.FVPath(seq.grid, np.full(len(seq.grid), 0.4)))
        for m in (0.0, 0.25, 0.5, 0.75, 1.0):
            rep = fl.dppi(mkt, m, spec, 1.0, seq, tol=fl.STOCHASTIC_TOL)
            assert all(v > -1.0 for v in (float(rep.x_path.dX[i]) for i in rep.x_path.jumps))
            assert rep.floor_ok

    def test_single_jump_transcription_by_hand(self):
        # S constant; B jumps 1 -> 1.2 and L jumps 0.5 -> 0.4 at t1 = 0.5;
        # m = 0.5, v0 = 1.  Then dX = 0.1, E(X) = 1.1 after the jump, the
        # jump sum uses the post-jump B_s = 1.2, and V(t >= t1) = 1.15 with
        # dV = eta_{t1-} dB = 0.75 * 0.2 = 0.15 exactly (self-financing).
        seq = fl.dyadic_sequence(1.0, 2, 8)
        g = seq.grid
        n = len(g)
        i1 = g.index_of(0.5)
        s = fl.FVPath(g, np.ones(n))
        bv = np.ones(n)
        bv[i1:] = 1.2
        b = fl.FVPath(g, bv, {i1: 0.2})
        lv = np.full(n, 0.5)
        lv[i1:] = 0.4
        l = fl.FVPath(g, lv, {i1: -0.1})
        rep = fl.dppi(fl.Market(s, b), 0.5, fl.FloorSpec(l), 1.0, seq)
        v = rep.strategy.value.x
        assert v[0] == pytest.approx(1.0, abs=1e-14)
        assert v[i1 - 1] == pytest.approx(1.0, abs=1e-14)
        assert v[i1] == pytest.approx(1.15, abs=1e-12)
        assert rep.strategy.value.dX[i1] == pytest.approx(0.15, abs=1e-12)
        assert rep.self_financing.final_gap <= 1e-12
        assert rep.floor_ok

    def test_floor_requires_initial_wealth(self, seq):
        mkt = geometric_market(seq)
        spec = fl.FloorSpec(fl.FVPath(seq.grid, np.full(len(seq.grid), 2.0)))
        with pytest.raises(ValueError):
            fl.dppi(mkt, 0.5, spec, 1.0, seq)

    def test_floor_multiplier_must_not_rise(self, seq):
        # the floor guarantee holds for a nonincreasing L only: a rise, by a
        # slope or by a jump, is outside the model's domain
        g = seq.grid
        i = g.index_of(0.5)
        rising = [0.5 + 0.1 * g.times, np.where(g.times < 0.5, 0.4, 0.5)]
        for lv, jumps in zip(rising, (None, {i: 0.1})):
            with pytest.raises(fl.DomainError, match=r"^L must be nonincreasing, got 0\.[0-9]+ then 0\.[0-9]+ at t = "):
                fl.FloorSpec(fl.FVPath(g, lv, jumps))
        fl.FloorSpec(fl.FVPath(g, 0.5 - 0.1 * g.times))  # a falling L is taken

    def test_raw_multiplier_path_rejected(self, seq):
        mkt = geometric_market(seq)
        spec = fl.FloorSpec(fl.FVPath(seq.grid, np.zeros(len(seq.grid))))
        raw = fl.FormulaGenerator(lambda t: 0.5 + 0 * t).generate(seq.grid)
        with pytest.raises(TypeError):
            fl.dppi(mkt, raw, spec, 1.0, seq)

    def test_unfloored_full_multiplier_reconstructs_exponential(self, seq):
        # L = 0, m = 1: V / V0 equals E(int dS / S_-)
        mkt = geometric_market(seq, rate=0.0)
        spec = fl.FloorSpec(fl.FVPath(seq.grid, np.zeros(len(seq.grid))))
        rep = fl.dppi(mkt, 1.0, spec, 1.0, seq, tol=fl.STOCHASTIC_TOL)
        z = fl.follmer_integral(fl.reciprocal_path(mkt.s), mkt.s, seq, tol=fl.STOCHASTIC_TOL)
        se = fl.doleans_exponential(z.path, seq, tol=fl.STOCHASTIC_TOL)
        assert np.max(np.abs(rep.strategy.value.x - se.values)) < fl.STOCHASTIC_TOL


class TestSelfFinancing:
    def test_buy_and_hold_exact(self, seq):
        mkt = geometric_market(seq)
        st = make_strategy(mkt, constant_path(seq.grid, 2.0), constant_path(seq.grid, 3.0))
        rep = fl.self_financing_residual(st, mkt, seq, 1.0)
        assert rep.final_gap <= 1e-12

    def test_dppi_trend(self, seq):
        mkt = geometric_market(seq)
        spec = fl.FloorSpec(fl.FVPath(seq.grid, np.full(len(seq.grid), 0.5)))
        rep = fl.dppi(mkt, 0.5, spec, 1.0, seq, tol=fl.STOCHASTIC_TOL)
        assert rep.self_financing.converged

    def test_perturbed_holdings_fail(self, seq):
        mkt = geometric_market(seq)
        eta = constant_path(seq.grid, 3.0)
        vals = eta.x.copy()
        vals[len(vals) // 2 :] += 0.5  # undeclared rebalance injects wealth
        st = make_strategy(mkt, constant_path(seq.grid, 2.0), fl.GridPath(seq.grid, vals))
        rep = fl.self_financing_residual(st, mkt, seq, 1.0)
        assert rep.final_gap > 0.1

    def test_dppi_with_jumpy_bank(self, seq):
        g = seq.grid
        bv = np.exp(0.02 * g.times)
        i = g.index_of(0.75)
        bv[i:] *= 1.05
        b = fl.FVPath(g, bv, {i: bv[i] - bv[i] / 1.05})
        s = fl.GeometricGenerator(seed=40, sigma=0.2, jump_intensity=1.0, jump_size=0.1).generate(g)
        mkt = fl.Market(s, b)
        spec = fl.FloorSpec(fl.FVPath(g, np.full(len(g), 0.3)))
        rep = fl.dppi(mkt, 0.5, spec, 1.0, seq, tol=fl.STOCHASTIC_TOL)
        assert rep.self_financing.converged


class TestDrawdownStrategy:
    def test_zero_floor_full_investment(self, seq):
        s = fl.GeometricGenerator(seed=5, sigma=0.25, s0=2.0).generate(seq.grid)
        rep = fl.drawdown_strategy(s, 2.0, fl.floor_zero(a_star=2.0), seq, tol=fl.STOCHASTIC_TOL)
        assert np.allclose(rep.strategy.xi.x, 1.0, atol=1e-11)
        assert np.allclose(rep.strategy.value.x, s.x, rtol=1e-11)
        assert rep.constraint_margin > 0.0

    def test_zero_floor_at_a_large_wealth(self, seq):
        # v0 = 3000 on a path whose running maximum rises by 40%
        s = fl.GeometricGenerator(seed=5, sigma=0.6, s0=2.0).generate(seq.grid)
        assert np.max(s.x) / s.x[0] > 1.3
        rep = fl.drawdown_strategy(s, 3000.0, fl.floor_zero(a_star=3000.0), seq, tol=fl.STOCHASTIC_TOL)
        assert np.allclose(rep.strategy.xi.x, 1500.0, rtol=1e-11)
        assert np.allclose(rep.strategy.value.x, 1500.0 * s.x, rtol=1e-11)

    def test_proportional_floor_formula(self, seq):
        alpha, v0 = 0.3, 1.0
        s = fl.GeometricGenerator(seed=7, sigma=0.25, s0=2.0).generate(seq.grid)
        rep = fl.drawdown_strategy(s, v0, fl.floor_proportional(alpha, a_star=v0), seq, tol=fl.STOCHASTIC_TOL)
        sbar, _ = fl.running_maximum(s)
        expect_xi = (1.0 - alpha) * (v0 / 2.0 ** (1 - alpha)) * sbar.x ** (-alpha)
        assert np.allclose(rep.strategy.xi.x, expect_xi, rtol=1e-9)
        assert rep.constraint_ok
        assert rep.self_financing.converged

    def test_constant_price(self, seq):
        s = fl.as_fv(fl.FormulaGenerator(lambda t: 2.0 + 0 * t).generate(seq.grid))
        rep = fl.drawdown_strategy(s, 1.0, fl.floor_proportional(0.5, a_star=1.0), seq)
        assert np.allclose(rep.strategy.value.x, 1.0, atol=1e-13)
        assert rep.self_financing.final_gap <= 1e-13

    def test_floor_anchor_must_match_v0(self, seq):
        s = fl.GeometricGenerator(seed=5, sigma=0.2, s0=2.0).generate(seq.grid)
        with pytest.raises(ValueError):
            fl.drawdown_strategy(s, 1.0, fl.floor_zero(a_star=0.5), seq)


def test_floor_guarantee_across_seeds():
    seq = fl.dyadic_sequence(1.0, 6, 11)
    g = seq.grid
    lv = 0.7 - 0.2 * g.times
    spec = fl.FloorSpec(fl.FVPath(g, lv))
    for seed in range(8):
        mkt = geometric_market(seq, seed=seed, jumps=3.0)
        for m in (0.0, 0.5, 1.0):
            rep = fl.dppi(mkt, m, spec, 0.9, seq, tol=fl.STOCHASTIC_TOL)
            scale = float(np.max(np.abs(rep.strategy.value.x)))
            assert rep.floor_margin >= -1e-9 * scale


class TestReadMarketCsv:
    def test_jump_columns_found_by_name(self):
        from io import StringIO

        from follmer.finance import read_market_csv

        # a dS column without dB: the stock's jumps must not be dropped
        text = "t,S,B,dS\n0.0,1.0,1.0,0.0\n0.5,1.25,1.0,0.25\n1.0,1.5,1.0,0.0\n"
        mkt = read_market_csv(StringIO(text))
        assert dict(mkt.s.jumps) == {1: 0.25}
        assert not mkt.b.jumps
        # columns in any order, dB alone
        text = "B,dB,t,S\n1.0,0.0,0.0,2.0\n1.5,0.5,0.5,2.0\n1.5,0.0,1.0,2.0\n"
        mkt = read_market_csv(StringIO(text))
        assert np.array_equal(mkt.grid.times, [0.0, 0.5, 1.0])
        assert not mkt.s.jumps and dict(mkt.b.jumps) == {1: 0.5}
        assert fl.left_values(mkt.b)[1] == 1.0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,S,B,dS,dB\n0.0,1.0,1.0,0.0,0.0\n1.0,1.0\n", "row 1 has 2 fields"),
            ("t,S,B\n0.0,1.0,1.0\n1.0,x,1.0\n", "row 1"),
            ("t,S,dS\n0.0,1.0,0.0\n1.0,1.0,0.0\n", "lacks B"),
        ],
    )
    def test_malformed_rows_raise_value_error_naming_the_row(self, text, message):
        from io import StringIO

        from follmer.finance import read_market_csv

        with pytest.raises(ValueError, match=message):
            read_market_csv(StringIO(text))
