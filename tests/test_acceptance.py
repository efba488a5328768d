"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Each test is oracle- or property-based at desk scale and
carries its runtime budget.
"""

import math
import time

import numpy as np

import follmer as fl
import follmer.functions as fn
from follmer.quadvar import qv_curve

TOL_STOCH = 5e-2


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def budget(num: int, started: float, limit: float) -> None:
    elapsed = time.time() - started
    assert elapsed < limit, f"criterion {num} runtime {elapsed:.1f}s over {limit}s"


def zigzag_positive(t):
    return 1.0 + 4.0 * np.minimum(np.mod(t, 0.5), 0.5 - np.mod(t, 0.5))


def brownian_with_jumps(grid, seed, x0=5.0):
    return fl.add_paths(
        fl.DyadicBrownianGenerator(seed=seed, x0=x0).generate(grid),
        fl.CompoundJumpGenerator(seed=seed, intensity=3.0, size=0.4, sampler="uniform").generate(grid),
    )


def test_criterion_1_exact_jump_identities():
    t0 = time.time()
    worst = 0.0
    cases = [
        [(0.5, 2.0)],
        [(0.25, 1.0), (0.5, -0.7), (0.75, 0.3)],
        [(0.125, -2.5), (0.875, 4.0)],
    ]
    for jumps in cases:
        seq = fl.dyadic_sequence(1.0, 3, 8)
        g = seq.grid
        vals = np.zeros(len(g))
        jmap = {}
        for tt, c in jumps:
            i = g.index_of(tt)
            vals[i:] += c
            jmap[i] = c
        x = fl.FVPath(g, vals, jmap)
        target = sum(c * c for _, c in jumps)
        for p in seq:
            worst = max(worst, abs(qv_curve(x, p)[-1] - target))
    report(1, worst <= 1e-12, f"step-path QV equals sum of squared jumps, worst gap {worst:.2e}")
    budget(1, t0, 1.0)


def test_criterion_2_ito_formula_residuals():
    # each function gets the four path classes with domain-compatible
    # instances: log rides strictly positive paths, the others O(1) ones
    t0 = time.time()
    seq = fl.dyadic_sequence(1.0, 6, 12)
    g = seq.grid
    a_lin = fl.as_fv(fl.FormulaGenerator(lambda t: t).generate(g))

    def paths(x0):
        out = [
            ("step", fl.as_fv(fl.StepGenerator(c=0.8, t0=0.5, x0=x0 + 1.0).generate(g)), True),
            ("zigzag", fl.as_fv(fl.FormulaGenerator(lambda t: x0 + zigzag_positive(t)).generate(g)), False),
        ]
        for seed in (1, 2, 3):
            out.append(
                (f"bm{seed}", fl.DyadicBrownianGenerator(seed=seed, sigma=0.5, x0=x0 + 1.0).generate(g), False)
            )
        bj = fl.add_paths(
            fl.DyadicBrownianGenerator(seed=4, sigma=0.5, x0=x0 + 2.0).generate(g),
            fl.CompoundJumpGenerator(seed=4, intensity=3.0, size=0.4, sampler="uniform").generate(g),
        )
        out.append(("bm+jumps", bj, False))
        return out

    log_paths = paths(1.5)
    for _, p, _ in log_paths:  # the log instances must stay in the domain
        assert np.min(fl.left_values(p)) > 0.2
    cases = {
        "square": (fn.square(), paths(0.0)),
        "exp": (fn.exp_affine(), paths(0.0)),
        "log": (fn.log_fn(), log_paths),
        "bilinear": (fn.fv_scale(), paths(0.0)),
    }

    worst_exact, worst_final, all_trend = 0.0, 0.0, True
    for fname, (f, instances) in cases.items():
        a = a_lin if f.grad_a else None
        for label, x, is_pure_jump in instances:
            if is_pure_jump:
                rep = fl.ito_formula_eval(f, a, x, seq, 1.0)
                worst_exact = max(worst_exact, abs(rep.residual))
            else:
                rep = fl.ito_formula_eval(f, a, x, seq, 1.0, tol=TOL_STOCH)
                worst_final = max(worst_final, abs(rep.residual))
                all_trend = all_trend and rep.trend.converged
    ok = worst_exact <= 1e-12 and worst_final <= TOL_STOCH and all_trend
    report(
        2,
        ok,
        f"pure-jump residual {worst_exact:.2e} (<=1e-12); "
        f"trending final {worst_final:.2e} (<=5e-2), all trends decreasing: {all_trend}",
    )
    budget(2, t0, 30.0)


def test_criterion_3_discrete_parts_identity():
    t0 = time.time()
    seq = fl.dyadic_sequence(1.0, 4, 12)
    g = seq.grid
    pairs = [
        (fl.DyadicBrownianGenerator(seed=5).generate(g), fl.DyadicBrownianGenerator(seed=6).generate(g)),
        (fl.DyadicBrownianGenerator(seed=7).generate(g), fl.StepGenerator(c=2.0, t0=0.5).generate(g)),
        (fl.StepGenerator(c=1.0, t0=0.25).generate(g), fl.StepGenerator(c=-3.0, t0=0.75).generate(g)),
        (brownian_with_jumps(g, seed=8), fl.FormulaGenerator(zigzag_positive).generate(g)),
    ]
    worst_rel = 0.0
    for x, y in pairs:
        rep = fl.integration_by_parts(x, y, seq, 1.0, tol=TOL_STOCH)
        scale = max(1.0, float(np.max(np.abs(x.x * y.x))))
        worst_rel = max(worst_rel, rep.discrete_identity_worst / scale)
    report(3, worst_rel <= 1e-10, f"discrete parts identity, worst relative gap {worst_rel:.2e}")
    budget(3, t0, 10.0)


def test_criterion_4_associativity():
    t0 = time.time()
    seq = fl.dyadic_sequence(1.0, 6, 12)
    g = seq.grid

    w = fl.DyadicBrownianGenerator(seed=17).generate(g)
    xi = fl.AdmissibleIntegrand(fn.polynomial([0.0, 0.0, 0.5]), None, w)
    eta = [fl.follmer_integral(xi, w, seq, tol=TOL_STOCH).estimate]
    stoch = fl.associativity_check(eta, [xi], w, seq, 1.0, tol=TOL_STOCH)
    stoch_ok = stoch.trend.converged and stoch.trend.final_gap <= TOL_STOCH and stoch.trend.gaps[-2] <= TOL_STOCH

    x = fl.as_fv(fl.StepGenerator(c=1.0, t0=0.5, x0=1.0).generate(g))
    xij = fl.AdmissibleIntegrand(fn.square(), None, x)
    etaj = [fl.follmer_integral(xij, x, seq).estimate]
    pure = fl.associativity_check(etaj, [xij], x, seq, 1.0)
    pure_ok = max(pure.trend.gaps) <= 1e-10

    ok = stoch_ok and pure_ok
    report(
        4,
        ok,
        f"stochastic gaps tail {[f'{v:.1e}' for v in stoch.trend.gaps[-3:]]} (<=5e-2, decreasing); "
        f"pure-jump worst gap {max(pure.trend.gaps):.1e} (<=1e-10)",
    )
    budget(4, t0, 30.0)


def test_criterion_5_linear_equation_oracle():
    t0 = time.time()
    seq = fl.dyadic_sequence(1.0, 8, 14)
    x = fl.as_fv(fl.FormulaGenerator(lambda t: t).generate(seq.grid))

    rep1 = fl.solve_linear(1.0, x, seq)
    e1 = abs(float(rep1.z.x[-1]) - math.e)

    h = fl.GridPath(seq.grid, seq.grid.times.copy())
    rep2 = fl.solve_linear(h, x, seq, decomposition=(0.0, x))
    e2 = abs(float(rep2.z.x[-1]) - (math.e - 1.0))
    agree = rep2.agreement

    ok = e1 <= 1e-6 and e2 <= 1e-6 and agree <= 1e-6
    report(
        5,
        ok,
        f"Z(1)=e off by {e1:.2e}; Z(1)=e-1 off by {e2:.2e}; expressions agree to {agree:.2e} (all <=1e-6)",
    )
    budget(5, t0, 5.0)


def test_criterion_6_exponential_reconstruction():
    t0 = time.time()
    # pure-jump instance: multiplicative steps
    seq = fl.dyadic_sequence(1.0, 4, 10)
    g = seq.grid
    sv = np.full(len(g), 2.0)
    factors = [(0.25, 1.5), (0.5, 0.7), (0.75, 1.2)]
    jmap = {}
    for tt, fac in factors:
        sv[g.index_of(tt) :] *= fac
    for tt, fac in factors:
        i = g.index_of(tt)
        jmap[i] = sv[i] - sv[i] / fac
    s = fl.FVPath(g, sv, jmap)
    z = fl.follmer_integral(fl.reciprocal_path(s), s, seq)
    rec = 2.0 * fl.doleans_exponential(z.path, seq).values
    err_jump = float(np.max(np.abs(rec - s.x)))

    # stochastic instance: error decreases with the top level
    g12 = fl.dyadic_grid(1.0, 12)
    s2 = fl.GeometricGenerator(seed=9, sigma=0.3, s0=1.5).generate(g12)
    errs = []
    for top in (8, 10, 12):
        sq = fl.dyadic_sequence(1.0, 6, top, grid=g12)
        z2 = fl.follmer_integral(fl.reciprocal_path(s2), s2, sq, tol=TOL_STOCH)
        se2 = fl.doleans_exponential(z2.path, sq, tol=TOL_STOCH)
        errs.append(float(np.max(np.abs(1.5 * se2.values - s2.x))))
    trend_ok = errs[0] > errs[1] > errs[2]

    ok = err_jump <= 1e-8 and trend_ok
    report(
        6,
        ok,
        f"pure-jump sup error {err_jump:.2e} (<=1e-8); stochastic errors {[f'{e:.1e}' for e in errs]} decreasing",
    )
    budget(6, t0, 10.0)


def test_criterion_7_drawdown_round_trip():
    t0 = time.time()
    seq = fl.dyadic_sequence(1.0, 6, 12)
    w = fl.DyadicBrownianGenerator(seed=11, sigma=0.3).generate(seq.grid)
    s = fl.GridPath(seq.grid, 2.0 * np.exp(w.x))
    a = float(s.x[0])
    floors = [
        fl.floor_zero(a_star=a),
        fl.floor_proportional(0.3, a_star=a),
        fl.floor_constant_margin(1.0, a_star=a),
    ]
    worst_rt, all_trend, worst_margin = 0.0, True, np.inf
    for floor in floors:
        rep = fl.solve_drawdown(floor, s, seq, tol=TOL_STOCH)
        back = fl.azema_yor_path(rep.transform.V, rep.y).path
        worst_rt = max(worst_rt, float(np.max(np.abs(back.x - s.x))))
        all_trend = all_trend and rep.trend.converged
        worst_margin = min(worst_margin, rep.constraint_margin)
    ok = worst_rt <= 1e-6 and all_trend and worst_margin > 0.0
    report(
        7,
        ok,
        f"round trip sup {worst_rt:.2e} (<=1e-6); residual trends decreasing: {all_trend}; "
        f"strict constraint margin {worst_margin:.3f} > 0",
    )
    budget(7, t0, 10.0)


def test_criterion_8_cppi_floor_guarantee():
    t0 = time.time()
    seq = fl.dyadic_sequence(1.0, 6, 12)
    g = seq.grid
    lv = 0.7 - 0.2 * g.times
    spec = fl.FloorSpec(fl.FVPath(g, lv))
    b = fl.FVPath(g, np.exp(0.02 * g.times))
    worst_margin_rel, all_trend = np.inf, True
    for seed in range(32):
        s = fl.GeometricGenerator(
            seed=seed, sigma=0.2, mu=-0.01, jump_intensity=2.0, jump_size=0.15
        ).generate(g)
        market = fl.Market(s, b)
        for m in (0.0, 0.5, 1.0):
            rep = fl.dppi(market, m, spec, 0.9, seq, tol=TOL_STOCH)
            scale = float(np.max(np.abs(rep.strategy.value.x)))
            worst_margin_rel = min(worst_margin_rel, rep.floor_margin / scale)
            all_trend = all_trend and rep.self_financing.converged
    ok = worst_margin_rel >= -1e-9 and all_trend
    report(
        8,
        ok,
        f"32 seeds x m in (0,.5,1): worst relative floor margin {worst_margin_rel:.2e} >= -1e-9; "
        f"self-financing trends decreasing: {all_trend}",
    )
    budget(8, t0, 60.0)


def test_criterion_9_monte_carlo_qv():
    t0 = time.time()
    exp = fl.McExperiment(seeds=tuple(range(64)), n_min=3, n_max=8, grid_level=16)
    summary = fl.run_mc(exp)
    ok = summary.pass_fraction >= 0.9 and summary.bounds_fraction == 1.0
    report(
        9,
        ok,
        f"64 diffusion seeds, band-exit levels 3..8: pass fraction {summary.pass_fraction:.3f} (>=0.9); "
        f"gap<=1/n and osc<=2^-n on {summary.bounds_fraction:.0%} of seeds",
    )
    budget(9, t0, 120.0)


def test_criterion_10_discrete_measure_limit():
    t0 = time.time()
    seq = fl.dyadic_sequence(1.0, 4, 10)
    g = seq.grid
    mu = fl.DiscreteMeasure(np.array([0.5]), np.array([1.0]))

    def pushforward(times):
        weights = np.zeros(len(times) - 1)
        for s, wgt in zip(mu.times, mu.weights):
            i = int(np.searchsorted(times, s, side="left")) - 1
            weights[i] += wgt
        return fl.DiscreteMeasure(times[:-1], weights, boundaries=times)

    mus = [pushforward(p.times) for p in seq]
    worst = 0.0
    h10 = 0.5**10
    for f_t0, f_c in [(0.5, 2.0), (0.5 - h10, -1.0), (0.25, 3.0)]:
        f = fl.StepGenerator(c=f_c, t0=f_t0, x0=1.0).generate(g)
        rep = fl.measure_convergence_check(mus, mu, f, 1.0)
        # bound: the variation of f over the one grid step left of the atom
        lo = g.clamp_index(0.5 - h10)
        hi = g.clamp_index(0.5)
        window_var = float(np.sum(np.abs(np.diff(f.x[lo : hi + 1]))))
        err = rep.trend.final_gap
        worst = max(worst, err - window_var)
        assert rep.hypotheses_ok
    ok = worst <= 1e-12
    report(
        10,
        ok,
        f"pushforward integrals hit f(atom-) within one grid step of f-variation "
        f"(worst excess {worst:.2e})",
    )
    budget(10, t0, 1.0)


def test_criterion_11_qv_of_integral():
    t0 = time.time()
    seq = fl.dyadic_sequence(1.0, 6, 12)
    w = fl.DyadicBrownianGenerator(seed=17).generate(seq.grid)
    worst_bm, all_trend = 0.0, True
    for f in (fn.polynomial([0.0, 0.0, 0.5]), fn.exp_affine(0.5)):
        rep = fl.qv_of_integral(fl.AdmissibleIntegrand(f, None, w), w, seq, tol=TOL_STOCH)
        worst_bm = max(worst_bm, rep.trend.final_gap)
        all_trend = all_trend and rep.trend.converged

    # pure-jump FV integrator with jumps on every level's points: exact
    seq_j = fl.dyadic_sequence(1.0, 2, 10)
    g = seq_j.grid
    vals = np.ones(len(g))
    jmap = {}
    for tt, c in [(0.25, 0.5), (0.5, -0.7), (0.75, 1.2)]:
        i = g.index_of(tt)
        vals[i:] += c
        jmap[i] = c
    x = fl.FVPath(g, vals, jmap)
    rep_j = fl.qv_of_integral(fl.AdmissibleIntegrand(fn.polynomial([0.0, 0.0, 0.5]), None, x), x, seq_j)
    worst_jump = max(rep_j.trend.gaps)

    ok = worst_bm <= TOL_STOCH and all_trend and worst_jump <= 1e-12
    report(
        11,
        ok,
        f"[int xi dX] vs int xi^2 d[X]: Brownian final gap {worst_bm:.2e} (<=5e-2), trends decreasing: "
        f"{all_trend}; pure-jump worst gap {worst_jump:.1e} (<=1e-12)",
    )
    budget(11, t0, 10.0)


def test_criterion_12_reciprocal_exponential():
    t0 = time.time()
    seq = fl.dyadic_sequence(1.0, 6, 12)
    g = seq.grid
    worst_fv, worst_inv = 0.0, 0.0
    linear = fl.as_fv(fl.FormulaGenerator(lambda t: t).generate(g))
    for x in (linear, fl.as_fv(fl.StepGenerator(c=0.8).generate(g))):
        se = fl.doleans_exponential(x, seq)
        rep = fl.reciprocal_exponential(se, seq, 1.0)
        worst_fv = max(worst_fv, abs(rep.residual))
        worst_inv = max(worst_inv, float(np.max(np.abs(rep.path.x * se.values - 1.0))))

    worst_bm = 0.0
    for seed in range(1, 5):
        x = fl.add_paths(
            fl.DyadicBrownianGenerator(seed=seed, sigma=0.4).generate(g),
            fl.CompoundJumpGenerator(seed=seed, intensity=4.0, size=0.3, sampler="uniform").generate(g),
        )
        se = fl.doleans_exponential(x, seq, tol=TOL_STOCH)
        rep = fl.reciprocal_exponential(se, seq, 1.0)
        worst_bm = max(worst_bm, abs(rep.residual))
        worst_inv = max(worst_inv, float(np.max(np.abs(rep.path.x * se.values - 1.0))))

    ok = worst_fv <= 1e-8 and worst_bm <= TOL_STOCH and worst_inv <= 1e-14
    report(
        12,
        ok,
        f"1/E(X) representation residual: FV {worst_fv:.2e} (<=1e-8), Brownian with jumps {worst_bm:.2e} "
        f"(<=5e-2); sup |(1/E(X)) E(X) - 1| {worst_inv:.1e} (<=1e-14)",
    )
    budget(12, t0, 10.0)


def test_criterion_13_drawdown_strategy():
    t0 = time.time()
    seq = fl.dyadic_sequence(1.0, 6, 12)
    v0 = 1.0
    all_trend, worst_margin = True, np.inf
    for seed in (5, 7, 11):
        s = fl.GeometricGenerator(seed=seed, sigma=0.25, s0=2.0).generate(seq.grid)
        for floor in (fl.floor_zero(a_star=v0), fl.floor_proportional(0.3, a_star=v0)):
            rep = fl.drawdown_strategy(s, v0, floor, seq, tol=TOL_STOCH)
            all_trend = all_trend and rep.self_financing.converged
            worst_margin = min(worst_margin, rep.constraint_margin)
    ok = all_trend and worst_margin > 0.0
    report(
        13,
        ok,
        f"drawdown strategies, 3 seeds x zero and proportional floors: self-financing trends "
        f"decreasing: {all_trend}; constraint margin {worst_margin:.3f} > 0",
    )
    budget(13, t0, 10.0)
