"""Config-driven experiment runner.

Every subcommand reads one JSON config, runs the corresponding machinery,
writes CSV tables and a JSON report into the output directory, and exits 0
only if all configured assertions pass (1 on assertion failure with a
machine-readable failure report, 2 on config errors).  Outputs are
deterministic given (config, seed); plots are optional and never affect the
exit status.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from .diagnostics import DETERMINISTIC_TOL, STOCHASTIC_TOL
from .drawdown import azema_yor_path, solve_drawdown
from .equations import solve_linear, solve_nonlinear
from .finance import FloorSpec, Market, dppi, write_strategy_csv
from .integrals import (
    AdmissibleIntegrand,
    associativity_check,
    follmer_integral,
    ito_formula_eval,
)
from .io import (
    ConfigError,
    check_keys,
    config_hash,
    load_config,
    make_floor,
    make_function,
    make_generator,
    require,
    tolerance,
    write_csv,
    write_report,
    write_svg,
)
from .mc import McExperiment, run_mc
from .partitions import dyadic_sequence, thinned_sequence
from .paths import FVPath, GridPath, StepGenerator, as_fv, dyadic_grid
from .quadvar import DiscreteMeasure, measure_convergence_check, measure_vs_qv_check, qv_sequence

_STOCHASTIC_KINDS = {"dyadic-brownian", "compound-jump", "geometric"}


def _with_seed(ref: dict, seed: int | None) -> dict:
    if seed is None or not isinstance(ref, dict):
        return ref
    out = dict(ref)
    if out.get("kind") in _STOCHASTIC_KINDS and "seed" not in out:
        out["seed"] = seed
    for key in ("x", "y"):
        if isinstance(out.get(key), dict):
            out[key] = _with_seed(out[key], seed)
    return out


def _levels(cfg: dict, override: str | None) -> tuple[int, int]:
    lv = override.split("..") if override else cfg.get("levels", [6, 12])
    try:
        if not isinstance(lv, (list, tuple)):
            raise TypeError
        n_min, n_max = (int(v) for v in lv)
    except (TypeError, ValueError) as exc:
        if override:
            raise ConfigError(f"bad --levels {override!r}; expected a..b") from exc
        raise ConfigError(f"bad 'levels' {lv!r}; expected [n_min, n_max]") from exc
    if not 0 <= n_min <= n_max:
        raise ConfigError(f"levels need 0 <= n_min <= n_max, got n_min={n_min}, n_max={n_max}")
    return n_min, n_max


def _setup(cfg: dict, levels: str | None):
    n_min, n_max = _levels(cfg, levels)
    t_hor = float(cfg.get("T", 1.0))
    grid_level = int(cfg.get("grid_level", n_max))
    if grid_level < n_max:
        raise ConfigError("grid_level must be at least the top partition level")
    grid = dyadic_grid(t_hor, grid_level)
    seq = dyadic_sequence(t_hor, n_min, n_max, grid=grid)
    return grid, seq


def _path_from(cfg: dict, key: str, grid, seed, fv: bool = False) -> GridPath:
    gen = make_generator(_with_seed(require(cfg, key, "config"), seed), key)
    path = gen.generate(grid)
    return as_fv(path) if fv or cfg.get(f"{key}_fv", False) else path


class Failures(list):
    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def _finish(out: Path, command: str, report: dict, failures: list, h: str, strict: bool, inconclusive: list) -> int:
    if strict:
        failures = list(failures) + [f"strict: {m}" for m in inconclusive]
    report["failures"] = list(failures)
    report["inconclusive"] = list(inconclusive)
    write_report(out / f"{command}_report.json", report, h)
    if failures:
        write_report(out / "failures.json", {"command": command, "failures": list(failures)}, h)
        return 1
    return 0


def _level_axis(cfg: dict, levels_opt: str | None, values) -> range:
    """The partition level of each per-level value, counted up from n_min."""
    n_min, _ = _levels(cfg, levels_opt)
    return range(n_min, n_min + len(values))


def _maybe_plot(out: Path, command: str, plot: bool, series: dict) -> None:
    if not plot:
        return
    try:
        write_svg(out / f"{command}.svg", series)
    except Exception as exc:  # plots are best-effort: never change the exit code
        click.echo(f"plot skipped: {type(exc).__name__}: {exc}", err=True)


def common_options(fn):
    fn = click.option("--config", "config_path", required=True, type=click.Path())(fn)
    fn = click.option("--out", "out_dir", default=".", type=click.Path())(fn)
    fn = click.option("--seed", type=int, default=None)(fn)
    fn = click.option("--levels", "levels_opt", default=None)(fn)
    fn = click.option("--plot", is_flag=True, default=False)(fn)
    fn = click.option("--strict", is_flag=True, default=False)(fn)
    return fn


@click.group()
def main():
    """Pathwise Ito calculus experiment runner."""


def _run(impl, config_path, out_dir, seed, levels_opt, plot, strict, command):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = load_config(config_path)
        h = config_hash({**cfg, "__seed__": seed, "__levels__": levels_opt})
        code = impl(cfg, out, seed if seed is not None else cfg.get("seed"), levels_opt, plot, strict, h)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    sys.exit(code)


_HELP = {
    "qv": "Quadratic variation along a partition sequence, with measure checks.",
    "integrate": "Non-anticipative integral of an integrand against a path.",
    "ito-check": "Residual table for the cadlag Ito formula.",
    "assoc": "Gap between iterated and substituted integrals.",
    "linear": "Solve Z = H + int Z_- dX by variation of constants.",
    "nonlinear": "Solve Z = x0 + int f(s,Z) ds + int Z_- dX by reduction.",
    "drawdown": "Solve the drawdown equation and check its constraint.",
    "dppi": "Floor-guaranteed portfolio insurance on a seeded market.",
    "cppi": "Alias of dppi with a constant multiplier.",
    "mc": "Seeded semimartingale QV check on band-exit partitions.",
    "appendix-measure": "Discrete-measure convergence to a left-limit integral.",
}


def _register(name):
    def deco(impl):
        @main.command(name=name, help=_HELP.get(name))
        @common_options
        def cmd(config_path, out_dir, seed, levels_opt, plot, strict, _impl=impl, _name=name):
            _run(_impl, config_path, out_dir, seed, levels_opt, plot, strict, _name)

        cmd.__name__ = f"cmd_{name.replace('-', '_')}"
        return impl

    return deco


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

_COMMON_KEYS = {"seed", "levels", "grid_level", "T", "tol"}


@_register("qv")
def _qv(cfg, out, seed, levels_opt, plot, strict, h):
    check_keys(cfg, _COMMON_KEYS | {"path", "path_fv", "t", "stochastic"}, "qv config")
    grid, seq = _setup(cfg, levels_opt)
    stochastic = bool(cfg.get("stochastic", False))
    tol = tolerance(cfg, "tol", STOCHASTIC_TOL if stochastic else DETERMINISTIC_TOL)
    x = _path_from(cfg, "path", grid, seed)
    t = float(cfg.get("t", grid.T))
    qv = qv_sequence(x, seq, tol=tol)
    mvq = measure_vs_qv_check(x, seq, t)

    times = list(map(repr, grid.times.tolist()))  # formatted once, repeated per level
    levels = []
    for n in range(len(qv.level_curves)):
        levels += [str(n)] * len(times)
    columns = [levels, times * len(qv.level_curves), np.concatenate(qv.level_curves)]
    write_csv(out / "qv.csv", ["level", "t", "qv"], columns, h)
    failures = Failures()
    inconclusive = []
    failures.check(qv.status != "no-qv", f"jump identity violated: {qv.cond2_worst}")
    if qv.status == "inconclusive":
        inconclusive.append("qv trend inconclusive")
    failures.check(mvq.bounded, "measure-vs-qv straddle bound violated")
    report = {
        "levels": len(qv.level_curves),
        "qv_at_t": qv.at(t),
        "continuous_at_t": qv.continuous_at(t),
        "status": qv.status,
        "gaps": qv.level_gaps,
        "cond2_worst": qv.cond2_worst,
        "measure_check": mvq.to_dict(),
    }
    gaps = [g or 1e-17 for g in qv.level_gaps]
    _maybe_plot(out, "qv", plot, {"gap": (_level_axis(cfg, levels_opt, gaps), gaps)})
    return _finish(out, "qv", report, failures, h, strict, inconclusive)


def _integrand_from(cfg, key, x, grid, seed):
    ref = cfg.get(key, {"constant": 1.0})
    if "constant" in ref:
        return float(ref["constant"])
    if "f" in ref:
        f = make_function(ref["f"], key)
        return AdmissibleIntegrand(f, None, x)
    raise ConfigError(f"{key} must carry 'constant' or 'f'")


@_register("integrate")
def _integrate(cfg, out, seed, levels_opt, plot, strict, h):
    check_keys(cfg, _COMMON_KEYS | {"path", "path_fv", "integrand", "t", "stochastic"}, "integrate config")
    grid, seq = _setup(cfg, levels_opt)
    stochastic = bool(cfg.get("stochastic", False))
    tol = tolerance(cfg, "tol", STOCHASTIC_TOL if stochastic else DETERMINISTIC_TOL)
    x = _path_from(cfg, "path", grid, seed)
    xi = _integrand_from(cfg, "integrand", x, grid, seed)
    t = float(cfg.get("t", grid.T))
    res = follmer_integral(xi, x, seq, tol=tol)
    g = grid.clamp_index(t)
    at_t = [c[g] for c in res.level_curves]
    write_csv(out / "integrate_levels.csv", ["level", "value_at_t"], [range(len(at_t)), at_t], h)
    write_csv(out / "integrate_curve.csv", ["t", "value"], [grid.times, res.estimate], h)
    failures = Failures()
    inconclusive = []
    if res.status == "inconclusive" and res.claim == "unverified-hypothesis":
        inconclusive.append("integral trend inconclusive (unverified integrand class)")
    elif res.status == "inconclusive":
        inconclusive.append("integral trend inconclusive")
    report = {"value_at_t": res.at(t), "status": res.status, "claim": res.claim, "gaps": res.level_gaps}
    gaps = [g_ or 1e-17 for g_ in res.level_gaps]
    _maybe_plot(out, "integrate", plot, {"gap": (_level_axis(cfg, levels_opt, gaps), gaps)})
    return _finish(out, "integrate", report, failures, h, strict, inconclusive)


@_register("ito-check")
def _ito_check(cfg, out, seed, levels_opt, plot, strict, h):
    check_keys(
        cfg,
        _COMMON_KEYS | {"f", "path", "path_fv", "a", "t", "stochastic", "assert_residual"},
        "ito-check config",
    )
    grid, seq = _setup(cfg, levels_opt)
    stochastic = bool(cfg.get("stochastic", False))
    tol = tolerance(cfg, "tol", STOCHASTIC_TOL if stochastic else DETERMINISTIC_TOL)
    x = _path_from(cfg, "path", grid, seed)
    a = None
    if "a" in cfg:
        a = as_fv(make_generator(_with_seed(cfg["a"], seed), "a").generate(grid))
    f = make_function(require(cfg, "f", "config"))
    t = float(cfg.get("t", grid.T))
    rep = ito_formula_eval(f, a, x, seq, t, tol=tol)
    residuals = rep.residual_per_level
    write_csv(out / "ito.csv", ["level", "residual"], [range(len(residuals)), residuals], h)
    cap = tolerance(cfg, "assert_residual", tol)
    failures = Failures()
    inconclusive = []
    failures.check(abs(rep.residual) <= cap, f"ito residual {rep.residual} above {cap}")
    if not rep.trend.converged:
        inconclusive.append("ito residual trend inconclusive")
    report = {
        "lhs": rep.lhs,
        "terms": {
            "drift": rep.drift_term,
            "integral": rep.integral_term,
            "qv": rep.qv_term,
            "jumps": rep.jump_term,
        },
        "residual": rep.residual,
        "residual_per_level": rep.residual_per_level,
    }
    residuals = [r or 1e-17 for r in rep.residual_per_level]
    _maybe_plot(out, "ito", plot, {"residual": (_level_axis(cfg, levels_opt, residuals), residuals)})
    return _finish(out, "ito-check", report, failures, h, strict, inconclusive)


@_register("assoc")
def _assoc(cfg, out, seed, levels_opt, plot, strict, h):
    check_keys(
        cfg,
        _COMMON_KEYS | {"path", "path_fv", "eta", "integrands", "t", "stochastic", "assert_gap"},
        "assoc config",
    )
    grid, seq = _setup(cfg, levels_opt)
    stochastic = bool(cfg.get("stochastic", False))
    tol = tolerance(cfg, "tol", STOCHASTIC_TOL if stochastic else DETERMINISTIC_TOL)
    x = _path_from(cfg, "path", grid, seed)
    refs = require(cfg, "integrands", "config")
    integrands = [AdmissibleIntegrand(make_function(r, "integrands"), None, x) for r in refs]
    eta_ref = cfg.get("eta", {"constant": 1.0})
    if "constant" in eta_ref:
        c = eta_ref["constant"]
        arr = np.full((len(grid), len(integrands)), float(c) if np.isscalar(c) else 1.0)
        if not np.isscalar(c):
            arr = np.tile(np.asarray(c, dtype=float), (len(grid), 1))
        eta = arr
    elif "f" in eta_ref:
        fe = make_function(eta_ref["f"], "eta")
        eta = np.asarray(fe.value(np.zeros((len(grid), 0)), x.values), dtype=float)[:, None]
    else:
        raise ConfigError("eta must carry 'constant' or 'f'")
    t = float(cfg.get("t", grid.T))
    rep = associativity_check(eta, integrands, x, seq, t, tol=tol)
    columns = [range(len(rep.gaps)), rep.lhs_per_level, rep.rhs_per_level, rep.gaps]
    write_csv(out / "assoc.csv", ["level", "lhs", "rhs", "gap"], columns, h)
    cap = tolerance(cfg, "assert_gap", tol)
    failures = Failures()
    inconclusive = []
    failures.check(rep.gaps[-1] <= cap, f"associativity gap {rep.gaps[-1]} above {cap}")
    if rep.status != "converged":
        inconclusive.append("associativity trend inconclusive")
    report = {"lhs": rep.lhs_per_level, "rhs": rep.rhs_per_level, "gaps": rep.gaps, "status": rep.status}
    return _finish(out, "assoc", report, failures, h, strict, inconclusive)


def _fv_path_from(cfg, key, grid, seed) -> FVPath:
    return as_fv(make_generator(_with_seed(require(cfg, key, "config"), seed), key).generate(grid))


@_register("linear")
def _linear(cfg, out, seed, levels_opt, plot, strict, h):
    check_keys(
        cfg,
        _COMMON_KEYS | {"x", "x_fv", "h", "stochastic", "assert_value", "assert_tol"},
        "linear config",
    )
    grid, seq = _setup(cfg, levels_opt)
    stochastic = bool(cfg.get("stochastic", False))
    tol = tolerance(cfg, "tol", STOCHASTIC_TOL if stochastic else DETERMINISTIC_TOL)
    x = _path_from(cfg, "x", grid, seed)
    href = cfg.get("h", {"constant": 1.0})
    decomposition = None
    if "constant" in href:
        hh = float(href["constant"])
    elif "path" in href:
        hh = make_generator(_with_seed(href["path"], seed), "h.path").generate(grid)
        if href.get("fv_decomposition", False) or "a" in href:
            a = as_fv(hh) if "a" not in href else _fv_path_from(href, "a", grid, seed)
            decomposition = (float(href.get("xi", 0.0)), a)
    else:
        raise ConfigError("h must carry 'constant' or 'path'")
    rep = solve_linear(hh, x, seq, decomposition=decomposition, tol=tol)
    write_csv(out / "linear.csv", ["t", "z"], [grid.times, rep.z.x], h)
    failures = Failures()
    inconclusive = []
    if "assert_value" in cfg:
        target = float(cfg["assert_value"])
        cap = tolerance(cfg, "assert_tol", 1e-6)
        zt = float(rep.z.x[-1])
        failures.check(abs(zt - target) <= cap, f"Z(T)={zt} off target {target} by {abs(zt-target)}")
        if rep.z_alt is not None:
            failures.check(rep.agreement <= cap, f"expression agreement {rep.agreement} above {cap}")
    if not rep.trend.converged:
        inconclusive.append("substitution residual trend inconclusive")
    report = {
        "z_at_T": float(rep.z.x[-1]),
        "agreement": None if rep.z_alt is None else rep.agreement,
        "residual": rep.residual,
        "residual_per_level": rep.residual_per_level,
        "hypothesis": rep.hypothesis,
    }
    return _finish(out, "linear", report, failures, h, strict, inconclusive)


_DRIFTS = {
    "zero": lambda **kw: (lambda t, z: 0.0 * z),
    "constant": lambda c=1.0, **kw: (lambda t, z: c + 0.0 * z),
    "linear": lambda a=1.0, b=0.0, **kw: (lambda t, z: a * z + b),
}


@_register("nonlinear")
def _nonlinear(cfg, out, seed, levels_opt, plot, strict, h):
    check_keys(
        cfg,
        _COMMON_KEYS | {"x", "x_fv", "f", "x0", "stochastic", "assert_value", "assert_tol"},
        "nonlinear config",
    )
    grid, seq = _setup(cfg, levels_opt)
    stochastic = bool(cfg.get("stochastic", False))
    tol = tolerance(cfg, "tol", STOCHASTIC_TOL if stochastic else DETERMINISTIC_TOL)
    x = _path_from(cfg, "x", grid, seed)
    fref = cfg.get("f", {"kind": "zero"})
    kind = fref.get("kind")
    if kind not in _DRIFTS:
        raise ConfigError(f"unknown drift kind {kind!r}")
    f = _DRIFTS[kind](**{k: v for k, v in fref.items() if k != "kind"})
    rep = solve_nonlinear(f, x, float(cfg.get("x0", 1.0)), seq, tol=tol)
    write_csv(out / "nonlinear.csv", ["t", "z"], [grid.times, rep.z.x], h)
    failures = Failures()
    inconclusive = []
    if "assert_value" in cfg:
        target = float(cfg["assert_value"])
        cap = tolerance(cfg, "assert_tol", 1e-6)
        zt = float(rep.z.x[-1])
        failures.check(abs(zt - target) <= cap, f"Z(T)={zt} off target {target}")
    if not rep.trend.converged:
        inconclusive.append("substitution residual trend inconclusive")
    report = {"z_at_T": float(rep.z.x[-1]), "residual": rep.residual, "residual_per_level": rep.residual_per_level}
    return _finish(out, "nonlinear", report, failures, h, strict, inconclusive)


@_register("drawdown")
def _drawdown(cfg, out, seed, levels_opt, plot, strict, h):
    check_keys(
        cfg,
        _COMMON_KEYS | {"x", "floor", "stochastic", "assert_roundtrip"},
        "drawdown config",
    )
    grid, seq = _setup(cfg, levels_opt)
    stochastic = bool(cfg.get("stochastic", True))
    tol = tolerance(cfg, "tol", STOCHASTIC_TOL if stochastic else DETERMINISTIC_TOL)
    x = _path_from(cfg, "x", grid, seed)
    floor = make_floor(require(cfg, "floor", "config"))
    rep = solve_drawdown(floor, x, seq, tol=tol)
    back = azema_yor_path(rep.transform.V, rep.y).path
    roundtrip = float(np.max(np.abs(back.x - x.x)))
    ybar = np.maximum.accumulate(rep.y.x)
    write_csv(out / "drawdown.csv", ["t", "y", "floor_of_max"], [grid.times, rep.y.x, floor(ybar)], h)
    cap = tolerance(cfg, "assert_roundtrip", 1e-6)
    failures = Failures()
    inconclusive = []
    failures.check(rep.constraint_ok, f"drawdown constraint margin {rep.constraint_margin} not positive")
    failures.check(roundtrip <= cap, f"inverse round trip {roundtrip} above {cap}")
    if not rep.trend.converged:
        inconclusive.append("drawdown residual trend inconclusive")
    report = {
        "constraint_margin": rep.constraint_margin,
        "roundtrip": roundtrip,
        "residual_per_level": rep.residual_per_level,
    }
    return _finish(out, "drawdown", report, failures, h, strict, inconclusive)


def _market_from(cfg, grid, seed) -> Market:
    mref = require(cfg, "market", "config")
    if "csv" in mref:
        check_keys(mref, {"csv"}, "market")
        from .finance import read_market_csv

        try:
            with open(mref["csv"]) as fp:
                return read_market_csv(fp)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"market.csv: {exc}") from exc
    check_keys(mref, {"s", "b"}, "market")
    s = make_generator(_with_seed(require(mref, "s", "market"), seed), "market.s").generate(grid)
    bref = mref.get("b", {"rate": 0.0})
    if "rate" in bref:
        b = FVPath(grid, np.exp(float(bref["rate"]) * grid.times))
    elif "path" in bref:
        b = as_fv(make_generator(_with_seed(bref["path"], seed), "market.b").generate(grid))
    else:
        raise ConfigError("market.b must carry 'rate' or 'path'")
    return Market(s, b)


def _floor_spec_from(cfg, grid) -> FloorSpec:
    lref = cfg.get("l", {"constant": 0.0})
    if "constant" in lref:
        return FloorSpec(FVPath(grid, np.full(len(grid), float(lref["constant"]))))
    if "linear" in lref:
        sl = lref["linear"]
        vals = float(sl.get("start", 1.0)) + float(sl.get("slope", 0.0)) * grid.times
        return FloorSpec(FVPath(grid, vals))
    raise ConfigError("l must carry 'constant' or 'linear'")


def _dppi_impl(cfg, out, seed, levels_opt, plot, strict, h):
    check_keys(
        cfg,
        _COMMON_KEYS | {"market", "m", "l", "v0", "stochastic"},
        "dppi config",
    )
    grid, seq = _setup(cfg, levels_opt)
    stochastic = bool(cfg.get("stochastic", True))
    tol = tolerance(cfg, "tol", STOCHASTIC_TOL if stochastic else DETERMINISTIC_TOL)
    market = _market_from(cfg, grid, seed)
    if market.grid is not grid:  # ingested market: partitions live on its grid
        grid = market.grid
        seq = thinned_sequence(grid, len(seq))
    spec = _floor_spec_from(cfg, grid)
    rep = dppi(market, float(cfg.get("m", 1.0)), spec, float(cfg.get("v0", 1.0)), seq, tol=tol)
    with open(out / "strategy.csv", "w") as fp:
        write_strategy_csv(rep.strategy, rep.floor_curve, fp)
        fp.write(f"# config_hash={h}\n")
    failures = Failures()
    inconclusive = []
    failures.check(rep.floor_ok, f"floor breached: margin {rep.floor_margin}")
    if not rep.self_financing.trend.converged:
        inconclusive.append("self-financing residual trend inconclusive")
    report = {
        "floor_margin": rep.floor_margin,
        "self_financing_residuals": rep.self_financing.residual_per_level,
        "value_at_T": float(rep.strategy.value.x[-1]),
    }
    return _finish(out, "dppi", report, failures, h, strict, inconclusive)


_register("dppi")(_dppi_impl)
_register("cppi")(_dppi_impl)


@_register("mc")
def _mc(cfg, out, seed, levels_opt, plot, strict, h):
    check_keys(
        cfg,
        _COMMON_KEYS
        | {
            "seeds",
            "n_min",
            "n_max",
            "sigma",
            "jump_intensity",
            "jump_size",
            "jump_sampler",
            "assert_pass_fraction",
        },
        "mc config",
    )
    n_min, n_max = _levels({"levels": [cfg.get("n_min", 3), cfg.get("n_max", 8)]}, levels_opt)
    seeds_cfg = cfg.get("seeds", 16)
    base = 0 if seed is None else int(seed)
    seeds = tuple(range(base, base + int(seeds_cfg))) if isinstance(seeds_cfg, int) else tuple(seeds_cfg)
    exp = McExperiment(
        seeds=seeds,
        n_min=n_min,
        n_max=n_max,
        grid_level=int(cfg.get("grid_level", 16)),
        T=float(cfg.get("T", 1.0)),
        sigma=float(cfg.get("sigma", 1.0)),
        jump_intensity=float(cfg.get("jump_intensity", 0.0)),
        jump_size=float(cfg.get("jump_size", 0.5)),
        jump_sampler=str(cfg.get("jump_sampler", "coin")),
        tol=tolerance(cfg, "tol", STOCHASTIC_TOL),
    )
    summary = run_mc(exp)
    oc = summary.outcomes
    columns = [[o.seed for o in oc], [int(o.passed) for o in oc], [o.sup_errors[-1] for o in oc]]
    columns += [[o.osc_sum for o in oc], [o.osc_sum_bound for o in oc]]
    write_csv(out / "mc_seeds.csv", ["seed", "passed", "final_error", "osc_sum", "osc_bound"], columns, h)
    need = float(cfg.get("assert_pass_fraction", 0.9))
    failures = Failures()
    failures.check(summary.pass_fraction >= need, f"pass fraction {summary.pass_fraction} below {need}")
    failures.check(summary.bounds_fraction == 1.0, "constructive gap/oscillation bounds violated")
    return _finish(out, "mc", summary.to_dict(), failures, h, strict, [])


@_register("appendix-measure")
def _appendix(cfg, out, seed, levels_opt, plot, strict, h):
    check_keys(
        cfg,
        _COMMON_KEYS | {"atom", "weight", "f", "t", "assert_tol"},
        "appendix-measure config",
    )
    grid, seq = _setup(cfg, levels_opt)
    tol = tolerance(cfg, "tol", DETERMINISTIC_TOL)
    atom = float(cfg.get("atom", 0.5))
    weight = float(cfg.get("weight", 1.0))
    mu = DiscreteMeasure(np.array([atom]), np.array([weight]))
    fref = cfg.get("f", {"kind": "step", "c": 1.0, "t0": atom})
    fgen = make_generator(_with_seed(fref, seed), "f")
    if not isinstance(fgen, StepGenerator):
        raise ConfigError("appendix-measure expects a step path for f")
    f = fgen.generate(grid)
    t = float(cfg.get("t", grid.T))
    mus = [_pushforward(mu, p.times) for p in seq]
    rep = measure_convergence_check(mus, mu, f, t, tol=tol)
    per_level = rep.integral_per_level
    columns = [range(len(per_level)), per_level, [rep.integral_target] * len(per_level), rep.integral_gaps]
    write_csv(out / "appendix.csv", ["level", "integral", "target", "gap"], columns, h)
    cap = tolerance(cfg, "assert_tol", tol)
    failures = Failures()
    inconclusive = []
    failures.check(rep.integral_gaps[-1] <= cap, f"appendix limit gap {rep.integral_gaps[-1]} above {cap}")
    if not rep.hypotheses_ok:
        inconclusive.append("hypothesis trends inconclusive")
    report = {
        "per_level": rep.integral_per_level,
        "target": rep.integral_target,
        "gaps": rep.integral_gaps,
    }
    return _finish(out, "appendix-measure", report, failures, h, strict, inconclusive)


def _pushforward(mu: DiscreteMeasure, times: np.ndarray) -> DiscreteMeasure:
    """mu_n = sum_i mu(]t_i, t_{i+1}]) delta_{t_i} on the partition."""
    weights = np.zeros(len(times) - 1)
    for s, w in zip(mu.times, mu.weights):
        i = int(np.searchsorted(times, s, side="left")) - 1
        if 0 <= i < weights.size:
            weights[i] += w
    return DiscreteMeasure(times[:-1], weights, boundaries=times)


if __name__ == "__main__":
    main()
