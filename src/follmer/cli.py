"""Config-driven experiment runner.

Every subcommand reads one JSON config, runs the corresponding machinery,
writes CSV tables and a JSON report into the output directory, and exits 0
only if all configured assertions pass (1 on assertion failure with a
machine-readable failure report, 2 on config errors).  Outputs are
deterministic given (config, seed); plots are optional and never affect the
exit status.

One driver, ``_drive``, owns all of that: the config and its hash, the key
check, ``tol``, ``--strict``, ``--plot``, the report, ``failures.json``
(removed again by a passing run) and the exit code.  A subcommand is a
compute function that takes a ``Run`` and returns its report.  The ``Run``
hands it the config, seed, tolerance, ``t``, the configured paths and a grid
and partition sequence built on first use (``mc`` has none), and collects its
tables, failed checks, unsettled trends and plot series.
"""

from __future__ import annotations

import sys
from functools import cached_property
from pathlib import Path

import click
import numpy as np

from .diagnostics import DETERMINISTIC_TOL, STOCHASTIC_TOL
from .drawdown import azema_yor_path, solve_drawdown
from .equations import OdeBlowUp, solve_linear, solve_nonlinear
from .finance import FloorSpec, Market, dppi, write_strategy_csv
from .functions import C12Function
from .integrals import (
    AdmissibleIntegrand,
    associativity_check,
    follmer_integral,
    ito_formula_eval,
)
from .io import (
    MAX_LEVEL,
    ConfigError,
    DomainError,
    build,
    check_keys,
    choice,
    config_hash,
    flag,
    load_config,
    make_floor,
    make_function,
    make_generator,
    integer,
    number,
    require,
    subsection,
    tolerance,
    write_csv,
    write_report,
    write_svg,
)
from .mc import McExperiment, run_mc
from .partitions import PartitionSequence, dyadic_sequence, thinned_sequence
from .paths import FVPath, GridPath, StepGenerator, TimeGrid, _repeated_column, _TextColumn, as_fv, dyadic_grid
from .quadvar import DiscreteMeasure, QVResult, measure_convergence_check, measure_vs_qv_check, qv_sequence

def _levels(cfg: dict, override: str | None) -> tuple[int, int]:
    """(n_min, n_max) from ``--levels a..b`` when given, from the config's ``levels`` otherwise."""
    if override:  # the one place where text is read as a number
        lv = override.split("..")
        if len(lv) != 2 or not all(s.strip().removeprefix("-").isdecimal() for s in lv):
            raise ConfigError(f"bad --levels {override!r}; expected a..b")
        lv = [int(s) for s in lv]
    else:
        lv = cfg.get("levels", [6, 12])
        if not isinstance(lv, list) or len(lv) != 2:
            raise ConfigError(f"bad 'levels' {lv!r}; expected [n_min, n_max]")
    pair = dict(zip(("n_min", "n_max"), lv))
    return tuple(integer(pair, k, where="--levels" if override else "levels", top=MAX_LEVEL) for k in pair)


class Run:
    """One invocation as a compute function sees it."""

    def __init__(self, cfg: dict, out: Path, seed, levels_opt: str | None, cfg_hash: str, tol: float):
        self.cfg, self.out, self.seed, self.levels_opt = cfg, out, seed, levels_opt
        self.hash, self.tol = cfg_hash, tol
        self.failures: list[str] = []
        self.inconclusive: list[str] = []
        self.series: dict | None = None

    @cached_property
    def levels(self) -> tuple[int, int]:
        return _levels(self.cfg, self.levels_opt)

    @cached_property
    def grid(self) -> TimeGrid:
        n_max = self.levels[1]
        t_hor = number(self.cfg, "T", 1.0)
        grid_level = integer(self.cfg, "grid_level", n_max, top=MAX_LEVEL)
        if grid_level < n_max:
            raise ConfigError("grid_level must be at least the top partition level")
        return dyadic_grid(t_hor, grid_level)

    @cached_property
    def seq(self) -> PartitionSequence:
        return dyadic_sequence(self.grid.T, *self.levels, grid=self.grid)

    @cached_property
    def t(self) -> float:
        t = number(self.cfg, "t", self.grid.T)
        if not 0 <= t <= self.grid.T:
            raise ConfigError(f"t = {t} lies outside [0, T] = [0, {self.grid.T}]")
        return t

    def path(self, key: str) -> GridPath:
        """The config's path ``key``; its finite-variation form when ``<key>_fv`` is set."""
        return self.generate(require(self.cfg, key, "config"), key, flag(self.cfg, f"{key}_fv", False))

    def generate(self, ref, where: str, fv: bool = False) -> GridPath:
        path = make_generator(ref, self.grid, where, self.seed).generate(self.grid)
        return as_fv(path) if fv else path

    def table(self, name: str, header: list, columns: list) -> None:
        write_csv(self.out / name, header, columns, self.hash)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def unsettled(self, message: str) -> None:
        self.inconclusive.append(message)

    def qv_of_x(self, qv: QVResult) -> None:
        """Record the status of the quadratic variation of X that a solver
        built E(X) from: no QV fails, an unsettled trend is unsettled."""
        self.check(qv.status != "no-qv", f"quadratic variation of X: jump identity violated: {qv.cond2_worst}")
        if qv.status == "inconclusive":
            self.unsettled("quadratic variation of X inconclusive")

    def plot(self, label: str, values: list) -> None:
        """Offer one value per partition level, counted up from n_min, to ``--plot``."""
        values = [v or 1e-17 for v in values]  # a zero gap stays on a log axis
        self.series = {label: (range(self.levels[0], self.levels[0] + len(values)), values)}


def _function(ref, where: str, a: GridPath | None = None) -> C12Function:
    """``make_function(ref, where)`` for evaluation with the finite-variation
    path ``a``, or without one; a function of other arity is a config error."""
    f = make_function(ref, where)
    takes, given = int(f.grad_a is not None), int(a is not None)
    if takes != given:
        raise ConfigError(
            f"{where}: function {f.name!r} takes {takes} finite-variation and 1 path components; "
            f"the config gives {given} and 1"
        )
    return f


def _integrand(ref, where: str, x: GridPath) -> AdmissibleIntegrand:
    """The integrand grad f(X) of the config's function ``ref`` along x; a
    path that leaves the function's domain is a config error naming ``where``."""
    f = _function(ref, where)
    try:
        return AdmissibleIntegrand(f, None, x)
    except DomainError as exc:  # the library names f, not the config key
        raise ConfigError(f"{where}: {exc}") from None


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


_COMMON_KEYS = {"seed", "levels", "grid_level", "T", "tol"}


def _drive(compute, name: str, keys: set, stochastic: bool, config_path, out_dir, seed, levels_opt, plot, strict):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = load_config(config_path)
        h = config_hash({**cfg, "__seed__": seed, "__levels__": levels_opt})
        check_keys(cfg, _COMMON_KEYS | keys, f"{name} config")
        cfg_seed = integer(cfg, "seed") if "seed" in cfg else None  # checked even when --seed overrides it
        default_tol = STOCHASTIC_TOL if flag(cfg, "stochastic", stochastic) else DETERMINISTIC_TOL
        run = Run(cfg, out, cfg_seed if seed is None else seed, levels_opt, h, tolerance(cfg, "tol", default_tol))
        report = compute(run)
    except (ConfigError, DomainError) as exc:  # DomainError: an input outside the model's domain
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    if plot and run.series is not None:
        try:  # figures are named like the tables: ito.svg, not ito-check.svg
            write_svg(out / f"{name.split('-')[0]}.svg", run.series)
        except Exception as exc:  # plots are best-effort: never change the exit code
            click.echo(f"plot skipped: {type(exc).__name__}: {exc}", err=True)
    failures = run.failures + [f"strict: {m}" for m in run.inconclusive] if strict else run.failures
    report["failures"] = failures
    report["inconclusive"] = run.inconclusive
    write_report(out / f"{name}_report.json", report, h)
    if failures:
        write_report(out / "failures.json", {"command": name, "failures": failures}, h)
        sys.exit(1)
    (out / "failures.json").unlink(missing_ok=True)
    sys.exit(0)


def _command(name: str, keys: set, stochastic: bool = False, aliases: dict | None = None):
    """Register a compute function as ``name``, with its docstring as help, and
    under each alias (alias -> help); every alias writes the files of ``name``."""

    def deco(compute):
        for cli_name, text in {name: compute.__doc__, **(aliases or {})}.items():

            @main.command(name=cli_name, help=text)
            @common_options
            def cmd(**options):
                _drive(compute, name, keys, stochastic, **options)

        return compute

    return deco


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


@_command("qv", {"path", "path_fv", "t", "stochastic"})
def _qv(run: Run) -> dict:
    """Quadratic variation along a partition sequence, with measure checks."""
    x = run.path("path")
    t = run.t
    qv = qv_sequence(x, run.seq, tol=run.tol)
    mvq = measure_vs_qv_check(x, run.seq, t, qv.level_curves)

    # the level numbers and grid times are formatted once and repeated
    points, levels = np.arange(len(run.grid)), np.arange(len(qv.level_curves))
    columns = [
        _repeated_column(levels, levels.repeat(len(points))),
        _TextColumn(run.grid.text, np.tile(points, len(levels))),
        np.concatenate(qv.level_curves),
    ]
    run.table("qv.csv", ["level", "t", "qv"], columns)
    run.check(qv.status != "no-qv", f"jump identity violated: {qv.cond2_worst}")
    if qv.status == "inconclusive":
        run.unsettled("qv trend inconclusive")
    run.check(mvq.bounded, "measure-vs-qv straddle bound violated")
    run.plot("gap", qv.trend.gaps)
    return {
        "levels": len(qv.level_curves),
        "qv_at_t": qv.at(t),
        "continuous_at_t": qv.continuous_at(t),
        "status": qv.status,
        "gaps": qv.trend.gaps,
        "cond2_worst": qv.cond2_worst,
        "measure_check": mvq.to_dict(),
    }


@_command("integrate", {"path", "path_fv", "integrand", "t", "stochastic"})
def _integrate(run: Run) -> dict:
    """Non-anticipative integral of an integrand against a path."""
    x = run.path("path")
    kind, ref = choice(run.cfg, "integrand", {"constant": 1.0}, {"constant": (), "f": ()})
    xi = number(ref, "constant", where="integrand") if kind == "constant" else _integrand(ref["f"], "integrand.f", x)
    t = run.t
    res = follmer_integral(xi, x, run.seq, tol=run.tol)
    g = run.grid.clamp_index(t)
    at_t = [c[g] for c in res.level_curves]
    run.table("integrate_levels.csv", ["level", "value_at_t"], [range(len(at_t)), at_t])
    run.table("integrate_curve.csv", ["t", "value"], [run.grid, res.estimate])
    if res.status == "inconclusive" and res.claim == "unverified-hypothesis":
        run.unsettled("integral trend inconclusive (unverified integrand class)")
    elif res.status == "inconclusive":
        run.unsettled("integral trend inconclusive")
    run.plot("gap", res.trend.gaps)
    return {"value_at_t": res.at(t), "status": res.status, "claim": res.claim, "gaps": res.trend.gaps}


@_command("ito-check", {"f", "path", "path_fv", "a", "t", "stochastic", "assert_residual"})
def _ito_check(run: Run) -> dict:
    """Residual table for the cadlag Ito formula."""
    x = run.path("path")
    a = run.generate(run.cfg["a"], "a", fv=True) if "a" in run.cfg else None
    f = _function(require(run.cfg, "f", "config"), "f", a)
    rep = ito_formula_eval(f, a, x, run.seq, run.t, tol=run.tol)
    residuals = rep.trend.gaps
    run.table("ito.csv", ["level", "residual"], [range(len(residuals)), residuals])
    cap = tolerance(run.cfg, "assert_residual", run.tol)
    run.check(abs(rep.residual) <= cap, f"ito residual {rep.residual} above {cap}")
    if not rep.trend.converged:
        run.unsettled("ito residual trend inconclusive")
    run.plot("residual", residuals)
    return {
        "lhs": rep.lhs,
        "terms": {
            "drift": rep.drift_term,
            "integral": rep.integral_term,
            "qv": rep.qv_term,
            "jumps": rep.jump_term,
        },
        "residual": rep.residual,
        "residual_per_level": residuals,
    }


@_command("assoc", {"path", "path_fv", "eta", "integrands", "t", "stochastic", "assert_gap"})
def _assoc(run: Run) -> dict:
    """Gap between iterated and substituted integrals."""
    x = run.path("path")
    refs = require(run.cfg, "integrands", "config")
    if not isinstance(refs, list) or not refs:  # no integrands would pass with nothing checked
        raise ConfigError(f"integrands must be a non-empty list of functions, got {refs!r}")
    integrands = [_integrand(r, "integrands", x) for r in refs]
    kind, eta_ref = choice(run.cfg, "eta", {"constant": 1.0}, {"constant": (), "f": ()})
    if kind == "constant":
        c = eta_ref["constant"]
        values = c if isinstance(c, list) else [c] * len(integrands)
        eta = [number({"constant": v}, "constant", where="eta") for v in values]
    else:
        f, a = _function(eta_ref["f"], "eta.f"), np.zeros(len(run.grid))
        if not np.all(f.domain_ok(a, x.x)):  # eta is f along the path, where f must be defined
            raise ConfigError("eta.f: f is not defined along the trajectory, which leaves its domain")
        eta = [f(a, x.x)]
    if len(eta) != len(integrands):
        raise ConfigError(f"eta.{kind} has {len(eta)} values for {len(integrands)} integrands")
    rep = associativity_check(eta, integrands, x, run.seq, run.t, tol=run.tol)
    gaps, gap = rep.trend.gaps, rep.trend.final_gap
    columns = [range(len(gaps)), rep.lhs_per_level, rep.rhs_per_level, gaps]
    run.table("assoc.csv", ["level", "lhs", "rhs", "gap"], columns)
    cap = tolerance(run.cfg, "assert_gap", run.tol)
    run.check(gap <= cap, f"associativity gap {gap} above {cap}")
    if rep.status != "converged":
        run.unsettled("associativity trend inconclusive")
    return {"lhs": rep.lhs_per_level, "rhs": rep.rhs_per_level, "gaps": gaps, "status": rep.status}


@_command("linear", {"x", "x_fv", "h", "stochastic", "assert_value", "assert_tol"})
def _linear(run: Run) -> dict:
    """Solve Z = H + int Z_- dX by variation of constants."""
    x = run.path("x")
    kind, href = choice(run.cfg, "h", {"constant": 1.0}, {"constant": (), "path": ("fv_decomposition", "a", "xi")})
    decomposition = None
    if kind == "constant":
        hh = number(href, "constant", where="h")
    else:
        hh = run.generate(href["path"], "h.path")
        if flag(href, "fv_decomposition", False, "h") or "a" in href:
            a = as_fv(hh) if "a" not in href else run.generate(href["a"], "a", fv=True)
            decomposition = (number(href, "xi", 0.0, "h"), a)
        elif "xi" in href:  # xi is one half of the decomposition (xi, A)
            raise ConfigError("h.xi is read only with h.fv_decomposition or h.a")
    rep = solve_linear(hh, x, run.seq, decomposition=decomposition, tol=run.tol)
    run.qv_of_x(rep.exponential.qv)
    run.table("linear.csv", ["t", "z"], [run.grid, rep.z.x])
    if "assert_value" in run.cfg:
        target = number(run.cfg, "assert_value")
        cap = tolerance(run.cfg, "assert_tol", 1e-6)
        zt = float(rep.z.x[-1])
        run.check(abs(zt - target) <= cap, f"Z(T)={zt} off target {target} by {abs(zt-target)}")
        if rep.z_alt is not None:
            run.check(rep.agreement <= cap, f"expression agreement {rep.agreement} above {cap}")
    if not rep.trend.converged:
        run.unsettled("substitution residual trend inconclusive")
    return {
        "z_at_T": float(rep.z.x[-1]),
        "agreement": None if rep.z_alt is None else rep.agreement,
        "residual": rep.trend.final_gap,
        "residual_per_level": rep.trend.gaps,
        "hypothesis": rep.hypothesis,
    }


_DRIFTS = {  # kind -> drift f(t, z) from its parameters
    "zero": lambda: (lambda t, z: 0.0 * z),
    "constant": lambda c=1.0: (lambda t, z: c + 0.0 * z),
    "linear": lambda a=1.0, b=0.0: (lambda t, z: a * z + b),
}


@_command("nonlinear", {"x", "x_fv", "f", "x0", "stochastic", "assert_value", "assert_tol"})
def _nonlinear(run: Run) -> dict:
    """Solve Z = x0 + int f(s,Z) ds + int Z_- dX by reduction."""
    x = run.path("x")
    f = build(run.cfg.get("f", {"kind": "zero"}), "f", "kind", _DRIFTS)
    try:
        rep = solve_nonlinear(f, x, number(run.cfg, "x0", 1.0), run.seq, tol=run.tol)
    except OdeBlowUp as exc:  # the config is valid; its solution leaves every bound
        run.check(False, str(exc))
        return {"blowup_t": exc.t}
    run.qv_of_x(rep.exponential.qv)
    run.table("nonlinear.csv", ["t", "z"], [run.grid, rep.z.x])
    if "assert_value" in run.cfg:
        target = number(run.cfg, "assert_value")
        cap = tolerance(run.cfg, "assert_tol", 1e-6)
        zt = float(rep.z.x[-1])
        run.check(abs(zt - target) <= cap, f"Z(T)={zt} off target {target}")
    if not rep.trend.converged:
        run.unsettled("substitution residual trend inconclusive")
    return {"z_at_T": float(rep.z.x[-1]), "residual": rep.trend.final_gap, "residual_per_level": rep.trend.gaps}


@_command("drawdown", {"x", "floor", "stochastic", "assert_roundtrip"}, stochastic=True)
def _drawdown(run: Run) -> dict:
    """Solve the drawdown equation and check its constraint."""
    x = run.path("x")
    floor = make_floor(require(run.cfg, "floor", "config"))
    rep = solve_drawdown(floor, x, run.seq, tol=run.tol)
    back = azema_yor_path(rep.transform.V, rep.y).path
    roundtrip = float(np.max(np.abs(back.x - x.x)))
    ybar = np.maximum.accumulate(rep.y.x)
    run.table("drawdown.csv", ["t", "y", "floor_of_max"], [run.grid, rep.y.x, floor(ybar)])
    cap = tolerance(run.cfg, "assert_roundtrip", 1e-6)
    run.check(rep.constraint_ok, f"drawdown constraint margin {rep.constraint_margin} not positive")
    run.check(roundtrip <= cap, f"inverse round trip {roundtrip} above {cap}")
    if not rep.trend.converged:
        run.unsettled("drawdown residual trend inconclusive")
    return {
        "constraint_margin": rep.constraint_margin,
        "roundtrip": roundtrip,
        "residual_per_level": rep.trend.gaps,
    }


def _market_from(run: Run) -> Market:
    kind, mref = choice(run.cfg, "market", None, {"csv": (), "s": ("b",)})
    if kind == "csv":
        if not isinstance(mref["csv"], str):  # open() would take an integer as a file descriptor
            raise ConfigError(f"market.csv must be a file path, got {mref['csv']!r}")
        from .finance import read_market_csv

        try:
            with open(mref["csv"]) as fp:
                return read_market_csv(fp)
        except (OSError, DomainError) as exc:
            raise ConfigError(f"market.csv: {exc}") from exc
    s = run.generate(mref["s"], "market.s")
    kind, bref = choice(mref, "b", {"rate": 0.0}, {"rate": (), "path": ()}, "market")
    if kind == "rate":
        b = FVPath(run.grid, np.exp(number(bref, "rate", where="market.b") * run.grid.times))
    else:
        b = run.generate(bref["path"], "market.b", fv=True)
    return Market(s, b)


@_command(
    "dppi",
    {"market", "m", "l", "v0", "stochastic"},
    stochastic=True,
    aliases={"cppi": "Alias of dppi with a constant multiplier."},
)
def _dppi(run: Run) -> dict:
    """Floor-guaranteed portfolio insurance on a seeded market."""
    grid, seq = run.grid, run.seq
    market = _market_from(run)
    if market.grid is not grid:  # ingested market: partitions live on its grid
        if "T" in run.cfg and grid.T != market.grid.T:
            raise ConfigError(f"T = {grid.T!r} is not the horizon {market.grid.T!r} of market.csv")
        grid = market.grid
        seq = thinned_sequence(grid, len(seq))
    kind, lref = choice(run.cfg, "l", {"constant": 0.0}, {"constant": (), "linear": ()})
    if kind == "constant":
        floor = np.full(len(grid), number(lref, "constant", where="l"))
    else:
        sl = subsection(lref, "linear", None, {"start", "slope"}, "l")
        floor = number(sl, "start", 1.0, "l.linear") + number(sl, "slope", 0.0, "l.linear") * grid.times
    try:
        spec = FloorSpec(FVPath(grid, floor))
    except DomainError as exc:  # name the key L came from
        raise ConfigError(f"l: {exc} (from l.{kind})") from None
    rep = dppi(market, number(run.cfg, "m", 1.0), spec, number(run.cfg, "v0", 1.0), seq, tol=run.tol)
    run.qv_of_x(rep.exponential.qv)
    with open(run.out / "strategy.csv", "w") as fp:
        write_strategy_csv(rep.strategy, rep.floor_curve, fp)
        fp.write(f"# config_hash={run.hash}\n")
    run.check(rep.floor_ok, f"floor breached: margin {rep.floor_margin}")
    if not rep.self_financing.converged:
        run.unsettled("self-financing residual trend inconclusive")
    return {
        "floor_margin": rep.floor_margin,
        "self_financing_residuals": rep.self_financing.gaps,
        "value_at_T": float(rep.strategy.value.x[-1]),
    }


@_command(
    "mc",
    {"seeds", "n_min", "n_max", "sigma", "jump_intensity", "jump_size", "jump_sampler", "assert_pass_fraction"},
    stochastic=True,
)
def _mc(run: Run) -> dict:
    """Seeded semimartingale QV check on band-exit partitions."""
    cfg = run.cfg
    if "levels" in cfg:
        raise ConfigError("mc takes its levels from 'n_min' and 'n_max', not 'levels'")
    levels = integer(cfg, "n_min", 3, top=MAX_LEVEL), integer(cfg, "n_max", 8, top=MAX_LEVEL)
    n_min, n_max = run.levels if run.levels_opt else levels
    seeds_cfg = cfg.get("seeds", 16)
    if isinstance(seeds_cfg, list):
        seeds = [integer({"seeds": s}, "seeds") for s in seeds_cfg]
    else:
        base = 0 if run.seed is None else run.seed
        seeds = range(base, base + integer(cfg, "seeds", 16))
    exp = McExperiment(
        seeds=tuple(seeds),
        n_min=n_min,
        n_max=n_max,
        grid_level=integer(cfg, "grid_level", 16, top=MAX_LEVEL),
        T=number(cfg, "T", 1.0),
        sigma=number(cfg, "sigma", 1.0),
        jump_intensity=number(cfg, "jump_intensity", 0.0),
        jump_size=number(cfg, "jump_size", 0.5),
        jump_sampler=str(cfg.get("jump_sampler", "coin")),
        tol=run.tol,
    )
    try:
        summary = run_mc(exp)
    except DomainError as exc:  # the band-exit scan names the grid, which grid_level sets
        if exc.key != "grid":
            raise
        raise ConfigError(f"grid_level: {exc}") from None
    oc = summary.outcomes
    columns = [[o.seed for o in oc], [int(o.passed) for o in oc], [o.trend.final_gap for o in oc]]
    columns += [[o.osc_sum for o in oc], [o.osc_sum_bound for o in oc]]
    run.table("mc_seeds.csv", ["seed", "passed", "final_error", "osc_sum", "osc_bound"], columns)
    need = number(cfg, "assert_pass_fraction", 0.9)
    worst_error = max(o.trend.final_gap for o in oc)
    run.check(
        summary.pass_fraction >= need,
        f"pass fraction {summary.pass_fraction} below {need}; worst seed {summary.worst_seed}: "
        f"sup error {worst_error} at n={n_max}",
    )
    run.check(summary.bounds_fraction == 1.0, "constructive gap/oscillation bounds violated")
    return summary.to_dict()


@_command("appendix-measure", {"atom", "weight", "f", "t", "assert_tol"})
def _appendix(run: Run) -> dict:
    """Discrete-measure convergence to a left-limit integral."""
    atom = number(run.cfg, "atom", 0.5)
    mu = DiscreteMeasure(np.array([atom]), np.array([number(run.cfg, "weight", 1.0)]))
    if "f" not in run.cfg and atom not in run.grid.times[1:]:  # no jump at t=0
        raise ConfigError(f"atom = {atom!r} is not a grid time, where the default f steps, after t = 0")
    fref = run.cfg.get("f", {"kind": "step", "c": 1.0, "t0": atom})
    fgen = make_generator(fref, run.grid, "f", run.seed)
    if not isinstance(fgen, StepGenerator):
        raise ConfigError("appendix-measure expects a step path for f")
    f = fgen.generate(run.grid)
    mus = [_pushforward(mu, p.times) for p in run.seq]
    rep = measure_convergence_check(mus, mu, f, run.t, tol=run.tol)
    per_level, gaps = rep.integral_per_level, rep.trend.gaps
    columns = [range(len(per_level)), per_level, [rep.integral_target] * len(per_level), gaps]
    run.table("appendix.csv", ["level", "integral", "target", "gap"], columns)
    cap = tolerance(run.cfg, "assert_tol", run.tol)
    run.check(rep.trend.final_gap <= cap, f"appendix limit gap {rep.trend.final_gap} above {cap}")
    if not rep.hypotheses_ok:
        run.unsettled("hypothesis trends inconclusive")
    return {
        "per_level": rep.integral_per_level,
        "target": rep.integral_target,
        "gaps": gaps,
    }


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
