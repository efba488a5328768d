"""Monte Carlo check: sampled semimartingale paths have the expected
quadratic variation along their own stopping-time partitions.

Each seed draws a Brownian-type path (optionally with a compound-jump
overlay), builds the band-exit partitions at levels n_min..n_max, and
compares the discrete QV curves with the analytic target t -> sigma^2 t +
sum of squared jumps.  The band-exit construction gives two constructive
bounds per sample -- every gap <= 1/n and oscillation <= 2^-n -- so the
summability hypothesis behind the convergence statement is certified
deterministically, not statistically; the convergence itself is reported as
a per-seed pass/fail fraction with an exact binomial interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .diagnostics import STOCHASTIC_TOL, TREND_WINDOW, TrendReport
from .partitions import lebesgue_partitions, mesh, oscillation
from .paths import (
    CompoundJumpGenerator,
    DyadicBrownianGenerator,
    GridPath,
    TimeGrid,
    add_paths,
    dyadic_grid,
)
from .quadvar import qv_curve

__all__ = ["McExperiment", "SeedOutcome", "McSummary", "run_mc"]


@dataclass(frozen=True)
class McExperiment:
    seeds: tuple
    n_min: int = 3
    n_max: int = 8
    grid_level: int = 16
    T: float = 1.0
    sigma: float = 1.0
    jump_intensity: float = 0.0
    jump_size: float = 0.5
    jump_sampler: str = "coin"
    tol: float = STOCHASTIC_TOL

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.seeds:
            raise ValueError("seeds is empty: need at least one seed")
        if self.n_min < 1 or self.n_min > self.n_max:
            raise ValueError("need 1 <= n_min <= n_max")
        for name in ("T", "sigma", "jump_intensity", "jump_size"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")

    @cached_property
    def grid(self) -> TimeGrid:
        """The dyadic grid of every seed's path, built once per experiment."""
        return dyadic_grid(self.T, self.grid_level)


@dataclass(frozen=True)
class SeedOutcome:
    seed: int
    sup_errors: tuple
    oscillations: tuple
    max_gaps: tuple
    gaps_ok: bool
    osc_ok: bool
    osc_sum: float
    osc_sum_bound: float
    trend: TrendReport

    @property
    def passed(self) -> bool:
        return self.trend.converged


@dataclass(frozen=True)
class McSummary:
    experiment: McExperiment
    outcomes: tuple
    pass_fraction: float
    pass_interval: tuple
    bounds_fraction: float
    worst_seed: int
    per_level_median_error: tuple

    def to_dict(self) -> dict:
        return {
            "seeds": len(self.outcomes),
            "levels": [self.experiment.n_min, self.experiment.n_max],
            "pass_fraction": self.pass_fraction,
            "pass_interval_95": list(self.pass_interval),
            "bounds_fraction": self.bounds_fraction,
            "worst_seed": self.worst_seed,
            "per_level_median_error": list(self.per_level_median_error),
        }


def _sample_path(exp: McExperiment, seed: int) -> GridPath:
    grid = exp.grid
    base = DyadicBrownianGenerator(seed=seed, sigma=exp.sigma).generate(grid)
    if exp.jump_intensity <= 0.0:
        return base
    jumps = CompoundJumpGenerator(
        seed=seed,
        intensity=exp.jump_intensity,
        size=exp.jump_size,
        sampler=exp.jump_sampler,
    ).generate(grid)
    return add_paths(base, jumps)


def _target_curve(exp: McExperiment, path: GridPath) -> np.ndarray:
    return exp.sigma**2 * path.grid.times + np.cumsum(path.dX[:, 0] ** 2)


def _bisect(above) -> float:
    """The p in [0, 1] where the monotone predicate ``above`` turns true,
    bisected until the bracket stops shrinking."""
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if above(mid):
            hi = mid
        else:
            lo = mid
    return mid


def _binomial_interval(k: int, n: int, alpha: float = 0.05) -> tuple:
    """Clopper-Pearson interval for k successes in n trials: the p at which
    the binomial tail beyond k on each side has mass alpha/2."""
    log_comb = [math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) for j in range(n + 1)]

    def mass(p: float, js: range) -> float:
        lp, lq = math.log(p), math.log1p(-p)
        return math.fsum(math.exp(log_comb[j] + j * lp + (n - j) * lq) for j in js)

    a = alpha / 2
    lo = 0.0 if k == 0 else _bisect(lambda p: mass(p, range(k, n + 1)) >= a)
    hi = 1.0 if k == n else _bisect(lambda p: mass(p, range(k + 1)) <= a)
    return (lo, hi)


def run_seed(exp: McExperiment, seed: int) -> SeedOutcome:
    path = _sample_path(exp, seed)
    target = _target_curve(exp, path)
    sup_errors, oscs, gaps = [], [], []
    for p in lebesgue_partitions(path, range(exp.n_min, exp.n_max + 1)):
        curve = qv_curve(path, p)
        sup_errors.append(float(np.max(np.abs(curve - target))))
        oscs.append(oscillation(path, p, exp.T))
        gaps.append(mesh(p))
    levels = np.arange(exp.n_min, exp.n_max + 1)
    gaps_ok = bool(np.all(np.asarray(gaps) <= 1.0 / levels + 1e-12))
    osc_ok = bool(np.all(np.asarray(oscs) <= 0.5**levels + 1e-12))
    osc_sum = float(np.sum(oscs))
    osc_bound = float(np.sum(0.5**levels))
    trend = TrendReport(tuple(sup_errors), exp.tol, TREND_WINDOW)
    return SeedOutcome(
        seed=seed,
        sup_errors=tuple(sup_errors),
        oscillations=tuple(oscs),
        max_gaps=tuple(gaps),
        gaps_ok=gaps_ok,
        osc_ok=osc_ok,
        osc_sum=osc_sum,
        osc_sum_bound=osc_bound,
        trend=trend,
    )


def run_mc(exp: McExperiment) -> McSummary:
    outcomes = tuple(run_seed(exp, s) for s in exp.seeds)
    n = len(outcomes)
    k = sum(1 for o in outcomes if o.passed)
    bounds_k = sum(1 for o in outcomes if o.gaps_ok and o.osc_ok)
    errors = np.array([o.sup_errors for o in outcomes])
    worst = max(outcomes, key=lambda o: o.sup_errors[-1]).seed
    return McSummary(
        experiment=exp,
        outcomes=outcomes,
        pass_fraction=k / n,
        pass_interval=_binomial_interval(k, n),
        bounds_fraction=bounds_k / n,
        worst_seed=worst,
        per_level_median_error=tuple(np.median(errors, axis=0).tolist()),
    )
