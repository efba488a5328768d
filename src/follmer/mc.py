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

A level is measured on the segments of its partition, never on a curve over
the whole grid: the sup distance from the QV curve to the target comes from
the errors at the partition points plus the interiors of the few segments
whose error bound reaches past them (``_sup_error``), and the oscillation
from ``partitions.oscillation``, which gathers the diameters of short
segments.  Both give the floats the full-grid formulas give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .diagnostics import STOCHASTIC_TOL, TrendReport, within
from .partitions import Partition, lebesgue_partitions, mesh, oscillation
from .paths import (
    CompoundJumpGenerator,
    DomainError,
    DyadicBrownianGenerator,
    GridPath,
    TimeGrid,
    add_paths,
    dyadic_grid,
)
from .quadvar import qv_curve
from .stieltjes import running_sum

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
            raise DomainError("seeds", "is empty: need at least one seed")
        if not 1 <= self.n_min <= self.n_max:
            raise DomainError("levels", f"need 1 <= n_min <= n_max, got n_min={self.n_min}, n_max={self.n_max}")
        for name in ("T", "sigma", "jump_intensity", "jump_size"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(name, f"must be finite, got {getattr(self, name)!r}")
        try:  # the jump overlay's rules are the generator's, under this experiment's jump_* keys
            CompoundJumpGenerator(intensity=self.jump_intensity, size=self.jump_size, sampler=self.jump_sampler)
        except DomainError as exc:
            raise DomainError(f"jump_{exc.key}", str(exc).removeprefix(f"{exc.key} ")) from None

    @cached_property
    def grid(self) -> TimeGrid:
        """The dyadic grid of every seed's path, built once per experiment."""
        return dyadic_grid(self.T, self.grid_level)


@dataclass(frozen=True)
class SeedOutcome:
    seed: int
    oscillations: tuple
    gaps_ok: bool
    osc_ok: bool
    osc_sum: float
    osc_sum_bound: float
    trend: TrendReport  # the sup error per level

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
    return exp.sigma**2 * path.grid.times + running_sum(path.dX[1:] ** 2)


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


_ALPHA = 0.05  # the pass interval is a 95% one


def _binomial_interval(k: int, n: int) -> tuple:
    """Clopper-Pearson interval for k successes in n trials: the p at which
    the binomial tail beyond k on each side has mass _ALPHA / 2."""
    log_comb = [math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) for j in range(n + 1)]

    def mass(p: float, js: range) -> float:
        lp, lq = math.log(p), math.log1p(-p)
        return math.fsum(math.exp(log_comb[j] + j * lp + (n - j) * lq) for j in js)

    a = _ALPHA / 2
    lo = 0.0 if k == 0 else _bisect(lambda p: mass(p, range(k, n + 1)) >= a)
    hi = 1.0 if k == n else _bisect(lambda p: mass(p, range(k + 1)) <= a)
    return (lo, hi)


def _sup_error(path: GridPath, p: Partition, target: np.ndarray, n: int) -> float:
    """``max |qv_curve(path, p) - target|`` over the grid, the same float,
    from the segments of ``p`` without building the curve.

    Valid only where ``p`` is the band-exit partition of ``path`` at level
    ``n`` (``lebesgue_partition``) and ``target`` is nondecreasing.  The
    scan ends a segment [a, b) at its first sample with |fl(x_g - x_a)| >
    thr = 2^-(n+1), or earlier at the 1/n cap, so every sample g strictly
    inside it has |fl(x_g - x_a)| <= thr.  There the curve is fl(C +
    fl((x_g - x_a)^2)), C the sum at the anchor a, so it lies in [C, fl(C +
    thr^2)]; rounding is monotone and T_a <= T_g <= T_b, so the error lies
    in [fl(C - T_b), fl(fl(C + thr^2) - T_a)].  The sup is the largest error
    at the partition points unless one of these bounds reaches past it, and
    only the interiors of such segments are evaluated, with
    ``product_curve``'s own float operations.  A non-finite sum takes the
    full curve.
    """
    x, idx = path.x, p.indices
    xa = x[idx]
    csum = running_sum(np.diff(xa) ** 2)
    if not (math.isfinite(csum[-1]) and math.isfinite(target[-1])):
        return float(np.max(np.abs(qv_curve(path, p) - target)))
    ta = target[idx]
    worst = np.max(np.abs(csum - ta))
    thr = 0.5 ** (n + 1)
    c = csum[:-1]
    over = np.flatnonzero(np.maximum((c + thr * thr) - ta[:-1], ta[1:] - c) > worst)
    if over.size:
        # the samples a + 1 .. b - 1 of each such segment, and its anchor
        a = idx[over]
        counts = idx[over + 1] - a - 1
        g = np.arange(counts.sum()) + np.repeat(a + 1 - (np.cumsum(counts) - counts), counts)
        k = np.repeat(over, counts)
        d = x[g] - xa[k]
        worst = np.max(np.abs((csum[k] + d * d) - target[g]), initial=worst)
    return float(worst)


def run_seed(exp: McExperiment, seed: int) -> SeedOutcome:
    path = _sample_path(exp, seed)
    target = _target_curve(exp, path)
    sup_errors, oscs, gaps = [], [], []
    levels = range(exp.n_min, exp.n_max + 1)
    for n, p in zip(levels, lebesgue_partitions(path, levels)):
        sup_errors.append(_sup_error(path, p, target, n))
        oscs.append(oscillation(path, p, exp.T))
        gaps.append(mesh(p))
    levels = np.asarray(levels)
    gaps_ok = within(gaps, 1.0 / levels + 1e-12)
    osc_ok = within(oscs, 0.5**levels + 1e-12)
    osc_sum = float(np.sum(oscs))
    osc_bound = float(np.sum(0.5**levels))
    return SeedOutcome(
        seed=seed,
        oscillations=tuple(oscs),
        gaps_ok=gaps_ok,
        osc_ok=osc_ok,
        osc_sum=osc_sum,
        osc_sum_bound=osc_bound,
        trend=TrendReport(sup_errors, exp.tol),
    )


def run_mc(exp: McExperiment) -> McSummary:
    outcomes = tuple(run_seed(exp, s) for s in exp.seeds)
    n = len(outcomes)
    k = sum(1 for o in outcomes if o.passed)
    bounds_k = sum(1 for o in outcomes if o.gaps_ok and o.osc_ok)
    errors = np.array([o.trend.gaps for o in outcomes])
    worst = max(outcomes, key=lambda o: o.trend.final_gap).seed
    return McSummary(
        experiment=exp,
        outcomes=outcomes,
        pass_fraction=k / n,
        pass_interval=_binomial_interval(k, n),
        bounds_fraction=bounds_k / n,
        worst_seed=worst,
        per_level_median_error=tuple(np.median(errors, axis=0).tolist()),
    )
