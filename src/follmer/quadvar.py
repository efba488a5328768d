"""Quadratic variation and covariation along refining partition sequences.

The discrete quadratic variation of a scalar path along a partition is

    [X,X]^pi_t = sum over t_i in pi of (X_{t_{i+1} ^ t} - X_{t_i ^ t})^2.

A path has quadratic variation along a sequence when these curves converge
pointwise to a cadlag increasing limit whose jumps are exactly (dX_t)^2;
increasingness belongs to the limit and can fail transiently at coarse
levels.  On a grid the limit is estimated by the top-level curve and
certified by a convergence trend; for paths declared to have finite
variation the limit is the accumulated squared jumps, exactly.

Covariation is the discrete sum of products of increments, the same curve
as quadratic variation with two paths; the polarization identity
[X,Y] = ([X+Y] - [X] - [Y]) / 2 holds for it up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .diagnostics import DETERMINISTIC_TOL, TrendReport, sup_distance, within
from .partitions import Partition, PartitionSequence
from .paths import (
    DomainError,
    FVPath,
    GridPath,
    TimeGrid,
    jump_rows,
    left_values,
    same_grid,
)
from .stieltjes import running_sum

__all__ = [
    "QVResult",
    "DiscreteMeasure",
    "qv_curve",
    "product_curve",
    "qv_sequence",
    "covariation",
    "qv_measure",
    "measure_vs_qv_check",
    "measure_convergence_check",
]


# ---------------------------------------------------------------------------
# Discrete curves
# ---------------------------------------------------------------------------


def product_curve(x: np.ndarray, y: np.ndarray, p: Partition) -> np.ndarray:
    """t -> sum of (X_{t_{i+1}^t} - X_{t_i^t})(Y_{t_{i+1}^t} - Y_{t_i^t}) on the grid."""
    idx, runs = p.indices, p.runs
    xa, ya = x[idx], y[idx]
    csum = running_sum(np.diff(xa) * np.diff(ya))
    dx = np.repeat(xa, runs)
    np.subtract(x, dx, out=dx)
    if y is x:
        np.multiply(dx, dx, out=dx)
    else:
        dy = np.repeat(ya, runs)
        np.multiply(dx, np.subtract(y, dy, out=dy), out=dx)
    return np.add(np.repeat(csum, runs), dx, out=dx)


def qv_curve(path: GridPath, p: Partition) -> np.ndarray:
    """The step function [X,X]^pi evaluated at every grid time."""
    x = path.x
    return product_curve(x, x, p)


# ---------------------------------------------------------------------------
# Limits along a sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QVResult:
    """Per-level QV curves, the limit estimate, and its decomposition.

    ``estimate`` is the top-level curve (or the exact jump sum for paths
    declared finite-variation).  ``jump_part`` is J_t = sum of squared jumps
    up to t, ``continuous_part`` is the estimate minus J.  ``trend.gaps``
    hold the sup-distance of each non-top level to the estimate; ``cond2_worst``
    reports the worst violation of the jump identity d[X,X]_t = (dX_t)^2 at
    the declared jump times.
    """

    grid: TimeGrid
    level_curves: tuple
    estimate: np.ndarray
    jump_part: np.ndarray
    continuous_part: np.ndarray
    trend: TrendReport
    cond2_worst: float
    status: str

    def at(self, t: float) -> float:
        return float(self.estimate[self.grid.clamp_index(t)])

    def continuous_at(self, t: float) -> float:
        return float(self.continuous_part[self.grid.clamp_index(t)])


# slack of the jump identity d[X,Y]_t = dX_t dY_t: absolute, and relative to
# the jump product (plus tol times the jump sizes, see _assemble)
_COND2_ABS = 1e-9
_COND2_REL = 1e-6


def _assemble(
    x: GridPath,
    y: GridPath,
    seq: PartitionSequence,
    curves: list[np.ndarray],
    tol: float,
    fv_exact: bool,
) -> QVResult:
    jump_part = running_sum(x.dX[1:] * y.dX[1:])
    if fv_exact:
        estimate = jump_part.copy()
    else:
        estimate = curves[-1]
    cont = estimate - jump_part
    trend = TrendReport([sup_distance(c, estimate) for c in curves[: len(curves) - (0 if fv_exact else 1)]], tol)

    xs, ys = x.x, y.x
    xl, yl = left_values(x), left_values(y)
    top = seq.top.indices
    j = jump_rows(x, y)
    a = top[np.maximum(np.searchsorted(top, j, side="left") - 1, 0)]
    measured = (xs[j] - xs[a]) * (ys[j] - ys[a]) - (xl[j] - xs[a]) * (yl[j] - ys[a])
    dx, dy = xs[j] - xl[j], ys[j] - yl[j]
    target = dx * dy
    v = np.abs(measured - target)
    worst = float(np.max(v, initial=0.0))
    # the violation is the pre-jump anchor motion times the jump: zero
    # for paths flat before their jumps, tol-scaled slack otherwise
    bound = np.maximum(_COND2_ABS, _COND2_REL * np.abs(target)) + tol * (np.abs(dx) + np.abs(dy))

    if not within(v, bound):
        status = "no-qv"
    elif fv_exact:
        status = "exact-fv"
    else:
        status = trend.status
    return QVResult(
        grid=x.grid,
        level_curves=tuple(curves),
        estimate=estimate,
        jump_part=jump_part,
        continuous_part=cont,
        trend=trend,
        cond2_worst=worst,
        status=status,
    )


def qv_sequence(
    path: GridPath,
    seq: PartitionSequence,
    tol: float = DETERMINISTIC_TOL,
    fv_exact: bool | None = None,
) -> QVResult:
    """Quadratic variation of a scalar path along a partition sequence.

    For ``FVPath`` inputs the limit is the accumulated squared jumps (the
    finite-variation rule), exactly; the per-level curves then only document
    the trend.  Otherwise the top-level curve is the limit estimate and the
    trend plus the jump identity decide the status.
    """
    if fv_exact is None:
        fv_exact = isinstance(path, FVPath)
    curves = [qv_curve(path, p) for p in seq]
    return _assemble(path, path, seq, curves, tol, fv_exact)


def covariation(
    x: GridPath,
    y: GridPath,
    seq: PartitionSequence,
    tol: float = DETERMINISTIC_TOL,
    fv_exact: bool | None = None,
) -> QVResult:
    """[X,Y] from the product-increment curves ``product_curve(x, y, p)``,
    the discrete sum of dX dY per partition interval.

    By polarization these equal (1/2)([X+Y] - [X] - [Y]) level by level up
    to rounding, not bit for bit.  The jump identity checked is
    d[X,Y]_t = dX_t dY_t.  Paths on different grids are rejected.
    """
    if not same_grid(x.grid, y.grid):
        raise ValueError("paths live on different grids")
    if fv_exact is None:
        fv_exact = isinstance(x, FVPath) and isinstance(y, FVPath)
    curves = [product_curve(x.x, y.x, p) for p in seq]
    return _assemble(x, y, seq, curves, tol, fv_exact)


# ---------------------------------------------------------------------------
# Discrete measures mu^pi and their convergence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteMeasure:
    """mu = sum of a_i delta_{t_i} with atoms at partition points.

    ``boundaries`` are the full partition times; atom i represents the
    increment over ]boundaries[i], boundaries[i+1]].  Weights may be signed
    for covariation measures.
    """

    times: np.ndarray
    weights: np.ndarray
    boundaries: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if t.shape != w.shape:
            raise ValueError("times and weights must align")
        if np.any(np.diff(t) <= 0):
            raise ValueError("atom times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "weights", w)
        if self.boundaries is not None:
            b = np.asarray(self.boundaries, dtype=float)
            if b.size != t.size + 1:
                raise ValueError("boundaries must have one more entry than atoms")
            object.__setattr__(self, "boundaries", b)

    @property
    def nonnegative(self) -> bool:
        return bool(np.all(self.weights >= 0.0))

    def mass(self, t: float, closed: bool = True) -> float:
        """mu([0, t]) (closed) or mu([0, t[) of the atom representation,
        its atoms added left to right as ``product_curve`` adds them."""
        side = "right" if closed else "left"
        k = int(np.searchsorted(self.times, t, side=side))
        return float(running_sum(self.weights[:k])[-1])

    def integrate(self, f: Callable[[np.ndarray], np.ndarray], t: float) -> float:
        """Sum of a_i f(t_i) over atoms with t_i <= t, added in ``mass``'s
        order, so that f = 1 gives ``mass(t)`` bit for bit."""
        k = int(np.searchsorted(self.times, t, side="right"))
        return float(running_sum(self.weights[:k] * np.asarray(f(self.times[:k]), dtype=float))[-1])

    def straddling_weight(self, t: float) -> float:
        """Weight of the atom whose interval ]b_i, b_{i+1}] contains t."""
        if self.boundaries is None:
            raise ValueError("measure carries no interval boundaries")
        i = int(np.searchsorted(self.boundaries, t, side="left")) - 1
        if not 0 <= i < self.weights.size:
            return 0.0
        return float(self.weights[i])


def qv_measure(x: GridPath, y: GridPath, p: Partition) -> DiscreteMeasure:
    """mu^pi_{X,Y}: atom (t_i, delta_i X * delta_i Y) per partition interval."""
    if not same_grid(x.grid, y.grid):
        raise ValueError("paths live on different grids")
    idx = p.indices
    w = np.diff(x.x[idx]) * np.diff(y.x[idx])
    return DiscreteMeasure(p.times[:-1], w, boundaries=p.times)


@dataclass(frozen=True)
class MeasureVsQVReport:
    t: float
    qv: tuple
    mass_open: tuple
    diff_closed: tuple
    diff_open: tuple
    bound: tuple
    cap: tuple  # the straddle bound plus 1e-12 * max(1, max qv) of rounding slack

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "qv": list(self.qv),
            "diff_closed": list(self.diff_closed),
            "diff_open": list(self.diff_open),
            "bound": list(self.bound),
            "bounded": within(self.diff_closed, self.cap),
        }


def measure_vs_qv_check(
    x: GridPath, seq: PartitionSequence, t: float, curves: Sequence[np.ndarray]
) -> MeasureVsQVReport:
    """Compare [X,X]^{pi_n}_t with mu^{pi_n}_X([0,t]) level by level.

    ``curves`` are the curves [X,X]^{pi_n} of ``qv_sequence(x, seq)``, one
    per level, read at t.  The closed-interval difference obeys the straddle
    bound |diff| <= 4 sup_{s <= t+|pi_n|} |X_s| |X_{t_{i+1}} - X_t| with
    t in [t_i, t_{i+1}[; when t is a partition point the curve and the
    measure add the same atoms in the same order, so the open-interval
    difference is exactly 0.0.
    """
    xs = x.x
    g = x.grid.clamp_index(t)
    qv, mo, dc, do, bounds = [], [], [], [], []
    for p, curve in zip(seq, curves, strict=True):
        v = float(curve[g])
        mu = qv_measure(x, x, p)
        closed = mu.mass(t, closed=True)
        opened = mu.mass(t, closed=False)
        qv.append(v)
        mo.append(opened)
        dc.append(abs(v - closed))
        do.append(abs(v - opened))
        times = p.times
        i = int(np.searchsorted(times, t, side="right")) - 1
        nxt = times[min(i + 1, len(times) - 1)]
        g_hi = x.grid.clamp_index(min(x.grid.T, t + float(np.max(np.diff(times)))))
        sup_x = float(np.max(np.abs(xs[: g_hi + 1])))
        x_next = xs[x.grid.clamp_index(nxt)]
        x_t = xs[g]
        bounds.append(4.0 * sup_x * abs(x_next - x_t))
    scale = max(1.0, max(qv, default=1.0))
    cap = tuple(b + 1e-12 * scale for b in bounds)
    return MeasureVsQVReport(t, tuple(qv), tuple(mo), tuple(dc), tuple(do), tuple(bounds), cap)


def _left_value_at(path: GridPath, s: float) -> float:
    """f(s-) for a grid step function: exact left limit at grid times."""
    g = path.grid.clamp_index(s)
    if path.grid.times[g] == s:
        return float(left_values(path)[g])
    return float(path.x[g])


@dataclass(frozen=True)
class MeasureConvergenceReport:
    integral_per_level: tuple
    integral_target: float
    trend: TrendReport  # |integral - target| per level
    hypotheses_ok: bool


# atoms of the limit at most this heavy are not checked as straddling weights
_ATOM_TOL = 1e-12


def measure_convergence_check(
    mus: Sequence[DiscreteMeasure],
    mu: DiscreteMeasure,
    f: GridPath,
    t: float,
    tol: float = DETERMINISTIC_TOL,
) -> MeasureConvergenceReport:
    """Numerical verification of discrete-measure convergence to a limit.

    Hypotheses checked as trends: the distribution functions of mu_n converge
    pointwise to that of mu, and the straddling-atom weights a^n_{i_n}
    converge to mu({t}) at every atom of mu.  The conclusion checked is

        integral of f d mu_n over [0,t]  -->  integral of f(s-) d mu.

    Negative atoms are rejected; the convergence statement needs a^n_i >= 0.
    """
    for m in mus:
        if not m.nonnegative:
            raise DomainError("weights", "must be nonnegative: discrete-measure convergence needs nonnegative atoms")

    samples = [0.0, t]
    samples.extend(float(s) for s in mu.times if s <= t)
    mid = [(a + b) / 2 for a, b in zip(sorted(samples), sorted(samples)[1:])]
    samples = sorted(set(samples + mid))
    dist_gaps = tuple(
        max(abs(m.mass(s) - mu.mass(s)) for s in samples) for m in mus
    )

    star: dict[float, tuple] = {}
    for s, w in zip(mu.times, mu.weights):
        if s > t or abs(w) <= _ATOM_TOL:
            continue
        gaps = tuple(abs(m.straddling_weight(s) - w) for m in mus)
        star[float(s)] = gaps

    def f_vals(times: np.ndarray) -> np.ndarray:
        if np.any(times < 0):
            raise ValueError("negative time")
        return f.x[np.searchsorted(f.grid.times, times, side="right") - 1]

    per_level = tuple(m.integrate(f_vals, t) for m in mus)
    k = int(np.searchsorted(mu.times, t, side="right"))
    target = float(
        sum(w * _left_value_at(f, s) for s, w in zip(mu.times[:k], mu.weights[:k]))
    )
    trend = TrendReport([abs(v - target) for v in per_level], tol)
    hyp_ok = TrendReport(dist_gaps, tol).nonincreasing and all(
        TrendReport(g, tol).nonincreasing for g in star.values()
    )
    return MeasureConvergenceReport(per_level, target, trend, hyp_ok)
