"""Non-anticipative Riemann sums and the pathwise Ito calculus built on them.

Paths and integrands are scalar.  The integral of xi against X along a
partition is the left-sampled sum

    sum over t_i in pi of xi_{t_i} (X_{t_{i+1} ^ t} - X_{t_i ^ t}),

whose limit along a refining sequence defines the pathwise (Ito-Follmer)
integral.  Convergence is claimed for admissible integrands -- realizations
xi_t = grad_x f(A_t, X_t) with f of class C^{1,2} and A of finite variation --
and for finite-variation integrators, where the sums converge to the plain
Stieltjes integral.

This module evaluates both sides of the cadlag Ito formula, the integration
by parts identity, the quadratic variation of integral paths, and the
associativity rule for iterated integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diagnostics import DETERMINISTIC_TOL, TrendReport, sup_distance
from .functions import C12Function
from .partitions import Partition, PartitionSequence
from .paths import DomainError, FVPath, GridPath, jump_rows, left_values
from .quadvar import QVResult, covariation, qv_sequence
from .stieltjes import running_sum, stieltjes_fv, stieltjes_fv_curve, stieltjes_left, stieltjes_left_curve

__all__ = [
    "AdmissibleIntegrand",
    "IntegralResult",
    "integral_curve",
    "integral_at",
    "integral_curves",
    "follmer_integral",
    "ito_formula_eval",
    "ItoFormulaReport",
    "integration_by_parts",
    "qv_of_integral",
    "associativity_check",
]


@dataclass(frozen=True)
class AdmissibleIntegrand:
    """The witness triple (f, A, X) realizing xi_t = grad_x f(A_t, X_t).

    A is given exactly when f takes a finite-variation argument; otherwise
    it is the zero path.  Construction checks the domain predicate along the
    whole trajectory (including left limits) and validates the supplied
    derivatives against finite differences on a trajectory subsample.
    """

    f: C12Function
    A: FVPath
    X: GridPath

    def __post_init__(self):
        if (self.A is None) != (self.f.grad_a is None):
            raise ValueError("function arity does not match the paths")
        if self.A is None:
            object.__setattr__(self, "A", FVPath(self.X.grid, np.zeros(len(self.X.grid))))
        if len(self.A.grid) != len(self.X.grid):
            raise ValueError("A and X live on different grids")
        av, xv = self.A.x, self.X.x
        al, xl = left_values(self.A), left_values(self.X)
        if not (np.all(self.f.domain_ok(av, xv)) and np.all(self.f.domain_ok(al, xl))):
            raise DomainError("f", "is not defined along the trajectory, which leaves its domain")
        step = max(1, len(self.X.grid) // 32)
        self.f.validate(av[::step], xv[::step])
        xi = np.asarray(self.f.grad_x(av, xv), dtype=float)
        xi_l = np.asarray(self.f.grad_x(al, xl), dtype=float)
        object.__setattr__(self, "values", xi)
        object.__setattr__(self, "values_left", xi_l)


def integrand_values(xi, grid) -> tuple[np.ndarray, np.ndarray]:
    """(values, left values) of an integrand given in any accepted form: an
    ``AdmissibleIntegrand``, a ``GridPath``, a constant or a grid-length array."""
    if isinstance(xi, AdmissibleIntegrand):
        return xi.values, xi.values_left
    if isinstance(xi, GridPath):
        return xi.x, left_values(xi)
    arr = np.asarray(xi, dtype=float)
    if arr.ndim == 0:
        v = np.full(len(grid), float(arr))
        return v, v
    if arr.shape != (len(grid),):
        raise ValueError(f"integrand values have shape {arr.shape}, expected ({len(grid)},)")
    return arr, arr


def integral_curve(xi_vals: np.ndarray, x_vals: np.ndarray, p: Partition) -> np.ndarray:
    """Running truncated Riemann sum t -> sum xi_{t_i} (X_{t_{i+1}^t} - X_{t_i^t})."""
    idx, runs = p.indices, p.runs
    xv = x_vals[idx]
    csum = running_sum(xi_vals[idx[:-1]] * np.diff(xv))
    dx = np.repeat(xv, runs)
    np.subtract(x_vals, dx, out=dx)
    np.multiply(np.repeat(xi_vals[idx], runs), dx, out=dx)
    return np.add(np.repeat(csum, runs), dx, out=dx)


def integral_at(xi_vals: np.ndarray, x_vals: np.ndarray, p: Partition, g: int) -> np.float64:
    """``integral_curve(xi_vals, x_vals, p)[g]``, bit for bit, without the
    curve: the sequential sum of the whole increments up to the anchor a of
    g (the last partition point <= g), plus the straddle xi_a (X_g - X_a)."""
    idx = p.indices
    k = int(np.searchsorted(idx, g, side="right")) - 1
    a = idx[k]
    head = running_sum(xi_vals[idx[:k]] * np.diff(x_vals[idx[: k + 1]]))[-1]
    return head + xi_vals[a] * (x_vals[g] - x_vals[a])


def integral_curves(h: np.ndarray, h_left: np.ndarray, x: GridPath, parts) -> list[np.ndarray]:
    """Running integrals t -> int_0^t h(s-) dX_s of a scalar integrand with
    values ``h`` and left limits ``h_left`` against a scalar path X.

    For a declared finite-variation X the pathwise integral is the Stieltjes
    integral (Follmer 1981), so one curve is returned, ``stieltjes_fv_curve``:
    each declared jump exactly, the continuous part by the trapezoid rule.
    Otherwise there is one left Riemann sum curve per partition of ``parts``.
    """
    if isinstance(x, FVPath):
        return [stieltjes_fv_curve(h, h_left, x)]
    return [integral_curve(h, x.x, p) for p in parts]


@dataclass(frozen=True)
class IntegralResult:
    """Per-level running sums, the top-level estimate path, and diagnostics:
    ``trend.gaps`` hold the sup-distance of each lower level to the estimate."""

    grid: object
    level_curves: tuple
    estimate: np.ndarray
    trend: TrendReport
    claim: str
    path: GridPath

    def at(self, t: float) -> float:
        return float(self.estimate[self.grid.clamp_index(t)])


def follmer_integral(
    xi,
    x: GridPath,
    seq: PartitionSequence,
    tol: float = DETERMINISTIC_TOL,
) -> IntegralResult:
    """Estimate the pathwise integral of xi against X along the sequence.

    The estimate is the top-level running sum; the status is the gap trend
    of the lower levels against it.  A diverging trend yields status
    ``inconclusive``, never a silent answer.  The returned path carries the
    integral's declared jumps xi_{t-} dX_t.
    """
    xi_vals, xi_left = integrand_values(xi, x.grid)
    curves = [integral_curve(xi_vals, x.x, p) for p in seq]
    estimate = curves[-1]
    trend = TrendReport([sup_distance(c, estimate) for c in curves[:-1]], tol)
    if isinstance(xi, AdmissibleIntegrand):
        claim = "admissible"
    elif isinstance(x, FVPath):
        claim = "fv-integrator"
    else:
        claim = "unverified-hypothesis"
    # d(int xi dX)_t = xi_{t-} dX_t
    path = type(x)(x.grid, estimate, xi_left * x.dX)
    return IntegralResult(
        grid=x.grid,
        level_curves=tuple(curves),
        estimate=estimate,
        trend=trend,
        claim=claim,
        path=path,
    )


# ---------------------------------------------------------------------------
# The cadlag Ito formula
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ItoFormulaReport:
    lhs: float
    drift_term: float
    integral_term: float
    qv_term: float
    jump_term: float
    residual: float  # signed, with integral_term, which is jump-exact for an FVPath
    trend: TrendReport  # |residual| per level


def ito_formula_eval(
    f: C12Function,
    A: FVPath | None,
    X: GridPath,
    seq: PartitionSequence,
    t: float,
    tol: float = DETERMINISTIC_TOL,
) -> ItoFormulaReport:
    """Evaluate both sides of the cadlag Ito formula and their residual.

    LHS is f(A_t, X_t) - f(A_0, X_0); the RHS terms are computed separately:
    the Stieltjes drift against A^c, the pathwise integral of
    grad_x f(A_-, X_-), half the Stieltjes sum of the second derivative
    against [X,X]^c, and the jump compensation sum over declared jump times.
    The residual is reported per level (integral and QV terms at that level)
    so its decay is checkable.  For a declared finite-variation X the
    headline integral term is the jump-exact Stieltjes value (the pathwise
    integral is a Stieltjes integral there), which makes the residual exact
    for pure-jump paths; the per-level Riemann sums still document the trend.
    """
    integrand = AdmissibleIntegrand(f, A, X)
    A = integrand.A
    grid = X.grid
    g = grid.clamp_index(t)
    av, xv = A.x, X.x
    al, xl = left_values(A), left_values(X)

    lhs = float(f(av[g : g + 1], xv[g : g + 1])[0] - f(av[:1], xv[:1])[0])

    drift = 0.0
    if f.grad_a is not None:
        dfda = np.asarray(f.grad_a(av, xv), dtype=float)
        dfda_left = np.asarray(f.grad_a(al, xl), dtype=float)
        drift += stieltjes_fv(dfda, dfda_left, GridPath(grid, A.cont_part), upto=g)

    level_integrals = [integral_at(integrand.values, xv, p, g) for p in seq]
    if isinstance(X, FVPath):
        integral_used = stieltjes_fv(integrand.values, integrand.values_left, X, upto=g)
    else:
        integral_used = level_integrals[-1]

    hess_left = np.asarray(f.hess_x(al, xl), dtype=float)
    qv = qv_sequence(X, seq)

    def qv_term_at_level(n: int) -> float:
        return 0.5 * stieltjes_left(hess_left, qv.level_curves[n] - qv.jump_part, upto=g)

    ji = jump_rows(X, A)
    ji = ji[ji <= g]
    jump_term = 0.0
    if ji.size:
        f_after = f(av[ji], xv[ji])
        f_before = f(al[ji], xl[ji])
        gx_before = np.asarray(f.grad_x(al[ji], xl[ji]), dtype=float)
        jump_term = float(running_sum(f_after - f_before - gx_before * (xv[ji] - xl[ji]))[-1])

    trend = TrendReport(
        [abs(lhs - (drift + level_integrals[n] + qv_term_at_level(n) + jump_term)) for n in range(len(seq))],
        tol,
    )
    qv_top = qv_term_at_level(len(seq) - 1)
    return ItoFormulaReport(
        lhs=lhs,
        drift_term=drift,
        integral_term=integral_used,
        qv_term=qv_top,
        jump_term=jump_term,
        residual=lhs - (drift + integral_used + qv_top + jump_term),
        trend=trend,
    )


# ---------------------------------------------------------------------------
# Integration by parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartsReport:
    discrete_identity_worst: float
    trend: TrendReport  # the residual per level


def integration_by_parts(
    x: GridPath,
    y: GridPath,
    seq: PartitionSequence,
    t: float,
    tol: float = DETERMINISTIC_TOL,
) -> PartsReport:
    """Residual of X_t Y_t - X_0 Y_0 = int Y_- dX + int X_- dY + [X,Y]_t.

    Also reports the worst per-level violation of the discrete identity
    sum d(XY) = sum Y_{t_i} dX + sum X_{t_i} dY + sum dX dY, which is an
    algebraic expansion and must hold to float precision at every level.
    The two integrals are the left Riemann sums read by ``integral_at`` and
    sum dX dY is the covariation curve, each at t.
    """
    g = x.grid.clamp_index(t)
    xs, ys = x.x, y.x
    lhs = xs[g] * ys[g] - xs[0] * ys[0]
    cov = covariation(x, y, seq)

    residuals = []
    worst_identity = 0.0
    for n, p in enumerate(seq):
        j = np.minimum(p.indices, g)
        s_ydx = integral_at(ys, xs, p, g)
        s_xdy = integral_at(xs, ys, p, g)
        s_dxdy = cov.level_curves[n][g]
        s_dxy = float(running_sum(np.diff(xs[j] * ys[j]))[-1])
        worst_identity = max(worst_identity, float(abs(s_dxy - (s_ydx + s_xdy + s_dxdy))))
        residuals.append(float(abs(lhs - (s_ydx + s_xdy + s_dxdy))))
    return PartsReport(discrete_identity_worst=worst_identity, trend=TrendReport(residuals, tol))


# ---------------------------------------------------------------------------
# Quadratic variation of integral paths, and associativity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QvOfIntegralReport:
    qv: QVResult
    trend: TrendReport  # sup-distance of each level's [Y,Y] to the target


def qv_of_integral(
    xi: AdmissibleIntegrand,
    x: GridPath,
    seq: PartitionSequence,
    tol: float = DETERMINISTIC_TOL,
) -> QvOfIntegralReport:
    """[Y,Y] for Y = int xi_- dX against int xi^2 d[X,X]."""
    res = follmer_integral(xi, x, seq, tol=tol)
    y = res.path
    qv = qv_sequence(y, seq, tol=tol, fv_exact=False)
    xi_left = xi.values_left  # the target is t -> int xi^2 (s-) d[X,X]_s
    target = stieltjes_left_curve(xi_left * xi_left, qv_sequence(x, seq, fv_exact=False).estimate)
    return QvOfIntegralReport(qv, TrendReport([sup_distance(c, target) for c in qv.level_curves], tol))


@dataclass(frozen=True)
class AssociativityReport:
    lhs_per_level: tuple
    rhs_per_level: tuple
    trend: TrendReport  # |lhs - rhs| per level
    status: str


def associativity_check(
    eta: Sequence,
    integrands: Sequence[AdmissibleIntegrand],
    x: GridPath,
    seq: PartitionSequence,
    t: float,
    tol: float = DETERMINISTIC_TOL,
) -> AssociativityReport:
    """Per-level gap between sum_k int eta^k_- dY^k and int (sum_k eta^k xi^(k))_- dX.

    ``eta`` holds one integrand eta^k, in any form ``follmer_integral``
    accepts, per admissible integrand xi^(k).  Y^k are the top-level
    integral paths of the xi^(k); the left side sums the eta^k against them,
    the right side sums the pointwise product integrand against X directly.
    """
    if len(eta) != len(integrands):
        raise ValueError("eta needs one integrand per admissible integrand")
    eta_vals = [integrand_values(e, x.grid)[0] for e in eta]
    y_results = [follmer_integral(xi, x, seq, tol=tol) for xi in integrands]
    g = x.grid.clamp_index(t)

    zeta = np.zeros(len(x.grid))
    for e, xi in zip(eta_vals, integrands):
        zeta += e * xi.values

    lhs_levels, rhs_levels = [], []
    for p in seq:
        total = 0.0
        for e, r in zip(eta_vals, y_results):
            total += float(integral_at(e, r.estimate, p, g))
        lhs_levels.append(total)
        rhs_levels.append(float(integral_at(zeta, x.x, p, g)))
    trend = TrendReport([abs(a - b) for a, b in zip(lhs_levels, rhs_levels)], tol)
    # an unsettled side leaves the check unsettled, but for a finite-variation X
    sides = {r.trend.status for r in y_results} - ({"inconclusive"} if isinstance(x, FVPath) else set())
    status = next(s for s in ("non-finite", "inconclusive", trend.status) if s in sides | {trend.status})
    return AssociativityReport(tuple(lhs_levels), tuple(rhs_levels), trend, status)
