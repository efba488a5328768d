"""Non-anticipative Riemann sums and the pathwise Ito calculus built on them.

The integral of xi against X along a partition is the left-sampled sum

    sum over t_i in pi of <xi_{t_i}, X_{t_{i+1} ^ t} - X_{t_i ^ t}>,

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
from .paths import FVPath, GridPath, as_fv, jump_rows, left_values
from .quadvar import QVResult, _anchor_runs, covariation, qv_sequence
from .stieltjes import stieltjes_fv, stieltjes_fv_curve, stieltjes_left

__all__ = [
    "AdmissibleIntegrand",
    "IntegralResult",
    "riemann_sum",
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


def _empty_fv(grid) -> FVPath:
    return FVPath(grid, np.zeros((len(grid), 0)))


@dataclass(frozen=True)
class AdmissibleIntegrand:
    """The witness triple (f, A, X) realizing xi_t = grad_x f(A_t, X_t).

    Construction checks the domain predicate along the whole trajectory
    (including left limits) and validates the supplied derivatives against
    finite differences on a trajectory subsample.
    """

    f: C12Function
    A: FVPath
    X: GridPath

    def __post_init__(self):
        if self.A is None:
            object.__setattr__(self, "A", _empty_fv(self.X.grid))
        if self.f.m != self.A.dim or self.f.d != self.X.dim:
            raise ValueError("function arity does not match the paths")
        if len(self.A.grid) != len(self.X.grid):
            raise ValueError("A and X live on different grids")
        av, xv = self.A.values, self.X.values
        al, xl = left_values(self.A), left_values(self.X)
        if not (np.all(self.f.domain_ok(av, xv)) and np.all(self.f.domain_ok(al, xl))):
            raise ValueError("trajectory leaves the function's domain")
        step = max(1, len(self.X.grid) // 32)
        self.f.validate(av[::step], xv[::step])
        xi = np.asarray(self.f.grad_x(av, xv), dtype=float).reshape(len(self.X.grid), self.f.d)
        xi_l = np.asarray(self.f.grad_x(al, xl), dtype=float).reshape(len(self.X.grid), self.f.d)
        object.__setattr__(self, "values", xi)
        object.__setattr__(self, "values_left", xi_l)


def _integrand_values(xi, grid) -> tuple[np.ndarray, np.ndarray]:
    """(values, left values) of an integrand given in any accepted form."""
    if isinstance(xi, AdmissibleIntegrand):
        return xi.values, xi.values_left
    if isinstance(xi, GridPath):
        return xi.values, left_values(xi)
    arr = np.asarray(xi, dtype=float)
    if arr.ndim == 0:
        v = np.full((len(grid), 1), float(arr))
        return v, v
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr, arr


def integral_curve(xi_vals: np.ndarray, x_vals: np.ndarray, p: Partition) -> np.ndarray:
    """Running truncated Riemann sum t -> sum <xi_{t_i}, X_{t_{i+1}^t} - X_{t_i^t}>."""
    idx = p.indices
    xv = x_vals[idx]
    inc = np.einsum("ij,ij->i", xi_vals[idx[:-1]], np.diff(xv, axis=0))
    csum = np.concatenate([[0.0], np.cumsum(inc)])
    runs = _anchor_runs(idx, x_vals.shape[0])
    dx = np.repeat(xv, runs, axis=0)
    np.subtract(x_vals, dx, out=dx)
    straddle = np.einsum("ij,ij->i", np.repeat(xi_vals[idx], runs, axis=0), dx)
    return np.add(np.repeat(csum, runs), straddle, out=straddle)


def integral_at(xi_vals: np.ndarray, x_vals: np.ndarray, p: Partition, g: int) -> np.float64:
    """``integral_curve(xi_vals, x_vals, p)[g]``, bit for bit, without the
    curve: the sequential sum of the whole increments up to the anchor a of
    g (the last partition point <= g), plus the straddle <xi_a, X_g - X_a>."""
    idx = p.indices
    k = int(np.searchsorted(idx, g, side="right")) - 1
    a = idx[k : k + 1]
    head = np.float64(0.0)
    if k:
        inc = np.einsum("ij,ij->i", xi_vals[idx[:k]], np.diff(x_vals[idx[: k + 1]], axis=0))
        head = np.cumsum(inc)[-1]
    straddle = np.einsum("ij,ij->i", xi_vals[a], x_vals[g : g + 1] - x_vals[a])
    return head + straddle[0]


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
    return [integral_curve(h[:, None], x.values, p) for p in parts]


def riemann_sum(
    xi,
    x: GridPath,
    p: Partition,
    t: float,
    convention: str = "truncated",
) -> float:
    """One non-anticipative Riemann sum; integrand sampled at left endpoints.

    ``truncated``: sum of <xi_{t_i}, X_{t_{i+1} ^ t} - X_{t_i ^ t}> over all
    partition points.  ``restricted``: sum of full increments over t_i <= t.
    The two agree whenever t is a partition point.
    """
    xi_vals, _ = _integrand_values(xi, x.grid)
    if xi_vals.shape[1] != x.dim:
        raise ValueError("integrand and integrator dimensions differ")
    g = x.grid.clamp_index(t)
    idx = p.indices
    if convention == "truncated":
        j = np.minimum(idx, g)
        xv = x.values[j]
        sv = xi_vals[idx[:-1]]
        return float(np.einsum("ij,ij->i", sv, np.diff(xv, axis=0)).sum())
    if convention == "restricted":
        keep = x.grid.times[idx[:-1]] <= t
        sv = xi_vals[idx[:-1]][keep]
        inc = np.diff(x.values[idx], axis=0)[keep]
        return float(np.einsum("ij,ij->i", sv, inc).sum())
    raise ValueError(f"unknown convention {convention!r}")


@dataclass(frozen=True)
class IntegralResult:
    """Per-level running sums, the top-level estimate path, and diagnostics."""

    grid: object
    level_curves: tuple
    estimate: np.ndarray
    level_gaps: tuple
    trend: TrendReport
    status: str
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
    integral's declared jumps <xi_{t-}, dX_t>.
    """
    xi_vals, xi_left = _integrand_values(xi, x.grid)
    curves = [integral_curve(xi_vals, x.values, p) for p in seq]
    estimate = curves[-1]
    gaps = tuple(sup_distance(c, estimate) for c in curves[:-1])
    trend = TrendReport(gaps, tol)
    if isinstance(xi, AdmissibleIntegrand):
        claim = "admissible"
    elif isinstance(x, FVPath):
        claim = "fv-integrator"
    else:
        claim = "unverified-hypothesis"
    # d(int xi dX)_t = <xi_{t-}, dX_t>
    jumps = np.sum(xi_left * x.dX, axis=1)
    path = (FVPath if isinstance(x, FVPath) else GridPath)(x.grid, estimate, jumps)
    return IntegralResult(
        grid=x.grid,
        level_curves=tuple(curves),
        estimate=estimate,
        level_gaps=gaps,
        trend=trend,
        status=trend.status if len(seq) > 1 else "inconclusive",
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
    residual: float
    residual_per_level: tuple
    trend: TrendReport


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
    the Stieltjes drift against (A^k)^c, the pathwise integral of
    grad_x f(A_-, X_-), half the Stieltjes sum of the Hessian against
    [X^k,X^l]^c, and the jump compensation sum over declared jump times.
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
    av, xv = A.values, X.values
    al, xl = left_values(A), left_values(X)

    lhs = float(integrand.f(av[g : g + 1], xv[g : g + 1])[0] - integrand.f(av[:1], xv[:1])[0])

    drift = 0.0
    if A.dim:
        dfda = np.asarray(f.grad_a(av, xv), dtype=float).reshape(len(grid), A.dim)
        dfda_left = np.asarray(f.grad_a(al, xl), dtype=float).reshape(len(grid), A.dim)
        for k in range(A.dim):
            ack = GridPath(grid, A.cont_part[:, k])
            drift += stieltjes_fv(dfda[:, k], dfda_left[:, k], ack, upto=g)

    level_integrals = [integral_at(integrand.values, xv, p, g) for p in seq]
    if isinstance(X, FVPath):
        integral_used = sum(
            stieltjes_fv(
                integrand.values[:, k],
                integrand.values_left[:, k],
                as_fv(X.component(k)),
                upto=g,
            )
            for k in range(X.dim)
        )
    else:
        integral_used = level_integrals[-1]

    hess_left = np.asarray(f.hess_x(al, xl), dtype=float).reshape(len(grid), X.dim, X.dim)
    covs = {}
    for k in range(X.dim):
        for l in range(k, X.dim):
            xk, xloc = X.component(k), X.component(l)
            covs[(k, l)] = qv_sequence(xk, seq) if k == l else covariation(xk, xloc, seq)

    def qv_term_at_level(n: int) -> float:
        total = 0.0
        for (k, l), cov in covs.items():
            curve = cov.level_curves[n] - cov.jump_part
            v = stieltjes_left(hess_left[:, k, l], curve, upto=g)
            total += 0.5 * v if k == l else v  # off-diagonal counted twice
        return total

    ji = jump_rows(X, A)
    ji = ji[ji <= g]
    jump_term = 0.0
    if ji.size:
        f_after = integrand.f(av[ji], xv[ji])
        f_before = integrand.f(al[ji], xl[ji])
        gx_before = np.asarray(f.grad_x(al[ji], xl[ji]), dtype=float).reshape(ji.size, X.dim)
        dx = xv[ji] - xl[ji]
        jump_term = float(np.sum(f_after - f_before - np.einsum("ij,ij->i", gx_before, dx)))

    residuals = tuple(
        lhs - (drift + level_integrals[n] + qv_term_at_level(n) + jump_term)
        for n in range(len(seq))
    )
    abs_res = tuple(abs(r) for r in residuals)
    trend = TrendReport(abs_res, tol)
    qv_top = qv_term_at_level(len(seq) - 1)
    return ItoFormulaReport(
        lhs=lhs,
        drift_term=drift,
        integral_term=integral_used,
        qv_term=qv_top,
        jump_term=jump_term,
        residual=lhs - (drift + integral_used + qv_top + jump_term),
        residual_per_level=abs_res,
        trend=trend,
    )


# ---------------------------------------------------------------------------
# Integration by parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartsReport:
    residual: float
    residual_per_level: tuple
    discrete_identity_worst: float
    trend: TrendReport


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
    """
    g = x.grid.clamp_index(t)
    xs, ys = x.x, y.x
    lhs = xs[g] * ys[g] - xs[0] * ys[0]
    cov = covariation(x, y, seq)

    residuals = []
    worst_identity = 0.0
    for n, p in enumerate(seq):
        j = np.minimum(p.indices, g)
        xv, yv = xs[j], ys[j]
        dx, dy = np.diff(xv), np.diff(yv)
        s_ydx = float(np.sum(yv[:-1] * dx))
        s_xdy = float(np.sum(xv[:-1] * dy))
        s_dxdy = float(np.sum(dx * dy))
        s_dxy = float(np.sum(np.diff(xv * yv)))
        worst_identity = max(worst_identity, abs(s_dxy - (s_ydx + s_xdy + s_dxdy)))
        residuals.append(abs(lhs - (s_ydx + s_xdy + cov.level_curves[n][g])))
    trend = TrendReport(tuple(residuals), tol)
    return PartsReport(
        residual=residuals[-1],
        residual_per_level=tuple(residuals),
        discrete_identity_worst=worst_identity,
        trend=trend,
    )


# ---------------------------------------------------------------------------
# Quadratic variation of integral paths, and associativity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QvOfIntegralReport:
    qv: QVResult
    target: np.ndarray
    gaps: tuple
    trend: TrendReport


def _qv_target_curve(xi_left: np.ndarray, x: GridPath, seq: PartitionSequence) -> np.ndarray:
    """t -> sum_{k,l} int xi^k xi^l (s-) d[X^k,X^l]_s on the grid."""
    n = len(x.grid)
    inc = np.zeros(n)
    for k in range(x.dim):
        for l in range(x.dim):
            xk, xloc = x.component(k), x.component(l)
            cov = qv_sequence(xk, seq) if k == l else covariation(xk, xloc, seq)
            h = xi_left[:, k] * xi_left[:, l]
            inc[1:] += h[1:] * np.diff(cov.estimate)
    return np.cumsum(inc)


def qv_of_integral(
    xi: AdmissibleIntegrand,
    x: GridPath,
    seq: PartitionSequence,
    tol: float = DETERMINISTIC_TOL,
) -> QvOfIntegralReport:
    """[Y,Y] for Y = int <xi_-, dX> against sum_{k,l} int xi^k xi^l d[X^k,X^l]."""
    res = follmer_integral(xi, x, seq, tol=tol)
    y = res.path
    qv = qv_sequence(y, seq, tol=tol, fv_exact=False)
    target = _qv_target_curve(xi.values_left, x, seq)
    gaps = tuple(sup_distance(c, target) for c in qv.level_curves)
    return QvOfIntegralReport(qv, target, gaps, TrendReport(gaps, tol))


@dataclass(frozen=True)
class AssociativityReport:
    lhs_per_level: tuple
    rhs_per_level: tuple
    gaps: tuple
    trend: TrendReport
    status: str


def associativity_check(
    eta,
    integrands: Sequence[AdmissibleIntegrand],
    x: GridPath,
    seq: PartitionSequence,
    t: float,
    tol: float = DETERMINISTIC_TOL,
) -> AssociativityReport:
    """Per-level gap between int <eta_-, dY> and int <sum eta^k xi^(k)_-, dX>.

    Y^k are the top-level integral paths of the xi^(k); the left side sums
    eta against them, the right side sums the pointwise product integrand
    against X directly.
    """
    eta_vals, _ = _integrand_values(eta, x.grid)
    nu = len(integrands)
    if eta_vals.shape[1] != nu:
        raise ValueError("eta dimension must match the number of integrands")
    y_results = [follmer_integral(xi, x, seq, tol=tol) for xi in integrands]
    g = x.grid.clamp_index(t)

    zeta = np.zeros((len(x.grid), x.dim))
    for k, xi in enumerate(integrands):
        zeta += eta_vals[:, k : k + 1] * xi.values

    lhs_levels, rhs_levels = [], []
    for p in seq:
        total = 0.0
        for k, r in enumerate(y_results):
            total += float(integral_at(eta_vals[:, k : k + 1], r.estimate[:, None], p, g))
        lhs_levels.append(total)
        rhs_levels.append(float(integral_at(zeta, x.values, p, g)))
    gaps = tuple(abs(a - b) for a, b in zip(lhs_levels, rhs_levels))
    trend = TrendReport(gaps, tol)
    sides_ok = all(r.status != "inconclusive" or isinstance(x, FVPath) for r in y_results)
    status = trend.status if sides_ok else "inconclusive"
    return AssociativityReport(tuple(lhs_levels), tuple(rhs_levels), gaps, trend, status)
