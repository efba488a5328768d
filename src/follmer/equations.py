"""Closed-form and numerical solutions of pathwise integral equations.

The homogeneous linear equation Y = 1 + int Y_- dX is solved by the
Doleans-Dade exponential

    E(X)_t = exp(X_t - X_0 - [X,X]^c_t / 2) * prod_{s<=t} (1 + dX_s) e^{-dX_s},

the inhomogeneous one by the variation-of-constants expressions built from
E(X) and its reciprocal, and equations with a z-dependent drift by reduction
to an ordinary integral equation in the E(X)-discounted variable.  Every
solver verifies its output by substitution into the original equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagnostics import DETERMINISTIC_TOL, TrendReport, sup_distance
from .integrals import integral_curves, integrand_values
from .partitions import PartitionSequence
from .paths import DomainError, FVPath, GridPath, left_values, reciprocal_path
from .quadvar import QVResult, qv_sequence
from .stieltjes import running_sum, stieltjes_fv_curve, stieltjes_left, stieltjes_left_curve

__all__ = [
    "StochasticExponential",
    "doleans_exponential",
    "reciprocal_exponential",
    "solve_linear",
    "solve_nonlinear",
]


@dataclass(frozen=True)
class StochasticExponential:
    """E(X) on the grid with its building blocks and positivity flags."""

    x: GridPath
    path: GridPath
    qv: QVResult
    exponent: np.ndarray  # X_t - X_0 - [X,X]^c_t / 2
    zero_hit: bool  # some dX = -1: E(X) is absorbed at 0
    positive: bool  # all dX > -1: E(X) and E(X)_- stay positive

    @property
    def values(self) -> np.ndarray:
        return self.path.x


def doleans_exponential(
    x: GridPath,
    seq: PartitionSequence,
    tol: float = DETERMINISTIC_TOL,
) -> StochasticExponential:
    """Evaluate the closed form of E(X) on the grid.

    The continuous part [X,X]^c comes from the quadratic-variation engine
    (exact for declared finite-variation paths); the jump product runs over
    the declared jumps only.  The result carries that quadratic variation,
    ``qv``, whose status says whether it is certified along the sequence.
    """
    qv = qv_sequence(x, seq, tol=tol)
    xs = x.x
    exponent = xs - xs[0] - 0.5 * qv.continuous_part
    dx = x.dX
    j = np.flatnonzero(dx)
    factors = np.ones(len(x.grid))
    # one exp for the whole formula: np.exp, for the jump factors and dE too
    factors[j] = (1.0 + dx[j]) * np.exp(-dx[j])
    jump_product = np.cumprod(factors)
    values = np.exp(exponent) * jump_product
    dE = np.zeros(len(x.grid))
    dE[j] = values[j] - np.exp(exponent[j] - dx[j]) * jump_product[j - 1]
    cls = FVPath if isinstance(x, FVPath) else GridPath
    return StochasticExponential(
        x=x,
        path=cls(x.grid, values, dE),
        qv=qv,
        exponent=exponent,
        zero_hit=bool(np.any(dx == -1.0)),
        positive=not np.any(dx <= -1.0),
    )


def _minus_one_jump(x: GridPath, consequence: str) -> DomainError:
    """The error for a path x with a jump dX = -1, named by its first time."""
    t = float(x.grid.times[np.argmax(x.dX == -1.0)])
    return DomainError("x", f"has a jump dX = -1 at t = {t!r}: {consequence}")


def _reciprocal_path(se: StochasticExponential) -> GridPath:
    if se.zero_hit:
        raise _minus_one_jump(se.x, "E(X) hits zero")
    return reciprocal_path(se.path)


@dataclass(frozen=True)
class ReciprocalReport:
    path: GridPath
    residual: float
    terms: dict


def reciprocal_exponential(se: StochasticExponential, seq: PartitionSequence, t: float) -> ReciprocalReport:
    """1/E(X) and the residual of its integral representation

    1/E(X)_t - 1 = -int R_- dX + int R_- d[X,X]^c
                   + sum R_{s-} (dX_s)^2 / (1 + dX_s),  R = 1/E(X).
    """
    r = _reciprocal_path(se)
    x = se.x
    g = x.grid.clamp_index(t)
    r_left = left_values(r)
    (i1_curve,) = integral_curves(r.x, r_left, x, (seq.top,))
    i1 = float(i1_curve[g])
    i2 = stieltjes_left(r_left, se.qv.continuous_part, upto=g)
    dx = x.dX[: g + 1]
    j = np.flatnonzero(dx)
    terms = r_left[j] * dx[j] * dx[j] / (1.0 + dx[j])
    jsum = float(running_sum(terms)[-1])
    lhs = float(r.x[g]) - 1.0
    residual = lhs - (-i1 + i2 + jsum)
    return ReciprocalReport(r, residual, {"dX": i1, "dQVc": i2, "jumps": jsum})


@dataclass(frozen=True)
class LinearSolveReport:
    z: GridPath
    z_alt: GridPath | None
    agreement: float
    trend: TrendReport  # the substitution residual per level
    hypothesis: str
    exponential: StochasticExponential


def _z_jumps(z_vals: np.ndarray, dh: np.ndarray, x: GridPath) -> np.ndarray:
    """Jumps of a solution of Z = H + int Z_- dX: dZ = dH + Z_- dX."""
    return z_vals - (z_vals - dh) / (1.0 + x.dX)


def solve_linear(
    h,
    x: GridPath,
    seq: PartitionSequence,
    decomposition: tuple | None = None,
    tol: float = DETERMINISTIC_TOL,
) -> LinearSolveReport:
    """Solve Z = H + int Z_- dX by variation of constants.

    The primary expression is Z = H - E(X) int H_- d(1/E(X)); when H is
    supplied with a decomposition H = int xi_- dX + A (``decomposition`` is
    the pair (xi, A)), the alternative expression through dH, d[H,X]^c and
    the jump sum is evaluated as well and the two are compared.  The returned
    solution is verified by substitution into the equation.

    H is read through ``integrand_values``; only a ``GridPath`` that is not an
    ``FVPath`` leaves an "unverified-hypothesis".  The integrals against X
    and 1/E(X) are ``integral_curves``.
    """
    se = doleans_exponential(x, seq, tol=tol)
    r = _reciprocal_path(se)  # rejects a jump dX = -1
    grid = x.grid
    hv, hl = integrand_values(h, grid)
    hj = hv - hl
    if isinstance(h, GridPath) and not isinstance(h, FVPath):
        hypothesis = "unverified-hypothesis"
    else:
        hypothesis = "admissible"

    r_left = left_values(r)
    (inner,) = integral_curves(hv, hl, r, (seq.top,))
    z_vals = hv - se.values * inner
    z = GridPath(grid, z_vals, _z_jumps(z_vals, hj, x))

    z_alt = None
    agreement = float("nan")
    if decomposition is not None:
        xi, a = decomposition
        xi_vals, xi_left = integrand_values(xi, grid)
        h0 = float(hv[0])
        (t1_x,) = integral_curves(xi_vals * r.x, xi_left * r_left, x, (seq.top,))
        t1_a = stieltjes_fv_curve(r.x, r_left, a)
        t2 = stieltjes_left_curve(xi_left * r_left, se.qv.continuous_part)
        dx = x.dX
        dh = xi_left * dx + a.dX
        t3 = running_sum(np.where(dx != 0.0, r_left * dh * dx / (1.0 + dx), 0.0)[1:])
        z_alt_vals = se.values * (h0 + t1_x + t1_a - t2 - t3)
        z_alt = GridPath(grid, z_alt_vals, _z_jumps(z_alt_vals, hj, x))
        agreement = sup_distance(z_vals, z_alt_vals)

    sub_curves = integral_curves(z_vals, left_values(z), x, seq)
    return LinearSolveReport(
        z=z,
        z_alt=z_alt,
        agreement=agreement,
        trend=TrendReport([sup_distance(z_vals, hv + c) for c in sub_curves], tol),
        hypothesis=hypothesis,
        exponential=se,
    )


BLOWUP_LIMIT = 1e12  # |Z / E(X)| above this counts as a blow-up


class OdeBlowUp(RuntimeError):
    def __init__(self, t: float):
        super().__init__(f"ODE solution blew up near t = {t}")
        self.t = t


@dataclass(frozen=True)
class NonlinearSolveReport:
    z: GridPath
    y: np.ndarray
    trend: TrendReport  # the substitution residual per level
    exponential: StochasticExponential


def solve_nonlinear(
    f: Callable[[float, float], float],
    x: GridPath,
    x0: float,
    seq: PartitionSequence,
    tol: float = DETERMINISTIC_TOL,
) -> NonlinearSolveReport:
    """Solve Z = x0 + int f(s, Z_s) ds + int Z_- dX by exponential reduction.

    The discounted variable Y = Z / E(X) satisfies the ordinary equation
    Y' = f(t, Y E) / E, integrated with a fixed-step fourth-order scheme on
    the grid; E(X) is held at its left value within each step, so sub-steps
    never cross grid points.  f is expected to be locally Lipschitz with
    linear growth.  f is called with Python floats only, and an exception it
    raises propagates unchanged; a non-finite Y, or one larger
    than ``BLOWUP_LIMIT`` in magnitude, raises ``OdeBlowUp``.
    """
    se = doleans_exponential(x, seq, tol=tol)
    if se.zero_hit:
        raise _minus_one_jump(x, "the equation degenerates")
    times = x.grid.times
    e_vals = se.values

    # the RK4 steps run on Python floats: the same IEEE operations as on
    # numpy scalars, at a fraction of the cost per step
    ts, es = times.tolist(), e_vals.tolist()
    yg = float(x0)
    ys, fz = [yg], []  # fz: f(t_g, Z_g) at every grid point, for the drift
    for t0, t1, e in zip(ts, ts[1:], es):  # E held left-constant within the step
        h = t1 - t0
        if e == 0.0:
            # E(X) underflowed to zero: numpy scalars made the step inf or
            # nan, a blow-up; Python floats would raise ZeroDivisionError
            raise OdeBlowUp(t1)
        f0 = f(t0, yg * e)
        fz.append(f0)
        k1 = f0 / e
        tm = t0 + h / 2
        k2 = f(tm, (yg + h * k1 / 2) * e) / e
        k3 = f(tm, (yg + h * k2 / 2) * e) / e
        k4 = f(t0 + h, (yg + h * k3) * e) / e
        yg = yg + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        if not abs(yg) <= BLOWUP_LIMIT:  # also a nan or an infinity
            raise OdeBlowUp(t1)
        ys.append(yg)
    y = np.array(ys, dtype=float)

    z_vals = y * e_vals
    z = GridPath(x.grid, z_vals, _z_jumps(z_vals, 0.0, x))

    fz = np.array(fz + [f(ts[-1], yg * es[-1])], dtype=float)
    drift = running_sum(0.5 * (fz[:-1] + fz[1:]) * np.diff(times))
    sub_curves = integral_curves(z_vals, left_values(z), x, seq)
    return NonlinearSolveReport(
        z=z,
        y=y,
        trend=TrendReport([sup_distance(z_vals, x0 + drift + c) for c in sub_curves], tol),
        exponential=se,
    )

