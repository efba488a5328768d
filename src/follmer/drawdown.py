"""Azema-Yor paths, floor transforms, and the drawdown equation.

For a C^2 function U and a path X with continuous running maximum Xbar,

    M^U_t(X) = U(Xbar_t) - U'(Xbar_t)(Xbar_t - X_t) = U(X_0) + int U'(Xbar_s) dX_s.

A floor function w with positive margin y - w(y) generates the transform
V(y) = a exp(int_{a*}^{y} ds / (s - w(s))) and its inverse U; M^U(X) is then
the unique solution of the drawdown equation

    Y_t = a* + int (Y_{s-} - w(Ybar_s)) / X_{s-} dX_s

that respects the strict constraint Y ^ Y_- > w(Ybar).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagnostics import DETERMINISTIC_TOL, TrendReport, within
from .integrals import integral_at
from .partitions import PartitionSequence
from .paths import DomainError, GridPath, left_values, running_maximum

__all__ = [
    "MonotoneC2Function",
    "FloorFunction",
    "floor_zero",
    "floor_proportional",
    "floor_constant_margin",
    "floor_from_table",
    "floor_to_transform",
    "azema_yor_path",
    "solve_drawdown",
]


@dataclass(frozen=True)
class MonotoneC2Function:
    """Scalar C^2 function on [domain_start, infinity) with its derivative.

    Only right derivatives are meant at the left endpoint.  Both callables
    are vectorized; ``d1(y, fy)`` is the derivative at ``y`` given the value
    ``fy`` there, which a transform's derivative is built from.
    """

    value: Callable
    d1: Callable
    domain_start: float

    def __call__(self, y):
        return np.asarray(self.value(np.asarray(y, dtype=float)), dtype=float)

    def deriv(self, y, fy=None):
        """The derivative at ``y``; ``fy`` is ``self(y)`` when already computed."""
        y = np.asarray(y, dtype=float)
        return np.asarray(self.d1(y, self(y) if fy is None else fy), dtype=float)


# ---------------------------------------------------------------------------
# Floor functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FloorFunction:
    """C^1 floor w on [a_star, infinity) with margin m(y) = y - w(y) > 0.

    ``knots`` are the points where w is only C^1 (the nodes of a table
    floor); the transform's quadrature never straddles one.
    """

    w: Callable
    a_star: float
    knots: tuple = ()

    def __call__(self, y):
        return np.asarray(self.w(np.asarray(y, dtype=float)), dtype=float)

    def margin(self, y):
        y = np.asarray(y, dtype=float)
        return y - self(y)


def floor_zero(a_star: float) -> FloorFunction:
    return FloorFunction(w=lambda y: np.zeros_like(np.asarray(y, dtype=float)), a_star=a_star)


def floor_proportional(alpha: float, a_star: float) -> FloorFunction:
    if not 0.0 <= alpha < 1.0:
        raise DomainError("alpha", f"must satisfy 0 <= alpha < 1, got {alpha!r}")
    return FloorFunction(w=lambda y: alpha * np.asarray(y, dtype=float), a_star=a_star)


def floor_constant_margin(c: float, a_star: float) -> FloorFunction:
    if not c > 0:
        raise DomainError("c", f"must be positive, got {c!r}")
    return FloorFunction(w=lambda y: np.asarray(y, dtype=float) - c, a_star=a_star)


def _hermite(xs, ys, slopes, y) -> np.ndarray:
    """Value at ``y`` of the cubic Hermite interpolant through (xs, ys) with
    the given slopes; the end cubics extrapolate.

    Interval i holds xs[i] <= y < xs[i+1].  The local power form is summed
    term by term, not by Horner, which gives scipy's ``PPoly`` bits.
    """
    h = np.diff(xs)
    secant = np.diff(ys) / h
    t = (slopes[:-1] + slopes[1:] - 2 * secant) / h
    c3, c2 = t / h, (secant - slopes[:-1]) / h - t
    i = np.clip(np.searchsorted(xs, y, side="right") - 1, 0, xs.size - 2)
    s = np.asarray(y, dtype=float) - xs[i]
    s2 = s * s
    d0, c2, c3 = slopes[i], c2[i], c3[i]
    return ys[i] + d0 * s + c2 * s2 + c3 * (s2 * s)


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, clipped to keep the data's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3 * abs(m0):
        return 3 * m0
    return d


def _pchip_slopes(xs, ys) -> np.ndarray:
    """Fritsch-Carlson monotone slopes: the weighted harmonic mean of the
    neighbouring secants, zero at a local extremum or a flat piece."""
    h = np.diff(xs)
    m = np.diff(ys) / h
    if m.size == 1:
        return np.array([m[0], m[0]])
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d = np.empty_like(ys)
    d[1:-1] = np.where(flat, 0.0, inner)
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def _table_points(values, key: str) -> np.ndarray:
    """``values`` as a float array of at least 2 finite numbers, else a ``DomainError`` naming ``key``."""
    try:
        a = np.asarray(values, dtype=float)
    except (TypeError, ValueError):  # not numbers at all
        a = np.zeros(0)
    if a.ndim != 1 or a.size < 2:
        raise DomainError(key, f"must be a list of at least 2 numbers, got {values!r}")
    if not np.all(np.isfinite(a)):
        raise DomainError(key, f"must hold only finite values, got {values!r}")
    return a


def floor_from_table(ys, ws, a_star: float) -> FloorFunction:
    """User floor from a monotone table, interpolated shape-preservingly
    (PCHIP: cubic Hermite with Fritsch-Carlson slopes)."""
    ys, ws = _table_points(ys, "ys"), _table_points(ws, "ws")
    if ws.size != ys.size:
        raise DomainError("ws", f"has {ws.size} values for the {ys.size} points of ys")
    if not np.all(np.diff(ys) > 0):
        raise DomainError("ys", f"must be strictly increasing, got {ys.tolist()!r}")
    slopes = _pchip_slopes(ys, ws)
    return FloorFunction(w=lambda y: _hermite(ys, ws, slopes, y), a_star=a_star, knots=tuple(ys.tolist()))


FLOORS = {  # name -> constructor; its parameters are the keys the name takes
    "zero": floor_zero,
    "proportional": floor_proportional,
    "constant-margin": floor_constant_margin,
    "table": floor_from_table,
}


# ---------------------------------------------------------------------------
# The floor transform V(y) = a exp(int 1/(s - w(s)) ds) and its inverse
# ---------------------------------------------------------------------------


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_NODES_PER_UNIT = 1024  # lattice nodes per unit of I
_BLOCK = 256  # lattice nodes placed per call of the margin, about a quarter unit of I
_MAX_NODES = 32 * _NODES_PER_UNIT  # the lattice's budget: 28 to 32 units of I for the builtin floors


class _CumulativeExponent:
    """I(y) = int_{a_star}^{y} ds / m(s) on a node lattice uniform in I.

    From a_star, each node steps by m / _NODES_PER_UNIT past the last, so an
    interval adds about 1 / _NODES_PER_UNIT to I at any price scale.  A block
    of _BLOCK nodes steps by the margin at its start, and ends early where the
    margin falls below half of it.  Node values are Gauss-Legendre quadratures
    over pieces that end at the nodes and at the floor's knots; between nodes
    a Hermite cubic with the analytic slope 1/m is used.  The lattice depends
    on the floor alone: it grows only by appending blocks, up to _MAX_NODES
    nodes, and starts with the first unit of I.
    """

    def __init__(self, floor: FloorFunction):
        self.floor = floor
        self.a_star = floor.a_star
        self._knots = np.asarray(floor.knots, dtype=float)
        self._m_last = float(floor.margin(self.a_star))
        if not self._m_last > 0.0:
            raise DomainError("floor.a_star", f"= {self.a_star:g}: the floor margin y - w(y) is not positive there")
        self._nodes = np.array([self.a_star])
        self._vals = np.array([0.0])
        self._slopes = np.array([1.0 / self._m_last])
        self._grow(past_i=1.0)

    def _grow(self, past_y: float = -np.inf, past_i: float = -np.inf) -> None:
        """Append blocks until the last node lies beyond y = past_y and I = past_i."""
        y0, v0, m0 = float(self._nodes[-1]), float(self._vals[-1]), self._m_last
        if y0 > past_y and v0 > past_i:
            return
        count = self._nodes.size
        nodes, vals, slopes = [self._nodes], [self._vals], [self._slopes]
        while (y0 <= past_y or v0 <= past_i) and count < _MAX_NODES:
            ys = y0 + m0 / _NODES_PER_UNIT * np.arange(1, _BLOCK + 1)
            m = self.floor.margin(ys)
            if not m[0] > 0.0:
                raise DomainError("floor", f"margin y - w(y) is not positive near y = {ys[0]}")
            short = np.flatnonzero(~(m >= 0.5 * m0))
            k = max(1, int(short[0])) if short.size else _BLOCK
            ys, m = ys[:k], m[:k]
            # one 16-point Gauss-Legendre rule per piece; pieces end at the
            # nodes and at the floor's knots, so every integrand is smooth
            ends = np.union1d(ys, self._knots[(self._knots > y0) & (self._knots < ys[-1])])
            starts = np.concatenate([[y0], ends[:-1]])
            half, mid = 0.5 * (ends - starts), 0.5 * (ends + starts)
            s = mid[:, None] + half[:, None] * _GL_NODES
            mq = self.floor.margin(s.ravel()).reshape(s.shape)
            if not np.all(mq > 0.0):
                bad = float(np.min(s[~(mq > 0.0)]))
                raise DomainError("floor", f"margin y - w(y) is not positive near y = {bad}")
            pieces = half * ((1.0 / mq) @ _GL_WEIGHTS)
            v = np.cumsum(np.concatenate([[v0], pieces]))[np.searchsorted(ends, ys) + 1]
            nodes.append(ys)
            vals.append(v)
            slopes.append(1.0 / m)
            y0, v0, m0 = float(ys[-1]), float(v[-1]), float(m[-1])
            count += k
        self._nodes, self._vals, self._slopes = (np.concatenate(parts) for parts in (nodes, vals, slopes))
        self._m_last = m0
        if y0 <= past_y or v0 <= past_i:
            short_of = f"y = {past_y:.6g}" if y0 <= past_y else f"I = {past_i:.6g}"
            raise ValueError(
                f"the drawdown exponent from a_star = {self.a_star:.6g} reaches only I = {v0:.6g} at y = {y0:.6g} "
                f"within its budget of {_MAX_NODES} nodes, short of {short_of}"
            )

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        if y.size:
            self._grow(past_y=float(np.max(y)))
        return _hermite(self._nodes, self._vals, self._slopes, y)

    def invert(self, target):
        """Solve I(y) = target by Newton steps (I' = 1/m) from the lattice's
        linear interpolant, each kept inside its target's lattice interval."""
        target = np.asarray(target, dtype=float)
        if target.size:
            self._grow(past_i=float(np.max(target)))
        i = np.clip(np.searchsorted(self._vals, target, side="right") - 1, 0, self._vals.size - 2)
        lo, hi = self._nodes[i], self._nodes[i + 1]
        y = np.interp(target, self._vals, self._nodes)
        for _ in range(60):
            m = self.floor.margin(y)
            y_new = np.clip(y - (self(y) - target) * m, lo, hi)
            done = np.all(np.abs(y_new - y) <= 1e-14 * (np.abs(y) + m))
            y = y_new
            if done:
                break
        return y


@dataclass(frozen=True)
class DrawdownTransform:
    V: MonotoneC2Function
    U: MonotoneC2Function


def floor_to_transform(floor: FloorFunction, a: float) -> DrawdownTransform:
    """Build V(y) = a exp(int_{a*}^{y} ds/(s - w(s))) and U = V^{-1}.

    V' = V / m(y) is analytic given V; U is the Newton inverse of V's
    Hermite interpolant, with U' = m(U(x)) / x.  Each derivative takes the
    value at its points, so U'(x) after U(x) inverts nothing again.  The
    round trip U(V(y)) = y is checked, relative to |y| + m(y), on a sample
    of the lattice's first unit of I; a round trip that is not finite is a
    ``DomainError`` on ``floor.a_star``.
    """
    if a <= 0:
        raise ValueError("the transform needs a > 0")
    exponent = _CumulativeExponent(floor)
    a_star = floor.a_star

    def v_val(y):
        return a * np.exp(exponent(y))

    def v_d1(y, vy):
        return vy / floor.margin(y)

    V = MonotoneC2Function(v_val, v_d1, a_star)

    def u_val(x):
        return exponent.invert(np.log(np.asarray(x, dtype=float) / a))

    def u_d1(x, ux):
        return floor.margin(ux) / x

    U = MonotoneC2Function(u_val, u_d1, a)

    ys = np.linspace(a_star, float(exponent._nodes[-1]), 1000, endpoint=False)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite round trip is rejected below
        rt = float(np.max(np.abs(U(V(ys)) - ys) / (np.abs(ys) + floor.margin(ys))))
    if not within(rt, 1e-9):
        if not np.isfinite(rt):  # the Hermite coefficients overflow where the nodes lie too close
            raise DomainError("floor.a_star", f"= {a_star:g}: the transform with a = {a:g} is not finite there")
        raise ValueError(f"transform round trip off by {rt} relative to |y| + m(y)")
    return DrawdownTransform(V, U)


# ---------------------------------------------------------------------------
# Azema-Yor paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AzemaYorReport:
    path: GridPath
    integrand: np.ndarray  # U'(Xbar) at every grid time


def azema_yor_path(u: MonotoneC2Function, x: GridPath) -> AzemaYorReport:
    """M^U(X) = U(Xbar) - U'(Xbar)(Xbar - X), with its integrand U'(Xbar).

    Requires a continuous running maximum; rejects otherwise.
    """
    xbar, cont = running_maximum(x)
    if not cont:
        raise DomainError("x", "has a running maximum that is discontinuous at grid scale")
    if x.x[0] < u.domain_start - 1e-12:
        raise ValueError("X_0 is below the domain of U")
    mb = xbar.x
    uv = u(mb)
    du = u.deriv(mb, uv)
    m_vals = uv - du * (mb - x.x)
    return AzemaYorReport(GridPath(x.grid, m_vals, du * x.dX), du)


# ---------------------------------------------------------------------------
# The drawdown equation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DrawdownSolveReport:
    y: GridPath
    transform: DrawdownTransform
    trend: TrendReport  # the substitution residual per level, at the horizon
    constraint_margin: float
    w_ybar: np.ndarray  # the floor of the running maximum, w(Ybar)


def solve_drawdown(
    floor: FloorFunction,
    x: GridPath,
    seq: PartitionSequence,
    tol: float = DETERMINISTIC_TOL,
) -> DrawdownSolveReport:
    """Solve Y = a* + int (Y_- - w(Ybar)) / X_- dX for positive X.

    The solution is the Azema-Yor path M^U(X) with U from the floor
    transform.  The report carries the substitution residual's trend and
    the worst-case strict-constraint margin min(Y ^ Y_- - w(Ybar)).
    """
    xl = left_values(x)
    if np.any(x.x <= 0.0) or np.any(xl <= 0.0):
        raise DomainError("x", "must be positive, with positive left limits, for the drawdown construction")
    transform = floor_to_transform(floor, float(x.x[0]))
    ay = azema_yor_path(transform.U, x)  # rejects a discontinuous running maximum
    y = ay.path
    ybar, _ = running_maximum(y)
    w_ybar = floor(ybar.x)

    xi_vals = (y.x - w_ybar) / x.x
    residuals = []
    g = len(x.grid) - 1
    for p in seq:
        integral = float(integral_at(xi_vals, x.x, p, g))
        residuals.append(abs(float(y.x[g]) - floor.a_star - integral))

    y_left = left_values(y)
    margin = float(np.min(np.minimum(y.x, y_left) - w_ybar))
    return DrawdownSolveReport(y, transform, TrendReport(residuals, tol), margin, w_ybar)
