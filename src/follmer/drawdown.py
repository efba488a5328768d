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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagnostics import DETERMINISTIC_TOL, TrendReport
from .integrals import integral_at
from .partitions import PartitionSequence
from .paths import GridPath, left_values, running_maximum

__all__ = [
    "MonotoneC2Function",
    "FloorFunction",
    "floor_zero",
    "floor_proportional",
    "floor_constant_margin",
    "floor_from_table",
    "builtin_floor",
    "floor_to_transform",
    "azema_yor_path",
    "solve_drawdown",
]


@dataclass(frozen=True)
class MonotoneC2Function:
    """Scalar C^2 function on [domain_start, infinity) with derivatives.

    Only right derivatives are meant at the left endpoint.  All callables
    are vectorized.
    """

    value: Callable
    d1: Callable
    d2: Callable
    domain_start: float
    name: str = ""

    def __call__(self, y):
        return np.asarray(self.value(np.asarray(y, dtype=float)), dtype=float)

    def deriv(self, y):
        return np.asarray(self.d1(np.asarray(y, dtype=float)), dtype=float)


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
    dw: Callable
    a_star: float
    name: str = ""
    knots: tuple = ()

    def __call__(self, y):
        return np.asarray(self.w(np.asarray(y, dtype=float)), dtype=float)

    def margin(self, y):
        y = np.asarray(y, dtype=float)
        return y - self(y)


def floor_zero(a_star: float) -> FloorFunction:
    return FloorFunction(
        w=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        dw=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        a_star=a_star,
        name="zero",
    )


def floor_proportional(alpha: float, a_star: float) -> FloorFunction:
    if not 0.0 <= alpha < 1.0:
        raise ValueError("proportional floor needs 0 <= alpha < 1")
    return FloorFunction(
        w=lambda y: alpha * np.asarray(y, dtype=float),
        dw=lambda y: np.full_like(np.asarray(y, dtype=float), alpha),
        a_star=a_star,
        name=f"proportional({alpha})",
    )


def floor_constant_margin(c: float, a_star: float) -> FloorFunction:
    if c <= 0:
        raise ValueError("constant margin must be positive")
    return FloorFunction(
        w=lambda y: np.asarray(y, dtype=float) - c,
        dw=lambda y: np.ones_like(np.asarray(y, dtype=float)),
        a_star=a_star,
        name=f"constant-margin({c})",
    )


def _hermite(xs, ys, slopes, y) -> tuple:
    """Value and first derivative at ``y`` of the cubic Hermite interpolant
    through (xs, ys) with the given slopes; the end cubics extrapolate.

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
    return ys[i] + d0 * s + c2 * s2 + c3 * (s2 * s), d0 + c2 * 2 * s + c3 * 3 * s2


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


def floor_from_table(ys, ws, a_star: float | None = None) -> FloorFunction:
    """User floor from a monotone table, interpolated shape-preservingly
    (PCHIP: cubic Hermite with Fritsch-Carlson slopes)."""
    ys = np.asarray(ys, dtype=float)
    ws = np.asarray(ws, dtype=float)
    if ys.ndim != 1 or ws.shape != ys.shape or ys.size < 2:
        raise ValueError("a floor table needs two equal-length lists of at least 2 numbers")
    if not (np.all(np.isfinite(ys)) and np.all(np.isfinite(ws))):
        raise ValueError("a floor table must contain only finite values")
    if not np.all(np.diff(ys) > 0):
        raise ValueError("floor table points must be strictly increasing")
    slopes = _pchip_slopes(ys, ws)
    return FloorFunction(
        w=lambda y: _hermite(ys, ws, slopes, y)[0],
        dw=lambda y: _hermite(ys, ws, slopes, y)[1],
        a_star=float(ys[0]) if a_star is None else a_star,
        name="table",
        knots=tuple(ys.tolist()),
    )


def builtin_floor(name: str, a_star: float, **params) -> FloorFunction:
    if name == "zero":
        return floor_zero(a_star)
    if name == "proportional":
        return floor_proportional(params["alpha"], a_star)
    if name == "constant-margin":
        return floor_constant_margin(params["c"], a_star)
    if name == "table":
        return floor_from_table(params["ys"], params["ws"], a_star)
    raise KeyError(f"unknown floor {name!r}")


# ---------------------------------------------------------------------------
# The floor transform V(y) = a exp(int 1/(s - w(s)) ds) and its inverse
# ---------------------------------------------------------------------------


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_NODES_PER_UNIT = 256  # nodes of the exponent's table per unit of y


# invert() extends the node table by 1.5x per round up to y = a_star +
# _MAX_SPAN * max(1, a_star) and raises there: a target can stay out of reach
# (an overshooting Hermite cubic near a vanishing margin), and the table must
# not grow until memory runs out.  The cap is relative to a_star, so a floor
# at any price scale can follow its path over a 1024-fold rise
_MAX_SPAN = 1024.0


class _CumulativeExponent:
    """I(y) = int_{a_star}^{y} ds / m(s), tabulated and C^1-interpolated.

    Node values are Gauss-Legendre quadratures over segments that end at the
    nodes and at the floor's knots; between nodes a Hermite cubic with the
    analytic slope 1/m is used.  The table extends on demand.
    """

    def __init__(self, floor: FloorFunction):
        self.floor = floor
        self.a_star = floor.a_star
        self._nodes = np.array([self.a_star])
        self._vals = np.array([0.0])
        self._extend_to(self.a_star + 1.0)

    def _extend_to(self, hi: float) -> None:
        lo = float(self._nodes[-1])
        span = hi - lo
        count = max(8, int(math.ceil(span * _NODES_PER_UNIT)))
        new = np.linspace(lo, hi, count + 1)[1:]
        margins = self.floor.margin(new)
        if np.any(margins <= 0.0):
            bad = float(new[np.argmax(margins <= 0.0)])
            raise ValueError(f"floor margin y - w(y) is not positive near y = {bad}")
        # one 16-point Gauss-Legendre rule per piece; pieces end at the new
        # nodes and at the floor's knots, so every integrand is smooth
        knots = np.asarray(self.floor.knots, dtype=float)
        ends = np.union1d(new, knots[(knots > lo) & (knots < new[-1])])
        starts = np.concatenate([[lo], ends[:-1]])
        half, mid = 0.5 * (ends - starts), 0.5 * (ends + starts)
        s = mid[:, None] + half[:, None] * _GL_NODES
        m = self.floor.margin(s.ravel()).reshape(s.shape)
        if np.any(m <= 0.0):
            raise ValueError(f"floor margin y - w(y) is not positive near y = {float(np.min(s[m <= 0.0]))}")
        pieces = half * ((1.0 / m) @ _GL_WEIGHTS)
        vals = np.cumsum(np.concatenate([self._vals[-1:], pieces]))[np.searchsorted(ends, new) + 1]
        self._nodes = np.concatenate([self._nodes, new])
        self._vals = np.concatenate([self._vals, vals])
        self._slopes = 1.0 / self.floor.margin(self._nodes)

    def ensure(self, y_max: float) -> None:
        if y_max > self._nodes[-1]:
            self._extend_to(max(y_max, self._nodes[-1] + 0.5))

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        if y.size and float(np.max(y)) > self._nodes[-1]:
            self.ensure(float(np.max(y)) + 0.25)
        return _hermite(self._nodes, self._vals, self._slopes, y)[0]

    def invert(self, target):
        """Solve I(y) = target by table bracket plus Newton (I' = 1/m)."""
        target = np.asarray(target, dtype=float)
        y_cap = self.a_star + _MAX_SPAN * max(1.0, abs(self.a_star))
        while float(np.max(target)) > self._vals[-1]:
            if self._nodes[-1] >= y_cap:
                raise ValueError(
                    f"cannot invert the drawdown exponent for a_star = {self.a_star:.6g}: target "
                    f"I = {float(np.max(target)):.6g} is beyond the last tabulated I = {self._vals[-1]:.6g} "
                    f"at y = {self._nodes[-1]:.6g}, where the table stops"
                )
            self._extend_to(min(self._nodes[-1] * 1.5 + 1.0, y_cap))
        y = np.interp(target, self._vals, self._nodes)
        lo, hi = self._nodes[0], self._nodes[-1]
        for _ in range(60):
            err = self(y) - target
            y_new = np.clip(y - err * self.floor.margin(y), lo, hi)
            if np.allclose(y_new, y, rtol=0.0, atol=1e-14 * (1.0 + np.abs(y).max())):
                y = y_new
                break
            y = y_new
        return y


@dataclass(frozen=True)
class DrawdownTransform:
    V: MonotoneC2Function
    U: MonotoneC2Function
    floor: FloorFunction
    a: float
    roundtrip_error: float


def floor_to_transform(floor: FloorFunction, a: float) -> DrawdownTransform:
    """Build V(y) = a exp(int_{a*}^{y} ds/(s - w(s))) and U = V^{-1}.

    V' = V / m(y) and V'' = V w'(y) / m(y)^2 are analytic given V; U comes
    from monotone inversion of the tabulated exponent, with U' = m(U(x)) / x
    and U'' = -m(U(x)) w'(U(x)) / x^2.  The round trip U(V(y)) = y is checked
    on a sample of the tabulated range.
    """
    if a <= 0:
        raise ValueError("the transform needs a > 0")
    exponent = _CumulativeExponent(floor)
    a_star = floor.a_star

    def v_val(y):
        return a * np.exp(exponent(y))

    def v_d1(y):
        return v_val(y) / floor.margin(y)

    def v_d2(y):
        m = floor.margin(y)
        return v_val(y) * np.asarray(floor.dw(np.asarray(y, dtype=float)), dtype=float) / (m * m)

    V = MonotoneC2Function(v_val, v_d1, v_d2, a_star, name="V")

    def u_val(x):
        return exponent.invert(np.log(np.asarray(x, dtype=float) / a))

    def u_d1(x):
        x = np.asarray(x, dtype=float)
        return floor.margin(u_val(x)) / x

    def u_d2(x):
        x = np.asarray(x, dtype=float)
        u = u_val(x)
        return -floor.margin(u) * np.asarray(floor.dw(u), dtype=float) / (x * x)

    U = MonotoneC2Function(u_val, u_d1, u_d2, a, name="U")

    ys = np.linspace(a_star, float(exponent._nodes[-1]), 1000)
    rt = float(np.max(np.abs(U(V(ys)) - ys)))
    if rt > 1e-9 * (1.0 + float(np.max(np.abs(ys)))):
        raise ValueError(f"transform round trip off by {rt}")
    return DrawdownTransform(V, U, floor, a, rt)


# ---------------------------------------------------------------------------
# Azema-Yor paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AzemaYorReport:
    path: GridPath
    a_star: float
    integral_residual: float | None
    residual_per_level: tuple
    trend: TrendReport | None


def azema_yor_path(
    u: MonotoneC2Function,
    x: GridPath,
    seq: PartitionSequence | None = None,
    tol: float = DETERMINISTIC_TOL,
) -> AzemaYorReport:
    """M^U(X) = U(Xbar) - U'(Xbar)(Xbar - X), with the integral check.

    Requires a continuous running maximum; rejects otherwise.  When a
    sequence is supplied, the residual of M^U_t(X) = U(X_0) + int U'(Xbar) dX
    is reported per level at the horizon.
    """
    xbar, cont = running_maximum(x)
    if not cont:
        raise ValueError("running maximum is discontinuous at grid scale")
    if x.x[0] < u.domain_start - 1e-12:
        raise ValueError("X_0 is below the domain of U")
    mb = xbar.x
    uv, du = u(mb), u.deriv(mb)
    m_vals = uv - du * (mb - x.x)
    path = GridPath(x.grid, m_vals, du * x.dX)
    a_star = float(u(np.array([x.x[0]]))[0])

    if seq is None:
        return AzemaYorReport(path, a_star, None, (), None)
    g = len(x.grid) - 1
    residuals = []
    for p in seq:
        integral = float(integral_at(du, x.x, p, g))
        residuals.append(abs(float(m_vals[g]) - a_star - integral))
    trend = TrendReport(tuple(residuals), tol)
    return AzemaYorReport(path, a_star, residuals[-1], tuple(residuals), trend)


# ---------------------------------------------------------------------------
# The drawdown equation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DrawdownSolveReport:
    y: GridPath
    transform: DrawdownTransform
    residual: float
    residual_per_level: tuple
    trend: TrendReport
    constraint_margin: float

    @property
    def constraint_ok(self) -> bool:
        return self.constraint_margin > 0.0


def solve_drawdown(
    floor: FloorFunction,
    x: GridPath,
    seq: PartitionSequence,
    tol: float = DETERMINISTIC_TOL,
) -> DrawdownSolveReport:
    """Solve Y = a* + int (Y_- - w(Ybar)) / X_- dX for positive X.

    The solution is the Azema-Yor path M^U(X) with U from the floor
    transform.  The report carries the substitution residual per level and
    the worst-case strict-constraint margin min(Y ^ Y_- - w(Ybar)).
    """
    xl = left_values(x)
    if np.any(x.x <= 0.0) or np.any(xl <= 0.0):
        raise ValueError("the drawdown construction needs X > 0 and X_- > 0")
    xbar, cont = running_maximum(x)
    if not cont:
        raise ValueError("running maximum is discontinuous at grid scale")
    a = float(x.x[0])
    transform = floor_to_transform(floor, a)
    transform.U(np.array([float(xbar.x.max())]))  # force table coverage
    ay = azema_yor_path(transform.U, x)
    y = ay.path
    ybar, _ = running_maximum(y)
    w_ybar = floor(ybar.x)

    xi_vals = (y.x - w_ybar) / x.x
    residuals = []
    g = len(x.grid) - 1
    for p in seq:
        integral = float(integral_at(xi_vals, x.x, p, g))
        residuals.append(abs(float(y.x[g]) - floor.a_star - integral))
    trend = TrendReport(tuple(residuals), tol)

    y_left = left_values(y)
    margin = float(np.min(np.minimum(y.x, y_left) - w_ybar))
    return DrawdownSolveReport(y, transform, residuals[-1], tuple(residuals), trend, margin)
