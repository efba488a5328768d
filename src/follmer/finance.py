"""Portfolio insurance on pathwise markets: DPPI/CPPI and drawdown strategies.

A market is one risky price S (a path with quadratic variation, strictly
positive together with its left limits) and one riskless price B (finite
variation, positive, B_0 = 1).  A strategy (xi, eta) holds xi units of S and
eta of B; it is self-financing when V = V_0 + int xi_- dS + int eta_- dB.

The DPPI construction keeps the value above the floor L B for nonincreasing
L >= 0 and initial wealth V_0 >= L_0: the cushion is driven by the
exponential of X = int (m_-/S_-) dS + int ((1-m_-)/B_-) dB, and with
dX > -1 the exponential stays positive, so the floor is respected by
construction at every grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import DETERMINISTIC_TOL, TrendReport, within
from .drawdown import FloorFunction, azema_yor_path, floor_to_transform
from .equations import StochasticExponential, doleans_exponential
from .integrals import integral_at, integral_curve, integrand_values
from .partitions import PartitionSequence
from .paths import (
    DomainError,
    FVPath,
    GridPath,
    TimeGrid,
    csv_array,
    csv_lines,
    left_values,
    running_maximum,
    same_grid,
    write_csv_columns,
)
from .stieltjes import running_sum, stieltjes_fv_curve

__all__ = [
    "Market",
    "Strategy",
    "FloorSpec",
    "dppi",
    "self_financing_residual",
    "drawdown_strategy",
    "read_market_csv",
    "write_strategy_csv",
]


@dataclass(frozen=True)
class Market:
    """Risky price S and riskless price B on one shared grid."""

    s: GridPath
    b: FVPath

    def __post_init__(self):
        if not same_grid(self.s.grid, self.b.grid):
            raise ValueError("S and B must share one grid")
        with np.errstate(over="ignore"):  # a left limit beyond the float range is infinite, rejected below
            sl, bl = left_values(self.s), left_values(self.b)
        for key, v, vl in (("S", self.s.x, sl), ("B", self.b.x, bl)):
            if not np.all((v > 0) & (v < np.inf) & (vl > 0) & (vl < np.inf)):  # a NaN is neither
                raise DomainError(key, f"and {key}_- must be strictly positive and finite")
        if self.b.x[0] != 1.0:
            raise DomainError("B_0", f"must equal 1, got {float(self.b.x[0])!r}")

    @property
    def grid(self) -> TimeGrid:
        return self.s.grid


@dataclass(frozen=True)
class Strategy:
    """Holdings (xi, eta) and the value path V = xi S + eta B."""

    xi: GridPath
    eta: GridPath
    value: GridPath


@dataclass(frozen=True)
class FloorSpec:
    """Floor multiplier L (finite variation, >= 0, nonincreasing); the floor is K = L B."""

    l: FVPath

    def __post_init__(self):
        x, times = self.l.x, self.l.grid.times
        if np.any(x < 0):
            i = int(np.argmin(x >= 0))
            raise DomainError("L", f"must be nonnegative, got {float(x[i])!r} at t = {float(times[i])!r}")
        falls = np.diff(x) <= 1e-15  # the DPPI floor guarantee holds for a nonincreasing L only
        if not np.all(falls):
            i = int(np.argmin(falls)) + 1
            rise = f"{float(x[i - 1])!r} then {float(x[i])!r} at t = {float(times[i])!r}"
            raise DomainError("L", f"must be nonincreasing, got {rise}")


@dataclass(frozen=True)
class DppiReport:
    strategy: Strategy
    exponential: StochasticExponential
    floor_curve: np.ndarray
    floor_margin: float
    floor_slack: float  # the floor holds when -floor_margin is within it
    self_financing: TrendReport


def dppi(
    market: Market,
    m,
    floor: FloorSpec,
    v0: float,
    seq: PartitionSequence,
    tol: float = DETERMINISTIC_TOL,
) -> DppiReport:
    """Build the self-financing DPPI strategy for multiplier m and floor L B.

    m is an admissible-integrand witness or a constant.  The driver
    X = int (m_-/S_-) dS + int ((1-m_-)/B_-) dB must satisfy dX != -1;
    when dX > -1 throughout, V >= L B is asserted at every grid point.
    The jump sum of the value formula uses the post-jump riskless price B_s
    in the numerator.
    """
    l = floor.l
    if not v0 >= float(l.x[0]):
        raise DomainError("v0", f"= {v0!r} is below the initial floor L_0 = {float(l.x[0])!r}")
    grid = market.grid
    s, b = market.s, market.b
    sl, bl = left_values(s), left_values(b)
    if isinstance(m, GridPath) or np.ndim(m):
        raise TypeError("raw multiplier paths are rejected; supply a witness or a constant")
    mv, ml = integrand_values(m, grid)

    x_vals = integral_curve(mv / s.x, s.x, seq.top) + integral_curve((1.0 - mv) / b.x, b.x, seq.top)
    x_jumps = ml * s.dX / sl + (1.0 - ml) * b.dX / bl
    if np.any(x_jumps == -1.0):
        t = float(grid.times[np.argmax(x_jumps == -1.0)])
        raise DomainError("m", f"makes a jump dX = -1 of the driver X at t = {t!r}: the cushion degenerates")
    se = doleans_exponential(type(s)(grid, x_vals, x_jumps), seq, tol=tol)
    e_vals = se.values
    e_left = left_values(se.path)

    h_vals = b.x / e_vals
    h_left = bl / e_left
    c_curve = stieltjes_fv_curve(h_vals, h_left, l.continuous())
    dl = l.dX
    jl = np.flatnonzero(dl)
    l_atoms = np.zeros(len(grid))
    l_atoms[jl] = b.x[jl] * dl[jl] / (e_left[jl] * (1.0 + x_jumps[jl]))
    jsum = running_sum(l_atoms[1:])

    cushion = v0 - float(l.x[0]) - c_curve - jsum
    v_vals = l.x * b.x + e_vals * cushion
    l_left = left_values(l)
    v_left = l_left * bl + e_left * (v0 - float(l.x[0]) - c_curve - (jsum - l_atoms))

    xi_vals = mv * (v_vals - l.x * b.x) / s.x
    eta_vals = (v_vals - xi_vals * s.x) / b.x
    xi_left_vals = ml * (v_left - l_left * bl) / sl
    eta_left_vals = (v_left - xi_left_vals * sl) / bl
    xi_path = GridPath(grid, xi_vals, xi_vals - xi_left_vals)
    eta_path = GridPath(grid, eta_vals, eta_vals - eta_left_vals)
    value_path = GridPath(grid, v_vals, v_vals - v_left)
    strategy = Strategy(xi_path, eta_path, value_path)

    floor_curve = l.x * b.x
    margin = float(np.min(v_vals - floor_curve))
    # rounding slack where dX > -1 guarantees the floor; no bound where it does not
    slack = 1e-9 * (float(np.max(np.abs(v_vals))) or 1.0) if se.positive else math.inf
    if math.isfinite(margin) and not within(-margin, slack):
        raise AssertionError(f"floor breached by {margin} despite dX > -1; this is a bug")
    sf = self_financing_residual(strategy, market, seq, grid.T, tol=tol)
    return DppiReport(
        strategy=strategy,
        exponential=se,
        floor_curve=floor_curve,
        floor_margin=margin,
        floor_slack=slack,
        self_financing=sf,
    )


def self_financing_residual(
    strategy: Strategy,
    market: Market,
    seq: PartitionSequence,
    t: float,
    tol: float = DETERMINISTIC_TOL,
) -> TrendReport:
    """Residual of V_t = V_0 + int xi_- dS + int eta_- dB, per level."""
    g = market.grid.clamp_index(t)
    v = strategy.value.x
    residuals = []
    for p in seq:
        c1 = integral_at(strategy.xi.x, market.s.x, p, g)
        c2 = integral_at(strategy.eta.x, market.b.x, p, g)
        residuals.append(abs(float(v[g] - v[0] - c1 - c2)))
    return TrendReport(residuals, tol)


@dataclass(frozen=True)
class DrawdownStrategyReport:
    strategy: Strategy
    self_financing: TrendReport
    constraint_margin: float


def drawdown_strategy(
    s: GridPath,
    v0: float,
    floor: FloorFunction,
    seq: PartitionSequence,
    tol: float = DETERMINISTIC_TOL,
) -> DrawdownStrategyReport:
    """Self-financing strategy whose value obeys the w-drawdown constraint.

    Works on the unit riskless account (B = 1): xi = U'(Sbar) with U from the
    floor transform anchored at U(S_0) = v0, value V = M^U(S), eta = V - xi S.
    """
    if abs(floor.a_star - v0) > 1e-12 * max(1.0, abs(v0)):
        raise ValueError("the floor domain must start at the initial wealth v0")
    sl = left_values(s)
    grid = s.grid
    transform = floor_to_transform(floor, float(s.x[0]))
    ay = azema_yor_path(transform.U, s)
    v_path = ay.path

    xi_vals = ay.integrand  # U'(Sbar)
    xi_path = GridPath(grid, xi_vals)  # Sbar continuous: xi carries no jumps
    eta_vals = v_path.x - xi_vals * s.x
    v_left = left_values(v_path)
    eta_left = v_left - xi_vals * sl
    eta_path = GridPath(grid, eta_vals, eta_vals - eta_left)

    b = FVPath(grid, np.ones(len(grid)))
    market = Market(s, b)
    strategy = Strategy(xi_path, eta_path, v_path)
    sf = self_financing_residual(strategy, market, seq, grid.T, tol=tol)

    vbar, _ = running_maximum(v_path)
    margin = float(np.min(np.minimum(v_path.x, v_left) - floor(vbar.x)))
    return DrawdownStrategyReport(strategy, sf, margin)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


def read_market_csv(fp) -> Market:
    """Market from CSV with columns t,S,B and optional jump columns dS,dB,
    found by header name."""
    header, lines = csv_lines(fp)
    header = [name.strip() for name in header]
    missing = [name for name in ("t", "S", "B") if name not in header]
    if missing:
        raise DomainError("header", f"{','.join(header)!r} of a market CSV lacks {','.join(missing)}")
    a = csv_array(lines, len(header))
    col = {name: a[:, k] for k, name in enumerate(header)}
    grid = TimeGrid(col["t"])
    return Market(GridPath(grid, col["S"], col.get("dS")), FVPath(grid, col["B"], col.get("dB")))


def write_strategy_csv(strategy: Strategy, floor_curve: np.ndarray, fp) -> None:
    """Strategy output CSV t,xi,eta,V,floor."""
    columns = [strategy.value.grid, strategy.xi.x, strategy.eta.x, strategy.value.x, floor_curve]
    write_csv_columns(fp, ["t", "xi", "eta", "V", "floor"], columns)
