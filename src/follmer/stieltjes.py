"""Discrete Stieltjes sums against grid step functions, and ``running_sum``,
the one summation order of every discrete sum an identity reads.

Two evaluation rules are used in the package:

* ``stieltjes_left_curve`` realizes integrals of the form "integrand at s-
  against the increments of a grid curve": mass of the step (t_{g-1}, t_g]
  times the left limit of the integrand at t_g, added left to right.  No
  interpolation.  This is the pinned rule for integrals against
  quadratic-variation curves; ``stieltjes_left(..., upto=g)`` is the curve's
  value at g bit for bit.

* ``stieltjes_fv_curve`` integrates against a declared finite-variation path,
  with declared jumps handled exactly (atom mass times the integrand's left
  limit) and the continuous remainder handled by the trapezoid rule.  For
  finite-variation integrators the pathwise integral is a plain Stieltjes
  integral, so the second-order rule estimates the same limit with O(h^2)
  bias instead of O(h).  The curve is the running sum of one increment per
  grid step; ``stieltjes_fv(..., upto=g)`` sums the same increments up to g
  in the same order, so it is the curve's value at g bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["running_sum", "stieltjes_left", "stieltjes_left_curve", "stieltjes_fv", "stieltjes_fv_curve"]


def running_sum(steps: np.ndarray) -> np.ndarray:
    """The curve 0.0, s_1, s_1 + s_2, ... of ``steps`` added left to right
    from +0.0, one entry longer than ``steps``: no entry is -0.0, its prefix
    of length k + 1 is ``running_sum(steps[:k])`` bit for bit, and its last
    entry is the total."""
    return np.cumsum(np.concatenate([[0.0], steps]))


def stieltjes_left_curve(h_left: np.ndarray, curve: np.ndarray) -> np.ndarray:
    """Running sum g -> sum of h(t_k-) * (F_k - F_{k-1}) for 0 < k <= g."""
    return running_sum(h_left[1:] * np.diff(curve))


def stieltjes_left(h_left: np.ndarray, curve: np.ndarray, upto: int | None = None) -> float:
    """``stieltjes_left_curve(h_left, curve)[upto]``, without the rest of the curve."""
    hi = len(curve) if upto is None else upto + 1
    return float(stieltjes_left_curve(h_left[:hi], curve[:hi])[-1])


def _fv_increments(h_values: np.ndarray, h_left: np.ndarray, a, hi: int) -> np.ndarray:
    """The Stieltjes increments of grid steps 1..hi-1 against the path ``a``
    (a ``GridPath``, not imported: ``paths`` imports this module): the trapezoid
    term on the continuous part of A, plus h(t_g-) dA_g at each declared jump."""
    inc = 0.5 * (h_values[: hi - 1] + h_left[1:hi]) * np.diff((a.x - a.jump_part)[:hi])
    dx, hl = a.dX[1:hi], h_left[1:hi]
    j = np.flatnonzero(dx)
    inc[j] += hl[j] * dx[j]
    return inc


def stieltjes_fv(h_values: np.ndarray, h_left: np.ndarray, a, upto: int | None = None) -> float:
    """Integral of h(s-) dA_s over (0, t_upto] for a scalar finite-variation
    path A: ``stieltjes_fv_curve(h_values, h_left, a)[upto]``, without the
    rest of the curve."""
    hi = len(a.grid) if upto is None else upto + 1
    return float(running_sum(_fv_increments(h_values, h_left, a, hi))[-1])


def stieltjes_fv_curve(h_values: np.ndarray, h_left: np.ndarray, a) -> np.ndarray:
    """Running Stieltjes integral t -> integral of h(s-) dA_s on the grid, for
    a scalar finite-variation path A."""
    return running_sum(_fv_increments(h_values, h_left, a, len(a.grid)))
