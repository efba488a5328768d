"""Discrete Stieltjes sums against grid step functions.

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

from .paths import GridPath

__all__ = ["stieltjes_left", "stieltjes_left_curve", "stieltjes_fv", "stieltjes_fv_curve"]


def stieltjes_left_curve(h_left: np.ndarray, curve: np.ndarray) -> np.ndarray:
    """Running sum g -> sum of h(t_k-) * (F_k - F_{k-1}) for 0 < k <= g."""
    return np.cumsum(np.concatenate([[0.0], h_left[1:] * np.diff(curve)]))


def stieltjes_left(h_left: np.ndarray, curve: np.ndarray, upto: int | None = None) -> float:
    """``stieltjes_left_curve(h_left, curve)[upto]``, without the rest of the curve."""
    hi = len(curve) if upto is None else upto + 1
    return float(stieltjes_left_curve(h_left[:hi], curve[:hi])[-1])


def _fv_increments(h_values: np.ndarray, h_left: np.ndarray, a: GridPath, hi: int) -> np.ndarray:
    """The Stieltjes increments of grid steps 0..hi-1: the trapezoid term on
    the continuous part of A, plus h(t_g-) dA_g at each declared jump."""
    inc = np.zeros(hi)
    inc[1:] = 0.5 * (h_values[: hi - 1] + h_left[1:hi]) * np.diff((a.x - a.jump_curve())[:hi])
    dx = a.dX[:hi]
    j = np.flatnonzero(dx)
    inc[j] += h_left[j] * dx[j]
    return inc


def stieltjes_fv(h_values: np.ndarray, h_left: np.ndarray, a: GridPath, upto: int | None = None) -> float:
    """Integral of h(s-) dA_s over (0, t_upto] for a scalar finite-variation
    path A: ``stieltjes_fv_curve(h_values, h_left, a)[upto]``, without the
    rest of the curve."""
    hi = len(a.grid) if upto is None else upto + 1
    return float(np.cumsum(_fv_increments(h_values, h_left, a, hi))[-1])


def stieltjes_fv_curve(h_values: np.ndarray, h_left: np.ndarray, a: GridPath) -> np.ndarray:
    """Running Stieltjes integral t -> integral of h(s-) dA_s on the grid, for
    a scalar finite-variation path A."""
    return np.cumsum(_fv_increments(h_values, h_left, a, len(a.grid)))
