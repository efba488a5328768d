"""Convergence-trend bookkeeping shared by the limit-taking modules.

Limits along a refining partition sequence are unattainable on a grid; the
checkable surrogate is a trend: the per-level gaps must be nonincreasing over
the last few levels and the final gap must sit below a tolerance.  Two tiers
are used throughout: a tight one for deterministic paths and a loose one for
single stochastic samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DETERMINISTIC_TOL = 1e-6
STOCHASTIC_TOL = 5e-2
TREND_WINDOW = 3

_REL_SLACK = 1e-9
_NOISE_FLOOR = 1e-12


def within(value, bound) -> bool:
    """True only when every value is finite and at most ``bound`` (scalars or
    arrays that broadcast): the one rule of every verdict.  A NaN compares
    false with anything (IEEE 754 5.11), so ``not value > bound`` passes it."""
    v = np.asarray(value, dtype=float)
    return bool((np.isfinite(v) & (v <= bound)).all())


@dataclass(frozen=True)
class TrendReport:
    gaps: tuple
    tol: float
    nonincreasing: bool = field(init=False, default=False)
    final_gap: float = field(init=False, default=float("nan"))
    status: str = field(init=False, default="inconclusive")  # or "converged", or "non-finite" on a NaN or inf gap

    def __post_init__(self):
        gaps = tuple(float(g) for g in self.gaps)
        object.__setattr__(self, "gaps", gaps)
        if not gaps:
            return
        # gaps at float-noise level are ties, not trend violations
        tail = [max(g, _NOISE_FLOOR) for g in gaps[-TREND_WINDOW:]]
        scale = max(abs(g) for g in gaps) or 1.0
        slack = _REL_SLACK * scale
        noninc = all(a >= b - slack for a, b in zip(tail, tail[1:]))
        final = gaps[-1]
        # a tail entirely below tolerance counts as settled regardless of order
        settled = within(gaps[-TREND_WINDOW:], self.tol)
        if not np.isfinite(gaps).all():
            object.__setattr__(self, "status", "non-finite")
        elif (noninc or settled) and within(final, self.tol):
            object.__setattr__(self, "status", "converged")
        object.__setattr__(self, "nonincreasing", noninc)
        object.__setattr__(self, "final_gap", final)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def sup_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if len(a) else 0.0
