"""Smooth test functions f(a, x) with the derivative data the calculus needs.

A ``C12Function`` carries vectorized callables of a scalar finite-variation
argument a and a scalar quadratic-variation argument x: value, gradient in
a, first and second derivative in x, and a domain predicate.  Supplied
derivatives are checked against central finite differences on sampled
domain points before use.

Built-ins are addressable by name for the config-driven runner: polynomial,
exp-affine, log, power and the bilinear a*x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .paths import DomainError

__all__ = [
    "C12Function",
    "DerivativeMismatch",
    "polynomial",
    "exp_affine",
    "log_fn",
    "power_fn",
    "fv_scale",
    "square",
    "identity_fn",
]


class DerivativeMismatch(ValueError):
    """Supplied derivatives disagree with finite differences."""


_GRAD_RTOL = 1e-5  # relative tolerance of a first derivative against its central difference


@dataclass(frozen=True)
class C12Function:
    """f: R x R -> R with first/second derivative callables.

    All callables are vectorized over 1-d arrays a and x of n samples:
    value(a, x), grad_a, grad_x, hess_x -> (n,); in_domain(a, x) -> (n,)
    bool.  f takes a finite-variation argument exactly when it has
    ``grad_a``; otherwise a is passed as zeros and ignored.
    """

    value: Callable
    grad_x: Callable
    hess_x: Callable
    grad_a: Callable | None = None
    in_domain: Callable | None = None
    name: str = ""

    def __call__(self, a, x) -> np.ndarray:
        return np.asarray(self.value(a, x), dtype=float)

    def domain_ok(self, a, x) -> np.ndarray:
        if self.in_domain is None:
            return np.ones(np.shape(x), dtype=bool)
        return np.asarray(self.in_domain(a, x), dtype=bool)

    def validate(self, a, x) -> None:
        """Check grad/hess against central differences at the given points.

        Tolerance: |analytic - numeric| <= 1e-5 * (1 + |analytic|) for the
        gradients, 1e-3 for the second derivative, with the step 1e-5 scaled
        by coordinate magnitude.
        """
        a, x = np.asarray(a, dtype=float), np.asarray(x, dtype=float)
        gx = np.asarray(self.grad_x(a, x), dtype=float)
        hx = np.asarray(self.hess_x(a, x), dtype=float)
        h = 1e-5 * (1.0 + np.abs(x))
        num_g = (self(a, x + h) - self(a, x - h)) / (2 * h)
        if not np.all(np.abs(gx - num_g) <= _GRAD_RTOL * (1.0 + np.abs(gx))):
            raise DerivativeMismatch(f"{self.name or 'f'}: grad_x mismatch")
        gp, gm = np.asarray(self.grad_x(a, x + h), dtype=float), np.asarray(self.grad_x(a, x - h), dtype=float)
        num_h = (gp - gm) / (2 * h)
        if not np.all(np.abs(hx - num_h) <= 1e-3 * (1.0 + np.abs(hx))):
            raise DerivativeMismatch(f"{self.name or 'f'}: hess_x mismatch")

        if self.grad_a is not None:
            ga = np.asarray(self.grad_a(a, x), dtype=float)
            h = 1e-5 * (1.0 + np.abs(a))
            num = (self(a + h, x) - self(a - h, x)) / (2 * h)
            if not np.all(np.abs(ga - num) <= _GRAD_RTOL * (1.0 + np.abs(ga))):
                raise DerivativeMismatch(f"{self.name or 'f'}: grad_a mismatch")


# ---------------------------------------------------------------------------
# Built-ins
# ---------------------------------------------------------------------------


def polynomial(coeffs) -> C12Function:
    """f(x) = sum c_k x^k."""
    try:
        c = np.asarray(coeffs, dtype=float)
    except (TypeError, ValueError):
        c = None
    if c is None or c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
        raise DomainError("coeffs", f"must be a nonempty list of finite numbers, got {coeffs!r}")
    d1 = np.polynomial.polynomial.polyder(c) if c.size > 1 else np.zeros(1)
    d2 = np.polynomial.polynomial.polyder(c, 2) if c.size > 2 else np.zeros(1)
    pv = np.polynomial.polynomial.polyval
    return C12Function(
        value=lambda a, x: pv(x, c),
        grad_x=lambda a, x: pv(x, d1),
        hess_x=lambda a, x: pv(x, d2),
        name=f"polynomial({list(map(float, c))})",
    )


def square() -> C12Function:
    return polynomial([0.0, 0.0, 1.0])


def identity_fn() -> C12Function:
    return polynomial([0.0, 1.0])


def exp_affine(c: float = 1.0, b: float | None = None) -> C12Function:
    """f(a, x) = exp(c x + b a); without b, f(x) = exp(c x) takes no
    finite-variation argument."""

    def val(a, x):
        s = x * c
        if b is not None:
            s = s + a * b
        return np.exp(s)

    return C12Function(
        value=val,
        grad_x=lambda a, x: val(a, x) * c,
        hess_x=lambda a, x: val(a, x) * (c * c),
        grad_a=None if b is None else (lambda a, x: val(a, x) * b),
        name="exp-affine",
    )


def log_fn() -> C12Function:
    """f(x) = log x on x > 0."""
    return C12Function(
        value=lambda a, x: np.log(x),
        grad_x=lambda a, x: 1.0 / x,
        hess_x=lambda a, x: -1.0 / x**2,
        in_domain=lambda a, x: x > 0.0,
        name="log",
    )


def power_fn(p: float) -> C12Function:
    """f(x) = x^p on x > 0."""
    return C12Function(
        value=lambda a, x: x**p,
        grad_x=lambda a, x: p * x ** (p - 1),
        hess_x=lambda a, x: p * (p - 1) * x ** (p - 2),
        in_domain=lambda a, x: x > 0.0,
        name=f"power({p})",
    )


def fv_scale() -> C12Function:
    """f(a, x) = a * x: the bilinear pairing of the FV and the QV argument."""
    return C12Function(
        value=lambda a, x: a * x,
        grad_x=lambda a, x: a,
        hess_x=lambda a, x: np.zeros_like(x),
        grad_a=lambda a, x: x,
        name="fv-scale",
    )


def _scalar(v, key: str) -> float:
    """A config number given as itself or as a one-element list."""
    if isinstance(v, list) and len(v) == 1:
        (v,) = v
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"{key} must be a number or a one-element list, got {v!r}")
    return float(v)


BUILTINS = {  # name -> constructor; its parameters are the keys the name takes
    "polynomial": polynomial,
    "square": square,
    "identity": identity_fn,
    "exp-affine": lambda c=1.0, b=None: exp_affine(_scalar(c, "c"), None if b is None else _scalar(b, "b")),
    "exp": lambda: exp_affine(),
    "log": log_fn,
    "power": power_fn,
    "fv-scale": fv_scale,
}
