"""Smooth test functions f(a, x) with the derivative data the calculus needs.

A ``C12Function`` carries vectorized callables: value, gradient in the
finite-variation argument a (m components), gradient and Hessian in the
quadratic-variation argument x (d components), and a domain predicate.
Supplied derivatives are checked against central finite differences on
sampled domain points before use.

Built-ins are addressable by name for the config-driven runner: polynomial,
exp-affine, log, product, power and the bilinear a*x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "C12Function",
    "DerivativeMismatch",
    "polynomial",
    "exp_affine",
    "log_fn",
    "product2",
    "power_fn",
    "fv_scale",
    "square",
    "identity_fn",
    "builtin_c12",
]


class DerivativeMismatch(ValueError):
    """Supplied derivatives disagree with finite differences."""


_GRAD_RTOL = 1e-5  # relative tolerance of a first derivative against its central difference


def _as2d(v, cols: int) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if cols == 0:
        return a.reshape(len(a) if a.ndim else 1, 0)
    if a.ndim == 1:
        a = a[:, None]
    return a


@dataclass(frozen=True)
class C12Function:
    """f: R^m x R^d -> R with first/second derivative callables.

    All callables are vectorized over a leading sample axis:
    value(a, x) -> (n,); grad_a -> (n, m); grad_x -> (n, d);
    hess_x -> (n, d, d); in_domain(a, x) -> (n,) bool.
    """

    m: int
    d: int
    value: Callable
    grad_x: Callable
    hess_x: Callable
    grad_a: Callable | None = None
    in_domain: Callable | None = None
    name: str = ""

    def __call__(self, a, x) -> np.ndarray:
        return np.asarray(self.value(_as2d(a, self.m), _as2d(x, self.d)), dtype=float)

    def domain_ok(self, a, x) -> np.ndarray:
        a2, x2 = _as2d(a, self.m), _as2d(x, self.d)
        if self.in_domain is None:
            return np.ones(x2.shape[0], dtype=bool)
        return np.asarray(self.in_domain(a2, x2), dtype=bool)

    def validate(self, a, x) -> None:
        """Check grad/hess against central differences at the given points.

        Tolerance: |analytic - numeric| <= 1e-5 * (1 + |analytic|) for the
        gradients, 1e-3 for the Hessian, with the step 1e-5 scaled by
        coordinate magnitude.
        """
        a2, x2 = _as2d(a, self.m), _as2d(x, self.d)
        n = x2.shape[0]
        gx = np.asarray(self.grad_x(a2, x2), dtype=float).reshape(n, self.d)
        hx = np.asarray(self.hess_x(a2, x2), dtype=float).reshape(n, self.d, self.d)
        if not np.allclose(hx, np.swapaxes(hx, 1, 2), atol=1e-12, rtol=1e-9):
            raise DerivativeMismatch(f"{self.name or 'f'}: Hessian is not symmetric")

        def fd(k: int) -> tuple[np.ndarray, np.ndarray]:
            h = 1e-5 * (1.0 + np.abs(x2[:, k]))
            xp, xm = x2.copy(), x2.copy()
            xp[:, k] += h
            xm[:, k] -= h
            fp = np.asarray(self.value(a2, xp), dtype=float)
            fm = np.asarray(self.value(a2, xm), dtype=float)
            gp = np.asarray(self.grad_x(a2, xp), dtype=float).reshape(n, self.d)
            gm = np.asarray(self.grad_x(a2, xm), dtype=float).reshape(n, self.d)
            return (fp - fm) / (2 * h), (gp - gm) / (2 * h[:, None])

        for k in range(self.d):
            num_g, num_h_col = fd(k)
            if not np.all(np.abs(gx[:, k] - num_g) <= _GRAD_RTOL * (1.0 + np.abs(gx[:, k]))):
                raise DerivativeMismatch(f"{self.name or 'f'}: grad_x[{k}] mismatch")
            anal = hx[:, :, k]
            if not np.all(np.abs(anal - num_h_col) <= 1e-3 * (1.0 + np.abs(anal))):
                raise DerivativeMismatch(f"{self.name or 'f'}: hess_x[:,{k}] mismatch")

        if self.m and self.grad_a is not None:
            ga = np.asarray(self.grad_a(a2, x2), dtype=float).reshape(n, self.m)
            for k in range(self.m):
                h = 1e-5 * (1.0 + np.abs(a2[:, k]))
                ap, am = a2.copy(), a2.copy()
                ap[:, k] += h
                am[:, k] -= h
                num = (
                    np.asarray(self.value(ap, x2), dtype=float)
                    - np.asarray(self.value(am, x2), dtype=float)
                ) / (2 * h)
                if not np.all(np.abs(ga[:, k] - num) <= _GRAD_RTOL * (1.0 + np.abs(ga[:, k]))):
                    raise DerivativeMismatch(f"{self.name or 'f'}: grad_a[{k}] mismatch")


# ---------------------------------------------------------------------------
# Built-ins
# ---------------------------------------------------------------------------


def polynomial(coeffs) -> C12Function:
    """f(x) = sum c_k x^k for scalar x."""
    c = np.asarray(coeffs, dtype=float)
    d1 = np.polynomial.polynomial.polyder(c) if c.size > 1 else np.zeros(1)
    d2 = np.polynomial.polynomial.polyder(c, 2) if c.size > 2 else np.zeros(1)
    pv = np.polynomial.polynomial.polyval
    return C12Function(
        m=0,
        d=1,
        value=lambda a, x: pv(x[:, 0], c),
        grad_x=lambda a, x: pv(x[:, 0], d1)[:, None],
        hess_x=lambda a, x: pv(x[:, 0], d2)[:, None, None],
        name=f"polynomial({list(map(float, c))})",
    )


def square() -> C12Function:
    return polynomial([0.0, 0.0, 1.0])


def identity_fn() -> C12Function:
    return polynomial([0.0, 1.0])


def exp_affine(c=(1.0,), b=()) -> C12Function:
    """f(a, x) = exp(<c, x> + <b, a>)."""
    cv = np.atleast_1d(np.asarray(c, dtype=float))
    bv = np.atleast_1d(np.asarray(b, dtype=float)) if len(np.atleast_1d(b)) else np.zeros(0)

    def val(a, x):
        s = x @ cv
        if bv.size:
            s = s + a @ bv
        return np.exp(s)

    return C12Function(
        m=bv.size,
        d=cv.size,
        value=val,
        grad_x=lambda a, x: val(a, x)[:, None] * cv[None, :],
        hess_x=lambda a, x: val(a, x)[:, None, None] * np.outer(cv, cv)[None, :, :],
        grad_a=(lambda a, x: val(a, x)[:, None] * bv[None, :]) if bv.size else None,
        name="exp-affine",
    )


def log_fn() -> C12Function:
    """f(x) = log x on x > 0."""
    return C12Function(
        m=0,
        d=1,
        value=lambda a, x: np.log(x[:, 0]),
        grad_x=lambda a, x: (1.0 / x[:, 0])[:, None],
        hess_x=lambda a, x: (-1.0 / x[:, 0] ** 2)[:, None, None],
        in_domain=lambda a, x: x[:, 0] > 0.0,
        name="log",
    )


def product2() -> C12Function:
    """f(x1, x2) = x1 * x2 for a two-dimensional QV argument."""

    def hess(a, x):
        n = x.shape[0]
        h = np.zeros((n, 2, 2))
        h[:, 0, 1] = h[:, 1, 0] = 1.0
        return h

    return C12Function(
        m=0,
        d=2,
        value=lambda a, x: x[:, 0] * x[:, 1],
        grad_x=lambda a, x: x[:, ::-1].copy(),
        hess_x=hess,
        name="product",
    )


def power_fn(p: float) -> C12Function:
    """f(x) = x^p on x > 0."""
    return C12Function(
        m=0,
        d=1,
        value=lambda a, x: x[:, 0] ** p,
        grad_x=lambda a, x: (p * x[:, 0] ** (p - 1))[:, None],
        hess_x=lambda a, x: (p * (p - 1) * x[:, 0] ** (p - 2))[:, None, None],
        in_domain=lambda a, x: x[:, 0] > 0.0,
        name=f"power({p})",
    )


def fv_scale() -> C12Function:
    """f(a, x) = a * x: the bilinear pairing of one FV and one QV component."""
    return C12Function(
        m=1,
        d=1,
        value=lambda a, x: a[:, 0] * x[:, 0],
        grad_x=lambda a, x: a[:, 0][:, None],
        hess_x=lambda a, x: np.zeros((x.shape[0], 1, 1)),
        grad_a=lambda a, x: x[:, 0][:, None],
        name="fv-scale",
    )


_BUILTINS = {
    "polynomial": lambda **kw: polynomial(kw["coeffs"]),
    "square": lambda **kw: square(),
    "identity": lambda **kw: identity_fn(),
    "exp-affine": lambda **kw: exp_affine(kw.get("c", (1.0,)), kw.get("b", ())),
    "exp": lambda **kw: exp_affine((1.0,), ()),
    "log": lambda **kw: log_fn(),
    "product": lambda **kw: product2(),
    "power": lambda **kw: power_fn(kw["p"]),
    "fv-scale": lambda **kw: fv_scale(),
}


def builtin_c12(name: str, **params) -> C12Function:
    try:
        make = _BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown built-in function {name!r}") from None
    return make(**params)
