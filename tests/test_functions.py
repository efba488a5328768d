import numpy as np
import pytest

import follmer.functions as fn


def sample_points(lo=-2.0, hi=2.0, n=40, m=0, d=1):
    rng = np.random.default_rng(0)
    a = rng.uniform(lo, hi, size=(n, m))
    x = rng.uniform(lo, hi, size=(n, d))
    return a, x


class TestBuiltins:
    def test_polynomial_derivatives(self):
        f = fn.polynomial([1.0, -2.0, 0.5, 3.0])
        a, x = sample_points()
        f.validate(a, x)
        assert f(a, x) == pytest.approx(1 - 2 * x[:, 0] + 0.5 * x[:, 0] ** 2 + 3 * x[:, 0] ** 3)

    def test_exp_affine_with_fv_argument(self):
        f = fn.exp_affine(c=(0.5, -1.0), b=(2.0,))
        a, x = sample_points(m=1, d=2)
        f.validate(a, x)
        expect = np.exp(0.5 * x[:, 0] - x[:, 1] + 2.0 * a[:, 0])
        assert np.allclose(f(a, x), expect)

    def test_log_domain(self):
        f = fn.log_fn()
        a, x = sample_points(0.1, 3.0)
        f.validate(a, x)
        assert not f.domain_ok(np.zeros((1, 0)), np.array([[-1.0]]))[0]

    def test_product_hessian(self):
        f = fn.product2()
        a, x = sample_points(d=2)
        f.validate(a, x)
        h = np.asarray(f.hess_x(a, x))
        assert np.all(h[:, 0, 1] == 1.0) and np.all(h[:, 0, 0] == 0.0)

    def test_power(self):
        f = fn.power_fn(1.7)
        a, x = sample_points(0.2, 3.0)
        f.validate(a, x)

    def test_fv_scale(self):
        f = fn.fv_scale()
        a, x = sample_points(m=1)
        f.validate(a, x)
        assert np.allclose(f(a, x), a[:, 0] * x[:, 0])

    def test_registry(self):
        f = fn.builtin_c12("power", p=2.0)
        assert f.d == 1
        with pytest.raises(KeyError):
            fn.builtin_c12("no-such-function")


def test_wrong_gradient_detected():
    bad = fn.C12Function(
        m=0,
        d=1,
        value=lambda a, x: x[:, 0] ** 2,
        grad_x=lambda a, x: (3.0 * x[:, 0])[:, None],  # wrong slope
        hess_x=lambda a, x: np.full((x.shape[0], 1, 1), 2.0),
    )
    a, x = sample_points()
    with pytest.raises(fn.DerivativeMismatch):
        bad.validate(a, x)


def test_asymmetric_hessian_detected():
    def hess(a, x):
        h = np.zeros((x.shape[0], 2, 2))
        h[:, 0, 1] = 1.0
        return h

    bad = fn.C12Function(
        m=0,
        d=2,
        value=lambda a, x: x[:, 0] * x[:, 1],
        grad_x=lambda a, x: x[:, ::-1].copy(),
        hess_x=hess,
    )
    a, x = sample_points(d=2)
    with pytest.raises(fn.DerivativeMismatch):
        bad.validate(a, x)
