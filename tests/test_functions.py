import numpy as np
import pytest

import follmer.functions as fn


def sample_points(lo=-2.0, hi=2.0, n=40, fv=False):
    """n sample points (a, x); a is zero for a function of x alone."""
    rng = np.random.default_rng(0)
    a = rng.uniform(lo, hi, size=n) if fv else np.zeros(n)
    x = rng.uniform(lo, hi, size=n)
    return a, x


class TestBuiltins:
    def test_polynomial_derivatives(self):
        f = fn.polynomial([1.0, -2.0, 0.5, 3.0])
        a, x = sample_points()
        f.validate(a, x)
        assert f(a, x) == pytest.approx(1 - 2 * x + 0.5 * x**2 + 3 * x**3)

    def test_exp_affine_with_fv_argument(self):
        f = fn.exp_affine(c=0.5, b=2.0)
        a, x = sample_points(fv=True)
        f.validate(a, x)
        assert np.allclose(f(a, x), np.exp(0.5 * x + 2.0 * a))
        assert fn.exp_affine(c=0.5).grad_a is None

    def test_log_domain(self):
        f = fn.log_fn()
        a, x = sample_points(0.1, 3.0)
        f.validate(a, x)
        assert not f.domain_ok(np.zeros(1), np.array([-1.0]))[0]

    def test_power(self):
        f = fn.power_fn(1.7)
        a, x = sample_points(0.2, 3.0)
        f.validate(a, x)

    def test_fv_scale(self):
        f = fn.fv_scale()
        a, x = sample_points(fv=True)
        f.validate(a, x)
        assert np.allclose(f(a, x), a * x)

    def test_registry(self):
        f = fn.BUILTINS["power"](p=2.0)
        assert f.grad_a is None

    def test_exp_takes_no_parameters(self):
        assert fn.BUILTINS["exp"]().name == "exp-affine"
        with pytest.raises(TypeError):
            fn.BUILTINS["exp"](c=2.0)

    @pytest.mark.parametrize("c", [0.5, [0.5]])
    def test_exp_affine_takes_a_number_or_a_one_element_list(self, c):
        f = fn.BUILTINS["exp-affine"](c=c, b=c)
        a, x = sample_points(fv=True)
        assert np.array_equal(f(a, x), fn.exp_affine(0.5, 0.5)(a, x))

    @pytest.mark.parametrize("params", [{"c": [0.5, -1.0]}, {"b": [2.0, 1.0]}, {"c": []}, {"c": "0.5"}, {"b": True}])
    def test_exp_affine_rejects_vectors(self, params):
        with pytest.raises(TypeError, match=f"^{next(iter(params))} must be a number or a one-element list"):
            fn.BUILTINS["exp-affine"](**params)


_DERIVATIVES = {  # f(a, x) = x^2 + a x
    "value": lambda a, x: x**2 + a * x,
    "grad_x": lambda a, x: 2.0 * x + a,
    "hess_x": lambda a, x: np.full_like(x, 2.0),
    "grad_a": lambda a, x: x,
}


def test_wrong_gradient_detected():
    bad = fn.C12Function(**{**_DERIVATIVES, "grad_x": lambda a, x: 3.0 * x})  # wrong slope
    a, x = sample_points(fv=True)
    with pytest.raises(fn.DerivativeMismatch, match="grad_x"):
        bad.validate(a, x)


@pytest.mark.parametrize(
    "name, wrong",
    [("hess_x", lambda a, x: np.full_like(x, 3.0)), ("grad_a", lambda a, x: 2.0 * x)],
)
def test_wrong_second_derivative_or_fv_gradient_detected(name, wrong):
    bad = fn.C12Function(**{**_DERIVATIVES, name: wrong})
    a, x = sample_points(fv=True)
    with pytest.raises(fn.DerivativeMismatch, match=name):
        bad.validate(a, x)
