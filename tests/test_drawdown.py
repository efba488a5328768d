import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

import follmer as fl
from follmer.drawdown import _MAX_NODES, _NODES_PER_UNIT, _CumulativeExponent, _hermite, _pchip_slopes


def affine_u(alpha: float, beta: float) -> fl.MonotoneC2Function:
    """U(y) = alpha y + beta on [0, infinity)."""
    return fl.MonotoneC2Function(
        value=lambda y: alpha * y + beta,
        d1=lambda y, fy: np.full_like(y, alpha),
        domain_start=0.0,
    )


def compose_u(outer: fl.MonotoneC2Function, inner: fl.MonotoneC2Function) -> fl.MonotoneC2Function:
    """outer(inner(y)) with chain-rule derivatives."""
    return fl.MonotoneC2Function(
        value=lambda y: outer(inner(y)),
        d1=lambda y, fy: outer.deriv(inner(y), fy) * inner.deriv(y),
        domain_start=inner.domain_start,
    )


def assert_derivative_matches(u: fl.MonotoneC2Function, samples: np.ndarray) -> None:
    """u's derivative against central differences, at the samples a step
    inside the domain."""
    s = np.asarray(samples, dtype=float)
    h = 1e-5 * (1.0 + np.abs(s))
    inside = s - h > u.domain_start
    s, h = s[inside], h[inside]
    num = (u(s + h) - u(s - h)) / (2 * h)
    assert np.all(np.abs(u.deriv(s) - num) <= 1e-5 * (1.0 + np.abs(num))), "u' is off its central differences"


def max_identity_gap(u: fl.MonotoneC2Function, x: fl.GridPath) -> tuple[float, bool]:
    """sup |max M^U(X) - U(max X)| and whether max M^U(X) is continuous."""
    mbar, cont = fl.running_maximum(fl.azema_yor_path(u, x).path)
    xbar, _ = fl.running_maximum(x)
    return float(np.max(np.abs(mbar.x - u(xbar.x)))), cont


def azema_yor_residuals(u: fl.MonotoneC2Function, x: fl.GridPath, seq, tol=fl.DETERMINISTIC_TOL) -> fl.TrendReport:
    """Oracle: per-level |M^U_T(X) - U(X_0) - int_0^T U'(Xbar) dX| at the
    horizon, the integral a left Riemann sum added pairwise by ``np.sum``."""
    rep = fl.azema_yor_path(u, x)
    excess = rep.path.x[-1] - float(u(x.x[:1])[0])
    integrals = [np.sum(rep.integrand[p.indices[:-1]] * np.diff(x.x[p.indices])) for p in seq]
    return fl.TrendReport([abs(excess - i) for i in integrals], tol)


def composition_gap(u: fl.MonotoneC2Function, f: fl.MonotoneC2Function, x: fl.GridPath) -> float:
    """sup |M^U(M^F(X)) - M^{U o F}(X)|."""
    lhs = fl.azema_yor_path(u, fl.azema_yor_path(f, x).path).path
    rhs = fl.azema_yor_path(compose_u(u, f), x).path
    return float(np.max(np.abs(lhs.x - rhs.x)))


@pytest.fixture(scope="module")
def positive_sample():
    seq = fl.dyadic_sequence(1.0, 6, 12)
    w = fl.DyadicBrownianGenerator(seed=11, sigma=0.3).generate(seq.grid)
    s = fl.GridPath(seq.grid, 2.0 * np.exp(w.x))
    return seq, s


class TestAzemaYor:
    def test_identity_reproduces_path(self, positive_sample):
        seq, s = positive_sample
        rep = fl.azema_yor_path(affine_u(1.0, 0.0), s)
        assert np.array_equal(rep.path.x, s.x)
        assert azema_yor_residuals(affine_u(1.0, 0.0), s, seq).final_gap == pytest.approx(0.0, abs=1e-12)

    def test_affine_exact(self, positive_sample):
        _, s = positive_sample
        rep = fl.azema_yor_path(affine_u(2.0, 1.0), s)
        assert np.allclose(rep.path.x, 2.0 * s.x + 1.0, rtol=1e-14)

    def test_square_formula_and_residual(self, positive_sample):
        seq, s = positive_sample
        u = fl.MonotoneC2Function(
            value=lambda y: y**2,
            d1=lambda y, fy: 2.0 * y,
            domain_start=0.0,
        )
        rep = fl.azema_yor_path(u, s)
        sbar, _ = fl.running_maximum(s)
        expect = 2.0 * sbar.x * s.x - sbar.x**2
        assert np.allclose(rep.path.x, expect, rtol=1e-13)
        assert azema_yor_residuals(u, s, seq, tol=fl.STOCHASTIC_TOL).converged

    def test_discontinuous_max_rejected(self):
        seq = fl.dyadic_sequence(1.0, 2, 6)
        x = fl.StepGenerator(c=1.0, t0=0.5, x0=1.0).generate(seq.grid)
        with pytest.raises(ValueError):
            fl.azema_yor_path(affine_u(1.0, 0.0), x)

    def test_jump_law_of_azema_yor_path(self):
        # a downward jump keeps the maximum continuous; dM = U'(max) dX
        seq = fl.dyadic_sequence(1.0, 3, 9)
        base = fl.DyadicBrownianGenerator(seed=6, sigma=0.2, x0=3.0).generate(seq.grid)
        x = fl.add_paths(base, fl.StepGenerator(c=-0.5, t0=0.5).generate(seq.grid))
        u = affine_u(3.0, -1.0)
        rep = fl.azema_yor_path(u, x)
        i = seq.grid.index_of(0.5)
        assert rep.path.dX[i] == pytest.approx(3.0 * (-0.5), rel=1e-14)


class TestMaxIdentity:
    def test_identity(self, positive_sample):
        _, s = positive_sample
        gap, cont = max_identity_gap(affine_u(1.0, 0.0), s)
        assert gap == 0.0
        assert cont

    def test_affine_composition_exact(self, positive_sample):
        _, s = positive_sample
        assert max_identity_gap(affine_u(2.0, 1.0), s)[0] == 0.0
        assert composition_gap(affine_u(2.0, 1.0), affine_u(1.5, 0.2), s) == pytest.approx(0.0, abs=1e-12)

    def test_power_log_pair(self, positive_sample):
        _, s = positive_sample
        power = fl.MonotoneC2Function(
            value=lambda y: y**1.5,
            d1=lambda y, fy: 1.5 * y**0.5,
            domain_start=0.0,
        )
        logu = fl.MonotoneC2Function(value=np.log, d1=lambda y, fy: 1.0 / y, domain_start=0.1)
        assert max_identity_gap(logu, s)[0] <= 1e-12
        assert composition_gap(logu, power, s) <= 1e-10


class TestFloorTransforms:
    def test_zero_floor_closed_form(self):
        tr = fl.floor_to_transform(fl.floor_zero(2.0), a=2.0)
        ys = np.linspace(2.0, 7.0, 101)
        assert np.allclose(tr.V(ys), ys, rtol=1e-11)
        assert np.allclose(tr.U(ys), ys, rtol=1e-11)

    def test_proportional_closed_form(self):
        alpha = 0.3
        a, a_star = 2.0, 1.5
        tr = fl.floor_to_transform(fl.floor_proportional(alpha, a_star), a=a)
        ys = np.linspace(a_star, 6.0, 101)
        expect = a * (ys / a_star) ** (1.0 / (1.0 - alpha))
        assert np.allclose(tr.V(ys), expect, rtol=1e-10)
        xs = tr.V(ys)
        assert np.allclose(tr.U(xs), a_star * (xs / a) ** (1.0 - alpha), rtol=1e-10)

    def test_unit_margin_closed_form(self):
        a, a_star = 2.0, 1.0
        tr = fl.floor_to_transform(fl.floor_constant_margin(1.0, a_star), a=a)
        ys = np.linspace(a_star, 5.0, 101)
        assert np.allclose(tr.V(ys), a * np.exp(ys - a_star), rtol=1e-11)
        xs = tr.V(ys)
        assert np.allclose(tr.U(xs), a_star + np.log(xs / a), rtol=1e-11)

    def test_round_trip_tolerance(self):
        tr = fl.floor_to_transform(fl.floor_proportional(0.5, 1.0), a=1.0)
        ys = np.linspace(1.0, 8.0, 1000)
        assert np.max(np.abs(tr.U(tr.V(ys)) - ys)) <= 1e-9 * (1.0 + np.max(np.abs(ys)))

    def test_vanishing_margin_rejected(self):
        bad = fl.FloorFunction(w=lambda y: y, a_star=1.0)
        with pytest.raises(ValueError):
            fl.floor_to_transform(bad, a=1.0)

    def test_non_finite_transform_rejected(self):
        # nodes about 1e-303 apart overflow the Hermite coefficients, so V
        # and U would be NaN everywhere; the round trip check must see it
        with pytest.raises(fl.DomainError, match=r"^floor\.a_star = 1e-300: the transform with a = 2 is not finite"):
            fl.floor_to_transform(fl.floor_zero(1e-300), a=2.0)

    def test_derivatives_consistent(self):
        tr = fl.floor_to_transform(fl.floor_proportional(0.4, 1.0), a=2.0)
        assert_derivative_matches(tr.V, np.linspace(1.1, 5.0, 50))
        assert_derivative_matches(tr.U, np.linspace(tr.V(np.array([1.1]))[0], tr.V(np.array([5.0]))[0], 50))

    def test_table_floor(self):
        ys = np.linspace(1.0, 6.0, 30)
        w = fl.floor_from_table(ys, 0.25 * ys, 1.0)
        tr = fl.floor_to_transform(w, a=2.0)
        samples = np.linspace(1.0, 5.0, 60)
        expect = 2.0 * (samples / 1.0) ** (1.0 / 0.75)
        assert np.allclose(tr.V(samples), expect, rtol=1e-6)


class TestSolveDrawdown:
    def test_zero_floor_identity(self, positive_sample):
        seq, s = positive_sample
        floor = fl.floor_zero(a_star=float(s.x[0]))
        rep = fl.solve_drawdown(floor, s, seq, tol=fl.STOCHASTIC_TOL)
        assert np.allclose(rep.y.x, s.x, rtol=1e-11)
        assert rep.constraint_margin > 0.0

    def test_proportional_floor(self, positive_sample):
        seq, s = positive_sample
        floor = fl.floor_proportional(0.3, a_star=float(s.x[0]))
        rep = fl.solve_drawdown(floor, s, seq, tol=fl.STOCHASTIC_TOL)
        assert rep.constraint_margin > 0.0
        assert rep.trend.converged
        ybar, _ = fl.running_maximum(rep.y)
        lv = fl.left_values(rep.y)
        assert np.array_equal(rep.w_ybar, floor(np.maximum.accumulate(rep.y.x)))
        assert np.min(np.minimum(rep.y.x, lv) - floor(ybar.x)) > 0.0

    def test_round_trip_inverse_direction(self, positive_sample):
        seq, s = positive_sample
        floor = fl.floor_constant_margin(1.0, a_star=float(s.x[0]))
        rep = fl.solve_drawdown(floor, s, seq, tol=fl.STOCHASTIC_TOL)
        back = fl.azema_yor_path(rep.transform.V, rep.y).path
        assert np.max(np.abs(back.x - s.x)) <= 1e-6

    def test_nonpositive_path_rejected(self):
        seq = fl.dyadic_sequence(1.0, 2, 6)
        x = fl.FormulaGenerator(lambda t: t - 0.5).generate(seq.grid)
        with pytest.raises(ValueError):
            fl.solve_drawdown(fl.floor_zero(0.1), x, seq)


def test_max_increment_identity_tends_to_zero(positive_sample):
    # sum (max - X) d(max) over grid increments vanishes with refinement
    # when the running maximum is continuous
    seq, s = positive_sample
    sbar, cont = fl.running_maximum(s)
    assert cont
    vals = []
    for p in seq:
        idx = p.indices
        m = sbar.x[idx]
        vals.append(float(np.sum((m[:-1] - s.x[idx[:-1]]) * np.diff(m))))
    assert abs(vals[-1]) < abs(vals[0]) + 1e-12
    assert abs(vals[-1]) < 5e-3


# Tables for the PCHIP oracle: rising, flat pieces, local extrema (zero
# slopes), two points (linear), uneven spacing and a clipped end slope.
PCHIP_TABLES = {
    "rising": ([1.0, 1.5, 2.5, 3.0, 4.5, 6.0], [0.1, 0.2, 0.9, 1.0, 2.0, 2.2]),
    "flat": ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 1.0, 1.0, 1.0, 2.0, 2.0]),
    "extrema": ([0.0, 0.3, 1.0, 1.1, 2.0, 3.5, 4.0], [0.0, 2.0, -1.0, 0.5, 0.5, -2.0, 3.0]),
    "two-points": ([1.0, 3.0], [0.5, 1.5]),
    "uneven": ([0.0, 1e-3, 0.5, 0.501, 7.0], [1.0, 1.01, -0.3, 4.0, 4.5]),
    "three-points-peak": ([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]),
    # the one-sided end slope (3 + 5) / 2 = 4 is clipped to 3 * secant = 3
    "end-clip": ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, -4.0, -4.5]),
}


def _pchip_points(ys):
    ys = np.asarray(ys)
    mids = 0.5 * (ys[1:] + ys[:-1])
    beyond = [ys[0] - 2.0, ys[0] - 1e-9, ys[-1] + 1e-9, ys[-1] + 3.0]
    return np.concatenate([ys, mids, np.linspace(ys[0], ys[-1], 97), beyond])


class TestScipyOracles:
    """The numpy interpolants and quadrature against scipy, the reference."""

    @pytest.mark.parametrize("name", sorted(PCHIP_TABLES))
    def test_table_floor_matches_pchip(self, name):
        ys, ws = PCHIP_TABLES[name]
        w = fl.floor_from_table(ys, ws, ys[0])
        ref = PchipInterpolator(ys, ws, extrapolate=True)
        y = _pchip_points(ys)
        np.testing.assert_allclose(w(y), ref(y), rtol=1e-14, atol=1e-14)

    def test_zero_slopes_at_extrema_and_flat_pieces(self):
        ys, ws = map(np.asarray, PCHIP_TABLES["extrema"])
        assert np.all(_pchip_slopes(ys, ws)[1:-1] == 0.0)
        ys, ws = map(np.asarray, PCHIP_TABLES["flat"])
        assert np.all(_pchip_slopes(ys, ws)[1:] == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_hermite_matches_cubic_hermite_spline(self, seed):
        rng = np.random.default_rng(seed)
        xs = np.cumsum(rng.uniform(0.01, 1.0, 12))
        ys, slopes = rng.normal(size=12), rng.normal(size=12)
        ref = CubicHermiteSpline(xs, ys, slopes)
        y = np.concatenate([xs, np.linspace(xs[0] - 1.0, xs[-1] + 1.0, 301)])
        np.testing.assert_allclose(_hermite(xs, ys, slopes, y), ref(y), rtol=1e-14, atol=1e-13)

    @pytest.mark.parametrize(
        "ys, ws",
        [([1.0], [0.0]), ([1.0, 1.0, 2.0], [0.0, 0.1, 0.2]), ([1.0, np.nan], [0.0, 0.1]), ([1.0, 2.0], [0.0])],
    )
    def test_bad_table_rejected(self, ys, ws):
        with pytest.raises(ValueError):
            fl.floor_from_table(ys, ws, 1.0)

    @pytest.mark.parametrize(
        "floor",
        [
            fl.floor_zero(2.0),
            fl.floor_zero(0.01),
            fl.floor_proportional(0.3, 1.5),
            fl.floor_constant_margin(0.25, 1.0),
            # knots at 1 + 0.3k + 0.1/256, off the lattice's nodes
            fl.floor_from_table(1.0 + 0.3 * np.arange(15) + 0.1 / 256, 0.2 + 0.12 * np.arange(15) ** 0.8, 1.0),
            # flat pieces: the margin's slope jumps at every knot
            fl.floor_from_table([0.5, 1.3, 2.2, 2.9, 5.0], [0.0, 0.4, 0.4, 0.4, 1.5], 0.5),
        ],
        ids=["zero", "zero-small-a-star", "proportional", "constant-margin", "table", "table-flat"],
    )
    def test_node_values_match_quad(self, floor):
        # the lattice as V leaves it after reaching past every knot
        exponent = _CumulativeExponent(floor)
        exponent(np.array([floor.a_star + 4.0]))
        nodes, vals, knots = exponent._nodes, exponent._vals, np.asarray(floor.knots)
        assert nodes[-1] > floor.a_star + 4.0
        # no interval adds more than twice the lattice's step in I
        assert np.max(np.diff(vals)) <= 2.0 / _NODES_PER_UNIT

        def piece(a, b):
            inside = knots[(knots > a) & (knots < b)]
            return quad(lambda s: 1.0 / float(floor.margin(s)), a, b, points=inside if inside.size else None,
                        epsabs=1e-15, epsrel=1e-13, limit=200)[0]

        ref = np.cumsum([0.0] + [piece(a, b) for a, b in zip(nodes[:-1], nodes[1:])])
        np.testing.assert_allclose(vals, ref, rtol=1e-13, atol=1e-15)

    def test_invert_stops_at_its_span(self):
        # the span is a budget of 32 x 1024 nodes, whatever a_star
        tr = fl.floor_to_transform(fl.floor_zero(2.0), a=2.0)
        np.testing.assert_allclose(tr.U(2.0 * np.exp([20.0])), 2.0 * np.exp(20.0), rtol=1e-10)
        with pytest.raises(
            ValueError,
            match=rf"a_star = 2 reaches only I = 2\d\.\d+ at y = [\d.e+]+ within its budget of {_MAX_NODES} nodes, "
            r"short of I = 40$",
        ):
            tr.U(2.0 * np.exp([40.0]))

    def test_invert_stops_relative_to_a_star(self):
        # the zero floor's lattice at a_star is a_star times the one at 1, up
        # to rounding, so the budget stops it at the same I at every scale
        reach = []
        for a_star in (1e-5, 1.0, 3000.0):
            exponent = _CumulativeExponent(fl.floor_zero(a_star))
            with pytest.raises(ValueError, match="within its budget") as info:
                exponent.invert(np.array([40.0]))
            assert exponent._nodes.size == _MAX_NODES + 1
            reach.append(exponent._vals[-1])
            assert str(info.value).startswith(f"the drawdown exponent from a_star = {a_star:.6g} reaches only I = ")
        np.testing.assert_allclose(reach, reach[0], rtol=1e-12)
        assert 25.0 < reach[0] < 32.0

    @pytest.mark.parametrize("rise", [1.0004, 1.1, 2.0])
    def test_invert_follows_a_rise_at_a_large_price_scale(self, rise):
        a_star = 3000.0
        tr = fl.floor_to_transform(fl.floor_zero(a_star), a=a_star)
        xs = a_star * np.linspace(1.0, rise, 50)
        np.testing.assert_allclose(tr.U(xs), xs, rtol=1e-11)
        np.testing.assert_allclose(tr.V(tr.U(xs)), xs, rtol=1e-11)

    def test_margin_vanishing_between_nodes_rejected(self):
        # a unit margin with a dip below zero within 1e-4 of 1.5 + 2^-11,
        # midway between the lattice nodes 1.5 and about 1.5 + 2^-10; the
        # nodes miss it, the quadrature points see it
        def w(y):
            y = np.asarray(y, dtype=float)
            return y - 1.0 + 2.0 * np.exp(-(((y - 1.5 - 2.0**-11) / 2.0**-13) ** 2))

        bad = fl.FloorFunction(w=w, a_star=1.0)
        with pytest.raises(ValueError, match=r"not positive near y = 1\.500"):
            fl.floor_to_transform(bad, a=1.0)


class TestLattice:
    """The exponent's lattice depends on the floor alone, not on the price
    scale or on the calls made before."""

    def test_v_and_u_are_independent_of_earlier_calls(self):
        ys = np.linspace(3.0, 10.1234, 1001)
        xs = np.linspace(3.0, 30.0, 1001)
        fresh = fl.floor_to_transform(fl.floor_zero(2.0), a=2.0)
        v, u = fresh.V(ys), fresh.U(xs)
        grown = fl.floor_to_transform(fl.floor_zero(2.0), a=2.0)
        grown.U(np.array([40.0]))
        grown.V(np.array([500.0]))
        assert np.array_equal(grown.V(ys), v)
        assert np.array_equal(grown.U(xs), u)

    @pytest.mark.parametrize("rise", [2.0, 1024.0])
    def test_a_rise_builds_the_same_nodes_at_every_scale(self, rise):
        counts = []
        for a_star in (1.0, 3000.0):
            exponent = _CumulativeExponent(fl.floor_zero(a_star))
            exponent.invert(np.log(np.array([rise])))
            counts.append(exponent._nodes.size)
        assert counts[0] == counts[1] <= (1.0 + 1.2 * np.log(rise)) * _NODES_PER_UNIT + 1

    @pytest.mark.parametrize("a_star", [1e-5, 1e-3, 1.0, 3000.0])
    @pytest.mark.parametrize("name", ["zero", "proportional", "constant-margin"])
    def test_closed_forms_at_every_scale(self, name, a_star):
        a = 1.7 * a_star
        x = a * np.geomspace(1.0, 1024.0, 1001)
        floor, u = {
            "zero": (fl.floor_zero(a_star), a_star * x / a),
            "proportional": (fl.floor_proportional(0.3, a_star), a_star * (x / a) ** 0.7),
            "constant-margin": (fl.floor_constant_margin(0.25 * a_star, a_star), a_star + 0.25 * a_star * np.log(x / a)),
        }[name]
        tr = fl.floor_to_transform(floor, a)
        np.testing.assert_allclose(tr.U(x), u, rtol=1e-10)
        np.testing.assert_allclose(tr.V(tr.U(x)), x, rtol=1e-10)
        np.testing.assert_allclose(tr.V(u), x, rtol=1e-10)

    def test_lattice_stops_short_of_a_vanishing_margin(self):
        # the margin (y - c)^2 - 2^-22 vanishes at r = c - 2^-11: I diverges
        # there, so U stays below r and the lattice never reaches y = 2
        c = 1.5 + 1.0 / 512
        r = c - 2.0**-11
        bad = fl.FloorFunction(w=lambda y: y - (y - c) ** 2 + 2.0**-22, a_star=1.0)
        tr = fl.floor_to_transform(bad, a=1.0)
        u = tr.U(np.array([2.0, 1e3]))
        assert np.all(np.diff(u) > 0.0) and u[-1] < r
        with pytest.raises(ValueError, match=rf"within its budget of {_MAX_NODES} nodes, short of y = 2$"):
            tr.V(np.array([2.0]))
