import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import follmer as fl
from follmer.finance import Market, read_market_csv
from follmer.paths import csv_array, dyadic_level, read_path_csv, reciprocal_path, write_csv_columns, write_path_csv
from follmer.stieltjes import running_sum


def _dense(jmap: dict, n: int) -> np.ndarray:
    """The length-n jump array of a {grid index: size} map."""
    dX = np.zeros(n)
    dX[list(jmap)] = list(jmap.values())
    return dX


def test_grid_invariants():
    with pytest.raises(ValueError):
        fl.TimeGrid(np.array([0.1, 0.5, 1.0]))  # must start at 0
    with pytest.raises(ValueError):
        fl.TimeGrid(np.array([0.0, 0.5, 0.5]))  # strictly increasing
    with pytest.raises(ValueError):
        fl.TimeGrid(np.array([0.0]))  # length >= 2
    g = fl.dyadic_grid(1.0, 3)
    assert g.T == 1.0 and len(g) == 9
    assert g.index_of(0.375) == 3
    with pytest.raises(KeyError):
        g.index_of(0.3)  # membership is exact, never fuzzy


def test_dyadic_grid_is_shared_per_T_and_level():
    g = fl.dyadic_grid(2.0, 5)
    assert fl.dyadic_grid(2.0, 5) is g and fl.dyadic_grid(2, np.int64(5)) is g
    assert fl.dyadic_grid(2.0, 6) is not g and fl.dyadic_grid(1.0, 5) is not g
    assert g.text is g.text


def test_shared_grid_times_and_text_are_read_only():
    g = fl.dyadic_grid(1.0, 4)
    with pytest.raises(ValueError):
        g.times[1] = 0.5
    with pytest.raises(ValueError):
        g.times.setflags(write=True)
    with pytest.raises(ValueError):
        g.text[0, 0] = ord("1")


def test_grids_compare_by_identity_and_same_grid_by_times():
    g = fl.dyadic_grid(1.0, 3)
    copy = fl.TimeGrid(g.times.copy())
    assert g == g and g != copy and len({g, copy, g}) == 2  # neither raises
    assert fl.same_grid(g, g) and fl.same_grid(g, copy)
    assert not fl.same_grid(g, fl.dyadic_grid(1.0, 4)) and not fl.same_grid(g, fl.dyadic_grid(2.0, 3))


def test_dyadic_level_is_the_level_of_the_dyadic_grid_or_a_domain_error():
    g = fl.dyadic_grid(2.0, 5)
    assert dyadic_level(g) == 5 and dyadic_level(g, 2.0) == 5
    assert dyadic_level(fl.TimeGrid(g.times.copy())) == 5  # equal times, another grid
    others = [(g, 1.0), (fl.TimeGrid(np.array([0.0, 0.3, 1.0])), None), (fl.TimeGrid(np.linspace(0.0, 1.0, 6)), None)]
    for grid, T in others:
        with pytest.raises(fl.DomainError, match=r"^grid is not the dyadic grid \{k T 2\^-\d+\} of T = "):
            dyadic_level(grid, T)


def test_jump_at_zero_forbidden():
    g = fl.dyadic_grid(1.0, 2)
    with pytest.raises(ValueError):
        fl.GridPath(g, np.zeros(5), _dense({0: 1.0}, 5))
    with pytest.raises(fl.DomainError, match="^jumps hold a jump at t=0"):
        fl.StepGenerator(c=1.0, t0=0.0).generate(g)
    # a zero entry is a continuity point, at t=0 too: a step of size 0 declares no jump
    assert not fl.StepGenerator(c=0.0, t0=0.0).generate(g).jumps


class TestLeftLimit:
    def test_step_path_pre_jump_value(self):
        g = fl.dyadic_grid(1.0, 4)
        x = fl.StepGenerator(c=2.0, t0=0.5).generate(g)
        i = g.index_of(0.5)
        assert fl.left_values(x)[i] == 0.0

    def test_origin_convention(self):
        g = fl.dyadic_grid(1.0, 3)
        x = fl.StepGenerator(c=1.5, t0=0.25).generate(g)
        assert fl.left_values(x)[0] == x.x[0]

    def test_continuous_path_left_limit_is_value(self):
        g = fl.dyadic_grid(1.0, 5)
        x = fl.FormulaGenerator(lambda t: np.sin(t)).generate(g)
        for i in (0, 7, 31):
            assert fl.left_values(x)[i] == x.x[i]

    def test_value_minus_left_limit_is_stored_jump(self):
        g = fl.dyadic_grid(1.0, 6)
        x = fl.add_paths(
            fl.DyadicBrownianGenerator(seed=2).generate(g),
            fl.CompoundJumpGenerator(seed=2, intensity=4.0).generate(g),
        )
        lv = fl.left_values(x)
        for i in range(len(g)):
            assert x.x[i] - lv[i] == x.dX[i]


class TestRunningMaximum:
    def test_increasing_path(self):
        g = fl.dyadic_grid(1.0, 4)
        x = fl.FormulaGenerator(lambda t: t).generate(g)
        m, cont = fl.running_maximum(x)
        assert cont and np.array_equal(m.x, x.x)

    def test_prefix_max(self):
        g = fl.TimeGrid(np.array([0.0, 1 / 3, 2 / 3, 1.0]))
        x = fl.GridPath(g, np.array([1.0, 0.5, 2.0, 1.5]))
        m, cont = fl.running_maximum(x)
        assert np.array_equal(m.x, [1.0, 1.0, 2.0, 2.0])
        assert cont  # no declared jumps at all

    def test_upward_jump_into_new_max_sets_flag(self):
        g = fl.dyadic_grid(1.0, 3)
        x = fl.StepGenerator(c=1.0, t0=0.5).generate(g)
        m, cont = fl.running_maximum(x)
        assert not cont
        assert g.index_of(0.5) in m.jumps

    def test_downward_jump_keeps_continuity(self):
        g = fl.dyadic_grid(1.0, 3)
        x = fl.StepGenerator(c=-1.0, t0=0.5, x0=2.0).generate(g)
        _, cont = fl.running_maximum(x)
        assert cont

    def test_idempotent(self):
        g = fl.dyadic_grid(1.0, 6)
        x = fl.DyadicBrownianGenerator(seed=5).generate(g)
        m, _ = fl.running_maximum(x)
        mm, _ = fl.running_maximum(m)
        assert np.array_equal(m.x, mm.x)


def test_fv_decomposition_exact():
    g = fl.dyadic_grid(1.0, 5)
    vals = np.sin(g.times).copy()
    i = g.index_of(0.5)
    vals[i:] += 0.7
    a = fl.FVPath(g, vals, _dense({i: 0.7}, len(g)))
    c = a.continuous()
    assert not c.jumps
    assert np.array_equal(c.x + a.jump_part, a.x)
    assert a.jump_part[i] == pytest.approx(0.7)


class TestGenerators:
    def test_step(self):
        g = fl.dyadic_grid(1.0, 4)
        x = fl.StepGenerator(c=2.0, t0=0.5).generate(g)
        i = g.index_of(0.5)
        assert x.jumps == {i: 2.0} and x.dX[i] == 2.0
        assert x.x[i - 1] == 0.0 and x.x[i] == 2.0

    def test_dyadic_brownian_refinement_consistency(self):
        fine = fl.DyadicBrownianGenerator(seed=7).generate(fl.dyadic_grid(1.0, 9))
        coarse = fl.DyadicBrownianGenerator(seed=7).generate(fl.dyadic_grid(1.0, 6))
        assert np.array_equal(fine.x[::8], coarse.x)

    @pytest.mark.parametrize("T", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_dyadic_brownian_equals_the_gathered_midpoint_formula(self, T, seed):
        # the midpoint refinement as index gathers, the form it had before
        # strided slices: every level must agree bitwise
        gen = fl.DyadicBrownianGenerator(seed=seed, sigma=1.3, x0=0.25)
        for L in range(0, 13):
            g = fl.dyadic_grid(T, L)
            w = np.zeros(len(g))
            w[-1] = np.sqrt(T) * gen._level_draws(0, 1)[0]
            for lev in range(1, L + 1):
                stride = 1 << (L - lev)
                mids = np.arange(stride, len(g), 2 * stride)
                z = gen._level_draws(lev, mids.size)
                w[mids] = 0.5 * (w[mids - stride] + w[mids + stride]) + np.sqrt(T / (1 << (lev + 1))) * z
            assert np.array_equal(gen.generate(g).x, 0.25 + 1.3 * w), f"level {L}"

    def test_same_seed_bit_identical(self):
        a = fl.DyadicBrownianGenerator(seed=42).generate(fl.dyadic_grid(1.0, 8))
        b = fl.DyadicBrownianGenerator(seed=42).generate(fl.dyadic_grid(1.0, 8))
        assert np.array_equal(a.x, b.x)

    def test_affine_combination_union_jumps(self):
        g = fl.dyadic_grid(1.0, 4)
        gen = fl.AffineCombinationGenerator(
            fl.StepGenerator(c=1.0, t0=0.25),
            fl.StepGenerator(c=2.0, t0=0.75),
            a=2.0,
            b=3.0,
        )
        x = gen.generate(g)
        assert x.dX[g.index_of(0.25)] == 2.0
        assert x.dX[g.index_of(0.75)] == 6.0

    def test_dyadic_generator_rejects_non_dyadic_grid(self):
        g = fl.TimeGrid(np.array([0.0, 0.3, 1.0]))
        with pytest.raises(ValueError):
            fl.DyadicBrownianGenerator(seed=1).generate(g)

    def test_geometric_positive_with_jumps(self):
        g = fl.dyadic_grid(1.0, 8)
        s = fl.GeometricGenerator(seed=3, jump_intensity=5.0, jump_size=0.3).generate(g)
        assert np.all(s.x > 0)
        assert np.all(fl.left_values(s) > 0)
        assert s.jumps

    @pytest.mark.parametrize("size", [1.0, -1.5, float("nan")])
    def test_geometric_rejects_a_jump_size_when_built(self, size):
        with pytest.raises(fl.DomainError, match="jump_size must stay below 1 in magnitude"):
            fl.GeometricGenerator(jump_size=size)

    def test_geometric_rejects_a_negative_jump_size_when_built(self):
        # the size bounds the uniform overlay's jumps, so -0.5 is not a size
        with pytest.raises(fl.DomainError, match=r"^jump_size must be nonnegative, got -0.5$"):
            fl.GeometricGenerator(jump_size=-0.5)
        assert fl.GeometricGenerator(jump_size=0.0).jump_size == 0.0

    @pytest.mark.parametrize("seed", [-1, 1.5, True, float("nan")])
    def test_a_seed_is_a_nonnegative_integer(self, seed):
        with pytest.raises(fl.DomainError, match=r"^seed must be a nonnegative integer, got "):
            fl.DyadicBrownianGenerator(seed=seed)
        grid = fl.dyadic_grid(1.0, 6)  # a whole float seeds like its integer
        a, b = fl.CompoundJumpGenerator(seed=3.0).generate(grid), fl.CompoundJumpGenerator(seed=3).generate(grid)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.dX, b.dX)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    level=st.integers(2, 6),
    c=st.floats(-3, 3, allow_nan=False).filter(lambda v: v != 0),
)
def test_running_max_monotone_and_dominates(seed, level, c):
    g = fl.dyadic_grid(1.0, level)
    x = fl.add_paths(
        fl.DyadicBrownianGenerator(seed=seed).generate(g),
        fl.StepGenerator(c=c, t0=0.5).generate(g),
    )
    m, _ = fl.running_maximum(x)
    assert np.all(np.diff(m.x) >= 0)
    assert np.all(m.x >= x.x - 1e-15)


def test_reciprocal_path_declares_jumps():
    g = fl.dyadic_grid(1.0, 4)
    s = fl.StepGenerator(c=1.0, t0=0.5, x0=1.0).generate(g)
    r = reciprocal_path(s)
    i = g.index_of(0.5)
    assert r.dX[i] == pytest.approx(0.5 - 1.0)
    assert type(r) is fl.GridPath


def test_reciprocal_path_of_fv_path_stays_fv():
    g = fl.dyadic_grid(1.0, 4)
    a = fl.as_fv(fl.StepGenerator(c=1.0, t0=0.5, x0=2.0).generate(g))
    r = reciprocal_path(a)
    assert isinstance(r, fl.FVPath)
    assert np.array_equal(r.x, 1.0 / a.x)
    assert np.array_equal(r.dX, reciprocal_path(fl.GridPath(g, a.x, a.dX)).dX)


def test_csv_round_trip():
    g = fl.dyadic_grid(1.0, 3)
    x = fl.StepGenerator(c=2.5, t0=0.5, x0=-1.0).generate(g)
    buf = io.StringIO()
    write_path_csv(x, buf)
    buf.seek(0)
    y = read_path_csv(buf)
    assert np.array_equal(x.x, y.x) and np.array_equal(x.dX, y.dX)
    assert set(x.jumps) == set(y.jumps)
    assert np.array_equal(x.grid.times, y.grid.times)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    jumps=st.lists(
        # jump sizes below one ulp of the values cannot round-trip floats
        st.tuples(
            st.integers(1, 31),
            st.floats(-2, 2, allow_nan=False).filter(lambda c: c == 0.0 or abs(c) > 1e-9),
        ),
        max_size=4,
        unique_by=lambda p: p[0],
    ),
)
def test_fv_decomposition_property(seed, jumps):
    g = fl.dyadic_grid(1.0, 5)
    vals = np.cumsum(np.random.default_rng(seed).uniform(-0.1, 0.1, len(g)))
    jmap = {}
    for i, c in jumps:
        if c != 0.0:
            vals[i:] += c
            jmap[i] = c
    a = fl.FVPath(g, vals, _dense(jmap, len(g)))
    assert not a.continuous().jumps
    assert np.allclose(a.continuous().x + a.jump_part, a.x, atol=1e-15)
    lv = fl.left_values(a)
    for i in range(len(g)):
        scale = max(1.0, abs(vals[i]))
        assert abs((vals[i] - lv[i]) - a.dX[i]) <= 4e-16 * scale


@pytest.mark.parametrize(
    "text",
    [
        "t,x1\n0.0,1.0\n1.0,2.0\n",  # no jump column
        "t,x1,x2,dx1,dx2\n0.0,1.0,1.0,0.0,0.0\n",  # paths are scalar
        "t,a,b\n0.0,1.0,0.0\n1.0,2.0,0.0\n",  # wrong column names
        "",  # no header at all
    ],
)
def test_csv_rejects_malformed_header(text):
    with pytest.raises(ValueError, match="header"):
        read_path_csv(io.StringIO(text))


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0.0,1.0,0.0\n1.0,2.0\n", "row 1 has 2 fields"),
        ("0.0,1.0,0.0\n1.0,2.0,0.0,9.0\n", "row 1 has 4 fields"),
        ("0.0,1.0,0.0\n1.0,two,0.0\n", "row 1"),
        # the first bad row is named, whichever way the later ones are bad
        ("0.0,1.0,0.0\n1.0,two,0.0\n2.0,2.0\n", r"^CSV data row 1: could not convert string to float: 'two'$"),
        ("0.0,1.0\n1.0,two,0.0\n", r"^CSV data row 0 has 2 fields, expected 3$"),
    ],
)
def test_csv_rejects_rows_that_do_not_match_the_header(rows, message):
    with pytest.raises(ValueError, match=message):
        read_path_csv(io.StringIO("t,x1,dx1\n" + rows))


def test_csv_fields_parse_as_python_floats():
    # the whole table is parsed in one numpy call; each field must come out
    # bitwise as float() reads it, edge spellings included
    fields = ["nan", "-0", "1_0", "1e400", "-1e400", "1.0e-320", "1e-400", " 2.5 ", "+3", "-inf", "0.1"]
    fields += [repr(v) for v in (np.random.default_rng(3).normal(size=40) * 10.0 ** np.arange(-20, 20)).tolist()]
    rows = [[str(k), v, v] for k, v in enumerate(fields)]
    want = np.array([[float(v) for v in row] for row in rows])
    assert csv_array([",".join(row) + "\n" for row in rows], 3).tobytes() == want.tobytes()
    assert csv_array([], 3).shape == (0, 3)


def _market_oracle(text: str) -> Market:
    """The market of a CSV table read row by row: ``csv.reader`` fields and
    ``float`` of each, lines that start with ``#`` dropped."""
    r = csv.reader(line for line in io.StringIO(text) if not line.startswith("#"))
    header = [name.strip() for name in next(r)]
    col = dict(zip(header, np.array([[float(v) for v in row] for row in r]).T))
    grid = fl.TimeGrid(col["t"])
    return Market(fl.GridPath(grid, col["S"], col.get("dS")), fl.FVPath(grid, col["B"], col.get("dB")))


def _market_outcome(read, text: str):
    """The bits of every array of the market ``read`` makes of ``text``, or its error text."""
    try:
        m = read(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return [a.tobytes() for a in (m.grid.times, m.s.x, m.s.dX, m.b.x, m.b.dX)]


# floats whose repr reads back as themselves: every finite float, both
# infinities and the one nan repr writes
_ANY_FLOAT = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.inf, -math.inf, math.nan]),
)
_TIMES = st.lists(st.floats(0.0, 1e300, exclude_min=True), min_size=1, max_size=40, unique=True).map(
    lambda t: np.array([0.0, *sorted(t)])
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), times=_TIMES)
def test_csv_tables_read_back_bitwise(data, times):
    n = len(times)
    x = np.array(data.draw(st.lists(_ANY_FLOAT, min_size=n, max_size=n)))
    dx = np.array([data.draw(st.sampled_from([0.0, -0.0]))] + data.draw(st.lists(_ANY_FLOAT, min_size=n - 1, max_size=n - 1)))
    path = fl.GridPath(fl.TimeGrid(times), x, dx)
    buf = io.StringIO()
    write_path_csv(path, buf)
    back = read_path_csv(io.StringIO(buf.getvalue()))
    for a, b in ((path.grid.times, back.grid.times), (path.x, back.x), (path.dX, back.dX)):
        assert a.tobytes() == b.tobytes()
    # a market table: positive prices (a nan or a zero is the domain's error)
    # with B_0 = 1, and nonpositive jumps, so S_- and B_- stay positive
    price = st.one_of(st.floats(0.0, exclude_min=True), st.sampled_from([5e-324, math.inf, math.nan, 0.0]))
    drop = st.one_of(st.floats(max_value=0.0), st.sampled_from([-0.0, -5e-324, -math.inf]))
    s, b, ds, db = (np.array(data.draw(st.lists(kind, min_size=n, max_size=n))) for kind in (price, price, drop, drop))
    b[0], ds[0], db[0] = 1.0, 0.0, -0.0
    buf = io.StringIO()
    write_csv_columns(buf, ["t", "S", "B", "dS", "dB"], [times, s, b, ds, db])
    text = buf.getvalue()
    assert _market_outcome(lambda t: read_market_csv(io.StringIO(t)), text) == _market_outcome(_market_oracle, text)


@pytest.mark.filterwarnings("error")  # numpy warns on a table with no data
@pytest.mark.parametrize(
    "rows, want",
    [
        ("0.0,1.0,0.0\n\n1.0,2.0,0.0\n", "CSV data row 1 has 0 fields, expected 3"),
        ("\n0.0,1.0,0.0\n1.0,2.0,0.0\n", "CSV data row 0 has 0 fields, expected 3"),
        ("\n\r\n", "CSV data row 0 has 0 fields, expected 3"),
        ("0.0,1.0,0.0\n \n1.0,2.0,0.0\n", "CSV data row 1 has 1 fields, expected 3"),
        ('0.0,"1.0",0.0\n1.0,2.0,0.0\n', [[0.0, 1.0], [1.0, 2.0], [0.0, 0.0]]),
        ("0.0,1.0,0.0\n1.0,2.0 # two,0.0\n", "CSV data row 1: could not convert string to float: '2.0 # two'"),
        ("0.0,1.0,0.0\n# a comment\n1.0,2.0,0.0\n", [[0.0, 1.0], [1.0, 2.0], [0.0, 0.0]]),
        ("0.0,1_0,0.0\n1.0,2.0,0.0\n", [[0.0, 1.0], [10.0, 2.0], [0.0, 0.0]]),
        ("0.0,\u0661,0.0\n1.0,2.0,0.0\n", [[0.0, 1.0], [1.0, 2.0], [0.0, 0.0]]),
        # numpy strips the separators 0x1c-0x1f around a number, float() does not
        ("0.0,\x1c1.0,0.0\n1.0,2.0,0.0\n", "CSV data row 0: could not convert string to float: '\\x1c1.0'"),
        ("0.0,1.0,0.0\n1.0,2.0\n", "CSV data row 1 has 2 fields, expected 3"),
        ("0.0,1.0,0.0\n1.0,2.0,0.0,9.0\n", "CSV data row 1 has 4 fields, expected 3"),
        ("0.0,1.0,0.0\r\n1.0,2.0,0.5\r\n", [[0.0, 1.0], [1.0, 2.0], [0.0, 0.5]]),
        ("0.0,1.0,0.0\n1.0,2.0,0.5", [[0.0, 1.0], [1.0, 2.0], [0.0, 0.5]]),
        ("0.0, +1.0 ,-0\n 1e-320,-inf ,nan\n", [[0.0, 1e-320], [1.0, -math.inf], [0.0, math.nan]]),
        ("", "times must be one-dimensional with at least two entries"),
    ],
    ids=[
        "blank-line-mid-table",
        "blank-first-line",
        "blank-lines-only",
        "whitespace-only-line",
        "quoted-field",
        "inline-hash",
        "hash-starting-a-line",
        "underscore",
        "non-ascii-digit",
        "separator-x1c",
        "short-row",
        "long-row",
        "crlf",
        "no-final-newline",
        "blanks-and-signs",
        "header-only",
    ],
)
def test_csv_edge_lines_read_as_row_by_row(rows, want):
    # each table gives the array, or the error, that csv.reader and float()
    # give row by row
    text = "t,x1,dx1\n" + rows
    if isinstance(want, str):
        with pytest.raises(ValueError) as exc:
            read_path_csv(io.StringIO(text))
        assert str(exc.value) == want
    else:
        path = read_path_csv(io.StringIO(text))
        assert np.array([path.grid.times, path.x, path.dX]).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# The dense jump array dX
# ---------------------------------------------------------------------------

# dyadic rationals keep every sum and difference below exact
_dyadic = st.integers(-64, 64).map(lambda k: k / 16.0)
_jump_maps = st.dictionaries(st.integers(1, 16), _dyadic, max_size=5)


def _grid_and_values(level, seed):
    g = fl.dyadic_grid(1.0, level)
    vals = np.random.default_rng(seed).integers(-64, 64, len(g)) / 16.0
    return g, vals


@settings(max_examples=60, deadline=None)
@given(level=st.integers(1, 4), seed=st.integers(0, 2**31 - 1), jmap=_jump_maps)
def test_dense_jumps_match_the_declared_map(level, seed, jmap):
    g, vals = _grid_and_values(level, seed)
    jmap = {i: c for i, c in jmap.items() if i < len(g)}
    p = fl.GridPath(g, vals, _dense(jmap, len(g)))
    assert p.dX.shape == (len(g),) and p.dX[0] == 0.0
    assert np.array_equal(p.x - fl.left_values(p), p.dX)
    # a declared zero jump is a continuity point
    assert set(p.jumps) == {i for i, c in jmap.items() if c != 0.0}
    for i, c in jmap.items():
        if c == 0.0:
            assert fl.left_values(p)[i] == p.x[i]
    assert np.array_equal(fl.GridPath(g, vals, p.dX).dX, p.dX)
    # a zero jump is stored as +0.0, whichever sign it is given
    assert not np.any(np.signbit(fl.GridPath(g, vals, -p.dX).dX[p.dX == 0.0]))


@settings(max_examples=60, deadline=None)
@given(
    level=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
    jmap=st.dictionaries(st.integers(1, 32), st.floats(-3, 3, allow_nan=False), max_size=6),
)
def test_jump_part_is_the_index_ordered_running_sum(level, seed, jmap):
    g = fl.dyadic_grid(1.0, level)
    jmap = {i: c for i, c in jmap.items() if i < len(g)}
    vals = np.random.default_rng(seed).standard_normal(len(g))
    a = fl.FVPath(g, vals, _dense(jmap, len(g)))
    expect = np.zeros(len(g))
    for i in sorted(jmap):
        expect[i:] += jmap[i]
    assert np.array_equal(a.jump_part, expect)
    assert np.array_equal(a.jump_part, running_sum(a.dX[1:]))
    assert np.array_equal(fl.GridPath(g, vals, a.dX).jump_part, a.jump_part)
    assert not a.jump_part.flags.writeable


@settings(max_examples=40, deadline=None)
@given(level=st.integers(1, 4), seed=st.integers(0, 2**31 - 1), jmap=_jump_maps.filter(bool))
def test_jumps_that_cancel_in_add_paths_leave_the_jump_set(level, seed, jmap):
    g, vals = _grid_and_values(level, seed)
    jmap = {i: c for i, c in jmap.items() if i < len(g)}
    p = fl.GridPath(g, vals, _dense(jmap, len(g)))
    q = fl.GridPath(g, 2.0 * vals, -p.dX)
    s = fl.add_paths(p, q)
    assert not s.jumps
    assert np.array_equal(s.dX, np.zeros_like(s.dX))
    assert not np.any(np.signbit(s.dX))  # a zero row is +0.0
    assert not fl.add_paths(p, p, 1.0, -1.0).jumps


def test_bad_jump_declarations_raise():
    g = fl.dyadic_grid(1.0, 2)
    v = np.zeros(5)
    with pytest.raises(ValueError, match="t=0"):
        fl.GridPath(g, v, np.array([1.0, 0, 0, 0, 0]))
    for shape in ((4,), (5, 2), (6,), (5, 1), (5, 1, 1)):
        with pytest.raises(ValueError, match="shape"):
            fl.GridPath(g, v, np.zeros(shape))


def test_dx_is_read_only():
    g = fl.dyadic_grid(1.0, 2)
    p = fl.GridPath(g, np.arange(5.0), _dense({2: 1.0}, 5))
    with pytest.raises(ValueError):
        p.dX[3] = 1.0
    with pytest.raises(TypeError):
        p.jumps[3] = 1.0


def test_constructors_leave_the_callers_arrays_writable():
    # the stored arrays are read-only views; the caller's own arrays are not frozen
    t = np.linspace(0.0, 1.0, 5)
    g = fl.TimeGrid(t)
    v = np.arange(5.0)
    path = fl.GridPath(g, v)
    a = np.array([0, 2, 4])
    p = fl.Partition(g, a)
    for caller, stored in ((t, g.times), (v, path.x), (a, p.indices)):
        assert caller.flags.writeable
        assert not stored.flags.writeable
        assert np.shares_memory(caller, stored)
    t[1] = 0.2
    a[1] = 1
    assert g.times[1] == 0.2 and p.indices[1] == 1


@pytest.mark.parametrize("shape", [(5, 2), (5, 1), (1, 5)])
def test_values_that_are_not_one_column_raise_naming_the_shape(shape):
    g = fl.dyadic_grid(1.0, 2)
    with pytest.raises(ValueError, match=rf"one-dimensional, got shape \({shape[0]}, {shape[1]}\)"):
        fl.GridPath(g, np.zeros(shape))
