"""The numpy float formatter against ``repr``, its oracle."""

import numpy as np
import pytest

from follmer import _floatrepr
from follmer._floatrepr import BLOCK, float_text
from follmer.paths import dyadic_grid


def _joined(text: np.ndarray) -> str:
    """The rows of a text matrix, NUL bytes dropped, each followed by a comma."""
    rows = np.concatenate([text, np.full((len(text), 1), ord(","), np.uint8)], axis=1).ravel()
    return np.compress(rows != 0, rows).tobytes().decode()


def assert_reprs(a) -> None:
    a = np.asarray(a, dtype=np.float64)
    got, want = _joined(float_text(a)), "".join(f"{v!r}," for v in a.tolist())
    if got != want:
        i = next(i for i, (g, w) in enumerate(zip(got.split(","), want.split(","))) if g != w)
        pytest.fail(f"{float(a[i]).hex()}: {got.split(',')[i]!r}, repr gives {want.split(',')[i]!r}")


def _with_neighbours(a) -> np.ndarray:
    return np.concatenate([a, np.nextafter(a, -np.inf), np.nextafter(a, np.inf)])


@pytest.mark.parametrize("seed", [17, 18])
def test_random_bit_patterns(seed):
    # every class of double: normals, subnormals, zeros, infinities, NaNs;
    # 10**6 patterns over the two cases, most of the time being repr's own
    bits = np.random.default_rng(seed).integers(0, 2**64, size=5 * 10**5, dtype=np.uint64)
    assert_reprs(bits.view(np.float64))


def test_dyadic_grid_times():
    # the grid of level 20 holds the times of every coarser dyadic grid
    assert_reprs(np.arange(2**20 + 1) / 2**20)


@pytest.mark.parametrize("T", [1.0, 2.0, 0.5, 3.0, 1e-3])
def test_grid_text_is_the_repr_of_every_time(T):
    # a dyadic grid's cached CSV text, which every t column is written from
    for level in range(17):
        g = dyadic_grid(T, level)
        assert _joined(g.text) == "".join(f"{t!r}," for t in g.times.tolist()), level


def test_edge_values():
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near_2_53 = np.arange(2**53 - 2048, 2**53 + 2048, dtype=np.int64).astype(np.float64)
    layout_edges = np.array([1e-5, 1e-4, 1e15, 1e16, 9.999999999999999e15])
    subnormals = np.arange(1, 4096, dtype=np.uint64).view(np.float64)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    ties = 2.0**50 + np.arange(1, 64, 2) / 4  # two shortest candidates at equal distance
    for a in (powers_of_two, powers_of_ten, near_2_53, layout_edges):
        assert_reprs(_with_neighbours(a))
        assert_reprs(-_with_neighbours(a))
    for a in (subnormals, special, ties, -ties, np.zeros(0)):
        assert_reprs(a)


def test_kernel_on_short_arrays(monkeypatch):
    # arrays this short take repr; the kernel must still give its bytes
    monkeypatch.setattr(_floatrepr, "_SHORT", 0)
    ties = 2.0**50 + np.arange(1, 64, 2) / 4
    for a in (np.array([0.0, -0.0, np.inf, -np.inf, np.nan]), ties, -ties, np.array([1e-05, 1e16]), np.zeros(0)):
        assert_reprs(a)


@pytest.mark.parametrize("n", [1, _floatrepr._SHORT - 1, _floatrepr._SHORT, _floatrepr._SHORT + 1])
def test_lengths_around_the_repr_cutoff(n):
    bits = np.random.default_rng(n).integers(0, 2**64, size=n, dtype=np.uint64)
    assert_reprs(bits.view(np.float64))
    assert_reprs(np.arange(n) / 16384)


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_block_edges(n):
    # the kernel shifts each block's rows as one flattened byte run, so a
    # block's first and last rows and the rows around a wide one are its edges
    a = np.random.default_rng(n).uniform(1.0, 100.0, n)
    a[min(n, BLOCK) - 1] = 1.2345e-7  # the first block's only scientific value, in its last row
    for j in (0, n // 2, n - 4, *([2 * BLOCK - 1] if n > 2 * BLOCK else [])):
        a[j], a[j + 1] = -1.2345678901234567e-4, 0.5  # the widest positional text, then a short one
    assert repr(float(a[min(n, BLOCK) - 1])) == "1.2345e-07"
    assert_reprs(a)
    a[0] = np.nan
    a[BLOCK::BLOCK] = 5e-324  # a NaN and subnormals in the first row of a block
    assert_reprs(a)


def test_tables_are_no_larger():
    # every table the kernel builds at import stays resident in any process
    # that writes a CSV; 450,664 bytes is what they took before the row layout
    tables = list(_floatrepr._TABLES) + [v for v in vars(_floatrepr).values() if isinstance(v, np.ndarray)]
    assert sum(t.nbytes for t in tables) <= 450_664
    assert _floatrepr._TABLES.zeros.dtype == _floatrepr._TABLES.prefixes.dtype == np.uint8


def test_float32_and_float16_take_their_double_values():
    a = np.random.default_rng(3).standard_normal(100)
    for dtype in (np.float32, np.float16):
        assert _joined(float_text(a.astype(dtype))) == "".join(f"{v!r}," for v in a.astype(dtype).tolist())


def test_table_formulas_are_exact_on_the_range_used():
    # k = floor(log10(2**q)) (or of (3/4)·2**q) and floor(log2(10**e)) for
    # every binary exponent q of a double and every decimal exponent e
    def floor_log10(num: int, den: int) -> int:
        k = len(str(num)) - len(str(den))
        return k if num * 10 ** max(-k, 0) >= den * 10 ** max(k, 0) else k - 1

    for q in range(-1074, 972):
        num, den = (2**q, 1) if q >= 0 else (1, 2**-q)
        assert _floatrepr._floor_log10_pow2(q) == floor_log10(num, den)
        assert _floatrepr._floor_log10_pow2(q, 1) == floor_log10(3 * num, 4 * den)
    for e in range(-330, 330):
        want = (10**e).bit_length() - 1 if e >= 0 else -((10**-e).bit_length())
        assert _floatrepr._floor_log2_pow10(e) == want

