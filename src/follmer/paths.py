"""Cadlag paths on finite time grids with explicitly declared jumps.

A path is scalar, sampled right-continuously on a finite grid
0 = t_0 < ... < t_N = T.
Jumps live only at grid times and are declared, never inferred: the left limit
at a jump time is the stored value minus the declared jump, and the path is
regarded as continuous at every other grid time.  The convention at the
origin is X_{0-} = X_0, i.e. a jump at time 0 is forbidden.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable

import numpy as np

from ._floatrepr import BLOCK, float_text
from .stieltjes import running_sum

__all__ = [
    "DomainError",
    "TimeGrid",
    "GridPath",
    "FVPath",
    "dyadic_grid",
    "dyadic_level",
    "same_grid",
    "jump_rows",
    "left_values",
    "running_maximum",
    "as_fv",
    "add_paths",
    "reciprocal_path",
    "PathGenerator",
    "FormulaGenerator",
    "StepGenerator",
    "DyadicBrownianGenerator",
    "CompoundJumpGenerator",
    "AffineCombinationGenerator",
    "GeometricGenerator",
    "write_path_csv",
    "read_path_csv",
]


class DomainError(ValueError):
    """An input outside the model's domain, raised where the rule it breaks is
    defined.  ``key`` names the rejected parameter and starts the message."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key} {message}")
        self.key = key


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only float view of a; the caller's own array stays writable."""
    a = np.asarray(a, dtype=float).view()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing evaluation times starting at 0.  A grid equals only
    itself; ``same_grid`` compares the times of two grids."""

    times: np.ndarray

    def __post_init__(self):
        t = _readonly(self.times)
        if t.ndim != 1 or t.size < 2:
            raise DomainError("times", "must be one-dimensional with at least two entries")
        if t[0] != 0.0:
            raise DomainError("times", "must start at 0")
        if not np.all(np.diff(t) > 0):
            raise DomainError("times", "must be strictly increasing")
        object.__setattr__(self, "times", t)

    def __len__(self) -> int:
        return self.times.size

    @cached_property
    def text(self) -> np.ndarray:
        """The CSV text of ``times`` as ``_csv_text`` makes it, read-only;
        formatted by the first table that writes the grid as a column."""
        text = np.ascontiguousarray(_csv_text(self.times))  # so that a table takes rows of it without a copy
        text.setflags(write=False)
        return text

    @property
    def T(self) -> float:
        return float(self.times[-1])

    def index_of(self, t: float) -> int:
        """Exact grid index of time t.  Membership is exact, never fuzzy."""
        i = int(np.searchsorted(self.times, t))
        if i >= len(self) or self.times[i] != t:
            raise KeyError(f"{t!r} is not a grid time")
        return i

    def clamp_index(self, t: float) -> int:
        """Largest grid index i with times[i] <= t (right-continuous lookup)."""
        if t < 0:
            raise ValueError("negative time")
        return int(np.searchsorted(self.times, t, side="right")) - 1


_GRIDS_KEPT = 8  # dyadic grids kept per process, with their CSV text once written


@lru_cache(maxsize=_GRIDS_KEPT)
def dyadic_grid(T: float = 1.0, level: int = 0) -> TimeGrid:
    """Grid {k * T * 2^-level}.  k/2^level is exact in binary floats.

    One grid is shared by the calls with equal arguments, so the tables
    written on it format its times once.  Its times cannot be made writable.
    """
    if not T > 0:
        raise DomainError("T", f"must be positive, got {T!r}")
    n = 1 << level
    times = T * (np.arange(n + 1) / n)
    times.setflags(write=False)
    return TimeGrid(times)


def dyadic_level(grid: TimeGrid, T: float | None = None) -> int:
    """The level n at which ``grid`` is ``dyadic_grid(T, n)``, T the grid's own
    horizon when None; a ``DomainError`` naming ``grid`` when it is no such grid."""
    T = grid.T if T is None else T
    level = (len(grid) - 1).bit_length() - 1
    if not same_grid(grid, dyadic_grid(T, level)):
        raise DomainError("grid", f"is not the dyadic grid {{k T 2^-{level}}} of T = {T!r}")
    return level


def same_grid(a: TimeGrid, b: TimeGrid) -> bool:
    """Whether two grids hold the same times: the same grid, or equal arrays."""
    return a is b or np.array_equal(a.times, b.times)


def _jump_array(jumps, n: int) -> np.ndarray:
    """The length-n jump array ``jumps``, zeros when None."""
    dX = np.zeros(n) if jumps is None else np.array(jumps, dtype=float)
    if dX.shape != (n,):
        raise ValueError(f"jump array has shape {dX.shape}, expected ({n},)")
    if dX[0] != 0.0:
        raise DomainError("jumps", "hold a jump at t=0, which is forbidden (X_{0-} = X_0)")
    dX += 0.0  # a zero jump is +0.0, never -0.0
    return dX


@dataclass(frozen=True, init=False, eq=False)
class GridPath:
    """Right-continuous scalar path values on a grid plus a declared jump array.

    x[i] = X_{t_i} and dX[i] = X_{t_i} - X_{t_i-}, both read-only 1-d arrays
    of the grid's length.  dX[0] is zero (X_{0-} = X_0) and every zero entry
    is a continuity point of the discrete path.  ``jumps`` is that array, or
    None for none.
    """

    grid: TimeGrid
    x: np.ndarray
    dX: np.ndarray

    def __init__(self, grid: TimeGrid, x, jumps=None):
        v = np.asarray(x, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"path values must be one-dimensional, got shape {v.shape}")
        if v.size != len(grid):
            raise ValueError("values length must match grid length")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "x", _readonly(v))
        object.__setattr__(self, "dX", _readonly(_jump_array(jumps, v.size)))

    @cached_property
    def jumps(self) -> Mapping[int, float]:
        """Read-only {grid index: jump size} view of the nonzero jumps."""
        return MappingProxyType({int(i): self.dX[i] for i in jump_rows(self)})

    @cached_property
    def jump_part(self) -> np.ndarray:
        """The pure-jump part, read-only: the running sum of dX_s over 0 < s <= t."""
        return _readonly(running_sum(self.dX[1:]))


class FVPath(GridPath):
    """GridPath flagged as having finite variation on the grid.

    Carries the exact decomposition A = A^c + A^d, where A^d = ``jump_part``
    is the pure-jump part built from the declared jumps.
    """

    @cached_property
    def cont_part(self) -> np.ndarray:
        return _readonly(self.x - self.jump_part)

    def continuous(self) -> GridPath:
        """The continuous part A^c (no jumps)."""
        return GridPath(self.grid, self.cont_part)


def as_fv(path: GridPath) -> FVPath:
    if isinstance(path, FVPath):
        return path
    return FVPath(path.grid, path.x, path.dX)


def jump_rows(*paths: GridPath) -> np.ndarray:
    """Sorted grid indices where at least one of the paths jumps."""
    return np.flatnonzero(np.any([p.dX for p in paths], axis=0))


def left_values(path: GridPath) -> np.ndarray:
    """Array of left limits X_{t_i-} at every grid time."""
    return path.x - path.dX


def running_maximum(path: GridPath) -> tuple[GridPath, bool]:
    """Running maximum of a scalar path and its grid-scale continuity flag.

    The maximum is continuous at grid scale iff no declared upward jump ever
    attains a new maximum.  Returns (maximum path, continuous flag).
    """
    xs = path.x
    m = np.maximum.accumulate(xs)
    # max(M_{t-}, X_{t-}); it bounds X_t wherever X does not jump
    m_left = np.maximum(np.concatenate([m[:1], m[:-1]]), left_values(path))
    dm = np.where(xs > m_left, xs - m_left, 0.0)
    return GridPath(path.grid, m, dm), not np.any(dm)


def add_paths(a: GridPath, b: GridPath, ca: float = 1.0, cb: float = 1.0) -> GridPath:
    """ca*A + cb*B on a shared grid; the jump set is the union."""
    if not same_grid(a.grid, b.grid):
        raise ValueError("paths live on different grids")
    return GridPath(a.grid, ca * a.x + cb * b.x, ca * a.dX + cb * b.dX)


def reciprocal_path(a: GridPath) -> GridPath:
    """1/A for a scalar path that never touches 0, with its jumps declared;
    an ``FVPath`` stays one."""
    xs = a.x
    lv = left_values(a)
    if np.any(xs == 0.0) or np.any(lv == 0.0):
        raise ValueError("path touches zero; reciprocal undefined")
    r = 1.0 / xs
    return type(a)(a.grid, r, r - 1.0 / lv)


# ---------------------------------------------------------------------------
# Generators.  Each is a pure function of (its parameters, the grid); kinds
# with randomness are keyed by a 64-bit seed and are bit-reproducible.
# ---------------------------------------------------------------------------


class PathGenerator:
    """A generator; ``kind`` names it in a config."""

    def __post_init__(self):  # generators with checks of their own call it first
        seed = getattr(self, "seed", 0)
        if isinstance(seed, bool) or not seed >= 0 or seed % 1:
            raise DomainError("seed", f"must be a nonnegative integer, got {seed!r}")


@dataclass(frozen=True)
class FormulaGenerator(PathGenerator):
    """Deterministic continuous path t -> fn(t) (vectorized callable)."""

    fn: Callable[[np.ndarray], np.ndarray]
    kind = "formula"

    def generate(self, grid: TimeGrid) -> GridPath:
        return GridPath(grid, np.asarray(self.fn(grid.times), dtype=float))


@dataclass(frozen=True)
class StepGenerator(PathGenerator):
    """Piecewise-constant path with a single jump of size c at time t0."""

    c: float = 1.0
    t0: float = 0.5
    x0: float = 0.0
    kind = "step"

    def generate(self, grid: TimeGrid) -> GridPath:
        i0 = grid.index_of(self.t0)
        v = np.full(len(grid), self.x0)
        v[i0:] += self.c
        dX = np.zeros(len(grid))
        dX[i0] = self.c
        return GridPath(grid, v, dX)


@dataclass(frozen=True)
class DyadicBrownianGenerator(PathGenerator):
    """Brownian-type path by midpoint refinement, keyed by dyadic address.

    The normal draw for the midpoint k*T/2^l (k odd) comes from an RNG seeded
    by (seed, l, k-block), so sampling at a finer level never resamples the
    values already fixed at coarser levels: refinement consistency is exact,
    bitwise, for a fixed seed.
    """

    seed: int = 0
    sigma: float = 1.0
    x0: float = 0.0
    kind = "dyadic-brownian"

    def _level_draws(self, level: int, count: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence([int(self.seed), 7, level]))
        return rng.standard_normal(count)

    def generate(self, grid: TimeGrid) -> GridPath:
        L = dyadic_level(grid)
        T = grid.T
        w = np.zeros(len(grid))
        w[-1] = math.sqrt(T) * self._level_draws(0, 1)[0]
        for lev in range(1, L + 1):
            s = 1 << (L - lev)
            z = self._level_draws(lev, 1 << (lev - 1))
            half_var = T / (1 << (lev + 1))
            # midpoints s, 3s, 5s, ... between their neighbours 2ks and (2k+2)s
            w[s :: 2 * s] = 0.5 * (w[: -s : 2 * s] + w[2 * s :: 2 * s]) + math.sqrt(half_var) * z
        return GridPath(grid, self.x0 + self.sigma * w)


@dataclass(frozen=True)
class CompoundJumpGenerator(PathGenerator):
    """Pure-jump path: Poisson(intensity*T) many jumps at grid times.

    Jump times are drawn uniformly over interior grid points; sizes come from
    the declared sampler ('coin' gives +/-size, 'uniform' gives U(-size, size)).
    """

    seed: int = 0
    intensity: float = 1.0
    size: float = 1.0
    sampler: str = "coin"
    x0: float = 0.0
    kind = "compound-jump"
    SAMPLERS = ("coin", "uniform")
    MAX_MEAN = 1e18  # the largest intensity * T: numpy's Poisson sampler refuses a mean above about 9.2e18

    def __post_init__(self):
        super().__post_init__()
        if not self.intensity >= 0:
            raise DomainError("intensity", f"must be nonnegative, got {self.intensity!r}")
        if self.sampler not in self.SAMPLERS:
            raise DomainError("sampler", f"must be one of {list(self.SAMPLERS)}, got {self.sampler!r}")
        if self.sampler == "uniform" and not self.size >= 0:
            raise DomainError("size", f"must be nonnegative for the uniform sampler, got {self.size!r}")

    def generate(self, grid: TimeGrid) -> GridPath:
        mean = self.intensity * grid.T
        if not mean <= self.MAX_MEAN:
            raise DomainError("intensity", f"times T must be at most {self.MAX_MEAN:g}, got {mean!r}")
        rng = np.random.default_rng(np.random.SeedSequence([int(self.seed), 11]))
        count = rng.poisson(mean)
        count = min(count, len(grid) - 1)
        idx = np.sort(rng.choice(np.arange(1, len(grid)), size=count, replace=False))
        if self.sampler == "coin":
            sizes = self.size * rng.choice([-1.0, 1.0], size=count)
        else:
            sizes = rng.uniform(-self.size, self.size, size=count)
        dx = np.zeros(len(grid))
        dx[idx] = sizes
        return GridPath(grid, np.cumsum(np.concatenate([[self.x0], dx[1:]])), dx)


@dataclass(frozen=True)
class AffineCombinationGenerator(PathGenerator):
    """a*X + b*Y pointwise; the jump set is the union of the parents'."""

    gen_x: PathGenerator
    gen_y: PathGenerator
    a: float = 1.0
    b: float = 1.0
    kind = "affine-combination"

    def generate(self, grid: TimeGrid) -> GridPath:
        paths = []
        for key, gen in (("x", self.gen_x), ("y", self.gen_y)):
            try:
                paths.append(gen.generate(grid))
            except DomainError as exc:  # a parent's rule, named under its config key
                raise DomainError(f"{key}.{exc.key}", str(exc).removeprefix(f"{exc.key} ")) from None
        return add_paths(*paths, self.a, self.b)


@dataclass(frozen=True)
class GeometricGenerator(PathGenerator):
    """Strictly positive price path s0 exp(sigma W + mu t) with optional
    multiplicative jumps (1 + J) at Poisson times, J uniform on (-jump_size,
    jump_size) with 0 <= jump_size < 1, so J > -1."""

    seed: int = 0
    s0: float = 1.0
    sigma: float = 0.2
    mu: float = 0.0
    jump_intensity: float = 0.0
    jump_size: float = 0.1
    kind = "geometric"

    def __post_init__(self):
        super().__post_init__()
        if not self.s0 > 0:
            raise DomainError("s0", f"must be positive, got {self.s0!r}")
        if not abs(self.jump_size) < 1.0:
            raise DomainError("jump_size", f"must stay below 1 in magnitude, got {self.jump_size!r}")
        if self.jump_size < 0:
            raise DomainError("jump_size", f"must be nonnegative, got {self.jump_size!r}")

    def generate(self, grid: TimeGrid) -> GridPath:
        w = DyadicBrownianGenerator(seed=self.seed, sigma=self.sigma).generate(grid)
        vals = self.s0 * np.exp(w.x + self.mu * grid.times)
        if self.jump_intensity <= 0.0:
            return GridPath(grid, vals)
        try:
            overlay = CompoundJumpGenerator(
                seed=self.seed,
                intensity=self.jump_intensity,
                size=self.jump_size,
                sampler="uniform",
            ).generate(grid)
        except DomainError as exc:  # the overlay's intensity is this path's jump_intensity
            raise DomainError("jump_intensity", str(exc).removeprefix("intensity ")) from None
        factor = 1.0 + overlay.dX
        # one suffix product per jump, in grid order; a cumprod would round
        # the products differently
        for i in np.flatnonzero(overlay.dX):
            vals[i:] *= factor[i]
        return GridPath(grid, vals, vals - vals / factor)


# ---------------------------------------------------------------------------
# Serialization: CSV with header t,x1,dx1.
# ---------------------------------------------------------------------------


def write_path_csv(path: GridPath, fp) -> None:
    write_csv_columns(fp, ["t", "x1", "dx1"], [path.grid, path.x, path.dX])


def read_path_csv(fp) -> GridPath:
    """Path from CSV with header t,x1,dx1."""
    header, lines = csv_lines(fp)
    if header != ["t", "x1", "dx1"]:
        raise DomainError("header", f"{','.join(header)!r} of a path CSV is not t,x1,dx1")
    t, x, dx = csv_array(lines, 3).T
    return GridPath(TimeGrid(t), x, dx)


def csv_lines(fp) -> tuple:
    """(the header fields, the data lines) of a CSV table, lines that start
    with ``#`` dropped.  The header is read by ``csv.reader``, which takes as
    many lines as its record spans."""
    lines = iter([line for line in fp if not line.startswith("#")])
    header = next(csv.reader(lines), [])
    return header, list(lines)


# numpy strips these separators around a number as blanks; float() rejects them
_NUMPY_ONLY_BLANKS = "\x1c\x1d\x1e\x1f"


def csv_array(lines: list, width: int) -> np.ndarray:
    """The data lines as a (lines, width) float array, each field bitwise as
    ``float`` reads it.

    The whole table is parsed in one numpy call, whose result is taken only at
    that shape (numpy skips blank lines).  A table numpy rejects or shapes
    otherwise, one holding a separator numpy alone strips, and one whose first
    line is blank (numpy warns on a table of blank lines) is split by
    ``csv.reader`` and read by ``_csv_floats``, which parses what only
    ``float`` accepts (``1_0``, non-ASCII digits) and raises naming the first
    bad row."""
    if lines and lines[0].strip("\r\n"):
        text = "".join(lines)
        if not any(c in text for c in _NUMPY_ONLY_BLANKS):
            try:
                a = np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)
            except ValueError:
                pass
            else:
                if a.shape == (len(lines), width):
                    return a
    rows = list(csv.reader(lines))  # a csv.Error anywhere comes before a bad row
    return np.array([_csv_floats(row, width, i) for i, row in enumerate(rows)]).reshape(-1, width)


def _csv_floats(row: list, width: int, i: int) -> list:
    """The floats of data row i (counted from 0 after the header)."""
    if len(row) != width:
        raise DomainError("CSV", f"data row {i} has {len(row)} fields, expected {width}")
    try:
        return [float(v) for v in row]
    except ValueError as exc:
        raise DomainError("CSV", f"data row {i}: {exc}") from None


_CSV_JOIN = 512  # rows joined and written at a time
_CSV_DISTINCT_SHARE = 0.75  # float columns at most this share distinct are formatted per distinct value


@dataclass(frozen=True)
class _TextColumn:
    """A CSV column formatted ahead: cell i is row ``index[i]`` of ``text``, a
    byte matrix as ``_csv_text`` makes it."""

    text: np.ndarray
    index: np.ndarray

    def __len__(self) -> int:
        return len(self.index)


def repeated_column(values, index) -> _TextColumn:
    """The CSV column ``values[index]``, each value formatted once, a ``TimeGrid``'s from its text."""
    return _TextColumn(values.text if isinstance(values, TimeGrid) else _csv_text(values), index)


def write_csv_columns(fp, header: list, columns: list) -> None:
    """Write a CSV header row, then ``columns`` side by side, a block of rows at a time.

    A column is a ``repeated_column``, a ``TimeGrid`` (its times, from its cached
    text), a list of str cells, or anything ``np.asarray`` makes
    one-dimensional, whose floats come out as their ``repr`` and ints as
    decimals.  A float64 array that repeats its values is formatted once per
    distinct value.  A block is one byte matrix of NUL-padded cells and
    separators, each cell copied in as one item, and written with its NUL
    bytes dropped; a str cell must hold none.
    """
    fp.write(",".join(header) + "\n")
    n = len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ValueError(f"CSV columns differ in length: {[len(col) for col in columns]}")
    columns = [_csv_distinct(col) for col in columns]
    for k in range(0, n, BLOCK):
        k_end = min(k + BLOCK, n)
        cells = [
            _csv_rows(_csv_text(col[k:k_end])) if text is None else text.take(col[k:k_end])
            for text, col in columns
        ]
        line = np.empty((min(_CSV_JOIN, k_end - k), sum(c.itemsize + 1 for c in cells)), np.uint8)
        slots, end = [], 0
        for c in cells:
            slots.append(_csv_rows(line[:, end : end + c.itemsize]))
            end += c.itemsize + 1
            line[:, end - 1] = ord(",")
        line[:, -1] = ord("\n")
        for j in range(0, k_end - k, _CSV_JOIN):
            rows = min(_CSV_JOIN, k_end - k - j)
            for slot, c in zip(slots, cells):
                slot[:rows] = c[j : j + rows]
            fp.write(line[:rows].tobytes().translate(None, b"\0").decode())


def _csv_rows(text: np.ndarray) -> np.ndarray:
    """The rows of a byte matrix whose rows are contiguous, as one void item each."""
    return text.view(np.dtype((np.void, text.shape[1])))[:, 0]


def _csv_distinct(col) -> tuple:
    """(None, ``col``), or (the text of each distinct value as one void item,
    each cell's index into them).  A ``_TextColumn`` is the second already,
    and a ``TimeGrid`` is its text and the row numbers; a float64 array is
    when at most ``_CSV_DISTINCT_SHARE`` of its values are distinct.  Values
    are compared by their bits, so -0.0 and 0.0 stay apart.  The first block
    is tested on its own first, so that a column of distinct floats costs the
    sort of one block, not of the whole column."""
    if isinstance(col, _TextColumn):
        text, index = col.text, col.index
    elif isinstance(col, TimeGrid):
        text, index = col.text, np.arange(len(col))
    else:
        if not (isinstance(col, np.ndarray) and col.dtype == np.float64 and col.ndim == 1):
            return None, col
        bits = col.view(np.int64)
        for head in (bits[:BLOCK], bits):
            distinct = _sorted_distinct(head)
            if len(distinct) > _CSV_DISTINCT_SHARE * len(head):
                return None, col
        text, index = float_text(distinct.view(np.float64)), np.searchsorted(distinct, bits)
    # a take from text that is not contiguous would copy all of it every block
    return _csv_rows(np.ascontiguousarray(text)), index


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, ascending."""
    s = np.sort(a)
    first = np.ones(len(s), dtype=bool)
    first[1:] = s[1:] != s[:-1]
    return s[first]


def _csv_text(cells) -> np.ndarray:
    """``cells`` as a uint8 matrix, one NUL-padded row of text per cell: floats
    as their ``repr``, anything else (ints, bools, str cells) as ``str``."""
    if not (isinstance(cells, list) and cells and isinstance(cells[0], str)):
        a = np.asarray(cells)
        if a.ndim != 1:
            raise ValueError(f"a CSV column must be one-dimensional, got shape {a.shape}")
        if a.dtype.kind == "f" and a.itemsize <= 8:
            return float_text(a)
        cells = a.tolist()
    text = np.array([str(v).encode() for v in cells], dtype=bytes)
    return text.view(np.uint8).reshape(len(cells), text.itemsize)
