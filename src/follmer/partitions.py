"""Partitions of [0, T] and refining partition sequences.

Partitions store indices into a host TimeGrid, never raw floats, so interval
assignment and membership tests are exact.  Two constructions are provided:
nested dyadic grids, and the path-adapted stopping-time ("Lebesgue")
partitions whose points are first exits from a shrinking band, capped by a
shrinking time step.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .paths import DomainError, GridPath, TimeGrid, dyadic_grid, dyadic_level

__all__ = [
    "Partition",
    "PartitionSequence",
    "dyadic_sequence",
    "thinned_sequence",
    "mesh",
    "lebesgue_partition",
    "lebesgue_partitions",
    "oscillation",
]


@dataclass(frozen=True)
class Partition:
    grid: TimeGrid
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int).view()  # leave the caller's array writable
        idx.setflags(write=False)
        if idx.size < 2:
            raise ValueError("degenerate partition")
        if idx[0] != 0:
            raise ValueError("partition must start at t=0")
        if idx[-1] != len(self.grid) - 1:
            raise ValueError("partition must reach the horizon")
        if not np.all(np.diff(idx) > 0):
            raise ValueError("partition indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    @property
    def times(self) -> np.ndarray:
        return self.grid.times[self.indices]

    @property
    def runs(self) -> np.ndarray:
        """Run lengths of the step anchors: point k is the last one <= g for g in
        [indices[k], indices[k+1]), so ``np.repeat(v, runs)`` spreads v[k] over that run."""
        return np.diff(self.indices, append=len(self.grid))

    def __len__(self) -> int:
        return self.indices.size


def mesh(p: Partition) -> float:
    """|pi| = max gap between consecutive partition times."""
    return float(np.max(np.diff(p.times)))


@dataclass(frozen=True)
class PartitionSequence:
    """A refining family (pi_n); the mesh must be nonincreasing in n."""

    levels: tuple

    def __post_init__(self):
        levels = tuple(self.levels)
        if not levels:
            raise ValueError("empty partition sequence")
        meshes = [mesh(p) for p in levels]
        if any(a < b - 1e-15 for a, b in zip(meshes, meshes[1:])):
            raise ValueError("mesh must be nonincreasing across levels")
        object.__setattr__(self, "levels", levels)

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)

    @property
    def grid(self) -> TimeGrid:
        return self.levels[-1].grid

    @property
    def top(self) -> Partition:
        return self.levels[-1]


def dyadic_sequence(
    T: float = 1.0,
    n_min: int = 1,
    n_max: int = 10,
    grid: TimeGrid | None = None,
) -> PartitionSequence:
    """Nested dyadic partitions pi_n = {k T 2^-n}, n = n_min..n_max.

    The host grid defaults to the dyadic grid at level n_max; the dyadic
    grid of ``T`` at any finer level may be supplied instead.
    """
    if not 0 <= n_min <= n_max:
        raise DomainError("levels", f"need 0 <= n_min <= n_max, got n_min={n_min}, n_max={n_max}")
    if grid is None:
        grid = dyadic_grid(T, n_max)
    if len(grid) - 1 < 1 << n_max:
        raise ValueError(f"host grid cannot host dyadic level {n_max}")
    level = dyadic_level(grid, T)
    return _strided(grid, 1 << (level - n_max), n_max - n_min + 1)


def thinned_sequence(grid: TimeGrid, levels: int) -> PartitionSequence:
    """Refining sequence on an arbitrary grid: stride-halving coarsenings.

    Level k keeps every 2^(levels-1-k)-th grid index plus the horizon, so
    user-supplied (e.g. ingested) grids get a partition family without any
    dyadic-structure requirement.
    """
    if levels < 1:
        raise DomainError("levels", f"need at least one level, got {levels}")
    return _strided(grid, 1, levels)


def _strided(grid: TimeGrid, top: int, levels: int) -> PartitionSequence:
    """Level k = 0..levels-1 keeps every top * 2^(levels-1-k)-th grid index,
    and the horizon where that stride misses it."""
    last = len(grid) - 1
    out = []
    for k in range(levels):
        idx = np.arange(0, last + 1, top << (levels - 1 - k))
        if idx[-1] != last:
            idx = np.append(idx, last)
        out.append(Partition(grid, idx))
    return PartitionSequence(tuple(out))


# Band exits are found two ways.  A first-exit table, built for every start
# at once, holds each start's exit when it lies within W samples (the
# window); a walk over aligned block extrema of 16, 256 and 4096 samples
# finds the rest, one chain point at a time.  The block test is exact for
# finite x: fl(x_j - x_i) is monotone in x_j and fl(x_i - x_j) =
# -fl(x_j - x_i), so bmax - x_i > thr or x_i - bmin > thr holds iff
# |x_j - x_i| > thr for some sample j of the block, rounding included.  (A
# NaN would poison its blocks' extrema, so lebesgue_partition rejects
# non-finite paths.)
#
# The levels of one path share one _Scan, made per call and never cached
# on the path (GridPath.x is a view of an array its caller may still
# write): the finite check, the QV sum and every level's window are taken
# once; the block extrema are built on the first far exit of any level, and
# the tables of every table level on the first table read, in one pass over
# k = 1..W that forms each |x[i+k] - x[i]| once for all of them.
_EXIT_WINDOW = 16
_BLOCK_BITS = 4
_BLOCK_MASK = (1 << _BLOCK_BITS) - 1
_BLOCK_TIERS = 3


def _exit_window(mean_step: float) -> int:
    """The first-exit window W for a level whose exits lie ``mean_step``
    samples apart: 0 (no table, the block walk from every chain point) above
    32 samples, 32 above 2 samples, else 16."""
    if mean_step > 2 * _EXIT_WINDOW:
        return 0
    return 2 * _EXIT_WINDOW if mean_step > 2 else _EXIT_WINDOW


def _block_extrema(x: np.ndarray) -> list:
    """[(max, min)] of x over aligned blocks of 16, 256 and 4096 samples, as
    memoryviews; a partial last block takes the extrema of what it holds."""
    tiers, hi, lo = [], x, x
    for _ in range(_BLOCK_TIERS):
        starts = np.arange(0, hi.size, 1 << _BLOCK_BITS)
        hi, lo = np.maximum.reduceat(hi, starts), np.minimum.reduceat(lo, starts)
        tiers.append((memoryview(hi), memoryview(lo)))
    return tiers


def _first_exits(x: np.ndarray, times: np.ndarray, levels: list) -> list[bytes]:
    """Per level (thr, cap, window) and per start i, the offset of i's chain
    successor when that lies within ``window`` samples, else the code
    ``window + 1``; one byte per start.

    The successor is the first exit or, if earlier, the cap index, the last
    j with t_j <= fl(t_i + cap).  The code stands for three cases the chain
    walk tells apart: no exit in the window and the cap past it, a cap that
    admits no later time, and the horizon (the last start).
    """
    size = x.size
    firsts = [np.full(size, window + 1, dtype=np.uint8) for _, _, window in levels]
    # least k <= W with |x[i+k] - x[i]| > thr, branch-free as
    # min(first, W + 1 - hit * (W + 1 - k)) in uint8; each |x[i+k] - x[i]|
    # serves every level, and one set of scratch buffers serves every pass
    # (fresh temporaries page-fault)
    diff, hit = np.empty(size), np.empty(size, dtype=np.uint8)
    for k in range(1, min(max(window for _, _, window in levels), size - 1) + 1):
        d, h = diff[: size - k], hit[: size - k]
        np.abs(np.subtract(x[k:], x[:-k], out=d), out=d)
        for (thr, _, window), first in zip(levels, firsts):
            if k <= window:
                np.greater(d, thr, out=h)
                np.multiply(h, window + 1 - k, out=h)
                np.subtract(window + 1, h, out=h)
                np.minimum(first[: size - k], h, out=first[: size - k])
    return [_cap_offsets(first, times, cap, window + 1).tobytes() for (_, cap, window), first in zip(levels, firsts)]


def _cap_offsets(first: np.ndarray, times: np.ndarray, cap: float, none: int) -> np.ndarray:
    """``first`` with the cap applied: the cap comes first where the table's
    exit, i + first[i] (clipped to the horizon), lies past fl(t_i + cap).
    That cannot happen when every start's cap reaches ``none`` samples on;
    elsewhere only those starts are searched, and their cap offsets,
    0..none - 1, replace first[i] in place."""
    size = times.size
    if size > none and np.all(times[none:] <= times[:-none] + cap):
        return first
    lim = times + cap
    ends = np.minimum(np.arange(size) + first, size - 1)
    capped = np.flatnonzero(times[ends] > lim)
    offsets = np.searchsorted(times, lim[capped], side="right") - 1 - capped
    offsets[offsets == 0] = none
    first[capped] = offsets
    return first


class _Scan:
    """The band-exit state of one scalar path, shared by the levels of one
    call: the path and its times (also as memoryviews), each level's exit
    window, and, built on first use, the block extrema and the first-exit
    tables of every level that has a window."""

    def __init__(self, path: GridPath, levels):
        self.levels = list(levels)
        if any(n < 1 for n in self.levels):
            raise ValueError("level n must be >= 1 (the 1/n cap is undefined at 0)")
        x = np.ascontiguousarray(path.x)
        finite = np.isfinite(x)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(
                f"stopping-time partition of a path with a non-finite value {float(x[i])!r} "
                f"at grid index {i}, t = {path.grid.times[i]:.6g}"
            )
        self.x, self.times = x, path.grid.times
        self.xs, self.ts = memoryview(x), memoryview(self.times)
        # a diffusion leaves a band of half-width thr about [X] / thr^2 times,
        # so on a grid of N steps its exits lie about N thr^2 / sum (dx)^2
        # samples apart; np.sum, not np.dot, which may start BLAS threads
        with np.errstate(over="ignore"):  # an infinite sum only predicts close exits
            qv = float(np.sum(np.square(np.diff(x))))
        self.windows = {}
        for n in self.levels:
            thr = 0.5 ** (n + 1)
            self.windows[n] = _exit_window((x.size - 1) * thr * thr / qv if qv else math.inf)
        self._tiers = None
        self._tables = None

    @property
    def tiers(self) -> list:
        """The block extrema of the path (``_block_extrema``)."""
        if self._tiers is None:
            self._tiers = _block_extrema(self.x)
        return self._tiers

    def table(self, n: int) -> bytes:
        """Level n's first-exit table over the whole path.  The scan lets go
        of each table as it hands it out, so a table lives only while its
        level's chain is walked; a level asked for again gets its table
        rebuilt alone.  A level of window 0 gets a table of stop codes."""
        if not self.windows[n]:
            return b"\x01" * self.times.size
        if self._tables is None:
            levels = [m for m, window in self.windows.items() if window]
            self._tables = dict(zip(levels, _first_exits(self.x, self.times, [self._spec(m) for m in levels])))
        table = self._tables.pop(n, None)
        if table is None:
            (table,) = _first_exits(self.x, self.times, [self._spec(n)])
        return table

    def _spec(self, n: int) -> tuple:
        return 0.5 ** (n + 1), 1.0 / n, self.windows[n]


def _lebesgue_scan(scan: _Scan, n: int) -> list[int]:
    """Band-exit chain from index 0: each point is the first later index whose
    value leaves the band |x - x_i| <= thr, or the 1/n cap index if earlier.

    The chain reads the level's first-exit table (``_Scan.table``) as bytes:
    an offset of at most the window W, or the stop code W + 1, on which the
    chain point walks the block extrema from i + W + 1 to its cap, found by
    binary search.  W is picked from the path (``_Scan.windows``), by the
    mean exit distance d its quadratic variation predicts: 0 when d > 32 (a
    table of stop codes only, so every chain point takes the block walk),
    else 32, or 16 when d <= 2 (where exits are a sample or two apart the
    extra passes cost more than the far exits they save).  The tables of
    all the levels of a scan with W > 0 are built together, on first read.

    Both searches decide |x_j - x_i| > thr with the same floating-point
    comparisons as a sample-by-sample scan, so the indices are those of that
    scan whichever is chosen.
    """
    thr = 0.5 ** (n + 1)
    cap = 1.0 / n
    times, xs, ts = scan.times, scan.xs, scan.ts
    size = times.size
    offset = scan.table(n)
    # a code above the window sends the walk to its one slow branch
    none = scan.windows[n] + 1
    out = [0]
    append = out.append
    i = 0
    while True:
        k = offset[i]
        if k == none:
            if i == size - 1:
                return out
            last = bisect_right(ts, ts[i] + cap) - 1
            if last == i:
                raise DomainError(
                    "grid",
                    f"too coarse for the 1/n time cap at level n={n}: cap 1/n = {cap:.6g} "
                    f"is below the grid step {times[i + 1] - times[i]:.6g} at t = {times[i]:.6g}",
                )
            k = _far_exit(xs, scan.tiers, i, i + none, last, thr)
        i += k
        append(i)


def _far_exit(xs, tiers, i: int, j: int, last: int, thr: float) -> int:
    """Offset from i of the first j' in [j, last] with |x_j' - x_i| > thr, or
    of ``last`` if there is none; the samples strictly between i and j are
    known to stay in the band."""
    xi = xs[i]
    # pre-tests while the 16-block, then the 256-block, holding j begins
    # before i: the walk below cannot take such a block whole, as its
    # samples before i may leave the band, but if none of its samples does,
    # its rest from j is skipped in one test instead of sample by sample or
    # block by block
    for tier in range(_BLOCK_TIERS - 1):
        if j > last:
            return last - i
        shift = _BLOCK_BITS * (tier + 1)
        b = j >> shift
        hi, lo = tiers[tier]
        if b << shift >= i or hi[b] - xi > thr or xi - lo[b] > thr:
            break
        j = (b + 1) << shift
    tier = 0
    # start in the coarsest block holding j that begins at or after i: its
    # samples before j are known to stay in the band
    while tier < _BLOCK_TIERS and (j >> (_BLOCK_BITS * (tier + 1))) << (_BLOCK_BITS * (tier + 1)) >= i:
        tier += 1
    while j <= last:
        if tier == 0:
            # the samples left in j's 16-sample block
            end = min((j | _BLOCK_MASK) + 1, last + 1)
            while j < end:
                if abs(xs[j] - xi) > thr:
                    return j - i
                j += 1
        else:
            shift = _BLOCK_BITS * tier
            hi, lo = tiers[tier - 1]
            b = j >> shift
            if hi[b] - xi > thr or xi - lo[b] > thr:
                tier -= 1
                continue
            j = (b + 1) << shift
        # climb while j starts a block of the next tier
        if tier < _BLOCK_TIERS and not j & ((1 << (_BLOCK_BITS * (tier + 1))) - 1):
            tier += 1
    return last - i


def lebesgue_partition(path: GridPath, n: int, _scan: _Scan | None = None) -> Partition:
    """Stopping-time partition at level n for a scalar path.

    T_0 = 0 and T_{k+1} is the first grid time strictly after T_k at which
    |X_t - X_{T_k}| > 2^-(n+1), capped by the largest grid time within
    T_k + 1/n.  Ties between the crossing and the cap resolve to the smaller
    time.  Every gap is <= 1/n, and for the generating path the oscillation
    over each partition interval is <= 2^-n at grid resolution.  A path with
    a NaN or infinite value is rejected with ``ValueError``.
    ``lebesgue_partitions`` builds several levels of one path together.
    """
    if _scan is None:
        _scan = _Scan(path, [n])
    out = _lebesgue_scan(_scan, n)
    return Partition(path.grid, np.fromiter(out, dtype=np.intp, count=len(out)))


def lebesgue_partitions(path: GridPath, levels) -> list[Partition]:
    """``[lebesgue_partition(path, n) for n in levels]``, with the per-path
    work shared across the levels: the finite check and the QV sum once,
    the block extrema once, and the first-exit tables in one pass."""
    scan = _Scan(path, levels)
    return [lebesgue_partition(path, n, _scan=scan) for n in scan.levels]


def oscillation(path: GridPath, p: Partition, t: float) -> float:
    """O_t(X, pi): the largest diameter of X over one partition interval.

    Intervals are half open, [t_i, t_{i+1}[, intersected with [0, t], and the
    diameter is taken over the grid samples in the window.
    """
    if t > path.grid.T:
        raise ValueError("t beyond the horizon")
    t_idx = path.grid.clamp_index(t)
    idx = p.indices
    # segments [idx[k], idx[k+1]) of the samples up to t; the last runs to t
    # (a singleton, of zero diameter, at a point <= t)
    return _max_diameter(path.x[: t_idx + 1], idx[: np.searchsorted(idx, t_idx, side="right")])


# segments of at most this many samples are measured by gathers, one per
# sample column, and longer ones by reduceat; a level whose segments average
# more samples than _REDUCEAT_MEAN takes reduceat over all of them
_GATHER_SPAN = 16
_REDUCEAT_MEAN = 8


def _max_diameter(x: np.ndarray, starts: np.ndarray) -> float:
    """The largest max - min of x over the segments [starts[k], starts[k+1]),
    the last running to the end of x.

    Two reduceat passes over every segment pay per sample and per segment;
    they are the faster route where segments hold more than about 8 samples
    on average (band-exit partitions at coarse levels).  Where most segments
    hold one or two samples (fine levels) the diameters come from gathers
    instead: |x[a+1] - x[a]| is the diameter of a segment of two samples
    (and 0, as x[a] - x[a], of one), a segment of 3..16 samples takes one
    gather per sample column, clipped to its last sample, and only longer
    ones take reduceat.  max and min pick samples exactly, so every diameter
    is the float that reduceat gives.
    """
    if x.size > _REDUCEAT_MEAN * starts.size:
        return float(np.max(np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts)))
    ends = np.append(starts[1:] - 1, x.size - 1)
    # at most the diameter of a longer segment, so it changes no maximum
    worst = np.max(np.abs(x[np.minimum(starts + 1, ends)] - x[starts]))
    wide = np.flatnonzero(ends - starts > 1)
    if wide.size:
        a, e = starts[wide], ends[wide]
        gather = e - a < _GATHER_SPAN
        ga, ge = a[gather], e[gather]
        if ga.size:
            hi = x[ga]
            lo = hi.copy()
            for c in range(1, int(np.max(ge - ga)) + 1):
                v = x[np.minimum(ga + c, ge)]
                np.maximum(hi, v, out=hi)
                np.minimum(lo, v, out=lo)
            worst = np.maximum(worst, np.max(hi - lo))
        if ga.size < a.size:
            # [a, e + 1) pairs; reduceat runs the last index to the end of x
            bounds = np.column_stack((a[~gather], e[~gather] + 1)).ravel()
            if bounds[-1] == x.size:
                bounds = bounds[:-1]
            diameters = np.maximum.reduceat(x, bounds) - np.minimum.reduceat(x, bounds)
            worst = np.maximum(worst, np.max(diameters[::2]))
    return float(worst)
