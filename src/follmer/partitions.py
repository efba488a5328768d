"""Partitions of [0, T] and refining partition sequences.

Partitions store indices into a host TimeGrid, never raw floats, so interval
assignment and membership tests are exact.  Two constructions are provided:
nested dyadic grids, and the path-adapted stopping-time ("Lebesgue")
partitions whose points are first exits from a shrinking band, capped by a
shrinking time step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import GridPath, TimeGrid, dyadic_grid

__all__ = [
    "Partition",
    "PartitionSequence",
    "dyadic_sequence",
    "thinned_sequence",
    "mesh",
    "lebesgue_partition",
    "oscillation",
    "write_partition",
]


@dataclass(frozen=True)
class Partition:
    grid: TimeGrid
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
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

    def __len__(self) -> int:
        return self.indices.size

    def refines(self, other: "Partition") -> bool:
        """Every point of ``other`` is a point of this partition."""
        return bool(np.isin(other.indices, self.indices, assume_unique=True).all())


def mesh(p: Partition) -> float:
    """|pi| = max gap between consecutive partition times."""
    return float(np.max(np.diff(p.times)))


@dataclass(frozen=True)
class PartitionSequence:
    """A refining family (pi_n); the mesh must be nonincreasing in n."""

    levels: tuple
    kind: str = "custom"

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

    def meshes(self) -> list[float]:
        return [mesh(p) for p in self.levels]


def dyadic_sequence(
    T: float = 1.0,
    n_min: int = 1,
    n_max: int = 10,
    grid: TimeGrid | None = None,
) -> PartitionSequence:
    """Nested dyadic partitions pi_n = {k T 2^-n}, n = n_min..n_max.

    The host grid defaults to the dyadic grid at level n_max; a finer dyadic
    grid may be supplied instead.
    """
    if n_min > n_max or n_min < 0:
        raise ValueError("need 0 <= n_min <= n_max")
    if grid is None:
        grid = dyadic_grid(T, n_max)
    spaces = len(grid) - 1
    levels = []
    for n in range(n_min, n_max + 1):
        step, rem = divmod(spaces, 1 << n)
        if rem or step == 0:
            raise ValueError(f"host grid cannot host dyadic level {n}")
        levels.append(Partition(grid, np.arange(0, spaces + 1, step)))
    return PartitionSequence(tuple(levels), kind="dyadic")


def thinned_sequence(grid: TimeGrid, levels: int) -> PartitionSequence:
    """Refining sequence on an arbitrary grid: stride-halving coarsenings.

    Level k keeps every 2^(levels-1-k)-th grid index plus the horizon, so
    user-supplied (e.g. ingested) grids get a partition family without any
    dyadic-structure requirement.
    """
    if levels < 1:
        raise ValueError("need at least one level")
    n = len(grid)
    out = []
    for k in range(levels):
        stride = 1 << (levels - 1 - k)
        idx = np.arange(0, n, stride)
        if idx[-1] != n - 1:
            idx = np.append(idx, n - 1)
        if idx.size < 2:
            idx = np.array([0, n - 1])
        out.append(Partition(grid, idx))
    return PartitionSequence(tuple(out), kind="thinned")


# K: exits within K samples of a start come from a table built for every
# start at once; farther ones are found by a chunked scan from the chain point.
_EXIT_WINDOW = 16


def _lebesgue_scan(x: np.ndarray, times: np.ndarray, n: int) -> list[int]:
    thr = 0.5 ** (n + 1)
    cap = 1.0 / n
    size = times.size
    j_cap = np.searchsorted(times, times + cap, side="right") - 1
    # first[i]: the least k <= K with |x[i+k] - x[i]| > thr, K + 1 if none
    # one scratch pair for all K passes: fresh temporaries per pass cost a
    # page fault per 4 KiB once the heap is trimmed back after each free
    first = np.full(size, _EXIT_WINDOW + 1)
    diff, hit = np.empty(size), np.empty(size, dtype=bool)
    for k in range(min(_EXIT_WINDOW, size - 1), 0, -1):
        d, h = diff[: size - k], hit[: size - k]
        np.abs(np.subtract(x[k:], x[:-k], out=d), out=d)
        np.copyto(first[:-k], k, where=np.greater(d, thr, out=h))
    # exit offset: the crossing or the cap, whichever comes first; <= 0 when
    # the cap admits no later grid time, > K when both lie past the window
    offset = np.minimum(first, j_cap - np.arange(size)).tolist()
    out = [0]
    i = 0
    while i < size - 1:
        k = offset[i]
        if k <= 0:
            raise ValueError(
                f"grid too coarse for the 1/n time cap at level n={n}: cap 1/n = {cap:.6g} "
                f"is below the grid step {times[i + 1] - times[i]:.6g} at t = {times[i]:.6g}"
            )
        j = i + k
        if k > _EXIT_WINDOW:
            j = last = int(j_cap[i])
            start, chunk = i + _EXIT_WINDOW + 1, 64
            while start <= last:
                end = min(start + chunk, last + 1)
                hit = np.abs(x[start:end] - x[i]) > thr
                if hit.any():
                    j = start + int(np.argmax(hit))
                    break
                start, chunk = end, chunk * 4
        out.append(j)
        i = j
    return out


def lebesgue_partition(path: GridPath, n: int) -> Partition:
    """Stopping-time partition at level n for a scalar path.

    T_0 = 0 and T_{k+1} is the first grid time strictly after T_k at which
    |X_t - X_{T_k}| > 2^-(n+1), capped by the largest grid time within
    T_k + 1/n.  Ties between the crossing and the cap resolve to the smaller
    time.  Every gap is <= 1/n, and for the generating path the oscillation
    over each partition interval is <= 2^-n at grid resolution.
    """
    if n < 1:
        raise ValueError("level n must be >= 1 (the 1/n cap is undefined at 0)")
    if path.dim != 1:
        raise ValueError("stopping-time partitions are built from scalar paths")
    idx = _lebesgue_scan(np.ascontiguousarray(path.x), path.grid.times, n)
    return Partition(path.grid, np.asarray(idx, dtype=int))


def oscillation(path: GridPath, p: Partition, t: float) -> float:
    """O_t(X, pi): the largest diameter of X over one partition interval.

    Intervals are half open, [t_i, t_{i+1}[, intersected with [0, t], and the
    diameter is taken over the grid samples in the window.
    """
    if t > path.grid.T:
        raise ValueError("t beyond the horizon")
    t_idx = path.grid.clamp_index(t)
    idx = p.indices
    if path.dim == 1 and t_idx == len(path.grid) - 1:
        # segments [idx[k], idx[k+1]) via reduceat; the trailing singleton
        # segment [T, .) has zero diameter and is harmless
        x = path.values[:, 0]
        mx = np.maximum.reduceat(x, idx)
        mn = np.minimum.reduceat(x, idx)
        return float(np.max(mx - mn))
    worst = 0.0
    for a, b in zip(idx, idx[1:]):
        hi = min(b, t_idx + 1)  # exclusive; half-open at t_{i+1}
        if hi - a < 2:
            if a > t_idx:
                break
            continue
        seg = path.values[a:hi]
        if path.dim == 1:
            d = float(seg.max() - seg.min())
        else:
            diff = seg[:, None, :] - seg[None, :, :]
            d = float(np.sqrt((diff**2).sum(-1)).max())
        worst = max(worst, d)
        if b > t_idx:
            break
    return worst


def write_partition(p: Partition, fp) -> None:
    """One time per line, plain text."""
    for t in p.times:
        fp.write(f"{float(t)!r}\n")
