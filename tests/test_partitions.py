import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import follmer as fl
from follmer import partitions
from follmer.partitions import _exit_window, thinned_sequence


class TestDyadic:
    def test_level_one(self):
        seq = fl.dyadic_sequence(1.0, 1, 1)
        assert np.array_equal(seq.top.times, [0.0, 0.5, 1.0])

    def test_level_two(self):
        seq = fl.dyadic_sequence(1.0, 2, 2)
        assert np.array_equal(seq.top.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_mesh_halves_and_nested(self):
        seq = fl.dyadic_sequence(1.0, 1, 6)
        assert [fl.mesh(p) for p in seq] == [0.5**n for n in range(1, 7)]
        for a, b in zip(seq.levels, seq.levels[1:]):
            assert np.isin(a.indices, b.indices).all()

    def test_host_grid_finer_than_top(self):
        g = fl.dyadic_grid(1.0, 8)
        seq = fl.dyadic_sequence(1.0, 2, 5, grid=g)
        assert seq.grid is g
        assert fl.mesh(seq.top) == 0.5**5

    def test_strides_on_a_finer_host_grid(self):
        # level n keeps every 32 / 2^n-th of the host's 32 steps, which meets the horizon
        seq = fl.dyadic_sequence(1.0, 0, 3, grid=fl.dyadic_grid(1.0, 5))
        assert [p.indices.tolist() for p in seq] == [
            [0, 32],
            [0, 16, 32],
            [0, 8, 16, 24, 32],
            [0, 4, 8, 12, 16, 20, 24, 28, 32],
        ]

    def test_host_grid_too_coarse_rejected(self):
        with pytest.raises(ValueError, match="cannot host dyadic level 3"):
            fl.dyadic_sequence(1.0, 1, 3, grid=fl.dyadic_grid(1.0, 2))

    @pytest.mark.parametrize(
        "grid",
        [fl.dyadic_grid(2.0, 3), fl.TimeGrid(np.array([0, 0.1, 0.2, 0.9, 1]))],
        ids=["another-horizon", "not-uniform"],
    )
    def test_host_grid_of_another_partition_rejected(self, grid):
        # the points {k T 2^-n} of the other horizon, or of no uniform grid at all
        with pytest.raises(fl.DomainError, match=r"grid is not the dyadic grid \{k T 2\^-\d+\} of T = 1\.0"):
            fl.dyadic_sequence(1.0, 1, 2, grid=grid)


class TestMesh:
    def test_uniform(self):
        g = fl.TimeGrid(np.array([0.0, 0.5, 1.0]))
        assert fl.mesh(fl.Partition(g, np.array([0, 1, 2]))) == 0.5

    def test_lopsided(self):
        g = fl.TimeGrid(np.array([0.0, 0.1, 1.0]))
        assert fl.mesh(fl.Partition(g, np.array([0, 1, 2]))) == pytest.approx(0.9)

    def test_degenerate_rejected(self):
        g = fl.TimeGrid(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            fl.Partition(g, np.array([0]))


class TestLebesgue:
    def test_linear_path_crossing_rule(self):
        # X_t = t, n=1: threshold 0.25 with strict inequality, so the first
        # partition point is one grid step past 0.25
        g = fl.dyadic_grid(1.0, 6)
        x = fl.FormulaGenerator(lambda t: t).generate(g)
        p = fl.lebesgue_partition(x, 1)
        h = 0.5**6
        assert p.times[1] == pytest.approx(0.25 + h)
        gaps = np.diff(p.times)
        assert np.all(gaps <= 1.0 + 1e-12)

    def test_constant_path_time_cap_binds(self):
        g = fl.dyadic_grid(1.0, 6)
        x = fl.FormulaGenerator(lambda t: 0.0 * t).generate(g)
        p = fl.lebesgue_partition(x, 2)
        assert np.allclose(np.diff(p.times)[:-1], 0.5)

    def test_jump_time_is_partition_point(self):
        # a unit jump exceeds the band immediately: the crossing happens AT
        # the jump time, which keeps the oscillation bound 2^-n intact
        g = fl.dyadic_grid(1.0, 7)
        x = fl.StepGenerator(c=1.0, t0=0.375).generate(g)
        p = fl.lebesgue_partition(x, 3)
        assert g.index_of(0.375) in p.indices.tolist()
        assert fl.oscillation(x, p, 1.0) <= 0.5**3

    def test_level_zero_rejected(self):
        g = fl.dyadic_grid(1.0, 4)
        x = fl.FormulaGenerator(lambda t: t).generate(g)
        with pytest.raises(ValueError):
            fl.lebesgue_partition(x, 0)

    def test_gap_and_oscillation_bounds(self):
        g = fl.dyadic_grid(1.0, 12)
        x = fl.DyadicBrownianGenerator(seed=13).generate(g)
        osc_sum = 0.0
        for n in range(2, 7):
            p = fl.lebesgue_partition(x, n)
            assert fl.mesh(p) <= 1.0 / n + 1e-12
            o = fl.oscillation(x, p, 1.0)
            assert o <= 0.5**n + 1e-12
            osc_sum += o
        assert osc_sum <= sum(0.5**n for n in range(2, 7))

    def test_grid_too_coarse(self):
        g = fl.dyadic_grid(1.0, 2)
        x = fl.FormulaGenerator(lambda t: 0.0 * t).generate(g)
        with pytest.raises(ValueError):
            fl.lebesgue_partition(x, 9)  # 1/9 cap below the grid step


class TestOscillation:
    def test_linear_half_open(self):
        g = fl.dyadic_grid(1.0, 6)
        x = fl.FormulaGenerator(lambda t: t).generate(g)
        p = fl.Partition(g, np.array([0, 32, 64]))
        h = 0.5**6
        assert fl.oscillation(x, p, 1.0) == pytest.approx(0.5 - h)

    def test_constant(self):
        g = fl.dyadic_grid(1.0, 5)
        x = fl.FormulaGenerator(lambda t: 0.0 * t).generate(g)
        p = fl.Partition(g, np.array([0, 16, 32]))
        assert fl.oscillation(x, p, 1.0) == 0.0

    def test_truncation_in_t(self):
        g = fl.dyadic_grid(1.0, 4)
        x = fl.FormulaGenerator(lambda t: t).generate(g)
        p = fl.Partition(g, np.array([0, 8, 16]))
        # only the first interval is seen up to t = 0.5
        assert fl.oscillation(x, p, 0.5) == pytest.approx(0.5 - 0.5**4)

    def test_monotone_in_t(self):
        g = fl.dyadic_grid(1.0, 6)
        x = fl.DyadicBrownianGenerator(seed=3).generate(g)
        p = fl.dyadic_sequence(1.0, 2, 2, grid=g).top
        vals = [fl.oscillation(x, p, t) for t in (0.25, 0.5, 0.75, 1.0)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_shrinks_under_refinement(self):
        g = fl.dyadic_grid(1.0, 8)
        x = fl.DyadicBrownianGenerator(seed=4).generate(g)
        seq = fl.dyadic_sequence(1.0, 2, 6, grid=g)
        osc = [fl.oscillation(x, p, 1.0) for p in seq]
        assert all(a >= b - 1e-15 for a, b in zip(osc, osc[1:]))

    def test_fast_path_matches_loop(self):
        g = fl.dyadic_grid(1.0, 8)
        x = fl.DyadicBrownianGenerator(seed=9).generate(g)
        p = fl.lebesgue_partition(x, 3)
        fast = fl.oscillation(x, p, 1.0)
        # just below the horizon the last sample drops out of the last interval
        slow = fl.oscillation(x, p, 1.0 - 0.5**9)
        assert fast >= slow - 1e-15
        assert fast == pytest.approx(slow, abs=0.5**3)


def _oscillation_loop(path, p, t_idx):
    """Reference scalar oscillation, one Python step per partition interval."""
    worst = 0.0
    for a, b in zip(p.indices, p.indices[1:]):
        hi = min(b, t_idx + 1)
        if hi - a < 2:
            if a > t_idx:
                break
            continue
        seg = path.x[a:hi]
        worst = max(worst, float(seg.max() - seg.min()))
        if b > t_idx:
            break
    return worst


@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=80),
    seed=st.integers(0, 2**32 - 1),
    points=st.sets(st.integers(1, 79), max_size=30),
    where=st.floats(0.0, 1.0),
)
def test_oscillation_equals_the_interval_loop(steps, seed, points, where):
    g = fl.TimeGrid(np.concatenate([[0.0], np.cumsum(steps)]))
    x = np.cumsum(np.random.default_rng(seed).normal(size=len(g)))
    p = fl.Partition(g, np.array(sorted({0, len(g) - 1} | {k for k in points if k < len(g) - 1})))
    t = where * g.T
    path = fl.GridPath(g, x)
    assert fl.oscillation(path, p, t) == _oscillation_loop(path, p, g.clamp_index(t))


@settings(max_examples=120, deadline=None)
@given(
    size=st.integers(64, 2048),
    uniform=st.booleans(),
    sigma=st.sampled_from([1e-3, 0.05, 0.3, 1.0, 3.0]),
    jumps=st.sampled_from([None, "coin", "uniform"]),
    jump_size=st.sampled_from([1e-3, 0.1, 0.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 10),
    where=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
)
def test_oscillation_of_band_exit_partitions_equals_the_interval_loop(
    size, uniform, sigma, jumps, jump_size, seed, n, where
):
    # band-exit partitions hold every mix of segment lengths from one or two
    # samples (fine levels, jumps) to the 1/n cap (small sigma, coarse levels)
    rng = np.random.default_rng(seed)
    if uniform:
        g = fl.TimeGrid(np.arange(size + 1) / size)
    else:
        steps = rng.uniform(0.5, 1.5, size=size)
        g = fl.TimeGrid(np.concatenate([[0.0], np.cumsum(steps) / steps.sum()]))
    dw = rng.normal(size=size) * np.sqrt(np.diff(g.times))
    path = fl.GridPath(g, sigma * np.concatenate([[0.0], np.cumsum(dw)]))
    if jumps:
        gen = fl.CompoundJumpGenerator(seed=seed, intensity=8.0, size=jump_size, sampler=jumps)
        path = fl.add_paths(path, gen.generate(g))
    p = fl.lebesgue_partition(path, n)
    for t in [g.T] + [w * g.T for w in where]:
        assert fl.oscillation(path, p, t) == _oscillation_loop(path, p, g.clamp_index(t))


@pytest.mark.parametrize("long_last", [False, True])
def test_max_diameter_takes_every_segment_length(long_last):
    # mean length under 8 takes the gathers: lengths 1 and 2, 3..16 by
    # columns, 17 and 40 by reduceat over [start, end + 1) pairs, the last
    # pair's end being the end of x when a long segment comes last
    rng = np.random.default_rng(3)
    for _ in range(20):
        lens = rng.permutation([1] * 40 + [2] * 20 + list(range(3, 17)) + [17, 40])
        k = int(np.argmax(lens)) if long_last else len(lens) - 1
        j = len(lens) - 1 if long_last else int(np.argmin(lens))
        lens[[j, k]] = lens[[k, j]]
        assert (lens[-1] == 40) == long_last
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        x = rng.normal(size=int(lens.sum()))
        assert x.size <= partitions._REDUCEAT_MEAN * starts.size
        want = max(float(x[a : a + m].max() - x[a : a + m].min()) for a, m in zip(starts, lens))
        assert partitions._max_diameter(x, starts) == want


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=300),
    levels=st.integers(1, 10),
)
def test_thinned_sequence_on_nonuniform_grids(steps, levels):
    g = fl.TimeGrid(np.concatenate([[0.0], np.cumsum(steps)]))
    seq = thinned_sequence(g, levels)
    assert len(seq) == levels
    for p in seq:
        assert p.indices[0] == 0 and p.indices[-1] == len(g) - 1
        assert np.all(np.diff(p.indices) > 0)
    for coarse, fine in zip(seq.levels, seq.levels[1:]):
        assert np.isin(coarse.indices, fine.indices).all()
    assert np.array_equal(seq.top.indices, np.arange(len(g)))


@pytest.mark.parametrize(
    "points, levels, want",
    [
        (11, 3, [[0, 4, 8, 10], [0, 2, 4, 6, 8, 10], list(range(11))]),
        (7, 3, [[0, 4, 6], [0, 2, 4, 6], list(range(7))]),
        (6, 2, [[0, 2, 4, 5], list(range(6))]),
        (3, 4, [[0, 2], [0, 2], [0, 2], [0, 1, 2]]),
    ],
)
def test_thinned_sequence_appends_the_horizon_a_stride_misses(points, levels, want):
    g = fl.TimeGrid(np.cumsum(np.r_[0.0, np.linspace(1.0, 2.0, points - 1)]))
    assert [p.indices.tolist() for p in thinned_sequence(g, levels)] == want


def test_thinned_sequence_needs_a_level():
    with pytest.raises(fl.DomainError, match="levels need at least one level, got 0"):
        thinned_sequence(fl.dyadic_grid(1.0, 2), 0)


def test_mesh_nonincreasing_enforced():
    g = fl.dyadic_grid(1.0, 4)
    fine = fl.Partition(g, np.arange(17))
    coarse = fl.Partition(g, np.array([0, 8, 16]))
    with pytest.raises(ValueError):
        fl.PartitionSequence((fine, coarse))


def _lebesgue_scan_py(x: np.ndarray, times: np.ndarray, thr: float, cap: float) -> list[int]:
    """Reference band-exit scan, one Python step per partition point."""
    n = times.size
    out = [0]
    i = 0
    while i < n - 1:
        ref = x[i]
        j_cap = int(np.searchsorted(times, times[i] + cap, side="right")) - 1
        if j_cap <= i:
            raise ValueError("grid too coarse for the 1/n time cap")
        j = -1
        start, chunk = i + 1, 64
        while start <= j_cap:
            end = min(start + chunk, j_cap + 1)
            hit = np.abs(x[start:end] - ref) > thr
            if hit.any():
                j = start + int(np.argmax(hit))
                break
            start, chunk = end, chunk * 4
        if j < 0:
            j = j_cap
        out.append(j)
        i = j
    return out


def _scan_outcome(scan):
    try:
        return scan()
    except ValueError as exc:
        assert str(exc).startswith("grid too coarse for the 1/n time cap")
        return "too coarse"


def assert_matches_reference(path, levels):
    x = np.ascontiguousarray(path.x)
    for n in levels:
        want = _scan_outcome(lambda: _lebesgue_scan_py(x, path.grid.times, 0.5 ** (n + 1), 1.0 / n))
        got = _scan_outcome(lambda: fl.lebesgue_partition(path, n).indices.tolist())
        assert got == want, f"level {n}"


class TestLebesgueMatchesReference:
    @pytest.mark.parametrize("grid_level, seed", [(12, 7), (12, 8), (16, 7)])
    def test_brownian(self, grid_level, seed):
        w = fl.DyadicBrownianGenerator(seed=seed).generate(fl.dyadic_grid(1.0, grid_level))
        assert_matches_reference(w, range(1, 9))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_brownian_with_compound_jumps(self, seed):
        g = fl.dyadic_grid(1.0, 14)
        jumps = fl.CompoundJumpGenerator(seed=seed, intensity=20.0, size=0.3, sampler="uniform").generate(g)
        assert jumps.jumps
        assert_matches_reference(jumps, range(1, 9))
        assert_matches_reference(fl.add_paths(fl.DyadicBrownianGenerator(seed=seed).generate(g), jumps), range(1, 9))

    def test_constant_path_cap_binds_every_step(self):
        x = fl.FormulaGenerator(lambda t: 0.0 * t).generate(fl.dyadic_grid(1.0, 10))
        assert_matches_reference(x, range(1, 9))

    def test_linear_path(self):
        x = fl.FormulaGenerator(lambda t: t).generate(fl.dyadic_grid(1.0, 10))
        assert_matches_reference(x, range(1, 9))

    def test_tables_are_released_once_walked(self, monkeypatch):
        # the scan lets go of each table as its level takes it; a level
        # asked for again gets its table rebuilt alone
        path = fl.DyadicBrownianGenerator(seed=4).generate(fl.dyadic_grid(1.0, 12))
        calls = []
        real = partitions._first_exits

        def spy(x, times, levels):
            calls.append([window for _, _, window in levels])
            return real(x, times, levels)

        monkeypatch.setattr(partitions, "_first_exits", spy)
        scan = partitions._Scan(path, [6, 7, 7])
        assert scan.windows[6] and scan.windows[7]
        fl.lebesgue_partition(path, 6, _scan=scan)
        assert list(scan._tables) == [7]
        fl.lebesgue_partition(path, 7, _scan=scan)
        fl.lebesgue_partition(path, 7, _scan=scan)
        assert scan._tables == {} and calls == [[16, 16], [16]]
        monkeypatch.undo()
        assert_levels_match_reference(path, [6, 7, 7])

    def test_nonuniform_grid(self):
        steps = np.random.default_rng(5).exponential(size=4999)
        g = fl.TimeGrid(np.concatenate([[0.0], np.cumsum(steps) / steps.sum()]))
        x = np.cumsum(np.random.default_rng(6).normal(size=len(g)) * np.sqrt(np.diff(g.times, prepend=0.0)))
        assert_matches_reference(fl.GridPath(g, x), range(1, 9))

    def test_too_coarse_grid_raises_in_both(self):
        # the step from 0.5 to 0.875 exceeds the caps 1/3 and 1/4 once the chain reaches 0.5
        g = fl.TimeGrid(np.array([0.0, 0.125, 0.25, 0.375, 0.5, 0.875, 1.0]))
        for values in (np.zeros(7), np.array([0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0])):
            path = fl.GridPath(g, values)
            assert_matches_reference(path, range(1, 5))
            with pytest.raises(ValueError, match=r"at level n=4: .* at t = 0\.5$"):
                fl.lebesgue_partition(path, 4)

    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=60),
        values=st.lists(st.floats(-1.0, 1.0), min_size=61, max_size=61),
        scale=st.sampled_from([1.0, 1e-2, 1e-3]),
        n=st.integers(1, 8),
    )
    def test_property_small_grids(self, steps, values, scale, n):
        g = fl.TimeGrid(np.concatenate([[0.0], np.cumsum(steps)]))
        assert_matches_reference(fl.GridPath(g, scale * np.array(values[: len(g)])), [n])


def test_too_coarse_message_names_level_cap_and_step():
    x = fl.FormulaGenerator(lambda t: 0.0 * t).generate(fl.dyadic_grid(1.0, 2))
    with pytest.raises(ValueError, match=r"at level n=9: cap 1/n = 0\.111111 is below the grid step 0\.25 at t = 0$"):
        fl.lebesgue_partition(x, 9)


def _walk_with_jumps(rng, size: int, scale: float) -> np.ndarray:
    """Random walk of ``size`` points with occasional jumps of order one."""
    steps = scale * rng.normal(size=size)
    steps += (rng.random(size) < 2.0 / size) * rng.choice([-1.0, 1.0], size=size) * rng.uniform(0.2, 1.0, size=size)
    steps[0] = 0.0
    return np.cumsum(steps)


class TestBlockExtremaSearch:
    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(2, 6000),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([0.0, 1e-4, 1e-3, 1e-2, 1e-1]),
        horizon=st.sampled_from([0.5, 1.0, 2.0, 10.0]),
        n=st.integers(1, 10),
    )
    def test_property_nonuniform_random_walks(self, size, seed, scale, horizon, n):
        # lengths of any residue mod 16, 256 and 4096 leave the last block of
        # every tier partial; short grids on long horizons are too coarse
        rng = np.random.default_rng(seed)
        steps = rng.exponential(size=size - 1)
        g = fl.TimeGrid(np.concatenate([[0.0], np.cumsum(steps) * (horizon / steps.sum())]))
        assert_matches_reference(fl.GridPath(g, _walk_with_jumps(rng, size, scale)), [n])

    @pytest.mark.parametrize("noise", [0.0, 1e-4])
    def test_slow_drift_exits_past_the_top_tier(self, noise):
        g = fl.dyadic_grid(1.0, 16)
        x = 0.5 * g.times + noise * np.random.default_rng(11).normal(size=len(g))
        path = fl.GridPath(g, x)
        assert_matches_reference(path, range(1, 9))
        gaps = np.diff(fl.lebesgue_partition(path, 3).indices)
        assert gaps.max() > 4096

    def test_cap_in_the_middle_of_a_block(self):
        # 10,000 points: from 0 the 1/3 cap lands on index 3333 = 16 * 208 + 5,
        # and the exit at index 3334 sits in the same 16-sample block
        g = fl.TimeGrid(np.linspace(0.0, 1.0, 10_000))
        j_cap = int(np.searchsorted(g.times, g.times[0] + 1.0 / 3, side="right")) - 1
        assert j_cap % 16 not in (0, 15)
        x = np.zeros(len(g))
        x[j_cap + 1 :] = 1.0
        path = fl.GridPath(g, x)
        assert fl.lebesgue_partition(path, 3).indices[1] == j_cap
        assert_matches_reference(path, range(1, 9))

    def test_far_exits_on_rounding_edges(self):
        # a step to one or two ulps around fl(a +- thr), 200 samples in, so the
        # block test decides it: it must round exactly as the sample test does;
        # a +- thr rounds when |a| < thr or the sum changes binade
        g = fl.TimeGrid(np.linspace(0.0, 1.0, 256))
        rng = np.random.default_rng(17)
        for n in (1, 2, 3):
            thr = 0.5 ** (n + 1)
            sign = rng.choice([-1.0, 1.0], size=(2, 60))
            spread = 10.0 ** rng.uniform(-6.0, 1.0, size=60)
            below_binade = 2.0 ** rng.integers(-1, 4, size=60) - thr * rng.uniform(0.0, 1.0, size=60)
            for a in np.concatenate([sign[0] * spread, sign[1] * below_binade]):
                for edge in (a + thr, a - thr):
                    for ulps in (-2, -1, 0, 1, 2):
                        x = np.full(len(g), a)
                        x[200:] = edge + ulps * np.spacing(edge)
                        assert_matches_reference(fl.GridPath(g, x), [n])

    @pytest.mark.parametrize("before", [False, True])
    @pytest.mark.parametrize("offset", [2, 130, 300])
    def test_block_pre_tests_on_rounding_edges(self, offset, before):
        # the 1/3 cap puts a chain point at i = 333, inside the 16-block
        # 320..335 and the 256-block 256..511, where the path moves from
        # b = c - 0.6 thr to c.  One sample ``offset`` past i (in i's
        # 16-block, in its 256-block only, or past both) sits one or two ulps
        # around fl(c +- thr), so a whole-block pre-test decides it; c +- thr
        # rounds when |c| < thr or the sum changes binade.  With ``before``,
        # a sample of i's 16-block before i leaves c's band (but not b's), so
        # that pre-test must not skip the block
        g = fl.TimeGrid(np.linspace(0.0, 1.0, 1001))
        n, i = 3, 333
        thr = 0.5 ** (n + 1)
        rng = np.random.default_rng(23)
        binades = 2.0 ** rng.integers(-1, 4, size=12) + thr * rng.uniform(-1.0, 1.0, size=12)
        small = thr * rng.uniform(-1.0, 1.0, size=4)
        for c in np.concatenate([binades * rng.choice([-1.0, 1.0], size=12), small]):
            b = c - 0.6 * thr
            for edge in (c + thr, c - thr):
                for ulps in (-2, -1, 0, 1, 2):
                    x = np.full(len(g), b)
                    x[i:] = c
                    if before:
                        x[i - 5] = b - 0.6 * thr
                    x[i + offset] = edge + ulps * np.spacing(edge)
                    path = fl.GridPath(g, x)
                    assert fl.lebesgue_partition(path, n).indices[1] == i
                    assert_matches_reference(path, [n])


class TestScanModes:
    """Each level's search is picked from the path (no table, a 32-sample or
    a 16-sample table); whichever is picked, the indices are the reference's."""

    def test_exit_window_thresholds(self):
        assert [_exit_window(d) for d in (1e9, 32.5, 32.0, 2.5, 2.0, 1.0, 0.0)] == [0, 0, 32, 32, 16, 16, 16]
        assert _exit_window(math.inf) == 0

    @staticmethod
    def _record(monkeypatch, name):
        calls = []
        real = getattr(partitions, name)

        def spy(*args):
            out = real(*args)
            calls.append((args, out))
            return out

        monkeypatch.setattr(partitions, name, spy)
        return calls

    def test_brownian_levels_use_every_mode(self, monkeypatch):
        w = fl.DyadicBrownianGenerator(seed=2).generate(fl.dyadic_grid(1.0, 16))
        windows = self._record(monkeypatch, "_exit_window")
        assert_matches_reference(w, range(3, 9))
        assert {out for _, out in windows} == {0, 32, 16}

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_drift_the_qv_calls_sparse_hands_over_to_the_table(self, n):
        # flat up to index 60,000, then a drift of thr / 2.5 per sample: the
        # QV predicts exits over 32 samples apart, the drift exits every 1-3;
        # the table-free walk takes the whole level
        g = fl.dyadic_grid(1.0, 16)
        thr = 0.5 ** (n + 1)
        x = np.maximum(np.arange(len(g)) - 60_000, 0) * (thr / 2.5)
        path = fl.GridPath(g, x)
        assert _exit_window(65_536 * thr * thr / np.sum(np.diff(x) ** 2)) == 0
        assert_matches_reference(path, [n])
        gaps = np.diff(fl.lebesgue_partition(path, n).indices)
        assert set(gaps[-100:].tolist()) <= {1, 2, 3}

    def test_table_free_level_walks_a_table_of_stop_codes(self, monkeypatch):
        # a window-0 level builds no table: every start reads the stop code
        w = fl.DyadicBrownianGenerator(seed=2).generate(fl.dyadic_grid(1.0, 16))
        firsts = self._record(monkeypatch, "_first_exits")
        scan = partitions._Scan(w, [3])
        assert scan.windows[3] == 0
        assert scan.table(3) == b"\x01" * len(w.grid)
        assert_matches_reference(w, [3])
        assert firsts == []

    def test_drift_hand_over_then_a_grid_too_coarse(self):
        # sparse by QV, then the table-free walk meets a step longer than 1/11
        g = fl.TimeGrid(np.append(np.linspace(0.0, 0.9, 22_000), 1.0))
        thr = 0.5**12
        x = np.maximum(np.arange(len(g)) - 20_000, 0) * (thr / 2.5)
        path = fl.GridPath(g, x)
        assert _exit_window((len(g) - 1) * thr * thr / np.sum(np.diff(x) ** 2)) == 0
        assert_matches_reference(path, [11])
        with pytest.raises(ValueError, match=r"at level n=11: .* below the grid step 0\.1 at t = 0\.9$"):
            fl.lebesgue_partition(path, 11)

    def test_huge_values_predict_close_exits_without_a_warning(self):
        # the squares overflow to inf: d = 0, the 16-sample table
        g = fl.dyadic_grid(1.0, 10)
        path = fl.GridPath(g, 1e200 * np.cumsum(np.random.default_rng(4).normal(size=len(g))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_reference(path, [3])

    def test_jump_dominated_path(self):
        # large jumps carry the QV, so the table is chosen, but most chain
        # points are far exits between the jumps
        g = fl.dyadic_grid(1.0, 16)
        jumps = fl.CompoundJumpGenerator(seed=5, intensity=60.0, size=1.0, sampler="uniform").generate(g)
        path = fl.add_paths(fl.DyadicBrownianGenerator(seed=5, sigma=0.02).generate(g), jumps)
        assert np.sum(jumps.dX**2) > 0.9 * np.sum(np.diff(path.x) ** 2)
        assert_matches_reference(path, range(3, 9))


def assert_levels_match_reference(path, levels):
    """``lebesgue_partitions`` gives the reference chain at every level, or
    raises for the first level, in order, whose grid is too coarse."""
    x = np.ascontiguousarray(path.x)
    want = [_scan_outcome(lambda: _lebesgue_scan_py(x, path.grid.times, 0.5 ** (n + 1), 1.0 / n)) for n in levels]
    if "too coarse" in want:
        n = levels[want.index("too coarse")]
        with pytest.raises(ValueError, match=rf"^grid too coarse for the 1/n time cap at level n={n}: "):
            fl.lebesgue_partitions(path, levels)
    else:
        assert [p.indices.tolist() for p in fl.lebesgue_partitions(path, levels)] == want


class TestLebesguePartitions:
    """All levels of one path built together share its scan state: one
    finite check and QV sum, one set of block extrema, one pass for every
    first-exit table.  Each level must still be the reference chain."""

    @pytest.mark.parametrize("seed", [2, 3])
    def test_brownian_with_and_without_jumps(self, seed):
        g = fl.dyadic_grid(1.0, 16)
        w = fl.DyadicBrownianGenerator(seed=seed).generate(g)
        jumps = fl.CompoundJumpGenerator(seed=seed, intensity=2.0, size=0.5).generate(g)
        assert jumps.jumps
        for path in (w, fl.add_paths(w, jumps)):
            assert_levels_match_reference(path, list(range(1, 9)))

    def test_drift_hand_over_among_table_levels(self, monkeypatch):
        # level 3 is table-free by its QV and walks its drift without a
        # table; levels 7 and 8 share one pass over the path
        g = fl.dyadic_grid(1.0, 16)
        x = np.maximum(np.arange(len(g)) - 60_000, 0) * (0.5**4 / 2.5)
        x = x + 1e-3 * np.random.default_rng(1).normal(size=len(g))
        calls = []
        real = partitions._first_exits

        def spy(x, times, levels):
            calls.append((x.size, [window for _, _, window in levels]))
            return real(x, times, levels)

        monkeypatch.setattr(partitions, "_first_exits", spy)
        assert_levels_match_reference(fl.GridPath(g, x), [3, 7, 8])
        assert calls == [(len(g), [16, 16])]

    def test_tables_are_released_once_walked(self, monkeypatch):
        # the scan lets go of each table as its level takes it; a level
        # asked for again gets its table rebuilt alone
        path = fl.DyadicBrownianGenerator(seed=4).generate(fl.dyadic_grid(1.0, 12))
        calls = []
        real = partitions._first_exits

        def spy(x, times, levels):
            calls.append([window for _, _, window in levels])
            return real(x, times, levels)

        monkeypatch.setattr(partitions, "_first_exits", spy)
        scan = partitions._Scan(path, [6, 7, 7])
        assert scan.windows[6] and scan.windows[7]
        fl.lebesgue_partition(path, 6, _scan=scan)
        assert list(scan._tables) == [7]
        fl.lebesgue_partition(path, 7, _scan=scan)
        fl.lebesgue_partition(path, 7, _scan=scan)
        assert scan._tables == {} and calls == [[16, 16], [16]]
        monkeypatch.undo()
        assert_levels_match_reference(path, [6, 7, 7])

    def test_nonuniform_grid(self):
        steps = np.random.default_rng(5).exponential(size=4999)
        g = fl.TimeGrid(np.concatenate([[0.0], np.cumsum(steps) / steps.sum()]))
        x = np.cumsum(np.random.default_rng(6).normal(size=len(g)) * np.sqrt(np.diff(g.times, prepend=0.0)))
        assert_levels_match_reference(fl.GridPath(g, x), [8, 1, 5, 5, 3])

    def test_constant_path(self):
        x = fl.FormulaGenerator(lambda t: 0.0 * t).generate(fl.dyadic_grid(1.0, 10))
        assert_levels_match_reference(x, list(range(1, 9)))

    @pytest.mark.parametrize("levels", [[1, 2, 3, 4], [2, 4, 3], [4, 1]])
    def test_too_coarse_grid(self, levels):
        g = fl.TimeGrid(np.array([0.0, 0.125, 0.25, 0.375, 0.5, 0.875, 1.0]))
        assert_levels_match_reference(fl.GridPath(g, np.array([0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0])), levels)

    def test_rejects_like_lebesgue_partition(self):
        g = fl.dyadic_grid(1.0, 6)
        x = np.zeros(len(g))
        with pytest.raises(ValueError, match=r"level n must be >= 1"):
            fl.lebesgue_partitions(fl.GridPath(g, x), [3, 0])
        x[40] = np.nan
        with pytest.raises(ValueError, match=r"non-finite value nan at grid index 40"):
            fl.lebesgue_partitions(fl.GridPath(g, x), [3])

    @settings(max_examples=150, deadline=None)
    @given(
        size=st.integers(2, 6000),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([0.0, 1e-4, 1e-3, 1e-2, 1e-1]),
        levels=st.lists(st.integers(1, 10), min_size=1, max_size=6),
    )
    def test_property_random_walks_and_level_lists(self, size, seed, scale, levels):
        rng = np.random.default_rng(seed)
        steps = rng.exponential(size=size - 1)
        g = fl.TimeGrid(np.concatenate([[0.0], np.cumsum(steps) / steps.sum()]))
        assert_levels_match_reference(fl.GridPath(g, _walk_with_jumps(rng, size, scale)), levels)


def _ulps(t: float, k: int) -> float:
    for _ in range(abs(k)):
        t = float(np.nextafter(t, np.inf if k > 0 else -np.inf))
    return t


class TestCapEdges:
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    @pytest.mark.parametrize("n, per_cap", [(8, 12), (5, 17), (3, 40)])
    def test_grid_time_on_the_cap(self, n, per_cap, ulps):
        # every per_cap-th time sits ``ulps`` ulps from fl(c + 1/n), c the time
        # per_cap points earlier: the cap is inside the 16-sample window, at
        # its edge, or past it
        cap = 1.0 / n
        times, c = [0.0], 0.0
        while c < 1.0:
            times += [c + cap * k / per_cap for k in range(1, per_cap)]
            c = _ulps(c + cap, ulps)
            times.append(c)
        g = fl.TimeGrid(np.array(times))
        flat = fl.GridPath(g, np.zeros(len(g)))
        steps = fl.GridPath(g, (np.arange(len(g)) // per_cap).astype(float))
        for path in (flat, steps):
            assert_matches_reference(path, [n])
        on_cap = per_cap if ulps <= 0 else per_cap - 1
        assert fl.lebesgue_partition(flat, n).indices[1] == on_cap
        assert fl.lebesgue_partition(steps, n).indices[1] == on_cap

    def test_cap_binds_inside_the_window_before_a_later_exit(self):
        # 5 steps fit in the 1/8 cap; the band is left only every 12 samples
        g = fl.TimeGrid(np.linspace(0.0, 1.0, 45))
        path = fl.GridPath(g, (np.arange(len(g)) // 12).astype(float))
        assert fl.lebesgue_partition(path, 8).indices[:4].tolist() == [0, 5, 10, 12]
        assert_matches_reference(path, range(1, 9))

    @pytest.mark.parametrize("ulps, too_coarse", [(0, False), (1, True)])
    def test_first_step_on_the_cap(self, ulps, too_coarse):
        g = fl.TimeGrid(np.array([0.0, _ulps(1.0 / 3, ulps), 0.5, 0.75, 1.0]))
        path = fl.GridPath(g, np.zeros(len(g)))
        assert_matches_reference(path, [3])
        if too_coarse:
            with pytest.raises(
                ValueError,
                match=r"^grid too coarse for the 1/n time cap at level n=3: cap 1/n = 0\.333333 "
                r"is below the grid step 0\.333333 at t = 0$",
            ):
                fl.lebesgue_partition(path, 3)
        else:
            assert fl.lebesgue_partition(path, 3).indices.tolist() == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_path_rejected(bad):
    g = fl.dyadic_grid(1.0, 6)
    x = np.zeros(len(g))
    x[40] = bad
    with pytest.raises(ValueError, match=rf"non-finite value {bad!r} at grid index 40, t = 0\.625$"):
        fl.lebesgue_partition(fl.GridPath(g, x), 3)
