import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta

import follmer as fl
from follmer import partitions
from follmer.mc import _binomial_interval, run_seed


def test_constant_path_exact():
    exp = fl.McExperiment(seeds=(0,), n_min=2, n_max=5, grid_level=10, sigma=0.0)
    out = run_seed(exp, 0)
    assert out.trend.gaps == (0.0, 0.0, 0.0, 0.0)
    assert out.osc_sum == 0.0
    assert out.gaps_ok and out.osc_ok and out.passed


def test_pure_jump_exact_once_isolated():
    exp = fl.McExperiment(
        seeds=(3,), n_min=3, n_max=7, grid_level=12, sigma=0.0,
        jump_intensity=3.0, jump_size=0.4, tol=1e-9,
    )
    out = run_seed(exp, 3)
    # band exits land exactly on the jump times, so the QV curve matches the
    # squared-jump target once every jump exceeds the band
    assert out.trend.final_gap <= 1e-12
    assert out.gaps_ok and out.osc_ok


def test_diffusion_batch_pass_fraction():
    exp = fl.McExperiment(seeds=tuple(range(16)), n_min=3, n_max=8, grid_level=16)
    summary = fl.run_mc(exp)
    assert summary.pass_fraction >= 0.9
    assert summary.bounds_fraction == 1.0
    med = summary.per_level_median_error
    assert med[-1] < med[0]
    lo, hi = summary.pass_interval
    assert 0.0 <= lo <= summary.pass_fraction <= hi <= 1.0


def test_constructive_bounds_sum():
    exp = fl.McExperiment(seeds=(5,), n_min=3, n_max=8, grid_level=15)
    out = run_seed(exp, 5)
    assert out.osc_sum <= out.osc_sum_bound
    assert out.osc_sum_bound == sum(0.5**n for n in range(3, 9))


def test_summary_json_roundtrip():
    exp = fl.McExperiment(seeds=(0, 1), n_min=3, n_max=5, grid_level=12)
    summary = fl.run_mc(exp)
    doc = summary.to_dict()
    assert doc["seeds"] == 2
    assert doc["levels"] == [3, 5]
    assert json.loads(json.dumps(doc, sort_keys=True)) == doc


def test_jumpy_batch_targets_include_jumps():
    exp = fl.McExperiment(
        seeds=(11,), n_min=3, n_max=7, grid_level=14, sigma=0.5,
        jump_intensity=2.0, jump_size=0.5,
    )
    out = run_seed(exp, 11)
    assert out.gaps_ok and out.osc_ok
    assert out.trend.final_gap <= 5e-2


def test_run_seed_builds_every_level_through_lebesgue_partition(monkeypatch):
    # one traced call per level, all sharing the per-path scan state
    calls = []
    real = partitions.lebesgue_partition

    def spy(path, n, **kwargs):
        calls.append((n, kwargs["_scan"]))
        return real(path, n, **kwargs)

    monkeypatch.setattr(partitions, "lebesgue_partition", spy)
    exp = fl.McExperiment(seeds=(0,), n_min=3, n_max=8, grid_level=12, jump_intensity=2.0)
    out = run_seed(exp, 0)
    assert [n for n, _ in calls] == [3, 4, 5, 6, 7, 8]
    assert len({id(scan) for _, scan in calls}) == 1
    monkeypatch.undo()
    assert run_seed(exp, 0) == out


def test_seed_paths_share_the_experiments_grid():
    exp = fl.McExperiment(seeds=(0, 1), grid_level=8, jump_intensity=2.0)
    grids = {id(fl.mc._sample_path(exp, s).grid) for s in exp.seeds}
    assert grids == {id(exp.grid)}
    assert np.array_equal(exp.grid.times, fl.dyadic_grid(1.0, 8).times)


@pytest.mark.parametrize("seeds", [(), []])
def test_empty_seeds_rejected(seeds):
    with pytest.raises(ValueError, match="^seeds is empty"):
        fl.McExperiment(seeds=seeds)


@pytest.mark.parametrize("field", ["T", "sigma", "jump_intensity", "jump_size"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_fields_rejected(field, bad):
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got {bad!r}$"):
        fl.McExperiment(seeds=(0,), **{field: bad})


def test_negative_uniform_jump_size_rejected():
    with pytest.raises(fl.DomainError, match=r"^jump_size must be nonnegative for the uniform sampler, got -0.5$"):
        fl.McExperiment(seeds=(0,), jump_sampler="uniform", jump_size=-0.5)
    assert fl.McExperiment(seeds=(0,), jump_sampler="coin", jump_size=-0.5).jump_size == -0.5


def _beta_interval(k, n):
    lo = np.where(k == 0, 0.0, beta.ppf(0.025, np.maximum(k, 1), n - k + 1))
    hi = np.where(k == n, 1.0, beta.ppf(0.975, k + 1, np.maximum(n - k, 1)))
    return lo, hi


@pytest.mark.parametrize("n", range(1, 65))
def test_binomial_interval_matches_beta_quantiles(n):
    k = np.arange(n + 1)
    got = np.array([_binomial_interval(int(j), n) for j in k])
    lo, hi = _beta_interval(k, n)
    assert got[0, 0] == 0.0 and got[-1, 1] == 1.0
    np.testing.assert_allclose(got[:, 0], lo, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got[:, 1], hi, rtol=1e-12, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(65, 256), frac=st.floats(0.0, 1.0))
def test_binomial_interval_matches_beta_quantiles_large_n(n, frac):
    k = round(frac * n)
    lo, hi = _beta_interval(np.array(k), n)
    assert _binomial_interval(k, n) == pytest.approx((float(lo), float(hi)), rel=1e-12, abs=0.0)


def _full_sup_error(path, p, target):
    """The sup error from the QV curve over the whole grid."""
    return float(np.max(np.abs(fl.mc.qv_curve(path, p) - target)))


def _test_path(size, uniform, sigma, jumps, jump_size, seed):
    """A diffusion on a dyadic or a non-uniform grid of ``size + 1`` points,
    plus compound jumps ("coin", "uniform") when ``jumps`` names a sampler."""
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
    return path


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(64, 4096),
    uniform=st.booleans(),
    sigma=st.sampled_from([0.0, 1e-3, 0.05, 0.3, 1.0, 3.0]),
    jumps=st.sampled_from([None, "coin", "uniform"]),
    jump_size=st.sampled_from([1e-3, 0.1, 0.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 10),
    stepped=st.booleans(),
)
def test_sup_error_is_the_full_curve_formula(size, uniform, sigma, jumps, jump_size, seed, n, stepped):
    # small sigma at low n ends segments at the 1/n cap, jumps of 2.0 lie far
    # outside every band; the target is mc's, or a random nondecreasing one
    path = _test_path(size, uniform, sigma, jumps, jump_size, seed)
    p = fl.lebesgue_partition(path, n)
    if stepped:
        target = np.cumsum(np.random.default_rng(seed + 1).exponential(size=len(path.grid)) * 4.0 / size)
    else:
        target = sigma**2 * path.grid.times + np.cumsum(path.dX ** 2)
    assert fl.mc._sup_error(path, p, target, n) == _full_sup_error(path, p, target)


def test_sup_error_on_cap_ended_segments():
    # a quiet path leaves no band at levels 1..3: every segment ends at the cap
    path = _test_path(4096, True, 1e-3, None, 0.0, 4)
    target = 1e-6 * path.grid.times
    g = path.grid
    for n in (1, 2, 3):
        p = fl.lebesgue_partition(path, n)
        assert all(b == g.clamp_index(g.times[a] + 1.0 / n) for a, b in zip(p.indices, p.indices[1:]))
        assert fl.mc._sup_error(path, p, target, n) == _full_sup_error(path, p, target)


def test_sup_error_takes_the_full_curve_when_the_sums_overflow():
    path = _test_path(256, True, 1.0, "coin", 1e200, 2)
    with np.errstate(over="ignore"):
        target = path.grid.times + np.cumsum(path.dX ** 2)
    p = fl.lebesgue_partition(path, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(fl.mc._sup_error(path, p, target, 4)) and np.isnan(_full_sup_error(path, p, target))


def _full_grid_oscillation(path, p, t):
    """The oscillation from two reduceat passes over every segment up to t."""
    t_idx = path.grid.clamp_index(t)
    starts = p.indices[: np.searchsorted(p.indices, t_idx, side="right")]
    x = path.x[: t_idx + 1]
    return float(np.max(np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts)))


@pytest.mark.parametrize("jumps", [0.0, 2.0])
def test_run_seed_matches_the_full_grid_formulas(jumps):
    # the benchmark's settings: grid level 16, levels 3..8, eight seeds per kind
    exp = fl.McExperiment(seeds=tuple(range(8)), grid_level=16, jump_intensity=jumps)
    for seed in exp.seeds:
        out = run_seed(exp, seed)
        path = fl.mc._sample_path(exp, seed)
        target = fl.mc._target_curve(exp, path)
        ps = fl.lebesgue_partitions(path, range(3, 9))
        assert out.trend.gaps == tuple(_full_sup_error(path, p, target) for p in ps)
        assert out.oscillations == tuple(_full_grid_oscillation(path, p, exp.T) for p in ps)
