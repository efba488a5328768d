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
    assert out.sup_errors == (0.0, 0.0, 0.0, 0.0)
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
    assert out.sup_errors[-1] <= 1e-12
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
    assert out.sup_errors[-1] <= 5e-2


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
