"""tools/bench_fold.py pairs parent and change benchmark results by workload
and seed, and summarises each end-to-end metric of BENCHMARK.json."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_fold", ROOT / "tools" / "bench_fold.py")
bench_fold = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_fold)

MACHINE = {"cpu_count": 2, "python": "3.x"}


def _result(
    directory: Path, workload: str, seed: int, setup: float, cycle: float, rss: float, trace: int = 0, failed: int = 0
):
    directory.mkdir(exist_ok=True)
    doc = {
        "machine": MACHINE,
        "workload": {"name": workload, "seed": seed},
        "trace": trace,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "setup_s": {"unit": "s", "value": setup},
            "cycle_ms": {"unit": "ms", "value": cycle},
            "peak_rss_mb": {"unit": "MB", "value": rss},
        },
    }
    (directory / f"{workload}-seed{seed}-trace{trace}-1.json").write_text(json.dumps(doc))


def test_pairs_medians_and_wins(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, setup in zip((1, 2, 3), (1.5, 1.4, 1.6)):
        _result(parent, "w", seed, setup, 100.0, 100.0)
    for seed, setup, cycle in zip((1, 2, 3), (0.5, 1.5, 0.4), (90.0, 100.0, 110.0)):
        _result(change, "w", seed, setup, cycle, 40.0)
    _result(change, "w", 4, 0.1, 1.0, 1.0)  # no parent run: left out
    _result(change, "w", 9, 0.1, 1.0, 1.0, trace=1)  # traced: left out
    out = tmp_path / "BENCH_9.json"
    assert bench_fold.main(["--pr", "9", "--parent", str(parent), "--change", str(change), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    w = doc["workloads"]["w"]
    assert doc["pr"] == 9 and doc["machine"] == [MACHINE]
    assert w["pairs"] == 3 and w["seeds"] == [1, 2, 3]
    setup = w["metrics"]["setup_s"]
    assert setup["parent"]["median"] == 1.5 and setup["change"]["median"] == 0.5
    assert setup["parent"]["iqr"] == pytest.approx(0.1)
    assert setup["change_wins"] == 2  # seed 2 is slower on the change
    assert w["metrics"]["cycle_ms"]["change_wins"] == 1  # one tie, one loss
    assert w["metrics"]["peak_rss_mb"]["change_wins"] == 3
    assert w["ops"] == {"parent": {"attempted": 30, "failed": 0}, "change": {"attempted": 30, "failed": 0}}
    assert "unpaired change run left out: workload w seed 4" in capsys.readouterr().err


def test_no_pairs_is_an_error(tmp_path):
    _result(tmp_path / "parent", "w", 1, 1.0, 1.0, 1.0)
    _result(tmp_path / "change", "w", 2, 1.0, 1.0, 1.0)
    argv = ["--pr", "1", "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]
    assert bench_fold.main(argv + ["-o", str(tmp_path / "out.json")]) == 2
    assert not (tmp_path / "out.json").exists()


def _fold(tmp_path, parent_runs, change_runs, *args):
    """Fold (setup, cycle, rss) runs paired by seed; return (exit status, doc)."""
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for seed, run in enumerate(runs):
            _result(tmp_path / side, "w", seed, *run)
    out = tmp_path / "out.json"
    argv = ["--pr", "1", "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "-o", str(out)]
    return bench_fold.main(argv + list(args)), json.loads(out.read_text())


def test_metrics_worse_than_their_bound_are_flagged(tmp_path, capsys):
    # cycle_ms 30% worse (bound 25%), peak_rss_mb 5% worse (bound 10%)
    code, doc = _fold(tmp_path, [(1.0, 100.0, 100.0)] * 3, [(1.0, 130.0, 105.0)] * 3)
    assert code == 1
    assert [(f["workload"], f["metric"]) for f in doc["flags"]] == [("w", "cycle_ms")]
    assert doc["flags"][0]["worse_by"] == pytest.approx(0.3)
    assert "FLAG w cycle_ms: worse by 30.0%, bound 25%" in capsys.readouterr().out


def test_within_bounds_nothing_is_flagged(tmp_path):
    code, doc = _fold(tmp_path, [(1.0, 100.0, 100.0)] * 3, [(1.2, 124.0, 109.0)] * 3)
    assert code == 0 and doc["flags"] == [] and doc["claims"] == []


def test_a_change_spread_wider_than_the_bound_is_unresolved(tmp_path, capsys):
    # setup_s: median unchanged, IQR 0.5 against a bound of 0.25 · 1.0;
    # cycle_ms: IQR 20 within 0.25 · 100; peak_rss_mb: IQR 10 against a
    # bound of 0.1 · 50, but every change run is below every parent run
    parent = [(1.0, 100.0, 50.0)] * 4
    change = [(0.6, 80.0, 20.0), (0.8, 95.0, 25.0), (1.2, 105.0, 35.0), (1.4, 120.0, 40.0)]
    code, doc = _fold(tmp_path, parent, change)
    assert code == 0 and doc["flags"] == []
    assert [(u["workload"], u["metric"]) for u in doc["unresolved"]] == [("w", "setup_s")]
    assert doc["unresolved"][0]["change_iqr"] == pytest.approx(0.5)
    assert doc["unresolved"][0]["bound_width"] == pytest.approx(0.25)
    assert "UNRESOLVED w setup_s: change IQR 0.5 is wider than the bound's 0.25" in capsys.readouterr().out


_PARENT_CYCLES = [100.0, 102.0] * 5  # median 101, IQR 2


@pytest.mark.parametrize(
    "change_cycles, holds",
    [
        ([80.0] * 9 + [200.0], True),  # 9 of 10 wins, median gap 21
        ([80.0] * 8 + [200.0] * 2, False),  # 8 of 10 wins
        ([c - 0.5 for c in _PARENT_CYCLES], False),  # 10 of 10 wins, median gap 0.5
    ],
)
def test_claim_needs_9_of_10_wins_and_a_gap_over_the_parent_iqr(tmp_path, capsys, change_cycles, holds):
    parent = [(1.0, cycle, 50.0) for cycle in _PARENT_CYCLES]
    change = [(1.0, cycle, 50.0) for cycle in change_cycles]
    code, doc = _fold(tmp_path, parent, change, "--claim", "w/cycle_ms")
    (claim,) = doc["claims"]
    assert claim["holds"] is holds and claim["pairs"] == 10
    assert claim["parent_iqr"] == pytest.approx(2.0)
    assert code == (0 if holds else 1)
    assert f"claim w/cycle_ms {'holds' if holds else 'FAILS'}" in capsys.readouterr().out


def test_claim_of_an_unknown_metric_is_an_error(tmp_path):
    with pytest.raises(SystemExit, match="no folded metric 'w/speed'"):
        _fold(tmp_path, [(1.0, 1.0, 1.0)], [(1.0, 1.0, 1.0)], "--claim", "w/speed")


def test_claim_fails_when_a_larger_share_of_ops_fails(tmp_path, capsys):
    # 10 of 10 wins by far, but 1 of the change's 100 ops failed and none of the parent's
    for seed, cycle in enumerate(_PARENT_CYCLES):
        _result(tmp_path / "parent", "w", seed, 1.0, cycle, 50.0)
        _result(tmp_path / "change", "w", seed, 1.0, cycle / 2, 50.0, failed=int(seed == 3))
    out = tmp_path / "out.json"
    argv = ["--pr", "1", "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "-o", str(out)]
    assert bench_fold.main(argv + ["--claim", "w/cycle_ms"]) == 1
    (claim,) = json.loads(out.read_text())["claims"]
    assert claim["wins"] == 10 and claim["holds"] is False
    assert claim["failed_share"] == {"parent": 0.0, "change": pytest.approx(0.01)}
    assert "failed ops 0.00% -> 1.00%" in capsys.readouterr().out
