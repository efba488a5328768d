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


def _result(directory: Path, workload: str, seed: int, setup: float, cycle: float, rss: float, trace: int = 0):
    directory.mkdir(exist_ok=True)
    doc = {
        "machine": MACHINE,
        "workload": {"name": workload, "seed": seed},
        "trace": trace,
        "attempted": 10,
        "failed": 0,
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
