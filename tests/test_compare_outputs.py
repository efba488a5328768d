"""tools/compare_outputs.py lists the runs whose exit code or first stderr
line changed and the output files that changed, with the largest change
among their numbers."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _write_set(directory: Path, codes: dict, files: dict) -> Path:
    """A set whose ``codes`` map each run to its exit code, or to (exit code, first stderr line)."""
    for rel, text in files.items():
        path = directory / "out" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    codes = {k: dict(zip(("exit", "stderr"), v if isinstance(v, tuple) else (v, ""))) for k, v in codes.items()}
    (directory / "codes.json").write_text(json.dumps(codes))
    return directory


def test_identical_sets_have_no_change(tmp_path):
    files = {"qv-0/qv.csv": "t,qv\n0.0,0.0\n0.5,0.25\n# config_hash=3e5a\n"}
    a = _write_set(tmp_path / "a", {"qv-0": 0}, files)
    b = _write_set(tmp_path / "b", {"qv-0": 0}, files)
    assert compare_outputs.diff_sets(a, b) == []
    assert compare_outputs.main(["diff", str(a), str(b)]) == 0


def test_changes_are_listed(tmp_path):
    a = _write_set(
        tmp_path / "a",
        {"qv-0": 0, "mc-1": 1, "dppi-2": 0, "ito-4": (2, "config error: f is required"), "lin-5": (1, "")},
        {
            "qv-0/qv.csv": "t,qv\n0.0,0.0\n0.5,0.25\n1.0,-2e-3\n",
            "qv-0/qv_report.json": '{"gaps": [0.5, NaN], "status": "converged"}',
            "dppi-2/strategy.csv": "t,v\n0.0,1.0\n",
            "mc-1/mc_report.json": "{}",
        },
    )
    b = _write_set(
        tmp_path / "b",
        {"qv-0": 0, "mc-1": 2, "lin-3": 0, "ito-4": (2, "config error: f is missing"), "lin-5": (1, "a bug")},
        {
            "qv-0/qv.csv": "t,qv\n0.0,0.0\n0.5,0.2500000000000001\n1.0,-1e-3\n",
            "qv-0/qv_report.json": '{"gaps": [0.5, NaN], "status": "inconclusive"}',
            "dppi-2/strategy.csv": "t,v\n0.0,1.0\n",
            "lin-3/linear.csv": "t,z\n",
        },
    )
    assert compare_outputs.diff_sets(a, b) == [
        "exit code dppi-2: 0 -> absent",
        "stderr ito-4: 'config error: f is required' -> 'config error: f is missing'",
        "exit code lin-3: absent -> 0",
        "stderr lin-5: '' -> 'a bug'",
        "exit code mc-1: 1 -> 2",
        "only in a mc-1/mc_report.json",
        "only in b lin-3/linear.csv",
        "changed qv-0/qv.csv: max abs 0.001, max rel 0.5",
        "changed qv-0/qv_report.json: layout",
    ]
    assert compare_outputs.main(["diff", str(a), str(b)]) == 1


def test_file_change_reads_every_number():
    assert compare_outputs.file_change("a=1e-3, b=nan, c=inf", "a=0.001, b=nan, c=inf") == (0.0, 0.0)
    assert compare_outputs.file_change("x=2.0", "x=2.5") == (0.5, 0.2)
    assert compare_outputs.file_change("x=2.0", "y=2.0") is None
    assert compare_outputs.file_change("1,2", "1,2,3") is None


def test_run_records_the_first_stderr_line(tmp_path, monkeypatch):
    # a config error's message, and a crash's own message, sit beside the exit code
    ok, bad = tmp_path / "ok.json", tmp_path / "bad.json"
    ok.write_text(json.dumps({"atom": 0.5, "levels": [1, 3]}))
    bad.write_text(json.dumps({"atom": 0.5, "levels": [1, 3], "weight": -1.0}))
    runs = [("ok", ["appendix-measure", "--config", str(ok)]), ("bad", ["appendix-measure", "--config", str(bad)])]
    monkeypatch.setattr(compare_outputs, "_cli_set", lambda inputs: runs)
    monkeypatch.setattr(compare_outputs, "_workload_set", lambda inputs: [])
    # run_set pins the thread pools, puts src on the path and moves into the set
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run

    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.chdir(tmp_path)
    assert compare_outputs.run_set(tmp_path / "set") == 0
    codes = json.loads((tmp_path / "set" / "codes.json").read_text())
    assert codes == {
        "ok": {"exit": 0, "stderr": ""},
        "bad": {
            "exit": 2,
            "stderr": "config error: weight must be nonnegative: discrete-measure convergence needs nonnegative atoms",
        },
    }


def _names_in(cfg, seen: dict, key: str = "") -> None:
    """Add each generator or drift ``kind``, and each floor, formula or
    function ``name``, that ``cfg`` builds to ``seen``, at any depth."""
    if isinstance(cfg, list):
        for v in cfg:
            _names_in(v, seen, key)
    elif isinstance(cfg, dict):
        if "kind" in cfg:
            seen["kind"].add(cfg["kind"])
        if "name" in cfg:
            seen["formula" if cfg.get("kind") == "formula" else "floor" if key == "floor" else "function"].add(cfg["name"])
        for k, v in cfg.items():
            _names_in(v, seen, k)


def test_the_set_builds_every_table_entry(tmp_path):
    # read from the configs the set writes, without running them: a floor,
    # function, formula or generator added to a table without a run fails
    from follmer import drawdown, functions, io as fio

    seen = {"kind": set(), "formula": set(), "floor": set(), "function": set()}
    for _, argv in compare_outputs._cli_set(tmp_path):
        _names_in(json.loads(Path(argv[2]).read_text()), seen)
    assert set(drawdown.FLOORS) <= seen["floor"]
    assert set(functions.BUILTINS) <= seen["function"]
    assert set(fio._FORMULAS) <= seen["formula"]
    assert set(fio._GENERATORS) | {"affine-combination"} <= seen["kind"]
