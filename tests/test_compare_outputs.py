"""tools/compare_outputs.py lists the runs whose exit code changed and the
output files that changed, with the largest change among their numbers."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _write_set(directory: Path, codes: dict, files: dict) -> Path:
    for rel, text in files.items():
        path = directory / "out" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
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
        {"qv-0": 0, "mc-1": 1, "dppi-2": 0},
        {
            "qv-0/qv.csv": "t,qv\n0.0,0.0\n0.5,0.25\n1.0,-2e-3\n",
            "qv-0/qv_report.json": '{"gaps": [0.5, NaN], "status": "converged"}',
            "dppi-2/strategy.csv": "t,v\n0.0,1.0\n",
            "mc-1/mc_report.json": "{}",
        },
    )
    b = _write_set(
        tmp_path / "b",
        {"qv-0": 0, "mc-1": 2, "lin-3": 0},
        {
            "qv-0/qv.csv": "t,qv\n0.0,0.0\n0.5,0.2500000000000001\n1.0,-1e-3\n",
            "qv-0/qv_report.json": '{"gaps": [0.5, NaN], "status": "inconclusive"}',
            "dppi-2/strategy.csv": "t,v\n0.0,1.0\n",
            "lin-3/linear.csv": "t,z\n",
        },
    )
    assert compare_outputs.diff_sets(a, b) == [
        "exit code dppi-2: 0 -> absent",
        "exit code lin-3: absent -> 0",
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
