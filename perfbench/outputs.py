"""Headline numbers of a subcommand's outputs, and their check against the
reference recorded from an earlier commit.

The headline of an op is every leaf of its JSON report except the config
hash, plus, for every CSV it writes, the header, the row count and a fixed
sample of rows.  Integers, strings and flags must match exactly; floats within
rel 1e-9 / abs 1e-12, so that reassociated float sums stay legal while a moved
partition index or acceptance value does not.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12
CSV_SAMPLE_ROWS = 9

CSVS = {
    "qv": ("qv.csv",),
    "integrate": ("integrate_levels.csv", "integrate_curve.csv"),
    "ito-check": ("ito.csv",),
    "assoc": ("assoc.csv",),
    "linear": ("linear.csv",),
    "nonlinear": ("nonlinear.csv",),
    "drawdown": ("drawdown.csv",),
    "dppi": ("strategy.csv",),
    "mc": ("mc_seeds.csv",),
    "appendix-measure": ("appendix.csv",),
}


def headline(command: str, out: Path) -> dict:
    report = json.loads((out / f"{command}_report.json").read_text())
    report.pop("config_hash", None)
    found = {"report": report}
    for name in CSVS[command]:
        found[name] = _csv_headline(out / name)
    return found


def _csv_headline(path: Path) -> dict:
    lines = path.read_text().splitlines()
    rows = [line for line in lines[1:] if not line.startswith("#")]
    n = len(rows)
    picks = sorted({round(k * (n - 1) / (CSV_SAMPLE_ROWS - 1)) for k in range(CSV_SAMPLE_ROWS)}) if n else []
    return {
        "header": lines[0],
        "rows": n,
        "sample": {str(i): [_number(v) for v in rows[i].split(",")] for i in picks},
    }


def _number(token: str):
    try:
        return int(token)
    except ValueError:
        return float(token)


def mismatches(expected, actual, where: str = "") -> list[str]:
    """Every place where ``actual`` differs from ``expected``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for k in sorted(set(expected) | set(actual)):
            if k not in expected or k not in actual:
                out.append(f"{where}/{k}: present on one side only")
            else:
                out.extend(mismatches(expected[k], actual[k], f"{where}/{k}"))
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out.extend(mismatches(e, a, f"{where}/{i}"))
        return out
    if isinstance(expected, float) and isinstance(actual, float):
        if _close(expected, actual):
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{where}: {actual!r} != {expected!r}"]


def _close(e: float, a: float) -> bool:
    if math.isnan(e) or math.isnan(a):
        return math.isnan(e) and math.isnan(a)
    if math.isinf(e) or math.isinf(a):
        return e == a
    return abs(a - e) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(e)))


def op_failures(code, expected: dict | None, out: Path, command: str) -> list[str]:
    """Why an op failed: nonzero exit, missing reference, or changed outputs."""
    if code != 0:
        return [f"exit code {code}"]
    if expected is None:
        return ["no reference recorded for this input"]
    try:
        found = headline(command, out)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable outputs: {exc}"]
    return mismatches(expected, found)
