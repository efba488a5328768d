"""Run a fixed set of ``follmer`` subcommands and compare the outputs of two runs.

Usage, from the repository root:

    python3 tools/compare_outputs.py run DIR
    python3 tools/compare_outputs.py diff DIR_A DIR_B

``run`` calls ``follmer.cli.main`` in-process, with the package sources of
the checkout that holds this file, on the comparison set:

- every config of ``_SUBCOMMANDS`` and ``_DENSE_SUBCOMMANDS`` in
  ``tests/test_io_cli.py``, as given and at level 8 (merged over
  ``_LEVEL_8``; mc, which takes no ``levels``, with ``n_min`` 3, ``n_max`` 8
  and ``grid_level`` 8), each with no seed, ``--seed 5`` and ``--seed 7``,
  all with ``--plot``;
- every config of ``_NON_FINITE`` there, whose arithmetic overflows, with
  no seed;
- every op of every benchmark workload on every input it can reach
  (``perfbench/workloads.build(name, range(UNIVERSE))``).

Run ``<id>`` writes its files into ``DIR/out/<id>``, and ``DIR/codes.json``
maps each id to its exit code (or to the name of the exception it raised)
and its first line on stderr (or the exception's message).  numpy's
warnings are left out of stderr: they name a file and line of the checkout.
Configs and market CSVs go under ``DIR/inputs`` and are named relative to
``DIR``, so the config hashes that the outputs carry agree between two
checkouts run into two directories.  Nothing is written outside ``DIR``.

``diff`` lists the runs whose exit code or first stderr line changed, and
every output file that changed, with the largest absolute and relative
change among the numbers it holds (or "layout" where the text around the
numbers changed too).  It exits 1 when anything changed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import re
import shutil
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = ((), ("--seed", "5"), ("--seed", "7"))
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan|Infinity|NaN)")


def _cli_set(inputs: Path) -> list[tuple[str, list]]:
    """(id, argv without --out) of the tests' subcommand configs."""
    spec = importlib.util.spec_from_file_location("test_io_cli", ROOT / "tests" / "test_io_cli.py")
    tests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tests)
    configs = [(c, cfg) for c, cfg in tests._SUBCOMMANDS]
    configs += [(f"dense-{c}", cfg) for c, cfg in tests._DENSE_SUBCOMMANDS]
    runs = []
    for name, cfg in configs:
        command = name.removeprefix("dense-")
        level8 = {**cfg, "grid_level": 8, "n_min": 3, "n_max": 8} if command == "mc" else {**tests._LEVEL_8, **cfg}
        for size, full in (("given", cfg), ("level8", level8)):
            path = inputs / f"{name}-{size}.json"
            path.write_text(json.dumps(full, sort_keys=True))
            for seed in SEEDS:
                tag = "-".join(seed).replace("--", "") or "noseed"
                runs.append((f"cli-{name}-{size}-{tag}", [command, "--config", str(path), *seed, "--plot"]))
    for case, (command, key, value, _) in sorted(tests._NON_FINITE.items()):
        path = inputs / f"non-finite-{case}.json"
        path.write_text(json.dumps(tests._replaced({**tests._LEVEL_8, **tests._COMMANDS[command]}, key, value)))
        runs.append((f"cli-non-finite-{case}", [command, "--config", str(path)]))
    return runs


def _workload_set(inputs: Path) -> list[tuple[str, list]]:
    """(id, argv without --out) of every benchmark op on every input."""
    import workloads

    runs = []
    for name in sorted(workloads.WORKLOADS):
        for cycle in workloads.build(name, range(workloads.UNIVERSE), inputs / name):
            for op in cycle:
                runs.append((f"{name}-{op.key.replace(':', '-')}", [op.command, "--config", op.config]))
    return runs


def run_set(directory: Path) -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as bench

    bench.prepare_environment()  # this checkout's src first on the path
    import follmer.cli

    directory.mkdir(parents=True, exist_ok=True)
    os.chdir(directory)
    for sub in ("inputs", "out"):
        shutil.rmtree(sub, ignore_errors=True)
    inputs = Path("inputs")
    inputs.mkdir()
    codes = {}
    for run_id, argv in _cli_set(inputs) + _workload_set(inputs):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = bench.invoke(follmer.cli.main, [*argv, "--out", f"out/{run_id}"])
            except Exception as exc:  # a crash is an outcome to compare, not a reason to stop
                code = type(exc).__name__
                err = io.StringIO(str(exc))
        codes[run_id] = {"exit": code, "stderr": next(iter(err.getvalue().splitlines()), "")}
    Path("codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    print(f"{len(codes)} runs into {directory}")
    return 0


def file_change(a: str, b: str) -> tuple[float, float] | None:
    """(max absolute, max relative) change between the numbers of two texts
    whose other characters agree, or None where those characters differ."""
    na, nb = _NUMBER.findall(a), _NUMBER.findall(b)
    if len(na) != len(nb) or _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return None
    worst_abs = worst_rel = 0.0
    for sa, sb in zip(na, nb):
        if sa == sb:
            continue
        u, v = float(sa), float(sb)
        if u == v or (math.isnan(u) and math.isnan(v)):
            continue
        d = abs(u - v)
        worst_abs = max(worst_abs, d)
        worst_rel = max(worst_rel, d / max(abs(u), abs(v)))
    return worst_abs, worst_rel


def diff_sets(a: Path, b: Path) -> list[str]:
    """One line per changed exit code, per changed first stderr line and per
    changed, added or lost file."""
    lines = []
    codes_a = json.loads((a / "codes.json").read_text())
    codes_b = json.loads((b / "codes.json").read_text())
    absent = {"exit": "absent", "stderr": None}
    for run_id in sorted(codes_a.keys() | codes_b.keys()):
        ra, rb = codes_a.get(run_id, absent), codes_b.get(run_id, absent)
        if ra["exit"] != rb["exit"]:
            lines.append(f"exit code {run_id}: {ra['exit']} -> {rb['exit']}")
        if absent not in (ra, rb) and ra["stderr"] != rb["stderr"]:
            lines.append(f"stderr {run_id}: {ra['stderr']!r} -> {rb['stderr']!r}")
    files_a = {p.relative_to(a / "out") for p in (a / "out").rglob("*") if p.is_file()}
    files_b = {p.relative_to(b / "out") for p in (b / "out").rglob("*") if p.is_file()}
    for rel in sorted(files_a - files_b):
        lines.append(f"only in a {rel}")
    for rel in sorted(files_b - files_a):
        lines.append(f"only in b {rel}")
    for rel in sorted(files_a & files_b):
        ta, tb = (a / "out" / rel).read_bytes(), (b / "out" / rel).read_bytes()
        if ta == tb:
            continue
        change = file_change(ta.decode(errors="replace"), tb.decode(errors="replace"))
        if change is None:
            lines.append(f"changed {rel}: layout")
        else:
            lines.append(f"changed {rel}: max abs {change[0]:.3g}, max rel {change[1]:.3g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    sub.add_parser("run").add_argument("dir", type=Path)
    d = sub.add_parser("diff")
    d.add_argument("a", type=Path)
    d.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.action == "run":
        return run_set(args.dir.resolve())
    lines = diff_sets(args.a, args.b)
    print("\n".join(lines) if lines else "no change")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
