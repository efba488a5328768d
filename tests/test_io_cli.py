import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import follmer as fl
from follmer import cli
from follmer.cli import main
from follmer.diagnostics import STOCHASTIC_TOL
from follmer.equations import solve_linear
from follmer.finance import FloorSpec, dppi
from follmer.integrals import AdmissibleIntegrand, follmer_integral
from follmer.io import (
    ConfigError,
    config_hash,
    make_floor,
    make_function,
    make_generator,
    tolerance,
    write_csv,
    write_report,
    write_svg,
)
from follmer._floatrepr import BLOCK
from follmer.paths import _csv_distinct, read_path_csv, write_path_csv
from follmer.quadvar import qv_sequence


_GRID = fl.dyadic_grid(1.0, 4)


class TestConfigRefs:
    def test_generator_refs(self):
        g = make_generator({"kind": "step", "c": 2.0, "t0": 0.5}, _GRID)
        assert isinstance(g, fl.StepGenerator)
        nested = make_generator(
            {
                "kind": "affine-combination",
                "x": {"kind": "step", "c": 1.0, "t0": 0.25},
                "y": {"kind": "dyadic-brownian", "seed": 1},
                "a": 2.0,
            },
            _GRID,
        )
        assert isinstance(nested, fl.AffineCombinationGenerator)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            make_generator({"kind": "martingale-madness"}, _GRID)

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigError):
            make_generator({"kind": "step", "notaparam": 1}, _GRID)

    def test_the_run_seed_reaches_every_seeded_kind_that_names_none(self):
        ref = {"kind": "affine-combination", "x": {"kind": "dyadic-brownian"}, "y": {"kind": "geometric", "seed": 2}}
        g = make_generator(ref, _GRID, seed=9)
        assert (g.gen_x.seed, g.gen_y.seed) == (9, 2)
        assert make_generator(ref, _GRID).gen_x.seed == 0
        assert make_generator({"kind": "step"}, _GRID, seed=9) == fl.StepGenerator()

    def test_function_refs(self):
        f = make_function({"name": "polynomial", "coeffs": [0, 0, 1]})
        assert f.grad_a is None
        with pytest.raises(ConfigError):
            make_function({"name": "mystery"})

    def test_floor_refs(self):
        w = make_floor({"name": "proportional", "alpha": 0.3, "a_star": 1.0})
        assert w.a_star == 1.0
        with pytest.raises(ConfigError):
            make_floor({"name": "proportional", "alpha": 0.3})  # a_star missing

    def test_config_hash_stable(self):
        a = config_hash({"b": 1, "a": [1, 2]})
        b = config_hash({"a": [1, 2], "b": 1})
        assert a == b and len(a) == 16


_SVG = "{http://www.w3.org/2000/svg}"


def svg_points(path, n_series):
    """Parse an SVG file and return the (x, y) points of each of its polylines."""
    root = ET.parse(path).getroot()
    assert root.tag == _SVG + "svg"
    lines = root.findall(_SVG + "polyline")
    assert len(lines) == n_series
    return [[tuple(map(float, p.split(","))) for p in line.get("points").split()] for line in lines]


class TestReportWriter:
    def test_non_finite_floats_are_null_at_any_depth(self, tmp_path):
        nan, inf = float("nan"), float("inf")
        report = {"a": nan, "b": [1.5, -inf, (inf, 2)], "c": {"d": [nan], "e": np.float64(-0.0)}, "f": "NaN"}
        write_report(tmp_path / "r.json", report, "abc")
        doc = _strict_json((tmp_path / "r.json").read_text())
        assert doc == {"a": None, "b": [1.5, None, [None, 2]], "c": {"d": [None], "e": -0.0}, "f": "NaN", "config_hash": "abc"}

    def test_a_value_that_is_no_json_type_raises(self, tmp_path):
        # a numpy integer is not converted: a report holds Python values
        with pytest.raises(TypeError):
            write_report(tmp_path / "r.json", {"a": np.int64(1)}, "abc")


class TestSvgWriter:
    def test_one_polyline_per_series(self, tmp_path):
        write_svg(tmp_path / "f.svg", {"a": (range(3), [1.0, 2.0, 3.0]), "b & c": ([0, 1], [2.0, 1.0])})
        a, b = svg_points(tmp_path / "f.svg", 2)
        assert len(a) == 3 and len(b) == 2
        assert "b &amp; c" in (tmp_path / "f.svg").read_text()

    def test_empty_series(self, tmp_path):
        write_svg(tmp_path / "f.svg", {"gap": (range(0), [])})
        assert svg_points(tmp_path / "f.svg", 1) == [[]]

    def test_single_point(self, tmp_path):
        write_svg(tmp_path / "f.svg", {"gap": ([4], [0.5])})
        [[(x, y)]] = svg_points(tmp_path / "f.svg", 1)
        assert np.isfinite(x) and np.isfinite(y)

    @pytest.mark.parametrize("value", [1e-17, 0.0, -2.0])
    def test_all_equal_values_drawn_flat(self, tmp_path, value):
        write_svg(tmp_path / "f.svg", {"gap": (range(4), [value] * 4)})
        [pts] = svg_points(tmp_path / "f.svg", 1)
        assert len(pts) == 4 and len({y for _, y in pts}) == 1
        assert all(np.isfinite(pts).ravel())

    def test_nonfinite_values_left_out(self, tmp_path):
        ys = [1.0, np.nan, np.inf, -np.inf, 2.0]
        write_svg(tmp_path / "f.svg", {"residual": (range(5), ys)})
        [pts] = svg_points(tmp_path / "f.svg", 1)
        assert len(pts) == 2
        text = (tmp_path / "f.svg").read_text().lower()
        assert "nan" not in text and "inf" not in text

    @pytest.mark.parametrize(
        "ys, log",
        [([1.0, 10.0, 100.0], True), ([0.0, 10.0, 100.0], False), ([-1.0, 10.0, 100.0], False)],
    )
    def test_log_axis_exactly_when_all_values_positive(self, tmp_path, ys, log):
        write_svg(tmp_path / "f.svg", {"gap": (range(3), ys)})
        [[(_, y_lo), (_, y_mid), (_, y_hi)]] = svg_points(tmp_path / "f.svg", 1)
        # On a log axis 10 sits halfway between 1 and 100; on a linear one it does not.
        assert (abs(y_mid - (y_lo + y_hi) / 2) < 0.01) == log
        assert ("log scale" in (tmp_path / "f.svg").read_text()) == log


def run_cli(tmp_path, command, cfg, *args):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    runner = CliRunner()
    return runner.invoke(
        main, [command, "--config", str(cfg_path), "--out", str(out), *args]
    ), out


class TestCli:
    def test_qv_constant_path_all_zero(self, tmp_path):
        cfg = {"path": {"kind": "formula", "name": "constant", "c": 2.0}, "levels": [2, 6]}
        result, out = run_cli(tmp_path, "qv", cfg)
        assert result.exit_code == 0, result.output
        rows = (out / "qv.csv").read_text().splitlines()
        assert rows[0] == "level,t,qv"
        assert rows[-1].startswith("# config_hash=")
        values = {float(r.split(",")[2]) for r in rows[1:-1]}
        assert values == {0.0}

    @pytest.mark.parametrize("t", [1.0, 0.5, 0.3])
    def test_qv_measure_check_reads_the_table(self, tmp_path, t):
        # the measure check reads each level at t off the curves in qv.csv,
        # the headline is the top level's, and at a partition point the open
        # measure adds the curve's atoms in the curve's order
        cfg = {**_LEVEL_8, "path": _BROWNIAN_JUMPS, "stochastic": True, "t": t}
        result, out = run_cli(tmp_path, "qv", cfg, "--seed", "5")
        assert isinstance(result.exception, (SystemExit, type(None))), repr(result.exception)
        report = json.loads((out / "qv_report.json").read_text())
        check = report["measure_check"]
        rows = [line.split(",") for line in (out / "qv.csv").read_text().splitlines()[1:-1]]
        level, times, qv = (np.array(column, dtype=float) for column in zip(*rows))
        at_t = [qv[(level == n) & (times <= t)][-1] for n in range(report["levels"])]
        assert check["qv"] == at_t
        assert report["qv_at_t"] == check["qv"][-1]
        if t != 0.3:
            assert check["diff_open"] == [0.0] * len(at_t)

    def test_linear_oracle(self, tmp_path):
        cfg = {
            "x": {"kind": "formula", "name": "linear"},
            "x_fv": True,
            "h": {"constant": 1.0},
            "levels": [8, 14],
            "assert_value": float(np.e),
            "assert_tol": 1e-6,
        }
        result, out = run_cli(tmp_path, "linear", cfg)
        assert result.exit_code == 0, result.output
        report = json.loads((out / "linear_report.json").read_text())
        assert abs(report["z_at_T"] - np.e) < 1e-6

    def test_ito_check_step(self, tmp_path):
        cfg = {
            "f": {"name": "square"},
            "path": {"kind": "step", "c": 2.0, "t0": 0.5},
            "path_fv": True,
            "levels": [1, 6],
            "assert_residual": 1e-12,
        }
        result, out = run_cli(tmp_path, "ito-check", cfg)
        assert result.exit_code == 0, result.output
        rows = (out / "ito.csv").read_text().splitlines()[1:-1]
        assert all(abs(float(r.split(",")[1])) <= 1e-12 for r in rows)

    def test_unknown_key_exits_2(self, tmp_path):
        result, _ = run_cli(tmp_path, "qv", {"path": {"kind": "step"}, "bogus": 1})
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "command, cfg, args",
        [
            ("qv", {"path": {"kind": "step"}}, ("--levels", "8..3")),
            ("qv", {"path": {"kind": "step"}, "levels": [8, 3]}, ()),
            ("mc", {"seeds": 1, "n_min": 8, "n_max": 3}, ()),
        ],
    )
    def test_reversed_levels_exit_2(self, tmp_path, command, cfg, args):
        result, _ = run_cli(tmp_path, command, cfg, *args)
        assert result.exit_code == 2
        assert "n_min=8" in result.stderr and "n_max=3" in result.stderr

    def test_negative_level_exits_2(self, tmp_path):
        result, _ = run_cli(tmp_path, "qv", {"path": {"kind": "step"}}, "--levels", "-1..3")
        assert result.exit_code == 2
        assert "--levels.n_min must be an integer from 0 to 20, got -1" in result.stderr

    @pytest.mark.parametrize("levels", [["a", 3], [3], [1, 2, 3], 5, "3..8"])
    def test_malformed_config_levels_exit_2(self, tmp_path, levels):
        result, _ = run_cli(tmp_path, "qv", {"path": {"kind": "step"}, "levels": levels})
        assert result.exit_code == 2
        named = "levels.n_min must be an integer from 0 to 20, got 'a'" if levels == ["a", 3] else "bad 'levels'"
        assert named in result.stderr

    def test_market_csv_short_row_exits_2(self, tmp_path):
        csv_path = tmp_path / "market.csv"
        tmp_path.mkdir(parents=True, exist_ok=True)
        csv_path.write_text("t,S,B,dS,dB\n0.0,1.0,1.0,0.0,0.0\n0.5,1.0\n1.0,1.0,1.0,0.0,0.0\n")
        cfg = {"market": {"csv": str(csv_path)}, "m": 0.5, "l": {"constant": 0.5}, "v0": 1.0, "levels": [0, 1]}
        result, _ = run_cli(tmp_path, "dppi", cfg)
        assert result.exit_code == 2
        assert "market.csv" in result.stderr and "row 1" in result.stderr

    def test_assertion_failure_exits_1(self, tmp_path):
        cfg = {
            "f": {"name": "exp"},
            "path": {"kind": "dyadic-brownian", "seed": 3},
            "stochastic": True,
            "levels": [4, 9],
            "assert_residual": 1e-16,
        }
        result, out = run_cli(tmp_path, "ito-check", cfg)
        assert result.exit_code == 1
        failures = json.loads((out / "failures.json").read_text())
        assert failures["command"] == "ito-check"
        assert failures["failures"]

    def test_outputs_deterministic(self, tmp_path):
        cfg = {"path": {"kind": "dyadic-brownian"}, "stochastic": True, "levels": [3, 8]}
        r1, out1 = run_cli(tmp_path / "a", "qv", cfg, "--seed", "9")
        r2, out2 = run_cli(tmp_path / "b", "qv", cfg, "--seed", "9")
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert (out1 / "qv.csv").read_bytes() == (out2 / "qv.csv").read_bytes()
        assert (out1 / "qv_report.json").read_bytes() == (out2 / "qv_report.json").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        cfg = {"path": {"kind": "dyadic-brownian"}, "stochastic": True, "levels": [3, 8]}
        _, out1 = run_cli(tmp_path / "a", "qv", cfg, "--seed", "1")
        _, out2 = run_cli(tmp_path / "b", "qv", cfg, "--seed", "2")
        assert (out1 / "qv.csv").read_bytes() != (out2 / "qv.csv").read_bytes()

    def test_levels_override(self, tmp_path):
        cfg = {"path": {"kind": "formula", "name": "linear"}, "path_fv": True, "levels": [2, 4]}
        result, out = run_cli(tmp_path, "qv", cfg, "--levels", "2..6")
        assert result.exit_code == 0
        report = json.loads((out / "qv_report.json").read_text())
        assert len(report["gaps"]) == 5

    def test_strict_flag_escalates_inconclusive(self, tmp_path):
        cfg = {
            "integrand": {"f": {"name": "square"}},
            "path": {"kind": "dyadic-brownian", "seed": 2},
            "stochastic": True,
            "levels": [3, 5],
            "tol": 1e-12,
        }
        lax, _ = run_cli(tmp_path / "lax", "integrate", cfg)
        assert lax.exit_code == 0
        strict, _ = run_cli(tmp_path / "s", "integrate", cfg, "--strict")
        assert strict.exit_code == 1

    def test_mc_subcommand(self, tmp_path):
        cfg = {"seeds": 4, "n_min": 3, "n_max": 8, "grid_level": 15}
        result, out = run_cli(tmp_path, "mc", cfg)
        assert result.exit_code == 0, result.output
        report = json.loads((out / "mc_report.json").read_text())
        assert report["pass_fraction"] == 1.0

    def test_cppi_alias(self, tmp_path):
        cfg = {
            "market": {"s": {"kind": "geometric", "sigma": 0.2}, "b": {"rate": 0.01}},
            "m": 0.5,
            "l": {"constant": 0.5},
            "v0": 1.0,
            "levels": [5, 10],
        }
        result, out = run_cli(tmp_path, "cppi", cfg, "--seed", "6")
        assert result.exit_code == 0, result.output
        assert (out / "strategy.csv").read_text().splitlines()[0] == "t,xi,eta,V,floor"

    def test_dppi_market_from_csv(self, tmp_path):
        g = fl.dyadic_grid(1.0, 8)
        lines = ["t,S,B,dS,dB"]
        sv = 2.0 * np.exp(0.1 * g.times)
        for t, s in zip(g.times, sv):
            lines.append(f"{float(t)!r},{float(s)!r},1.0,0.0,0.0")
        csv_path = tmp_path / "market.csv"
        tmp_path.mkdir(parents=True, exist_ok=True)
        csv_path.write_text("\n".join(lines) + "\n")
        cfg = {
            "market": {"csv": str(csv_path)},
            "m": 0.5,
            "l": {"constant": 0.5},
            "v0": 1.0,
            "levels": [3, 7],
        }
        result, out = run_cli(tmp_path, "dppi", cfg)
        assert result.exit_code == 0, result.output
        assert (out / "strategy.csv").exists()

    def test_plot_flag_writes_svg_without_affecting_exit(self, tmp_path):
        cfg = {"path": {"kind": "formula", "name": "constant", "c": 1.0}, "levels": [2, 5]}
        result, out = run_cli(tmp_path, "qv", cfg, "--plot")
        assert result.exit_code == 0
        assert (out / "qv.svg").exists()

    def test_plot_is_deterministic_and_leaves_outputs_unchanged(self, tmp_path):
        cfg = {"path": {"kind": "dyadic-brownian"}, "stochastic": True, "levels": [3, 8]}
        runs = [run_cli(tmp_path / d, "qv", cfg, "--seed", "9", *flag) for d, flag in
                (("a", ["--plot"]), ("b", ["--plot"]), ("c", []))]
        assert all(r.exit_code == 0 for r, _ in runs)
        (_, a), (_, b), (_, c) = runs
        assert (a / "qv.svg").read_bytes() == (b / "qv.svg").read_bytes()
        svg_points(a / "qv.svg", 1)
        assert sorted(p.name for p in a.iterdir()) == sorted([p.name for p in c.iterdir()] + ["qv.svg"])
        for p in c.iterdir():
            assert (a / p.name).read_bytes() == p.read_bytes(), p.name

    @pytest.mark.parametrize(
        "command, svg, cfg, axis",
        [
            ("qv", "qv", {"path": {"kind": "dyadic-brownian"}, "stochastic": True}, ("3", "7")),
            ("qv", "qv", {"path": {"kind": "formula", "name": "linear"}, "path_fv": True}, ("3", "8")),
            ("integrate", "integrate", {"path": {"kind": "dyadic-brownian"}, "stochastic": True}, ("3", "7")),
            ("ito-check", "ito", {"f": {"name": "square"}, "path": {"kind": "dyadic-brownian"}, "stochastic": True}, ("3", "8")),
        ],
    )
    def test_plot_axis_names_partition_levels(self, tmp_path, command, svg, cfg, axis):
        result, out = run_cli(tmp_path, command, {**cfg, "levels": [2, 4]}, "--levels", "3..8", "--seed", "1", "--plot")
        assert result.exit_code in (0, 1), result.output
        root = ET.parse(out / f"{svg}.svg").getroot()
        labels = {t.text for t in root.findall(_SVG + "text") if t.get("text-anchor") == "middle" and t.get("transform") is None}
        assert labels == {"level", *axis}

    def test_plot_error_reported_without_affecting_exit(self, tmp_path):
        cfg = {"path": {"kind": "formula", "name": "constant", "c": 1.0}, "levels": [2, 5]}
        (tmp_path / "out" / "qv.svg").mkdir(parents=True)
        result, _ = run_cli(tmp_path, "qv", cfg, "--plot")
        assert result.exit_code == 0
        assert "plot skipped: IsADirectoryError:" in result.output

    def test_drawdown_subcommand(self, tmp_path):
        cfg = {
            "x": {"kind": "geometric", "s0": 2.0, "sigma": 0.25},
            "floor": {"name": "zero", "a_star": 2.0},
            "levels": [5, 10],
            "assert_roundtrip": 1e-6,
        }
        result, out = run_cli(tmp_path, "drawdown", cfg, "--seed", "11")
        assert result.exit_code == 0, result.output
        report = json.loads((out / "drawdown_report.json").read_text())
        assert report["constraint_margin"] > 0

    def test_drawdown_table_floor(self, tmp_path):
        # a table floor on a line is the proportional floor w(y) = y / 4
        ys = [2.0, 3.0, 4.0, 6.0, 10.0]
        base = {"x": {"kind": "geometric", "s0": 2.0, "sigma": 0.25}, "levels": [5, 10]}
        floors = {
            "table": {"name": "table", "a_star": 2.0, "ys": ys, "ws": [y / 4 for y in ys]},
            "proportional": {"name": "proportional", "alpha": 0.25, "a_star": 2.0},
        }
        y = {}
        for name, floor in floors.items():
            result, out = run_cli(tmp_path / name, "drawdown", {**base, "floor": floor}, "--seed", "11")
            assert result.exit_code == 0, result.output
            assert json.loads((out / "drawdown_report.json").read_text())["constraint_margin"] > 0
            rows = (out / "drawdown.csv").read_text().splitlines()[1:-1]
            y[name] = np.array([float(r.split(",")[1]) for r in rows])
        assert np.allclose(y["table"], y["proportional"], rtol=1e-6)

    @pytest.mark.parametrize(
        "f, path, cap",
        [
            ({"name": "identity"}, {"kind": "dyadic-brownian"}, 1e-12),
            ({"name": "power", "p": 1.7}, {"kind": "geometric", "s0": 2.0, "sigma": 0.25}, 5e-2),
        ],
        ids=["identity", "power"],
    )
    def test_ito_check_builtin_functions(self, tmp_path, f, path, cap):
        cfg = {"f": f, "path": path, "levels": [6, 12], "stochastic": True, "assert_residual": cap}
        result, out = run_cli(tmp_path, "ito-check", cfg, "--seed", "3")
        assert result.exit_code == 0, result.output
        assert abs(json.loads((out / "ito-check_report.json").read_text())["residual"]) <= cap

    def test_assoc_subcommand(self, tmp_path):
        cfg = {
            "path": {"kind": "step", "c": 1.0, "t0": 0.5, "x0": 1.0},
            "path_fv": True,
            "integrands": [{"name": "square"}],
            "eta": {"constant": 1.0},
            "levels": [2, 8],
            "assert_gap": 1e-10,
        }
        result, out = run_cli(tmp_path, "assoc", cfg)
        assert result.exit_code == 0, result.output

    def test_nonlinear_subcommand(self, tmp_path):
        cfg = {
            "x": {"kind": "formula", "name": "linear"},
            "x_fv": True,
            "f": {"kind": "linear", "a": 1.0, "b": 0.0},
            "x0": 1.0,
            "levels": [8, 12],
            "assert_value": float(np.exp(2.0)),
            "assert_tol": 1e-6,
        }
        result, out = run_cli(tmp_path, "nonlinear", cfg)
        assert result.exit_code == 0, result.output


# ---------------------------------------------------------------------------
# The column-wise CSV writer against the row writer it replaced
# ---------------------------------------------------------------------------


def write_csv_rows(path, header: list, rows, cfg_hash: str) -> None:
    """Test-only oracle: the row-by-row CSV writer, one ``_fmt`` per cell."""
    with open(path, "w") as fp:
        fp.write(",".join(header) + "\n")
        for row in rows:
            fp.write(",".join(_fmt(v) for v in row) + "\n")
        fp.write(f"# config_hash={cfg_hash}\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def assert_writers_agree(tmp_path, header, columns, python_columns):
    """``write_csv`` on ``columns`` gives the oracle's bytes on the same
    values as Python ints and floats."""
    write_csv(tmp_path / "new.csv", header, columns, "abc")
    write_csv_rows(tmp_path / "old.csv", header, zip(*python_columns), "abc")
    assert_same_file(tmp_path / "new.csv", tmp_path / "old.csv")
    text = (tmp_path / "new.csv").read_text()
    assert "np." not in text
    return text


def assert_same_file(path: Path, expected: Path) -> None:
    """Fail naming the first differing line (pytest's own diff of two long
    texts takes minutes)."""
    got, want = path.read_bytes().split(b"\n"), expected.read_bytes().split(b"\n")
    if got != want:
        k = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        got_k, want_k = (lines[k] if k < len(lines) else b"<end>" for lines in (got, want))
        pytest.fail(f"{path.name} line {k}: {got_k!r}, expected {want_k!r}")


_EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-05, 1e16, 5e-324, 0.1, -2.5]
_POOL_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 0.1, 1e16]


class TestCsvWriter:
    def test_float_edge_values_and_dyadic_times(self, tmp_path):
        times = np.arange(len(_EDGE_FLOATS)) / 1024
        text = assert_writers_agree(
            tmp_path, ["t", "x"], [times, np.array(_EDGE_FLOATS)], [times.tolist(), _EDGE_FLOATS]
        )
        assert "nan" in text and "-inf" in text and "-0.0" in text and "1e+16" in text and "5e-324" in text

    def test_int_columns_are_decimals(self, tmp_path):
        ints = [0, 7, -3, 2**40]
        text = assert_writers_agree(
            tmp_path, ["a", "b", "c"], [np.array(ints), ints, range(4)], [ints, ints, list(range(4))]
        )
        assert text.splitlines()[1] == "0,0,0"

    def test_empty_table_is_header_and_hash(self, tmp_path):
        text = assert_writers_agree(tmp_path, ["t", "x"], [np.zeros(0), []], [[], []])
        assert text == "t,x\n# config_hash=abc\n"

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_block_edges(self, tmp_path, extra):
        n = BLOCK + extra
        t = np.arange(n) / n
        x = np.random.default_rng(n).standard_normal(n)
        text = assert_writers_agree(
            tmp_path, ["k", "t", "x"], [range(n), t, x], [list(range(n)), t.tolist(), x.tolist()]
        )
        assert len(text.splitlines()) == n + 2

    def test_numpy_scalars_are_written_as_numbers(self, tmp_path):
        floats = [np.float64(v) for v in _EDGE_FLOATS]
        ints = [np.int64(k) for k in range(len(floats))]
        assert_writers_agree(
            tmp_path, ["k", "x"], [ints, tuple(floats)], [list(range(len(floats))), _EDGE_FLOATS]
        )

    def test_str_cells_are_written_as_they_are(self, tmp_path):
        cells = [repr(v) for v in _EDGE_FLOATS]
        assert_writers_agree(tmp_path, ["x", "y"], [cells, _EDGE_FLOATS], [_EDGE_FLOATS, _EDGE_FLOATS])

    def test_bools_huge_ints_and_non_ascii_cells_are_written_as_str(self, tmp_path):
        flags, huge, words = [True, False, True], [2**70, -(10**18), 7], ["é", "", "naïve"]
        assert_writers_agree(
            tmp_path, ["b", "i", "s"], [np.array(flags), huge, words], [flags, huge, words]
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-(2**62), 2**62), st.floats(), st.floats(width=32)), max_size=12)
    )
    def test_agrees_with_row_writer(self, rows):
        cols = [list(c) for c in zip(*rows)] or [[], [], []]
        with tempfile.TemporaryDirectory() as d:
            assert_writers_agree(Path(d), ["i", "x", "y"], [np.array(c) for c in cols], cols)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([0, 1, 2, 7, 40, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]),
        st.lists(st.sampled_from(_POOL_FLOATS), min_size=1, max_size=len(_POOL_FLOATS), unique_by=repr),
        st.integers(0, 2**32 - 1),
    )
    def test_repeated_floats_agree_with_row_writer(self, n, pool, seed):
        # columns drawn from a small pool take the per-distinct-value path
        rng = np.random.default_rng(seed)
        x = np.array(pool)[rng.integers(len(pool), size=n)]
        y = np.array(pool[::-1])[rng.integers(len(pool), size=n)]
        t = np.arange(n) / max(n, 1)
        if n >= 40:
            assert _csv_distinct(x)[0] is not None and _csv_distinct(t)[0] is None
        with tempfile.TemporaryDirectory() as d:
            text = assert_writers_agree(
                Path(d), ["t", "x", "y"], [t, x, y], [t.tolist(), x.tolist(), y.tolist()]
            )
        assert len(text.splitlines()) == n + 2

    def test_signed_zeros_stay_apart(self, tmp_path):
        x = np.zeros(10_000)
        x[::2] = -0.0
        text = assert_writers_agree(tmp_path, ["x"], [x], [x.tolist()])
        assert text.splitlines()[1:-1] == ["-0.0", "0.0"] * 5_000

    def test_ragged_or_two_dimensional_columns_raise(self, tmp_path):
        with pytest.raises(ValueError, match="length"):
            write_csv(tmp_path / "a.csv", ["a", "b"], [np.zeros(3), np.zeros(2)], "abc")
        with pytest.raises(ValueError, match="one-dimensional"):
            write_csv(tmp_path / "a.csv", ["a"], [np.zeros((3, 1))], "abc")

    def test_path_csv_round_trip_matches_row_writer(self):
        g = fl.dyadic_grid(1.0, 8)
        dX = np.zeros(len(g))
        dX[[5, 100, 200]] = [0.5, 1e-05, -0.0]
        x = fl.GridPath(g, np.random.default_rng(3).standard_normal(len(g)).cumsum(), dX)
        buf = io.StringIO()
        write_path_csv(x, buf)
        old = io.StringIO()
        w = csv.writer(old, lineterminator="\n")
        w.writerow(["t", "x1", "dx1"])
        for t, v, dx in zip(x.grid.times, x.x, x.dX):
            w.writerow([repr(float(t)), repr(float(v)), repr(float(dx))])
        assert buf.getvalue() == old.getvalue()
        buf.seek(0)
        y = read_path_csv(buf)
        assert np.array_equal(y.x, x.x) and np.array_equal(y.dX, x.dX)
        assert np.array_equal(y.grid.times, x.grid.times)


_MARKET = {"s": {"kind": "geometric", "sigma": 0.2, "jump_intensity": 2.0, "jump_size": 0.15}, "b": {"rate": 0.03}}
_BROWNIAN_JUMPS = {
    "kind": "affine-combination",
    "x": {"kind": "dyadic-brownian"},
    "y": {"kind": "compound-jump", "intensity": 3.0, "size": 0.5, "sampler": "uniform"},
}
_LEVEL_8 = {"levels": [3, 8], "grid_level": 8}  # QV trends at this size need a loose tol
_SUBCOMMANDS = [
    ("qv", {"path": _BROWNIAN_JUMPS, "stochastic": True}),
    ("integrate", {"path": {"kind": "dyadic-brownian"}, "stochastic": True, "integrand": {"f": {"name": "square"}}}),
    ("ito-check", {"path": _BROWNIAN_JUMPS, "stochastic": True, "f": {"name": "square"}}),
    ("assoc", {"path": {"kind": "dyadic-brownian"}, "stochastic": True, "integrands": [{"name": "square"}]}),
    ("linear", {"x": _BROWNIAN_JUMPS, "stochastic": True, "h": {"constant": 1.0}, "tol": 0.5}),
    ("nonlinear", {"x": {"kind": "dyadic-brownian"}, "stochastic": True, "f": {"kind": "linear", "a": 1.0}, "tol": 0.5}),
    ("drawdown", {"x": {"kind": "geometric", "s0": 2.0, "sigma": 0.25}, "floor": {"name": "zero", "a_star": 2.0}}),
    ("dppi", {"market": _MARKET, "m": 2.0, "l": {"constant": 0.6}, "v0": 1.0, "tol": 0.5}),
    ("appendix-measure", {"atom": 0.375}),
    ("mc", {"seeds": 2, "n_min": 1, "n_max": 3, "grid_level": 8, "jump_intensity": 2.0}),
]
# A +/-2^-6 coin jump at every point of grid level 8: its QV and integral
# curves repeat values, so qv.csv and integrate_curve.csv take the writer's
# per-distinct-value path (linear.csv's z is all distinct).
_COIN_JUMPS = {"kind": "compound-jump", "intensity": 1024.0, "size": 2.0**-6, "sampler": "coin"}
_DENSE_SUBCOMMANDS = [
    ("qv", {"path": _COIN_JUMPS, "path_fv": True}),
    ("integrate", {"path": _COIN_JUMPS, "path_fv": True, "integrand": {"f": {"name": "square"}}}),
    ("linear", {"x": _COIN_JUMPS, "x_fv": True, "h": {"constant": 1.0}}),
]
_INT_COLUMNS = {"level", "seed", "passed"}


def _cell(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


@pytest.mark.parametrize(
    "command, cfg",
    _SUBCOMMANDS + _DENSE_SUBCOMMANDS,
    ids=[c for c, _ in _SUBCOMMANDS] + [f"dense-{c}" for c, _ in _DENSE_SUBCOMMANDS],
)
def test_subcommand_csvs_match_row_writer(tmp_path, command, cfg):
    cfg = cfg if command == "mc" else {**_LEVEL_8, **cfg}
    result, out = run_cli(tmp_path / "run", command, cfg, "--seed", "5")
    assert isinstance(result.exception, (SystemExit, type(None))), repr(result.exception)
    assert_csvs_match_row_writer(tmp_path, out)


def test_tables_on_shared_grids_match_row_writer(tmp_path):
    # in one process: two commands on one grid, one on another (T, grid_level),
    # then the first again; each writes its times from its grid's shared text
    qv = {**_LEVEL_8, **dict(_SUBCOMMANDS)["qv"]}
    runs = [
        ("qv", qv),
        ("linear", {**_LEVEL_8, **dict(_SUBCOMMANDS)["linear"]}),
        ("integrate", {**dict(_SUBCOMMANDS)["integrate"], "levels": [3, 6], "grid_level": 7, "T": 0.5}),
        ("qv", qv),
    ]
    for k, (command, cfg) in enumerate(runs):
        result, out = run_cli(tmp_path / str(k), command, cfg, "--seed", "5")
        assert isinstance(result.exception, (SystemExit, type(None))), repr(result.exception)
        assert_csvs_match_row_writer(tmp_path / str(k), out)
    assert "text" in vars(fl.dyadic_grid(1.0, 8)) and "text" in vars(fl.dyadic_grid(0.5, 7))
    assert (tmp_path / "0" / "out" / "qv.csv").read_bytes() == (tmp_path / "3" / "out" / "qv.csv").read_bytes()


def assert_csvs_match_row_writer(tmp_path, out):
    """Every CSV in ``out`` is the row oracle's rewrite of its own cells, with
    int columns exactly where ``_INT_COLUMNS`` says."""
    written = sorted(out.glob("*.csv"))
    assert written
    for path in written:
        lines = path.read_text().splitlines()
        header, rows, hash_line = lines[0].split(","), [r.split(",") for r in lines[1:-1]], lines[-1]
        assert rows and hash_line.startswith("# config_hash=")
        values = [[_cell(c) for c in row] for row in rows]
        for k, name in enumerate(header):
            assert all(isinstance(v[k], int) for v in values) == (name in _INT_COLUMNS), (path.name, name)
        write_csv_rows(tmp_path / "oracle.csv", header, values, hash_line.removeprefix("# config_hash="))
        assert_same_file(path, tmp_path / "oracle.csv")


# A geometric price with a jump at about every point of grid level 8.
_DENSE_MARKET = {"s": {"kind": "geometric", "sigma": 0.2, "jump_intensity": 1024.0, "jump_size": 0.05}, "b": {"rate": 0.03}}


def _library_columns(command, cfg) -> tuple:
    """The CSV file ``command`` writes on ``cfg`` at seed 5, and its columns as
    the library computes them: level and time columns, then the float arrays."""
    run = cli.Run(cfg, Path("."), 5, None, "", tolerance(cfg, "tol", STOCHASTIC_TOL))
    times = run.grid.times
    if command == "qv":
        curves = qv_sequence(run.path("path"), run.seq, tol=run.tol).level_curves
        levels = np.arange(len(curves)).repeat(len(times))
        return "qv.csv", [levels, np.tile(times, len(curves)), np.concatenate(curves)]
    if command == "integrate":
        x = run.path("path")
        xi = AdmissibleIntegrand(cli._function(cfg["integrand"]["f"], "integrand.f"), None, x)
        return "integrate_curve.csv", [times, follmer_integral(xi, x, run.seq, tol=run.tol).estimate]
    if command == "linear":
        return "linear.csv", [times, solve_linear(1.0, run.path("x"), run.seq, tol=run.tol).z.x]
    floor = FloorSpec(fl.FVPath(run.grid, np.full(len(times), cfg["l"]["constant"])))
    rep = dppi(cli._market_from(run), cfg["m"], floor, cfg["v0"], run.seq, tol=run.tol)
    strategy = rep.strategy
    return "strategy.csv", [times, strategy.xi.x, strategy.eta.x, strategy.value.x, rep.floor_curve]


_VALUE_CASES = [(c, cfg) for c, cfg in _SUBCOMMANDS if c in ("qv", "integrate", "linear", "dppi")]
_VALUE_CASES += _DENSE_SUBCOMMANDS + [("dppi", {**dict(_SUBCOMMANDS)["dppi"], "market": _DENSE_MARKET})]


@pytest.mark.parametrize(
    "command, cfg",
    _VALUE_CASES,
    ids=[c for c, _ in _VALUE_CASES[:4]] + [f"dense-{c}" for c, _ in _VALUE_CASES[4:]],
)
def test_subcommand_csvs_hold_the_library_values(tmp_path, command, cfg):
    # every cell of the table, read back, is bit for bit the library's value
    # in its row and column
    cfg = {**_LEVEL_8, **cfg}
    result, out = run_cli(tmp_path, command, cfg, "--seed", "5")
    assert isinstance(result.exception, (SystemExit, type(None))), repr(result.exception)
    name, columns = _library_columns(command, cfg)
    lines = (out / name).read_text().splitlines()[1:-1]
    assert len(lines) == len(columns[0])
    for k, (cells, want) in enumerate(zip(zip(*(line.split(",") for line in lines)), columns)):
        got = np.array([float(c) for c in cells])
        assert got.view(np.int64).tolist() == np.asarray(want, dtype=float).view(np.int64).tolist(), (name, k)


# ---------------------------------------------------------------------------
# The driver shared by every subcommand
# ---------------------------------------------------------------------------

_COMMANDS = dict(_SUBCOMMANDS, cppi=dict(_SUBCOMMANDS)["dppi"])


def run_command(tmp_path, command, changes=None, *args):
    """``command`` on its ``_SUBCOMMANDS`` config with ``changes`` merged in."""
    base = _COMMANDS[command] if command == "mc" else {**_LEVEL_8, **_COMMANDS[command]}
    return run_cli(tmp_path, command, {**base, **(changes or {})}, "--seed", "5", *args)


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_subcommand_rejects_unknown_key(tmp_path, command):
    result, out = run_command(tmp_path, command, {"bogus": 1})
    assert result.exit_code == 2
    assert "unknown keys" in result.stderr and "bogus" in result.stderr
    assert not list(out.iterdir())


_JUMP_OFF_THE_PARTITION = {
    "kind": "affine-combination",
    "x": {"kind": "dyadic-brownian", "seed": 3},
    "y": {"kind": "step", "c": 0.5, "t0": 0.3046875},
}


@pytest.mark.parametrize(
    "command, changes, named",
    [
        ("integrate", {"integrand": 3}, "integrand must be an object"),
        ("nonlinear", {"f": 3}, "f must be an object"),
        ("nonlinear", {"f": {"kind": "constant", "c": "abc"}}, "f.c must be a number"),
        ("dppi", {"market": {**_MARKET, "b": 0.03}}, "market.b must be an object"),
        ("qv", {"T": "x"}, "T must be a number"),
        ("qv", {"t": 5.0}, "t = 5.0 lies outside"),
        ("assoc", {"eta": {"constant": [1.0, 2.0]}}, "eta.constant has 2 values for 1 integrands"),
        ("mc", {"n_min": 0}, "n_min"),
        ("mc", {"seeds": -1}, "seeds must be a nonnegative integer, got -1"),
        ("mc", {"seeds": []}, "seeds is empty"),
        ("mc", {"sigma": float("nan")}, "sigma must be finite, got nan"),
        ("mc", {"T": float("inf")}, "T must be finite, got inf"),
        ("mc", {"jump_size": float("-inf")}, "jump_size must be finite, got -inf"),
        ("mc", {"tol": float("nan")}, "tolerance 'tol' must be a finite nonnegative number, got nan"),
        ("qv", {"tol": True}, "tolerance 'tol' must be a finite nonnegative number, got True"),
        ("ito-check", {"assert_residual": float("inf")}, "'assert_residual' must be a finite nonnegative number"),
        ("dppi", {"market": {"csv": 3}}, "market.csv must be a file path, got 3"),
        ("dppi", {"market": {"csv": ["m.csv"]}}, "market.csv must be a file path, got ['m.csv']"),
        ("assoc", {"integrands": 3}, "integrands must be a non-empty list of functions, got 3"),
        ("assoc", {"integrands": []}, "integrands must be a non-empty list of functions, got []"),
        # a function of the wrong arity for the configured paths
        (
            "ito-check",
            {"a": {"kind": "formula", "name": "linear"}},
            "f: function 'polynomial([0.0, 0.0, 1.0])' takes 0 finite-variation and 1 path components; "
            "the config gives 1 and 1",
        ),
        ("ito-check", {"f": {"name": "fv-scale"}}, "f: function 'fv-scale' takes 1 finite-variation and 1 path"),
        ("integrate", {"integrand": {"f": {"name": "fv-scale"}}}, "integrand.f: function 'fv-scale' takes 1"),
        ("assoc", {"integrands": [{"name": "fv-scale"}]}, "integrands: function 'fv-scale' takes 1"),
        ("assoc", {"eta": {"f": {"name": "fv-scale"}}}, "eta.f: function 'fv-scale' takes 1"),
        # a step time off the grid
        (
            "linear",
            {"x": {**_JUMP_OFF_THE_PARTITION, "y": {"kind": "step", "c": 0.5, "t0": 0.3}}, "levels": [3, 6], "grid_level": 10},
            "x.y.t0 = 0.3 is not a grid time",
        ),
        ("appendix-measure", {"f": {"kind": "step", "c": 1.0, "t0": 0.3}}, "f.t0 = 0.3 is not a grid time"),
        # non-finite numbers
        ("appendix-measure", {"atom": float("nan")}, "atom must be finite, got nan"),
        ("linear", {"h": {"constant": float("nan")}}, "h.constant must be finite, got nan"),
        ("dppi", {"m": float("nan")}, "m must be finite, got nan"),
        ("dppi", {"v0": float("inf")}, "v0 must be finite, got inf"),
        ("nonlinear", {"x0": float("nan")}, "x0 must be finite, got nan"),
        ("qv", {"grid_level": float("nan")}, "grid_level must be finite, got nan"),
        ("qv", {"path": {"kind": "dyadic-brownian", "sigma": float("nan")}}, "path.sigma must be finite, got nan"),
        ("qv", {"levels": [3, float("inf")]}, "levels.n_max must be finite, got inf"),
        ("mc", {"seeds": float("nan")}, "seeds must be finite, got nan"),
        ("mc", {"n_max": float("inf")}, "n_max must be finite, got inf"),
        ("drawdown", {"floor": {"name": "proportional", "alpha": float("nan"), "a_star": 2.0}}, "floor.alpha must be finite"),
        ("ito-check", {"f": {"name": "polynomial", "coeffs": [0.0, float("-inf")]}}, "f.coeffs[1] must be finite, got -inf"),
        # exp-affine is scalar
        ("ito-check", {"f": {"name": "exp-affine", "c": [1.0, 2.0]}}, "f: bad parameters: c must be a number or a one-element list"),
        # domain errors of the floor and of the measure
        ("dppi", {"l": {"constant": -0.5}}, "l: L must be nonnegative"),
        (
            "appendix-measure",
            {"weight": -1},
            "weight must be nonnegative: discrete-measure convergence needs nonnegative atoms",
        ),
        ("appendix-measure", {"atom": 0.3}, "atom = 0.3 is not a grid time, where the default f steps"),
        # generator parameters checked when the config is read
        ("qv", {"path": {"kind": "compound-jump", "sampler": "foo"}}, "path.sampler must be one of ['coin', 'uniform'], got 'foo'"),
        ("nonlinear", {"x": {"kind": "step", "c": "abc"}}, "x.c must be a number, got 'abc'"),
        ("qv", {"path": {"kind": "geometric", "jump_size": 1.5}}, "path.jump_size must stay below 1 in magnitude, got 1.5"),
        # floor parameters outside the model's domain
        (
            "drawdown",
            {"floor": {"name": "proportional", "alpha": 1.5, "a_star": 2.0}},
            "floor.alpha must satisfy 0 <= alpha < 1, got 1.5",
        ),
        ("drawdown", {"floor": {"name": "constant-margin", "c": -1, "a_star": 2.0}}, "floor.c must be positive, got -1"),
        (
            "drawdown",
            {"floor": {"name": "zero", "a_star": -2}},
            "floor.a_star = -2: the floor margin y - w(y) is not positive there",
        ),
        # malformed table floors
        (
            "drawdown",
            {"floor": {"name": "table", "ys": [2.0, 1.0], "ws": [0.5, 0.6], "a_star": 2.0}},
            "floor.ys must be strictly increasing, got [2.0, 1.0]",
        ),
        (
            "drawdown",
            {"floor": {"name": "table", "ys": [2.0, 3.0, 4.0], "ws": [0.5, 0.6], "a_star": 2.0}},
            "floor.ws has 2 values for the 3 points of ys",
        ),
        (
            "drawdown",
            {"floor": {"name": "table", "ys": [2.0, 3.0], "ws": ["a", 0.6], "a_star": 2.0}},
            "floor.ws[0] must be a number, got 'a'",
        ),
        ("drawdown", {"floor": {"name": "table", "ys": 3, "ws": [0.5], "a_star": 2.0}}, "floor.ys must be a list"),
        # inputs outside the model's domain, each raised where its rule is defined
        ("dppi", {"v0": -1.0}, "v0 = -1.0 is below the initial floor L_0 = 0.6"),
        ("linear", {"x": {"kind": "step", "c": -1.0, "t0": 0.5}}, "x has a jump dX = -1 at t = 0.5: E(X) hits zero"),
        (
            "nonlinear",
            {"x": {"kind": "affine-combination", "x": {"kind": "dyadic-brownian"}, "y": {"kind": "step", "c": -1.0}}},
            "x has a jump dX = -1 at t = 0.5: the equation degenerates",
        ),
        ("qv", {"path": {"kind": "dyadic-brownian", "seed": -3}}, "path.seed must be a nonnegative integer, got -3"),
        ("mc", {"seeds": [1, -2]}, "seeds must be a nonnegative integer, got -2"),
        ("qv", {"path": {"kind": "compound-jump", "intensity": -2.0}}, "path.intensity must be nonnegative, got -2.0"),
        ("mc", {"jump_sampler": "foo", "jump_intensity": 1.0}, "jump_sampler must be one of ['coin', 'uniform'], got 'foo'"),
        (
            "mc",
            {"grid_level": 2, "n_min": 1, "n_max": 8},
            "grid_level: grid too coarse for the 1/n time cap at level n=5: cap 1/n = 0.2 is below the grid step 0.25",
        ),
        (
            "qv",
            {"path": {"kind": "compound-jump", "size": -1.0, "sampler": "uniform"}},
            "path.size must be nonnegative for the uniform sampler, got -1.0",
        ),
        ("drawdown", {"x": {"kind": "geometric", "s0": 0.0}}, "x.s0 must be positive, got 0.0"),
        ("appendix-measure", {"atom": 0.0}, "atom = 0.0 is not a grid time, where the default f steps, after t = 0"),
        ("dppi", {"l": {"constant": -1.0}}, "l: L must be nonnegative, got -1.0 at t = 0.0 (from l.constant)"),
        (
            "dppi",
            {"l": {"linear": {"start": 0.5, "slope": -1.0}}},
            "l: L must be nonnegative, got -0.00390625 at t = 0.50390625 (from l.linear)",
        ),
        ("mc", {"jump_intensity": -1.0}, "jump_intensity must be nonnegative, got -1.0"),
        ("mc", {"T": -1.0}, "T must be positive, got -1.0"),
        # integer keys: whole, not boolean, nonnegative, and grid and partition levels at most MAX_LEVEL
        ("qv", {"grid_level": 8.5}, "grid_level must be an integer from 0 to 20, got 8.5"),
        ("mc", {"grid_level": True}, "grid_level must be an integer from 0 to 20, got True"),
        ("mc", {"grid_level": 0}, "grid_level: grid too coarse for the 1/n time cap at level n=2"),
        ("qv", {"levels": [3.5, 8]}, "levels.n_min must be an integer from 0 to 20, got 3.5"),
        ("mc", {"n_max": 8.7}, "n_max must be an integer from 0 to 20, got 8.7"),
        ("qv", {"seed": 1.5}, "seed must be a nonnegative integer, got 1.5"),
        ("qv", {"path": {"kind": "dyadic-brownian", "seed": True}}, "path.seed must be a number, got True"),
        # the level bound, tried only where numpy refuses the grid at once
        ("qv", {"grid_level": 63}, "grid_level must be an integer from 0 to 20, got 63"),
        ("qv", {"levels": [3, 63]}, "levels.n_max must be an integer from 0 to 20, got 63"),
        ("mc", {"grid_level": 64}, "grid_level must be an integer from 0 to 20, got 64"),
        # a path outside an integrand's domain, named by the config key of its function
        ("integrate", {"integrand": {"f": {"name": "log"}}}, "integrand.f: f is not defined along the trajectory"),
        ("assoc", {"integrands": [{"name": "square"}, {"name": "log"}]}, "integrands: f is not defined along"),
        # a negative jump size, rejected under its own key
        (
            "qv",
            {"path": {"kind": "geometric", "jump_size": -0.5, "jump_intensity": 2.0}},
            "path.jump_size must be nonnegative, got -0.5",
        ),
        ("mc", {"jump_sampler": "uniform", "jump_size": -0.5}, "jump_size must be nonnegative for the uniform sampler"),
        # boolean keys take only true and false
        ("qv", {"path_fv": "false"}, "path_fv must be true or false, got 'false'"),
        ("qv", {"stochastic": 1}, "stochastic must be true or false, got 1"),
        ("linear", {"x_fv": "true"}, "x_fv must be true or false, got 'true'"),
        (
            "linear",
            {"h": {"path": {"kind": "dyadic-brownian"}, "fv_decomposition": "yes"}},
            "h.fv_decomposition must be true or false, got 'yes'",
        ),
        # eta.f is evaluated along the path, so it must be defined there, and it is one eta
        ("assoc", {"eta": {"f": {"name": "log"}}}, "eta.f: f is not defined along the trajectory"),
        (
            "assoc",
            {"eta": {"f": {"name": "square"}}, "integrands": [{"name": "square"}, {"name": "identity"}]},
            "eta.f has 1 values for 2 integrands",
        ),
        # a key that is read only beside another one
        ("linear", {"h": {"path": {"kind": "dyadic-brownian"}, "xi": 2.0}}, "h.xi is read only with h.fv_decomposition"),
        # exp takes no parameters: its c is not exp-affine's
        ("ito-check", {"f": {"name": "exp", "c": 2.0}}, "unknown keys in f: ['c']"),
        ("qv", {"path": {"kind": "dyadic-brownian", "seed": 2.5}}, "path.seed must be a nonnegative integer, got 2.5"),
        # a polynomial's coefficients are a nonempty list of numbers
        (
            "ito-check",
            {"f": {"name": "polynomial", "coeffs": [0, "x"]}},
            "f.coeffs[1] must be a number, got 'x'",
        ),
        ("ito-check", {"f": {"name": "polynomial", "coeffs": []}}, "f.coeffs must be a nonempty list of finite numbers"),
        ("ito-check", {"f": {"name": "polynomial", "coeffs": "abc"}}, "f.coeffs must be a nonempty list of finite"),
        # a zigzag's period is positive
        ("qv", {"path": {"kind": "formula", "name": "zigzag", "period": 0}}, "path.period must be positive, got 0"),
        ("qv", {"path": {"kind": "formula", "name": "zigzag", "period": -0.5}}, "path.period must be positive, got -0.5"),
        # a config number is a JSON number, not a bool or a number's text, read by io.number ...
        ("qv", {"T": True}, "T must be a number, got True"),
        ("qv", {"t": "0.5"}, "t must be a number, got '0.5'"),
        ("mc", {"sigma": " 1 "}, "sigma must be a number, got ' 1 '"),
        # ... by io.integer ...
        ("qv", {"grid_level": "8"}, "grid_level must be an integer from 0 to 20, got '8'"),
        ("qv", {"levels": ["3", "8"]}, "levels.n_min must be an integer from 0 to 20, got '3'"),
        ("qv", {"seed": "3"}, "seed must be a nonnegative integer, got '3'"),
        ("mc", {"seeds": ["1", 2]}, "seeds must be a nonnegative integer, got '1'"),
        # ... and by io.build, a list's entries included
        ("qv", {"path": {"kind": "dyadic-brownian", "sigma": True}}, "path.sigma must be a number, got True"),
        ("qv", {"path": {"kind": "step", "t0": True}}, "path.t0 must be a number, got True"),
        ("nonlinear", {"f": {"kind": "linear", "a": True}}, "f.a must be a number, got True"),
        ("drawdown", {"floor": {"name": "proportional", "alpha": False, "a_star": 2.0}}, "floor.alpha must be a number"),
        ("ito-check", {"f": {"name": "polynomial", "coeffs": [0, "0", "1"]}}, "f.coeffs[1] must be a number, got '0'"),
        (
            "drawdown",
            {"floor": {"name": "table", "ys": ["2", 3, 4], "ws": [0, 1, 2], "a_star": 2.0}},
            "floor.ys[0] must be a number, got '2'",
        ),
        (
            "drawdown",
            {"floor": {"name": "table", "ys": [2, 3, 4], "ws": [0, True, 2], "a_star": 2.0}},
            "floor.ws[1] must be a number, got True",
        ),
        ("assoc", {"eta": {"constant": [True]}}, "eta.constant must be a number, got True"),
        # an int too large for a float is not finite
        ("qv", {"path": {"kind": "compound-jump", "intensity": 10**400}}, "path.intensity must be finite, got 1000"),
        ("qv", {"path": {"kind": "formula", "name": "linear", "slope": 10**400}}, "path.slope must be finite, got 1000"),
        ("drawdown", {"floor": {"name": "zero", "a_star": 10**400}}, "floor.a_star must be finite, got 1000"),
        ("nonlinear", {"f": {"kind": "constant", "c": 10**400}}, "f.c must be finite, got 1000"),
        ("ito-check", {"f": {"name": "exp-affine", "c": 10**400}}, "f.c must be finite, got 1000"),
        ("mc", {"seeds": 10**400}, "seeds must be finite, got 1000"),
        # the DPPI floor guarantee needs a nonincreasing multiplier L
        (
            "dppi",
            {"l": {"linear": {"start": 0.9, "slope": 0.5}}},
            "l: L must be nonincreasing, got 0.9 then 0.901953125 at t = 0.00390625 (from l.linear)",
        ),
        # an mc run asks for at most MAX_SEEDS seeds, by a count or by a list
        ("mc", {"seeds": 1025}, "seeds must ask for at most 1024 seeds, got 1025"),
        ("mc", {"seeds": list(range(1025))}, "seeds must ask for at most 1024 seeds, got 1025"),
        # a Poisson mean intensity * T above what numpy's sampler takes, named by its key
        ("qv", {"path": {"kind": "compound-jump", "intensity": 1e300}}, "path.intensity times T must be at most 1e+18"),
        (
            "dppi",
            {"market": {**_MARKET, "s": {"kind": "geometric", "jump_intensity": 1e150}}},
            "market.s.jump_intensity times T must be at most 1e+18, got 1e+150",
        ),
        ("mc", {"jump_intensity": 1e19}, "jump_intensity: intensity times T must be at most 1e+18, got 1e+19"),
        # a parent path's rule inside an affine combination, named under x. or y.
        (
            "qv",
            {"path": {**_BROWNIAN_JUMPS, "y": {"kind": "compound-jump", "intensity": 1e300}}},
            "path.y.intensity times T must be at most 1e+18, got 1e+300",
        ),
        # the config's one weight is named, not the library's weights of mu_n
        ("appendix-measure", {"weight": -1.0}, "config error: weight must be nonnegative"),
        # mc's levels are its own keys
        ("mc", {"levels": [3, 8]}, "mc takes its levels from 'n_min' and 'n_max', not 'levels'"),
    ],
)
def test_malformed_value_exits_2(tmp_path, command, changes, named):
    result, _ = run_command(tmp_path, command, changes)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert named in result.stderr


def _numeric_leaves(cfg, key=()):
    """The key path of every number (not bool) in a config, lists included."""
    if isinstance(cfg, (dict, list)):
        for k, v in cfg.items() if isinstance(cfg, dict) else enumerate(cfg):
            yield from _numeric_leaves(v, key + (k,))
    elif isinstance(cfg, (int, float)) and not isinstance(cfg, bool):
        yield key


def _replaced(cfg, key, value):
    if not key:
        return value
    out = dict(cfg) if isinstance(cfg, dict) else list(cfg)
    out[key[0]] = _replaced(cfg[key[0]], key[1:], value)
    return out


_NOT_NUMBERS = [True, False, "1", 10**400]  # a config error on every numeric leaf
_LEAF_VALUES = [float("nan"), float("inf"), -float("inf"), "x", -1, 0, 0.5, [], {}, None, *_NOT_NUMBERS]
_LEAF_IDS = ["NaN", "Infinity", "-Infinity", "x", "-1", "0", "0.5", "[]", "{}", "null", "true", "false", "'1'", "1e400"]


@pytest.mark.parametrize("value", _LEAF_VALUES, ids=_LEAF_IDS)
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_non_finite_numbers_exit_cleanly_naming_the_key(tmp_path, command, value):
    # each number of the config in turn, top-level or nested, replaced: a run
    # passes or fails (exit 0 or 1) or is a config error naming the key (exit
    # 2), never a traceback; a bool, a number's text or an int too large for
    # a float is always a config error
    base = _COMMANDS[command] if command == "mc" else {**_LEVEL_8, **_COMMANDS[command]}
    leaves = list(_numeric_leaves(base))
    assert leaves
    for k, key in enumerate(leaves):
        result, _ = run_cli(tmp_path / str(k), command, _replaced(base, key, value), "--seed", "5")
        clean = result.exception is None if result.exit_code == 0 else isinstance(result.exception, SystemExit)
        assert result.exit_code in (0, 1, 2) and clean, (key, result.output)
        assert result.exit_code == 2 or not any(value is v for v in _NOT_NUMBERS), (key, result.output)
        if result.exit_code == 2:
            dotted = ".".join(p for p in key if isinstance(p, str))
            assert dotted in result.stderr, (key, result.stderr)


def test_a_fault_in_a_compute_function_keeps_its_traceback(tmp_path, monkeypatch):
    # only ConfigError and DomainError are config errors (exit 2); any other
    # exception is a fault of the program and leaves the run with exit 1
    def broken(*args, **kwargs):
        raise TypeError("a fault")

    monkeypatch.setattr(cli, "qv_sequence", broken)
    result, out = run_command(tmp_path, "qv")
    assert result.exit_code == 1 and isinstance(result.exception, TypeError)
    assert not (out / "qv_report.json").exists()


@pytest.mark.parametrize(
    "rows, named",
    [
        ("0.0,1.0,1.0\n0.5,1.0,1.0\n0.25,1.0,1.0\n", "times must be strictly increasing"),
        ("0.0,1.0,1.0,0.5\n1.0,1.5,1.0,0.5\n", "jumps hold a jump at t=0"),
        ("0.0,1.0,1.0\n1.0,-1.0,1.0\n", "S and S_- must be strictly positive"),
        ("0.0,1.0,1.0\n0.5,nan,1.0\n1.0,1.0,1.0\n", "S and S_- must be strictly positive"),
        ("0.0,1.0,2.0\n1.0,1.0,2.0\n", "B_0 must equal 1, got 2.0"),
        ("0.0,1.0,1.0\n1.0,inf,1.0\n", "S and S_- must be strictly positive and finite"),
        # S_- = S - dS is beyond the float range
        ("0.0,1.0,1.0,0.0\n1.0,1.5e308,1.0,-5e307\n", "S and S_- must be strictly positive and finite"),
    ],
)
def test_market_csv_outside_the_domain_exits_2(tmp_path, rows, named):
    tmp_path.mkdir(parents=True, exist_ok=True)
    csv_path = tmp_path / "market.csv"
    csv_path.write_text(("t,S,B,dS\n" if rows.count(",") > 2 * rows.count("\n") else "t,S,B\n") + rows)
    result, _ = run_command(tmp_path, "dppi", {"market": {"csv": str(csv_path)}, "levels": [0, 1]})
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit), result.output
    assert f"market.csv: {named}" in result.stderr


@pytest.mark.parametrize("changes, code", [({"T": 2.0}, 2), ({"T": 0.5}, 2), ({"T": 1.0}, 0), ({}, 0)])
def test_market_csv_sets_the_horizon(tmp_path, changes, code):
    # beside an ingested market, T is the file's last time or absent;
    # grid_level (8 in every case here) is still taken
    tmp_path.mkdir(parents=True, exist_ok=True)
    csv_path = tmp_path / "market.csv"
    csv_path.write_text("t,S,B\n0.0,1.0,1.0\n0.5,1.1,1.0\n1.0,1.2,1.0\n")
    cfg = {"market": {"csv": str(csv_path)}, "levels": [0, 1], **changes}
    result, _ = run_command(tmp_path, "dppi", cfg)
    assert result.exit_code == code and isinstance(result.exception, (SystemExit, type(None))), result.output
    if code == 2:
        assert f"T = {changes['T']!r} is not the horizon 1.0 of market.csv" in result.stderr


def test_market_csv_partitions_its_own_grid(tmp_path, monkeypatch):
    # the thinned sequence of the ingested grid; no dyadic sequence is built
    # for the grid the config's levels would give
    csv_path = tmp_path / "market.csv"
    csv_path.write_text("t,S,B\n0.0,1.0,1.0\n0.3,1.1,1.0\n0.7,1.05,1.0\n1.0,1.2,1.0\n")
    monkeypatch.setattr(cli, "dyadic_sequence", None)
    thinned, real = [], cli.thinned_sequence
    monkeypatch.setattr(cli, "thinned_sequence", lambda g, k: thinned.append(k) or real(g, k))
    result, _ = run_command(tmp_path / "run", "dppi", {"market": {"csv": str(csv_path)}, "levels": [0, 1]})
    assert result.exit_code == 0, result.output
    assert thinned == [2]


def test_market_csv_with_reversed_levels_exits_2(tmp_path):
    csv_path = tmp_path / "market.csv"
    csv_path.write_text("t,S,B\n0.0,1.0,1.0\n0.5,1.1,1.0\n1.0,1.2,1.0\n")
    result, _ = run_command(tmp_path / "run", "dppi", {"market": {"csv": str(csv_path)}, "levels": [1, 0]})
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit), result.output
    assert "levels need at least one level, got 0" in result.stderr


def test_unsettled_qv_of_x_is_inconclusive(tmp_path):
    # the QV trend of X does not settle at these levels: E(X) is still built,
    # and the run reports the trend as unsettled, a failure under --strict
    x = {"kind": "dyadic-brownian", "seed": 1}
    cfg = {"x": x, "stochastic": True, "levels": [3, 6], "f": {"kind": "linear", "a": 1.0}}
    result, out = run_cli(tmp_path / "plain", "nonlinear", cfg)
    assert result.exit_code == 0, result.output
    report = json.loads((out / "nonlinear_report.json").read_text())
    assert report["inconclusive"] == ["quadratic variation of X inconclusive"] and report["failures"] == []
    assert not (out / "failures.json").exists()
    result, out = run_cli(tmp_path / "strict", "nonlinear", cfg, "--strict")
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    failures = json.loads((out / "failures.json").read_text())["failures"]
    assert failures == ["strict: quadratic variation of X inconclusive"]


def test_nonlinear_blowup_is_a_failed_check_with_a_report(tmp_path):
    # a valid config whose solution leaves every bound: the run writes its
    # report and fails, naming the time of the blow-up
    result, out = run_command(tmp_path, "nonlinear", {"f": {"kind": "linear", "a": 1e300}})
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    (failure,) = json.loads((out / "failures.json").read_text())["failures"]
    assert failure == "ODE solution blew up near t = 0.00390625"
    report = json.loads((out / "nonlinear_report.json").read_text())
    assert report["blowup_t"] == 0.00390625 and report["failures"] == [failure]


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("linear", {"x": _JUMP_OFF_THE_PARTITION, "grid_level": 10, "h": {"constant": 1.0}}),
        ("dppi", {"market": _MARKET, "m": 2.0, "l": {"constant": 0.6}, "v0": 1.0, "grid_level": 8, "seed": 5}),
    ],
    ids=["linear", "dppi"],
)
def test_qv_of_x_without_the_jump_identity_fails(tmp_path, command, cfg):
    # X moves between the last partition point before a jump and the jump, so
    # at the deterministic tolerance its jump identity fails: a failed check
    # with a report, not a traceback
    result, out = run_cli(tmp_path, command, {**cfg, "levels": [3, 6]})
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    (failure,) = json.loads((out / "failures.json").read_text())["failures"]
    assert failure.startswith("quadratic variation of X: jump identity violated: ")
    assert (out / f"{command}_report.json").exists()


# Configs of _COMMANDS at _LEVEL_8, one number replaced, whose arithmetic
# overflows (no seed), and the failures each must report: a NaN neither
# passes a check nor ends the run in a traceback.  tools/compare_outputs.py
# runs these too.
_NAN_QV = "quadratic variation of X: jump identity violated: nan"
_NAN_FLOOR = ["floor breached: margin nan", "self-financing residual trend non-finite"]
_NON_FINITE = {
    "linear-x.y.size-1e300": ("linear", ("x", "y", "size"), 1e300, [_NAN_QV, "substitution residual trend non-finite"]),
    "linear-x.y.size-1e150": ("linear", ("x", "y", "size"), 1e150, ["substitution residual trend non-finite"]),
    "dppi-m-1e300": ("dppi", ("m",), 1e300, [_NAN_QV, *_NAN_FLOOR]),
    "cppi-m-1e300": ("cppi", ("m",), 1e300, [_NAN_QV, *_NAN_FLOOR]),
    "dppi-m--1e6": ("dppi", ("m",), -1e6, ["quadratic variation of X: jump identity violated: 398440499.17129517", *_NAN_FLOOR]),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE))
def test_a_non_finite_verdict_fails_with_a_report(tmp_path, case):
    # run as a user would, in a process of its own: numpy's overflow warnings
    # go to stderr there, where the tests would turn them into errors
    command, key, value, failures = _NON_FINITE[case]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(_replaced({**_LEVEL_8, **_COMMANDS[command]}, key, value)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "follmer.cli", command, "--config", str(config), "--out", str(tmp_path / "out")]
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert run.returncode == 1 and "Traceback" not in run.stderr, run.stderr
    name = "dppi" if command == "cppi" else command
    named = _strict_json((tmp_path / "out" / "failures.json").read_text())
    assert (named["command"], named["failures"]) == (name, failures)
    assert _strict_json((tmp_path / "out" / f"{name}_report.json").read_text())["failures"] == failures


def _strict_json(text: str):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""

    def refuse(constant):
        raise ValueError(f"{constant} is not RFC 8259 JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "command, changes, unknown",
    [
        ("nonlinear", {"f": {"kind": "linear", "slope": 2.0}}, "slope"),
        ("nonlinear", {"f": {"kind": "zero", "a": 2.0}}, "'a'"),
        ("dppi", {"l": {"linear": {"start": 0.5, "slop": 0.1}}}, "slop"),
        ("dppi", {"l": {"constant": 0.5, "scale": 2.0}}, "scale"),
        ("dppi", {"market": {**_MARKET, "b": {"rate": 0.03, "compounding": 12}}}, "compounding"),
        ("linear", {"h": {"constant": 1.0, "path_fv": True}}, "path_fv"),
        ("assoc", {"eta": {"const": 1.0}}, "const"),
        ("integrate", {"integrand": {"f": {"name": "square"}, "g": 1}}, "'g'"),
    ],
)
def test_unknown_sub_key_exits_2(tmp_path, command, changes, unknown):
    result, _ = run_command(tmp_path, command, changes)
    assert result.exit_code == 2, result.output
    assert "unknown keys" in result.stderr and unknown in result.stderr


_FUNCTION_PATH = {"path": {"kind": "geometric"}, "stochastic": True}  # positive, so log and power are defined
_POSITIVE_X = {"kind": "geometric", "s0": 2.0, "sigma": 0.25}
# one valid section for every name of every table the config reader looks
# names up in: (command, section key, section, the rest of the config)
_NAMED = [
    *[("qv", "path", {"kind": "formula", "name": name}, {}) for name in ("linear", "constant", "zigzag")],
    ("qv", "path", {"kind": "step", "t0": 0.5}, {}),
    ("qv", "path", {"kind": "dyadic-brownian"}, {}),
    ("qv", "path", {"kind": "compound-jump"}, {}),
    ("qv", "path", {"kind": "geometric"}, {}),
    ("qv", "path", {"kind": "affine-combination", "x": {"kind": "dyadic-brownian"}, "y": {"kind": "step"}}, {}),
    ("ito-check", "f", {"name": "polynomial", "coeffs": [0.0, 1.0, 1.0]}, _FUNCTION_PATH),
    *[("ito-check", "f", {"name": name}, _FUNCTION_PATH) for name in ("square", "identity", "exp", "log")],
    ("ito-check", "f", {"name": "exp-affine", "c": 0.5}, _FUNCTION_PATH),
    ("ito-check", "f", {"name": "power", "p": 1.5}, _FUNCTION_PATH),
    ("ito-check", "f", {"name": "fv-scale"}, {**_FUNCTION_PATH, "a": {"kind": "formula", "name": "linear"}}),
    ("drawdown", "floor", {"name": "zero", "a_star": 2.0}, {"x": _POSITIVE_X}),
    ("drawdown", "floor", {"name": "proportional", "alpha": 0.3, "a_star": 2.0}, {"x": _POSITIVE_X}),
    ("drawdown", "floor", {"name": "constant-margin", "c": 1.5, "a_star": 2.0}, {"x": _POSITIVE_X}),
    ("drawdown", "floor", {"name": "table", "ys": [1.0, 2.0, 8.0], "ws": [0.1, 0.5, 1.0], "a_star": 2.0}, {"x": _POSITIVE_X}),
    *[("nonlinear", "f", {"kind": kind}, {}) for kind in ("zero", "constant", "linear")],
]


@pytest.mark.parametrize(
    "command, key, section, extra", _NAMED, ids=[f"{c}-{s.get('name', s.get('kind'))}" for c, _, s, _ in _NAMED]
)
def test_every_named_object_rejects_an_extra_key(tmp_path, command, key, section, extra):
    # the keys a name takes are its constructor's parameters: the section is
    # valid as it stands, and one key more is a config error naming both
    result, _ = run_command(tmp_path / "valid", command, {**extra, key: section})
    assert result.exit_code in (0, 1) and isinstance(result.exception, (SystemExit, type(None))), result.output
    result, _ = run_command(tmp_path / "extra", command, {**extra, key: {**section, "bogus": 1.0}})
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit), result.output
    assert f"unknown keys in {key}: ['bogus']" in result.stderr


def test_every_table_name_is_tried_with_an_extra_key():
    from follmer import drawdown, functions, io as fio

    tried = {}
    for _, key, section, _ in _NAMED:
        table = "formula" if section.get("kind") == "formula" else key
        tried.setdefault(table, set()).add(section["name"] if "name" in section else section["kind"])
    assert tried == {
        "path": set(fio._GENERATORS) - {"formula"} | {"affine-combination"},
        "formula": set(fio._FORMULAS),
        "f": set(functions.BUILTINS) | set(cli._DRIFTS),
        "floor": set(drawdown.FLOORS),
    }


def test_a_nested_generator_rejects_an_extra_key(tmp_path):
    path = {**_BROWNIAN_JUMPS, "y": {**_BROWNIAN_JUMPS["y"], "bogus": 1.0}}
    result, _ = run_command(tmp_path, "qv", {"path": path})
    assert result.exit_code == 2, result.output
    assert "unknown keys in path.y: ['bogus']" in result.stderr


@pytest.mark.parametrize(
    "command, changes, section",
    [
        ("integrate", {"integrand": {"constant": 1.0, "f": {"name": "log"}}}, "integrand"),
        ("assoc", {"eta": {"constant": [1.0], "f": {"name": "log"}}}, "eta"),
        ("linear", {"h": {"constant": 1.0, "path": {"kind": "dyadic-brownian"}}}, "h"),
        ("dppi", {"l": {"constant": 0.6, "linear": {"start": 0.5, "slope": 0.1}}}, "l"),
        ("dppi", {"market": {**_MARKET, "csv": "market.csv"}}, "market"),
        ("dppi", {"market": {**_MARKET, "b": {"rate": 0.03, "path": {"kind": "formula", "name": "constant", "c": 1.0}}}}, "market.b"),
    ],
)
def test_an_either_or_section_with_two_alternatives_exits_2(tmp_path, command, changes, section):
    result, _ = run_command(tmp_path, command, changes)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit), result.output
    assert f"{section} must carry exactly one of " in result.stderr


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1.0, 10**400, True, False, "0.1", None])
def test_tolerance_rejects_all_but_finite_nonnegative_numbers(value):
    with pytest.raises(ConfigError, match=r"^tolerance 'assert_tol' must be a finite nonnegative number, got "):
        tolerance({"assert_tol": value}, "assert_tol", 0.1)


@pytest.mark.parametrize("value", [0, 0.0, 2, 1e-12])
def test_tolerance_accepts_finite_nonnegative_numbers(value):
    got = tolerance({"tol": value}, "tol", 0.1)
    assert type(got) is float and got == value


def test_mc_failure_names_the_worst_seed(tmp_path):
    result, out = run_command(tmp_path, "mc", {"assert_pass_fraction": 1.1})
    assert result.exit_code == 1, result.output
    report = json.loads((out / "mc_report.json").read_text())
    rows = [r.split(",") for r in (out / "mc_seeds.csv").read_text().splitlines()[1:-1]]
    worst = max(rows, key=lambda r: float(r[2]))
    assert int(worst[0]) == report["worst_seed"]
    assert report["failures"] == [
        f"pass fraction {report['pass_fraction']} below 1.1; worst seed {worst[0]}: sup error {worst[2]} at n=3"
    ]


def test_mc_rejects_levels(tmp_path):
    result, _ = run_command(tmp_path, "mc", {"levels": [1, 2]})
    assert result.exit_code == 2
    assert "n_min" in result.stderr and "n_max" in result.stderr


def _libc_has_mallopt() -> bool:
    import ctypes

    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except TypeError:  # Windows: no C library by name
        return False


# runs mc in one process 4 times and prints the minor page faults of each run
_REPEATED_MC = """
import json, resource, sys
from follmer.cli import main
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        main(["mc", "--config", sys.argv[1], "--out", sys.argv[2]], standalone_mode=False)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(not _libc_has_mallopt(), reason="the C library has no mallopt")
def test_repeated_mc_reuses_freed_memory(tmp_path):
    # a grid-level-16 seed frees dozens of 512 KB arrays; the runner keeps
    # them in the heap, so a repeat faults in almost no new pages (glibc's own
    # thresholds returned them and faulted in over 4,000 a run)
    config = tmp_path / "mc.json"
    config.write_text(json.dumps({"seeds": [0, 1], "n_min": 3, "n_max": 8, "grid_level": 16}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _REPEATED_MC, str(config), str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    faults = json.loads(run.stdout)
    assert all(f < 500 for f in faults[1:]), faults


def test_passing_run_clears_stale_failures(tmp_path):
    failing, out = run_command(tmp_path, "ito-check", {"assert_residual": 1e-16})
    assert failing.exit_code == 1 and (out / "failures.json").exists()
    passing, out = run_command(tmp_path, "ito-check", {"assert_residual": 1.0})
    assert passing.exit_code == 0, passing.output
    assert json.loads((out / "ito-check_report.json").read_text())["failures"] == []
    assert not (out / "failures.json").exists()


def test_cppi_writes_dppi_files(tmp_path):
    result, out = run_command(tmp_path, "cppi")
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in out.iterdir()) == ["dppi_report.json", "strategy.csv"]


def test_cli_reaches_every_traced_function(tmp_path):
    """Every function the benchmark traces is still called by some subcommand."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import spans
    finally:
        sys.path.pop(0)
    g = fl.dyadic_grid(1.0, 8)
    market = tmp_path / "market.csv"
    market.write_text("t,S,B\n" + "".join(f"{t!r},{1.0 + t / 8!r},1.0\n" for t in g.times.tolist()))
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        assert tracer.missing == []
        for command in _COMMANDS:
            run_command(tmp_path / command, command)
        fv_path = {"path": {"kind": "compound-jump", "intensity": 3.0, "size": 0.5}, "path_fv": True}
        for command in ("qv", "ito-check"):  # finite-variation paths
            run_command(tmp_path / f"{command}-fv", command, fv_path)
        result, _ = run_command(tmp_path / "csv", "dppi", {"market": {"csv": str(market)}})
        assert result.exit_code == 0, result.output
    finally:
        spans.restore(patches)
    reached = {s[0] for s in tracer.spans}
    traced = {f"{m}.{f}" for m, fs in spans.FUNCTIONS.items() for f in fs}
    # The runner's generators make one-dimensional paths, so no subcommand needs a covariation.
    assert sorted(traced - reached) == ["quadvar.covariation"]
