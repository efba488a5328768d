import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from click.testing import CliRunner

import follmer as fl
from follmer.cli import main
from follmer.io import ConfigError, config_hash, make_floor, make_function, make_generator, write_svg


class TestConfigRefs:
    def test_generator_refs(self):
        g = make_generator({"kind": "step", "c": 2.0, "t0": 0.5})
        assert isinstance(g, fl.StepGenerator)
        nested = make_generator(
            {
                "kind": "affine-combination",
                "x": {"kind": "step", "c": 1.0, "t0": 0.25},
                "y": {"kind": "dyadic-brownian", "seed": 1},
                "a": 2.0,
            }
        )
        assert isinstance(nested, fl.AffineCombinationGenerator)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            make_generator({"kind": "martingale-madness"})

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigError):
            make_generator({"kind": "step", "notaparam": 1})

    def test_function_refs(self):
        f = make_function({"name": "polynomial", "coeffs": [0, 0, 1]})
        assert f.d == 1
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
        assert "n_min=-1" in result.stderr

    @pytest.mark.parametrize("levels", [["a", 3], [3], [1, 2, 3], 5, "3..8"])
    def test_malformed_config_levels_exit_2(self, tmp_path, levels):
        result, _ = run_cli(tmp_path, "qv", {"path": {"kind": "step"}, "levels": levels})
        assert result.exit_code == 2
        assert "bad 'levels'" in result.stderr

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
