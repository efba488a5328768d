"""Declarative config handling and artifact serialization for the runner.

Configs are single nested JSON documents.  Unknown keys are rejected, every
referenced built-in must exist, and tolerance overrides must be nonnegative.
Every CSV artifact carries a header row and a trailing manifest comment with
the hash of the canonical config; reports are JSON objects carrying the same
hash, so identical (config, seed) pairs give byte-identical outputs.  The
optional SVG figures are written with the standard library alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .drawdown import FloorFunction, builtin_floor
from .functions import C12Function, builtin_c12
from .paths import (
    AffineCombinationGenerator,
    CompoundJumpGenerator,
    DomainError,
    DyadicBrownianGenerator,
    FormulaGenerator,
    GeometricGenerator,
    PathGenerator,
    StepGenerator,
    TimeGrid,
    _write_csv_columns,
)

__all__ = [
    "ConfigError",
    "MAX_LEVEL",
    "load_config",
    "config_hash",
    "check_keys",
    "make_generator",
    "make_function",
    "make_floor",
    "write_csv",
    "write_report",
    "write_svg",
]


class ConfigError(ValueError):
    """Malformed experiment configuration."""


def load_config(path: str | Path) -> dict:
    try:
        with open(path) as fp:
            cfg = json.load(fp)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in {where}")
    return section[key]


def _dotted(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def number(section: dict, key: str, default=None, where: str = "") -> float:
    """``section[key]`` as a finite float; ``default`` when absent, required when ``default`` is None.

    ``where`` is the dotted name of ``section``, empty at the top level.
    """
    value = require(section, key, where or "config") if default is None else section.get(key, default)
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{_dotted(where, key)} must be a number, got {value!r}") from None
    _finite(out, _dotted(where, key))
    return out


MAX_LEVEL = 20  # the finest grid_level or partition level a config may ask for: 2^20 + 1 grid points


def integer(section: dict, key: str, default=None, where: str = "", top: int | None = None) -> int:
    """``section[key]`` as an int from 0 to ``top`` (no bound when None), read like ``number``;
    a whole float and an integer's text (``--levels a..b``) are taken."""
    value = require(section, key, where or "config") if default is None else section.get(key, default)
    if isinstance(value, str) and value.strip().removeprefix("-").isdecimal():
        value = int(value)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0 or top is not None and value > top:
        _finite(value, _dotted(where, key))
        bound = "a nonnegative integer" if top is None else f"an integer from 0 to {top}"
        raise ConfigError(f"{_dotted(where, key)} must be {bound}, got {section.get(key, default)!r}")
    return value


def _finite(value, key: str) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")


def _finite_params(params: dict, where: str, names: set | None = None) -> None:
    """Reject a NaN or infinite parameter, or list entry, naming its dotted
    key; given ``names``, also a parameter outside them that is not a number."""
    for key, value in params.items():
        if names is not None and key not in names and not isinstance(value, (int, float)):
            raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
        for v in value if isinstance(value, list) else (value,):
            _finite(v, _dotted(where, key))


def subsection(section: dict, key: str, default: dict | None, allowed: set, where: str = "") -> dict:
    """``section[key]``, an object with no key outside ``allowed``; ``default``
    when absent, required when ``default`` is None."""
    value = require(section, key, where or "config") if default is None else section.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{_dotted(where, key)} must be an object, got {value!r}")
    check_keys(value, allowed, _dotted(where, key))
    return value


def tolerance(section: dict, key: str, default: float) -> float:
    v = section.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 <= v <= sys.float_info.max:
        raise ConfigError(f"tolerance {key!r} must be a finite nonnegative number, got {v!r}")
    return float(v)


_FORMULAS = {
    "linear": lambda slope=1.0, intercept=0.0: (lambda t: intercept + slope * t),
    "constant": lambda c=0.0: (lambda t: np.full_like(np.asarray(t, dtype=float), c)),
    "zigzag": lambda base=0.0, amplitude=1.0, period=0.5: (
        lambda t: base
        + amplitude
        * (2.0 / period)
        * np.minimum(np.mod(t, period), period - np.mod(t, period))
    ),
}


_GENERATOR_NAMES = {"name", "sampler", "x", "y"}  # the generator parameters that are not numbers


def make_generator(ref: dict, grid: TimeGrid, where: str = "generator") -> PathGenerator:
    """The generator of ``ref`` for paths on ``grid``.  A parameter that is not
    a number (other than ``_GENERATOR_NAMES``), a seed that is not a
    nonnegative integer, a step time off the grid and a parameter outside the
    generator's domain are config errors naming the key."""
    if not isinstance(ref, dict) or "kind" not in ref:
        raise ConfigError(f"{where} must be an object with a 'kind'")
    kind = ref["kind"]
    params = {k: v for k, v in ref.items() if k != "kind"}
    _finite_params(params, where, _GENERATOR_NAMES)
    if "seed" in params:
        params["seed"] = integer(params, "seed", where=where)
    try:
        if kind == "formula":
            name = params.pop("name")
            fn = _FORMULAS[name](**params)
            return FormulaGenerator(fn)
        if kind == "step":
            step = StepGenerator(**params)
            if step.t0 not in grid.times:
                raise ConfigError(f"{where}.t0 = {step.t0!r} is not a grid time")
            return step
        if kind == "dyadic-brownian":
            return DyadicBrownianGenerator(**params)
        if kind == "compound-jump":
            return CompoundJumpGenerator(**params)
        if kind == "geometric":
            return GeometricGenerator(**params)
        if kind == "affine-combination":
            gx = make_generator(params.pop("x"), grid, where + ".x")
            gy = make_generator(params.pop("y"), grid, where + ".y")
            return AffineCombinationGenerator(gx, gy, **params)
    except KeyError as exc:
        raise ConfigError(f"{where}: unknown name {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"{where}: bad parameters for kind {kind!r}: {exc}") from exc
    except DomainError as exc:
        raise ConfigError(f"{where}.{exc}") from None
    raise ConfigError(f"{where}: unknown generator kind {kind!r}")


def make_function(ref: dict, where: str = "f") -> C12Function:
    if not isinstance(ref, dict) or "name" not in ref:
        raise ConfigError(f"{where} must be an object with a 'name'")
    params = {k: v for k, v in ref.items() if k != "name"}
    _finite_params(params, where)
    try:
        return builtin_c12(ref["name"], **params)
    except KeyError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"{where}: bad parameters: {exc}") from exc


def make_floor(ref: dict, where: str = "floor") -> FloorFunction:
    """The floor of ``ref``.  A parameter that is not a number (a table's
    ``ys`` and ``ws`` aside) and one outside the floor's domain are config
    errors naming the key."""
    if not isinstance(ref, dict) or "name" not in ref:
        raise ConfigError(f"{where} must be an object with a 'name'")
    params = {k: v for k, v in ref.items() if k not in ("name", "a_star")}
    _finite_params(params, where, {"ys", "ws"})
    try:
        return builtin_floor(ref["name"], number(ref, "a_star", where=where), **params)
    except KeyError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"{where}: bad parameters: {exc}") from exc
    except DomainError as exc:
        raise ConfigError(f"{where}.{exc}") from None


def write_csv(path: Path, header: list, columns: list, cfg_hash: str) -> None:
    """``paths._write_csv_columns`` to ``path``, then the ``# config_hash=`` line."""
    with open(path, "w") as fp:
        _write_csv_columns(fp, header, columns)
        fp.write(f"# config_hash={cfg_hash}\n")


def write_report(path: Path, report: dict, cfg_hash: str) -> None:
    doc = dict(report)
    doc["config_hash"] = cfg_hash
    with open(path, "w") as fp:
        json.dump(doc, fp, sort_keys=True, indent=2, default=_json_default)
        fp.write("\n")


_SVG_W, _SVG_H, _SVG_PAD = 480, 320, 56
_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e")


def write_svg(path: Path, series: dict) -> None:
    """Draw ``{label: (xs, ys)}`` as one ``<polyline>`` per series over a level axis.

    Points with a NaN or infinite coordinate are left out.  The y-axis is
    log10 when every remaining value is positive, linear otherwise; a range
    of zero width (one point, equal values, no points) is drawn at mid-axis.
    The bytes written depend only on ``series``.
    """
    from xml.sax.saxutils import escape  # only --plot pays for this import

    kept = []
    for label, (xs, ys) in series.items():
        x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        finite = np.isfinite(x) & np.isfinite(y)
        kept.append((str(label), x[finite], y[finite]))
    all_x = np.concatenate([np.zeros(0)] + [x for _, x, _ in kept])
    all_y = np.concatenate([np.zeros(0)] + [y for _, _, y in kept])
    log = all_y.size > 0 and bool(np.all(all_y > 0))
    fy = np.log10 if log else np.asarray
    (x0, x1), (y0, y1) = _span(all_x), _span(all_y)
    fy0, fy1 = fy(np.array([y0, y1]))
    w, h, p = _SVG_W, _SVG_H, _SVG_PAD
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="12">',
        f'<rect x="{p}" y="{p}" width="{w - 2 * p}" height="{h - 2 * p}" fill="none" stroke="black"/>',
        f'<text x="{w // 2}" y="{h - 12}" text-anchor="middle">level</text>',
        f'<text x="16" y="{h // 2}" transform="rotate(-90 16 {h // 2})" text-anchor="middle">'
        f'{"value (log scale)" if log else "value"}</text>',
        f'<text x="{p}" y="{h - p + 16}" text-anchor="middle">{x0:.6g}</text>',
        f'<text x="{w - p}" y="{h - p + 16}" text-anchor="middle">{x1:.6g}</text>',
        f'<text x="{p - 4}" y="{h - p}" text-anchor="end">{y0:.3g}</text>',
        f'<text x="{p - 4}" y="{p + 4}" text-anchor="end">{y1:.3g}</text>',
    ]
    for i, (label, x, y) in enumerate(kept):
        px = _scale(x, x0, x1, p, w - p)
        py = _scale(fy(y), fy0, fy1, h - p, p)
        points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}"/>')
        parts.append(f'<text x="{p + 8}" y="{p + 16 * (i + 1)}" fill="{color}">{escape(label)}</text>')
    with open(path, "w") as fp:
        fp.write("\n".join(parts) + "\n</svg>\n")


def _span(v: np.ndarray) -> tuple:
    return (float(v.min()), float(v.max())) if v.size else (0.0, 1.0)


def _scale(v: np.ndarray, lo: float, hi: float, a: float, b: float) -> np.ndarray:
    if hi <= lo:
        return np.full(v.shape, (a + b) / 2)
    return a + (v - lo) * ((b - a) / (hi - lo))


def _json_default(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON-serializable: {type(v)}")
