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
import inspect
import json
import math
from pathlib import Path

import numpy as np

from .drawdown import FLOORS, FloorFunction
from .functions import BUILTINS, C12Function
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
    write_csv_columns,
)

__all__ = [
    "ConfigError",
    "MAX_LEVEL",
    "MAX_SEEDS",
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


def _number(value, key: str, kind: str = "a number") -> float:
    """``value`` as a float when it is a config number: a JSON number (an int
    or a float, never a bool) that is finite as a float, an int too large for
    a float counting as infinite.  Otherwise a config error: ``key`` must be
    ``kind``, or must be finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return out


def number(section: dict, key: str, default=None, where: str = "") -> float:
    """``section[key]`` as a finite float; ``default`` when absent, required when ``default`` is None.

    ``where`` is the dotted name of ``section``, empty at the top level.
    """
    value = require(section, key, where or "config") if default is None else section.get(key, default)
    return _number(value, _dotted(where, key))


MAX_LEVEL = 20  # the finest grid_level or partition level a config may ask for: 2^20 + 1 grid points
MAX_SEEDS = 1024  # the most seeds an mc config may ask for, by a count or a list


def integer(section: dict, key: str, default=None, where: str = "", top: int | None = None) -> int:
    """``section[key]`` as an int from 0 to ``top`` (no bound when None), read
    like ``number``; a whole float such as ``8.0`` is taken."""
    value = require(section, key, where or "config") if default is None else section.get(key, default)
    bound = "a nonnegative integer" if top is None else f"an integer from 0 to {top}"
    out = _number(value, _dotted(where, key), bound)
    if not out.is_integer() or out < 0 or top is not None and out > top:
        raise ConfigError(f"{_dotted(where, key)} must be {bound}, got {value!r}")
    return int(value)


def flag(section: dict, key: str, default: bool, where: str = "") -> bool:
    """``section[key]``, JSON ``true`` or ``false``; ``default`` when absent."""
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{_dotted(where, key)} must be true or false, got {value!r}")
    return value


def subsection(section: dict, key: str, default: dict | None, allowed: set, where: str = "") -> dict:
    """``section[key]``, an object with no key outside ``allowed``; ``default``
    when absent, required when ``default`` is None."""
    value = require(section, key, where or "config") if default is None else section.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{_dotted(where, key)} must be an object, got {value!r}")
    check_keys(value, allowed, _dotted(where, key))
    return value


def tolerance(section: dict, key: str, default: float) -> float:
    """``section[key]``, a config number that is not negative; ``default`` when absent."""
    value = section.get(key, default)
    try:
        if _number(value, key) >= 0:
            return float(value)
    except ConfigError:
        pass
    raise ConfigError(f"tolerance {key!r} must be a finite nonnegative number, got {value!r}")


def _zigzag(base=0.0, amplitude=1.0, period=0.5) -> FormulaGenerator:
    if not period > 0:
        raise DomainError("period", f"must be positive, got {period!r}")
    return FormulaGenerator(
        lambda t: base + amplitude * (2.0 / period) * np.minimum(np.mod(t, period), period - np.mod(t, period))
    )


_FORMULAS = {  # the formula generators, by name
    "linear": lambda slope=1.0, intercept=0.0: FormulaGenerator(lambda t: intercept + slope * t),
    "constant": lambda c=0.0: FormulaGenerator(lambda t: np.full_like(np.asarray(t, dtype=float), c)),
    "zigzag": _zigzag,
}
_GENERATORS = {g.kind: g for g in (StepGenerator, DyadicBrownianGenerator, CompoundJumpGenerator, GeometricGenerator)}
_GENERATORS[FormulaGenerator.kind] = _FORMULAS


def build(ref, where: str, tag: str, table: dict, names=frozenset(), **given):
    """``table[ref[tag]]`` called with the other keys of ``ref``.

    The keys a name takes are exactly its constructor's parameters; an entry
    that is a table of its own is read again by ``name``.  Each value is a
    config number (``_number``), except that a key in ``names`` may also hold
    text, an object, or a list whose entries (named ``key[i]``) are config
    numbers.  Values are passed on as given.  A ``given`` value that is not None fills
    a parameter the constructor takes and ``ref`` leaves out.  An unknown
    name, an unknown or missing key, a value that is not a number and a
    ``DomainError`` are config errors naming the key.
    """
    if not isinstance(ref, dict) or tag not in ref:
        raise ConfigError(f"{where} must be an object with a {tag!r}")
    name, params = ref[tag], {k: v for k, v in ref.items() if k != tag}
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"{_dotted(where, tag)} must be one of {sorted(table)}, got {name!r}")
    if isinstance(table[name], dict):
        return build(params, where, "name", table[name], names, **given)
    takes = inspect.signature(table[name]).parameters
    check_keys(params, set(takes), where)
    for key in takes:
        if takes[key].default is inspect.Parameter.empty:
            require(params, key, where)
    for key, value in params.items():
        if key in names and isinstance(value, list):
            for i, v in enumerate(value):
                _number(v, f"{where}.{key}[{i}]")
        elif key not in names or not isinstance(value, (str, dict)):
            _number(value, f"{where}.{key}")
    params.update({k: v for k, v in given.items() if k in takes and k not in params and v is not None})
    try:
        return table[name](**params)
    except TypeError as exc:
        raise ConfigError(f"{where}: bad parameters: {exc}") from exc
    except DomainError as exc:
        raise ConfigError(f"{where}.{exc}") from None


def choice(section: dict, key: str, default: dict | None, alternatives: dict, where: str = "") -> tuple[str, dict]:
    """``section[key]`` read like ``subsection``: an object holding exactly one
    key of ``alternatives`` and, besides it, only the keys that key maps to.
    Returns that key and the object."""
    value = subsection(section, key, default, set(alternatives).union(*alternatives.values()), where)
    present = [k for k in alternatives if k in value]
    if len(present) != 1:
        raise ConfigError(f"{_dotted(where, key)} must carry exactly one of {list(alternatives)}, got {present}")
    check_keys(value, {present[0], *alternatives[present[0]]}, _dotted(where, key))
    return present[0], value


def make_generator(ref: dict, grid: TimeGrid, where: str = "generator", seed: int | None = None) -> PathGenerator:
    """The generator of ``ref`` for paths on ``grid``, read by ``build``; a
    kind that takes a seed gets ``seed`` when ``ref`` names none, nested refs
    included.  A step time off the grid is a config error naming the key."""

    def affine(x, y, a=1.0, b=1.0):  # its parents are generators of their own
        gx, gy = make_generator(x, grid, where + ".x", seed), make_generator(y, grid, where + ".y", seed)
        return AffineCombinationGenerator(gx, gy, a, b)

    table = {**_GENERATORS, AffineCombinationGenerator.kind: affine}
    gen = build(ref, where, "kind", table, {"sampler", "x", "y"}, seed=seed)
    if isinstance(gen, StepGenerator) and gen.t0 not in grid.times:
        raise ConfigError(f"{where}.t0 = {gen.t0!r} is not a grid time")
    return gen


def make_function(ref: dict, where: str = "f") -> C12Function:
    """The built-in function of ``ref``, read by ``build``."""
    return build(ref, where, "name", BUILTINS, {"coeffs", "c", "b"})


def make_floor(ref: dict, where: str = "floor") -> FloorFunction:
    """The floor of ``ref``, read by ``build``; every floor takes ``a_star``."""
    return build(ref, where, "name", FLOORS, {"ys", "ws"})


def write_csv(path: Path, header: list, columns: list, cfg_hash: str) -> None:
    """``paths.write_csv_columns`` to ``path``, then the ``# config_hash=`` line."""
    with open(path, "w") as fp:
        write_csv_columns(fp, header, columns)
        fp.write(f"# config_hash={cfg_hash}\n")


def write_report(path: Path, report: dict, cfg_hash: str) -> None:
    """``report`` and its ``config_hash`` as RFC 8259 JSON: a NaN or infinite
    float is written as null."""
    doc = _finite_or_null({**report, "config_hash": cfg_hash})
    with open(path, "w") as fp:
        json.dump(doc, fp, sort_keys=True, indent=2, allow_nan=False)
        fp.write("\n")


def _finite_or_null(v):
    """``v`` with each non-finite float, in nested lists, tuples and dicts too, as None."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite_or_null(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_null(u) for u in v]
    return v


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
