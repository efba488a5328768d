"""Seeded workload inputs for the follmer benchmark.

A workload is a cycle of `follmer` subcommand invocations.  The workload seed
picks a window of POOL consecutive input indices starting at
``seed % SEED_CLASSES``; every input index maps to one fixed set of configs
(and, for certify-dense, one market CSV).  So the same seed always gives the
same inputs, and every input the benchmark can run lies in
``range(SEED_CLASSES + POOL - 1)``, which is the range the recorded reference
outputs cover.  Changing either constant needs a new reference.

The program sees only the generated files: every seed is written into the
configs, and no ``--seed`` flag is passed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SEED_CLASSES = 16
POOL = 8
UNIVERSE = SEED_CLASSES + POOL - 1


@dataclass(frozen=True)
class Op:
    """One subcommand invocation: what to run and how to file its timing."""

    key: str  # reference key, "<command>:<input index>"
    command: str
    kind: str  # timing group: the command, or the mc block kind
    config: str  # path of the generated config
    seeds: int = 0  # Monte Carlo seeds the op certifies


@dataclass(frozen=True)
class Workload:
    name: str
    grid_level: int
    levels: tuple
    kinds: tuple  # timing groups of one cycle, in order
    trace_cycles: int  # cycles of the traced run (fixed, so counts repeat)

    def facts(self) -> dict:
        return {
            "grid_level": self.grid_level,
            "grid_points": (1 << self.grid_level) + 1,
            "levels": list(self.levels),
            "cycle": list(self.kinds),
        }


SPARSE_COMMANDS = (
    "qv",
    "integrate",
    "ito-check",
    "assoc",
    "linear",
    "nonlinear",
    "drawdown",
    "dppi",
    "appendix-measure",
)
DENSE_COMMANDS = ("qv", "integrate", "ito-check", "linear", "dppi")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-bandexit", 16, (3, 8), ("mc-diffusion", "mc-jump"), 1),
        Workload("certify-sparse", 14, (6, 14), SPARSE_COMMANDS, 3),
        Workload("certify-dense", 12, (6, 12), DENSE_COMMANDS, 3),
    )
}

MC_SEEDS_PER_BLOCK = 4
MC_JUMP_INTENSITY = 2.0


def pool_inputs(seed: int) -> list[int]:
    base = seed % SEED_CLASSES
    return [base + c for c in range(POOL)]


def build(name: str, inputs, work: Path) -> list[list[Op]]:
    """Write the configs for ``inputs`` under ``work``; return the cycles."""
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name]
    inputs = list(inputs)
    if name == "mc-bandexit":
        ops = [_mc_op(wl, j, work) for j in inputs]
        return [ops[k : k + 2] for k in range(0, len(ops), 2)]
    make = _sparse_config if name == "certify-sparse" else _dense_config
    cycles = []
    for j in inputs:
        cycle = []
        for cmd in wl.kinds:
            cfg = make(wl, cmd, j, work)
            cycle.append(Op(f"{cmd}:{j}", cmd, cmd, _write(work / f"{cmd}-{j}.json", cfg)))
        cycles.append(cycle)
    return cycles


def _write(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, sort_keys=True))
    return str(path)


def _mc_op(wl: Workload, j: int, work: Path) -> Op:
    # Blocks alternate by index parity, so any POOL consecutive blocks hold
    # both kinds equally often.
    jumps = j % 2 == 1
    cfg = {
        "seeds": list(range(MC_SEEDS_PER_BLOCK * j, MC_SEEDS_PER_BLOCK * (j + 1))),
        "n_min": wl.levels[0],
        "n_max": wl.levels[1],
        "grid_level": wl.grid_level,
        "jump_intensity": MC_JUMP_INTENSITY if jumps else 0.0,
    }
    kind = "mc-jump" if jumps else "mc-diffusion"
    return Op(f"mc:{j}", "mc", kind, _write(work / f"mc-{j}.json", cfg), MC_SEEDS_PER_BLOCK)


def _brownian(j: int) -> dict:
    return {"kind": "dyadic-brownian", "seed": j}


def _brownian_jumps(j: int) -> dict:
    # about three jumps on [0, 1]
    jumps = {"kind": "compound-jump", "seed": j, "intensity": 3.0, "size": 0.5, "sampler": "uniform"}
    return {"kind": "affine-combination", "x": _brownian(j), "y": jumps}


def _sparse_config(wl: Workload, cmd: str, j: int, work: Path) -> dict:
    common = {"levels": list(wl.levels), "grid_level": wl.grid_level}
    stoch = {**common, "stochastic": True}
    if cmd == "qv":
        return {**stoch, "path": _brownian_jumps(j)}
    if cmd == "integrate":
        return {**stoch, "path": _brownian(j), "integrand": {"f": {"name": "square"}}}
    if cmd == "ito-check":
        return {**stoch, "path": _brownian_jumps(j), "f": {"name": "square"}}
    if cmd == "assoc":
        return {**stoch, "path": _brownian(j), "integrands": [{"name": "square"}]}
    if cmd == "linear":
        # solve_linear needs a certified QV of its integrator X; at grid level 14
        # the Brownian trend settles within 0.2 on every input, not 0.05.
        return {**stoch, "x": _brownian_jumps(j), "h": {"constant": 1.0}, "tol": 0.2}
    if cmd == "nonlinear":
        return {**stoch, "x": _brownian(j), "f": {"kind": "linear", "a": 1.0, "b": 0.0}, "x0": 1.0}
    if cmd == "drawdown":
        x = {"kind": "geometric", "seed": j, "s0": 2.0, "sigma": 0.25}
        return {**common, "x": x, "floor": {"name": "zero", "a_star": 2.0}}
    if cmd == "dppi":
        s = {"kind": "geometric", "seed": j, "sigma": 0.2, "jump_intensity": 2.0, "jump_size": 0.15}
        market = {"s": s, "b": {"rate": 0.03}}
        return {**common, "market": market, "m": 2.0, "l": {"constant": 0.6}, "v0": 1.0}
    if cmd == "appendix-measure":
        return {**common, "atom": (j % 7 + 1) / 8}
    raise ValueError(cmd)


def _dense_path(wl: Workload, j: int) -> dict:
    # Intensity 4x the grid size: Poisson(4N) exceeds the N interior points,
    # so every grid point after t=0 carries a declared +/-2^-6 jump.
    n = 1 << wl.grid_level
    return {"kind": "compound-jump", "seed": j, "intensity": 4.0 * n, "size": 2.0**-6, "sampler": "coin"}


def _dense_config(wl: Workload, cmd: str, j: int, work: Path) -> dict:
    common = {"levels": list(wl.levels), "grid_level": wl.grid_level}
    path = _dense_path(wl, j)
    if cmd == "qv":
        return {**common, "path": path, "path_fv": True}
    if cmd == "integrate":
        return {**common, "path": path, "path_fv": True, "integrand": {"f": {"name": "square"}}}
    if cmd == "ito-check":
        return {**common, "path": path, "path_fv": True, "f": {"name": "square"}}
    if cmd == "linear":
        return {**common, "x": path, "x_fv": True, "h": {"constant": 1.0}}
    if cmd == "dppi":
        csv_path = work / f"market-{j}.csv"
        write_dense_market(csv_path, wl.grid_level, j)
        return {**common, "market": {"csv": str(csv_path)}, "m": 2.0, "l": {"constant": 0.6}, "v0": 1.0}
    raise ValueError(cmd)


def write_dense_market(path: Path, grid_level: int, j: int) -> None:
    """t,S,B,dS,dB market whose stock moves only by jumps, one on every row
    after the first (a jump at t=0 is forbidden)."""
    n = 1 << grid_level
    rng = np.random.default_rng(np.random.SeedSequence([j, 99]))
    t = np.arange(n + 1) / n
    s = np.ones(n + 1)
    s[1:] = np.cumprod(1.0 + 2.0**-8 * rng.choice([-1.0, 1.0], size=n))
    ds = np.zeros(n + 1)
    ds[1:] = np.diff(s)
    with open(path, "w") as fp:
        fp.write("t,S,B,dS,dB\n")
        for row in zip(t.tolist(), s.tolist(), ds.tolist()):
            fp.write("%r,%r,1.0,%r,0.0\n" % row)
