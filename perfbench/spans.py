"""Span tracing of the follmer layers from outside the package.

``install`` wraps the public functions and constructors that the per-layer
metrics name: a module-level function is rebound in every ``follmer.*``
module that holds it, a method or constructor is replaced on its class.
Each call then records a span (name, tag, start, end, parent, op) in memory;
``restore`` puts the originals back.  Counts that the metrics need (partition
points, declared jumps, bytes written, Monte Carlo outcomes) are taken at the
same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

# module -> public functions given a span named "<module>.<function>"
FUNCTIONS = {
    "partitions": ("lebesgue_partition", "oscillation", "dyadic_sequence", "thinned_sequence"),
    "paths": ("left_values", "as_fv", "add_paths", "running_maximum"),
    "quadvar": ("qv_curve", "qv_sequence", "covariation", "measure_vs_qv_check", "measure_convergence_check"),
    "stieltjes": ("stieltjes_fv", "stieltjes_fv_curve", "stieltjes_left"),
    "integrals": ("integral_curve", "follmer_integral", "ito_formula_eval", "associativity_check"),
    "equations": ("doleans_exponential", "solve_linear", "solve_nonlinear"),
    "drawdown": ("floor_to_transform", "azema_yor_path", "solve_drawdown"),
    "finance": ("read_market_csv", "dppi", "self_financing_residual", "write_strategy_csv"),
    "mc": ("run_seed",),
    "io": ("load_config", "write_csv", "write_report"),
}

# span name -> (module, class, method); GridPath.__init__ also builds FVPaths
METHODS = {
    "paths.construct": ("paths", "GridPath", "__init__"),
    "integrals.admissible_integrand": ("integrals", "AdmissibleIntegrand", "__init__"),
    "functions.validate": ("functions", "C12Function", "validate"),
}
GENERATE = "paths.generate"  # every PathGenerator subclass's own generate()

LEBESGUE = "partitions.lebesgue_partition"
LEBESGUE_LEVELS = range(3, 9)


class Tracer:
    """In-memory span store.  A span is [name, tag, start, end, parent, op]."""

    ROOT = "cli"  # one root span per op, around the subcommand invocation

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.missing: list[str] = []  # targets the package does not have
        self._stack: list[int] = []

    def open(self, name: str, tag=None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, tag, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


# --- counts taken at the wrapped boundaries --------------------------------


def _lebesgue_tag(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("n")


def _count_partition(tracer, span, args, result):
    tracer.counts["partitions.band_exit_points"] += len(result)


def _count_generated_jumps(tracer, span, args, result):
    parent = span[4]
    if parent is None or tracer.spans[parent][0] != GENERATE:  # paths handed to the caller
        tracer.counts["paths.jumps_declared"] += len(result.jumps)


def _count_market_jumps(tracer, span, args, result):
    tracer.counts["paths.jumps_declared"] += len(result.s.jumps) + len(result.b.jumps)


def _count_file_bytes(tracer, span, args, result):
    tracer.counts["io.bytes_written"] += os.path.getsize(args[0])


def _stream_position(args, kwargs):
    return args[2].tell()


def _count_stream_bytes(tracer, span, args, result):
    tracer.counts["io.bytes_written"] += args[2].tell() - span[1]


def _count_seed(tracer, span, args, result):
    tracer.counts["mc.seeds"] += 1
    tracer.counts["mc.passed"] += bool(result.passed)
    tracer.counts["mc.bounded"] += bool(result.gaps_ok and result.osc_ok)


# span name -> (tag(args, kwargs) taken at entry, count(...) taken at exit)
HOOKS = {
    LEBESGUE: (_lebesgue_tag, _count_partition),
    GENERATE: (None, _count_generated_jumps),
    "finance.read_market_csv": (None, _count_market_jumps),
    "io.write_csv": (None, _count_file_bytes),
    "io.write_report": (None, _count_file_bytes),
    "finance.write_strategy_csv": (_stream_position, _count_stream_bytes),
    "mc.run_seed": (None, _count_seed),
}


def _wrap(tracer: Tracer, name: str, fn):
    tag_of, count = HOOKS.get(name, (None, None))

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name, tag_of(args, kwargs) if tag_of else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count:
            count(tracer, tracer.spans[idx], args, result)
        return result

    return traced


def follmer_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if (n == "follmer" or n.startswith("follmer.")) and m]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced target; return the patches for ``restore``.

    A target the package no longer has is skipped and listed in
    ``tracer.missing``, so its metrics read 0 instead of failing the run.
    """
    modules = follmer_modules()
    patches = []  # (owner, attribute, original)
    for mod_name, names in FUNCTIONS.items():
        mod = importlib.import_module(f"follmer.{mod_name}")
        for attr in names:
            original = getattr(mod, attr, None)
            if original is None:
                tracer.missing.append(f"{mod_name}.{attr}")
                continue
            traced = _wrap(tracer, f"{mod_name}.{attr}", original)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    patches.append((m, key, original))
                    setattr(m, key, traced)
    targets = [(name, *spec) for name, spec in METHODS.items()]
    paths = importlib.import_module("follmer.paths")
    for cls in vars(paths).values():
        if isinstance(cls, type) and issubclass(cls, paths.PathGenerator) and "generate" in vars(cls):
            targets.append((GENERATE, "paths", cls.__name__, "generate"))
    for name, mod_name, cls_name, attr in targets:
        cls = getattr(importlib.import_module(f"follmer.{mod_name}"), cls_name, None)
        original = vars(cls).get(attr) if cls is not None else None
        if original is None:
            tracer.missing.append(f"{mod_name}.{cls_name}.{attr}")
            continue
        patches.append((cls, attr, original))
        setattr(cls, attr, _wrap(tracer, name, original))
    return patches


def restore(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# --- per-layer metrics -------------------------------------------------------

TIMED = [f"{m}.{f}" for m, fs in FUNCTIONS.items() for f in fs] + list(METHODS) + [GENERATE]
CALL_COUNTED = (LEBESGUE, "paths.construct", "quadvar.qv_curve", "integrals.integral_curve")
COUNTED = {
    "partitions.band_exit_points": "count",
    "paths.jumps_declared": "count",
    "io.bytes_written": "bytes",
    "mc.seeds": "count",
}

# self-time metrics of whole spans, the root span included
SELF_TIMES = [f"{s}_ms" for s in TIMED] + ["cli.self_ms"]

# (metric, unit) in the order the benchmark reports them
PER_LAYER = (
    [(f"{s}_ms", "ms") for s in TIMED]
    + [(f"{LEBESGUE}.n{n}_ms", "ms") for n in LEBESGUE_LEVELS]
    + [(f"{s}.calls", "count") for s in CALL_COUNTED]
    + list(COUNTED.items())
    + [("mc.pass_ratio", "ratio"), ("mc.bounds_ratio", "ratio"), ("cli.self_ms", "ms"), ("trace.overhead_ms", "ms")]
)


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-op self times, call counts and boundary counts of one traced run."""
    own = self_times(tracer.spans)
    by_name: dict = defaultdict(float)
    calls: Counter = Counter()
    for s, t in zip(tracer.spans, own):
        by_name[s[0]] += t
        calls[s[0]] += 1
        if s[0] == LEBESGUE:
            by_name[f"{LEBESGUE}.n{s[1]}"] += t
    out = {}
    for span in TIMED:
        out[f"{span}_ms"] = 1000.0 * by_name[span] / ops
    for n in LEBESGUE_LEVELS:
        out[f"{LEBESGUE}.n{n}_ms"] = 1000.0 * by_name[f"{LEBESGUE}.n{n}"] / ops
    for span in CALL_COUNTED:
        out[f"{span}.calls"] = calls[span] / ops
    for c in COUNTED:
        out[c] = tracer.counts[c] / ops
    seeds = tracer.counts["mc.seeds"]
    out["mc.pass_ratio"] = tracer.counts["mc.passed"] / seeds if seeds else 0.0
    out["mc.bounds_ratio"] = tracer.counts["mc.bounded"] / seeds if seeds else 0.0
    out["cli.self_ms"] = 1000.0 * by_name[Tracer.ROOT] / ops
    return out


def self_time_by_command(tracer: Tracer, commands: dict) -> dict:
    """Per command: self time per op (ms) of every span name, largest first."""
    own = self_times(tracer.spans)
    totals: dict = defaultdict(lambda: defaultdict(float))
    for s, t in zip(tracer.spans, own):
        totals[commands[s[5]]][s[0]] += t
    n_ops = Counter(commands.values())
    return {
        cmd: dict(sorted(((k, 1000.0 * v / n_ops[cmd]) for k, v in spans.items()), key=lambda kv: -kv[1]))
        for cmd, spans in totals.items()
    }
