"""Benchmark of the `follmer` command-line runner.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One process, one thread (BLAS and OpenMP pinned to 1), one client in a closed
loop: the benchmark calls ``follmer.cli.main`` in-process, one subcommand at a
time, on configs it generated from the seed, cycling through the workload's
ops until ``--seconds`` have passed.  Every op's exit code and headline
outputs are checked against ``reference.json``.  The last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (see ``workloads.py``):
  mc-bandexit     ``mc`` on 4-seed blocks at grid level 16, levels 3..8,
                  alternating diffusion-only and jump-intensity-2 blocks.
                  Nearly all its time is band-exit partition construction.
  certify-sparse  qv, integrate, ito-check, assoc, linear, nonlinear,
                  drawdown, dppi and appendix-measure on dyadic levels 6..14
                  at grid level 14; Brownian paths with about 3 jumps.  Never
                  builds a band-exit partition.
  certify-dense   qv, integrate, ito-check, linear on a declared FV path with
                  a jump at every point of grid level 12, and dppi on a CSV
                  market with a jump on every row.

--trace 0 prints the end-to-end metrics.  Both times are CPU times, which
leave out the time the shared host gives the core to another tenant; the
cycle time is also scaled to a reference host speed (``speed.py``), since
the host's speed drifts by more than the program's changes.
  setup_s      median over fresh processes of the CPU time to start, import
               ``follmer.cli`` and write the workload's configs and CSVs.
  cycle_ms     one pass over the workload's cycle: the sum over its ops of
               each op's median scaled CPU time (config load, compute,
               checks, CSV/JSON writes).  For mc-bandexit a cycle is one
               diffusion block and one jump block.
  peak_rss_mb  peak resident set of the measuring process.
It also prints the raw wall and CPU figures and the scale, and, per
subcommand, ``<cmd>_ms`` (median wall time, highest percentile with at least
10 samples beyond it, sample count), ``mc_ms``, ``mc_seeds_per_s`` and
``ops_failed_frac``.

--trace 1 first runs the untraced benchmark in a child process, then a fixed
number of cycles in this process with every layer wrapped (``spans.py``), and
prints the per-layer metrics: self time per op of each wrapped function, call
and boundary counts per op, and the tracing overhead.

Every run writes ``results/<workload>-seed<n>-trace<t>-<pid>.json`` with the
machine facts, every metric and every failure; traced runs also write their
spans next to it.  ``record_reference.py`` re-records the reference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

START = time.perf_counter()

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END = {"setup_s": "s", "cycle_ms": "ms", "peak_rss_mb": "MB"}


def prepare_environment() -> None:
    """Pin native thread pools to one thread and put ``src`` first on the
    import path; exit 2 when the package sources are not there."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "follmer" / "cli.py").is_file():
        print(f"error: package sources not found at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def machine_facts() -> dict:
    from importlib import metadata, util

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "numba_importable": util.find_spec("numba") is not None,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "system": f"{platform.system()} {platform.release()} {platform.machine()}",
    }


def invoke(cli_main, argv: list) -> int:
    """Run one subcommand in-process; return its exit code."""
    try:
        cli_main(argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code
    return 0


def load_reference() -> dict:
    with open(HERE / "reference.json") as fp:
        return json.load(fp)


class Measurement:
    def __init__(self):
        self.times = defaultdict(list)  # op kind -> wall ms per op
        self.cpu_times = defaultdict(list)  # op kind -> CPU ms per op
        self.scaled_times = defaultdict(list)  # op kind -> scaled CPU ms per op
        self.scales: list[float] = []  # host speed scale of each op
        self.kinds: list[str] = []  # op kind of each op, in order
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.commands: dict = {}  # op index -> command, for the traced run
        self.busy_s = 0.0
        self.seeds = 0  # Monte Carlo seeds certified


def measure(cli_main, cycles, work: Path, reference: dict, *, seconds=None, n_cycles=None, tracer=None, probe=None):
    """Run ops until ``seconds`` have passed (and at least one cycle ran), or
    exactly ``n_cycles`` cycles.  With a ``probe``, run the host speed kernel
    after every op, outside the op's time."""
    from outputs import op_failures

    m = Measurement()
    out = work / "out"
    per_cycle = len(cycles[0])
    started = time.perf_counter()

    def done() -> bool:
        if n_cycles is not None:
            return m.attempted == n_cycles * per_cycle
        return m.attempted >= per_cycle and time.perf_counter() - started >= seconds

    for op in _forever(cycles):
        if done():
            break
        shutil.rmtree(out, ignore_errors=True)
        argv = [op.command, "--config", op.config, "--out", str(out)]
        if tracer is not None:
            tracer.op = m.attempted
            m.commands[m.attempted] = op.command
        t0 = time.perf_counter()
        c0 = time.process_time()
        root = tracer.open(tracer.ROOT) if tracer is not None else None
        try:
            code = invoke(cli_main, argv)
        except Exception:  # an op that raises is a failed op, not a crash
            code = "exception: " + traceback.format_exc(limit=-3)
        finally:
            if tracer is not None:
                tracer.close(root)
        dt = time.perf_counter() - t0
        m.cpu_times[op.kind].append(1000.0 * (time.process_time() - c0))
        m.kinds.append(op.kind)
        m.busy_s += dt
        m.times[op.kind].append(1000.0 * dt)
        m.attempted += 1
        m.seeds += op.seeds
        why = op_failures(code, reference.get(op.key), out, op.command)
        if why:
            m.failed += 1
            m.failures.append(f"{op.key}: {'; '.join(why[:3])}")
        if probe is not None:
            probe.after(dt)
    if probe is not None:
        m.scales = [probe.factor(i) for i in range(m.attempted)]
        seen = defaultdict(int)
        for kind, scale in zip(m.kinds, m.scales):
            m.scaled_times[kind].append(m.cpu_times[kind][seen[kind]] * scale)
            seen[kind] += 1
    return m


def _forever(cycles):
    while True:
        for cycle in cycles:
            yield from cycle


def high_percentile(values: list) -> tuple | None:
    """Highest listed percentile with at least 10 samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, xs[max(0, math.ceil(p / 100.0 * n) - 1)]
    return None


def latency_lines(m: Measurement, wl) -> tuple[dict, list]:
    """Per-subcommand latency stats, keyed by the ``<cmd>_ms`` names."""
    groups = {f"{kind}_ms": v for kind, v in m.times.items()}
    if wl.name == "mc-bandexit":
        groups["mc_ms"] = [t for kind in wl.kinds for t in m.times[kind]]
    stats, lines = {}, []
    for name, v in groups.items():
        hp = high_percentile(v)
        stats[name] = {"median": statistics.median(v), "n": len(v), "high_percentile": hp, "samples": v}
        tail = f"p{hp[0]:g} {hp[1]:.3f} ms" if hp else "no percentile with 10 samples beyond it"
        lines.append(f"{name}: median {statistics.median(v):.3f} ms, {tail}, n={len(v)}")
    return stats, lines


def cycle_ms(times: dict, wl) -> float:
    """Sum over the workload's cycle of each op kind's median time."""
    return sum(statistics.median(times[kind]) for kind in wl.kinds)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setup(args) -> tuple[list[float], list[float]]:
    """Wall and CPU times of fresh processes that import follmer.cli and
    write inputs."""
    wall, cpu = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    for _ in range(args.setup_repeats):
        t0, c0 = time.perf_counter(), _children_cpu_s()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        wall.append(time.perf_counter() - t0)
        cpu.append(_children_cpu_s() - c0)
    return wall, cpu


def untraced_companion(args) -> dict:
    """Untraced run of the same workload and seed in a fresh process."""
    result = RESULTS / f"{args.workload}-seed{args.seed}-untraced-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", "0", "--setup-repeats", "0", "--result", str(result)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    return json.loads(result.read_text())


def attribution(wl, layers: dict, by_command: dict, m: Measurement) -> list[str]:
    """The profile facts the traced run is expected to reproduce."""
    from spans import SELF_TIMES

    if wl.name == "mc-bandexit":
        # Both per op and from this process, so the host's speed cancels.
        share = layers["partitions.lebesgue_partition_ms"] / (1000.0 * m.busy_s / m.attempted)
        return [f"lebesgue_partition self time is {share:.1%} of the traced mc op's mean wall time"]
    if wl.name == "certify-dense":
        timed = {k: layers[k] for k in SELF_TIMES}
        top = max(timed, key=timed.get)
        return [f"largest self time per op: {top} {timed[top]:.3f} ms"]
    qv = by_command.get("qv", {})
    io_cli = qv.get("io.write_csv", 0.0) + qv.get("cli", 0.0)
    others = {k: v for k, v in qv.items() if k not in ("io.write_csv", "cli")}
    top = max(others, key=others.get, default=None)
    return [
        f"qv: io.write_csv + cli self {io_cli:.3f} ms of {sum(qv.values()):.3f} ms traced; "
        f"next largest {top} {others.get(top, 0.0):.3f} ms"
    ]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-repeats", type=int, default=SETUP_REPEATS, help=argparse.SUPPRESS)
    ap.add_argument("--result", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    prepare_environment()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work = HERE / ".work" / f"{wl.name}-{os.getpid()}"
    try:
        return _run(args, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, wl, work: Path) -> int:
    import follmer.cli
    import workloads

    cycles = workloads.build(wl.name, workloads.pool_inputs(args.seed), work)
    in_process_setup_s = time.perf_counter() - START
    if args.setup_only:
        return 0
    reference = load_reference().get(wl.name, {})
    result = {
        "machine": machine_facts(),
        "workload": {"name": wl.name, "seed": args.seed, **wl.facts()},
        "trace": args.trace,
        "seconds": args.seconds,
        "in_process_setup_s": in_process_setup_s,
    }
    print("machine:", json.dumps(result["machine"], sort_keys=True))
    print("workload:", json.dumps(result["workload"], sort_keys=True))
    run = untraced_run if args.trace == 0 else traced_run
    m, metrics, lines = run(args, wl, follmer.cli.main, cycles, work, reference, result)

    for line in lines:
        print(line)
    for failure in m.failures[:20]:
        print("FAILED", failure, file=sys.stderr)
    result.update(metrics=metrics, attempted=m.attempted, failed=m.failed, failures=m.failures, notes=lines)
    RESULTS.mkdir(exist_ok=True)
    path = Path(args.result) if args.result else RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed, "metrics": metrics}))
    return 0


def untraced_run(args, wl, cli_main, cycles, work, reference, result):
    import speed

    setup_wall, setup_cpu = time_setup(args)
    probe = speed.Probe()
    m = measure(cli_main, cycles, work, reference, seconds=args.seconds, probe=probe)
    latency, lines = latency_lines(m, wl)
    # Without setup repeats (the traced run's companion), time this process.
    setup_s = statistics.median(setup_cpu) if setup_cpu else result["in_process_setup_s"]
    raw = {"wall_cycle_ms": cycle_ms(m.times, wl), "cpu_cycle_ms": cycle_ms(m.cpu_times, wl)}
    values = {
        "setup_s": setup_s,
        "cycle_ms": cycle_ms(m.scaled_times, wl),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines.append(
        f"host speed: kernel mean {statistics.mean(probe.samples):.4f} ms CPU over {len(probe.samples)} runs, "
        f"op scales {min(m.scales):.4f} .. {max(m.scales):.4f}; unscaled: " + ", ".join(f"{k} {v:.4f}" for k, v in raw.items())
    )
    lines.append(f"ops_failed_frac: {m.failed / m.attempted:.4f} ({m.failed} of {m.attempted} ops)")
    if m.seeds:
        lines.append(f"mc_seeds_per_s: {m.seeds / m.busy_s:.4f} seeds/s ({m.seeds} seeds)")
    result.update(
        raw,
        setup_wall_s=setup_wall,
        setup_cpu_s=setup_cpu,
        latency=latency,
        cpu_times_ms=dict(m.cpu_times),
        scaled_times_ms=dict(m.scaled_times),
        probe_samples_ms=probe.samples,
        probe_ends=probe.ends,
        op_scales=m.scales,
        op_kinds=m.kinds,
    )
    return m, {name: metric(values[name], unit) for name, unit in END_TO_END.items()}, lines


def traced_run(args, wl, cli_main, cycles, work, reference, result):
    import spans
    import speed

    untraced = untraced_companion(args)
    untraced_ms = untraced["metrics"]["cycle_ms"]["value"]
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        # The speed kernel calls no follmer code, so tracing leaves it alone.
        m = measure(cli_main, cycles, work, reference, n_cycles=wl.trace_cycles, tracer=tracer, probe=speed.Probe())
    finally:
        spans.restore(patches)
    traced_ms = cycle_ms(m.scaled_times, wl)
    layers = spans.layer_metrics(tracer, m.attempted)
    layers["trace.overhead_ms"] = traced_ms - untraced_ms
    by_command = spans.self_time_by_command(tracer, m.commands)
    lines = [f"cycle_ms: traced {traced_ms:.3f} ms, untraced {untraced_ms:.3f} ms"]
    if tracer.missing:
        lines.append(f"not traced, missing from the package: {', '.join(tracer.missing)}")
    lines += [f"attribution: {line}" for line in attribution(wl, layers, by_command, m)]
    for cmd, table in by_command.items():
        top = ", ".join(f"{k} {v:.3f}" for k, v in list(table.items())[:4])
        lines.append(f"self ms per op, {cmd}: {top}")
    result.update(traced_latency=latency_lines(m, wl)[0], untraced_cycle_ms=untraced_ms, by_command=by_command)
    RESULTS.mkdir(exist_ok=True)
    t0 = tracer.spans[0][2] if tracer.spans else 0.0
    spans_path = RESULTS / f"{wl.name}-seed{args.seed}-trace1-{os.getpid()}.spans.json"
    spans_path.write_text(json.dumps([[n, g, a - t0, b - t0, p, o] for n, g, a, b, p, o in tracer.spans]))
    return m, {name: metric(layers[name], unit) for name, unit in spans.PER_LAYER}, lines


if __name__ == "__main__":
    sys.exit(main())
