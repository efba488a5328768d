"""Tests of the benchmark's own code: span arithmetic, wrapping and
restoring, the output check, and the metric lists in BENCHMARK.json."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import outputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # [name, tag, start, end, parent, op]
    tree = [
        ["root", None, 0.0, 10.0, None, 0],
        ["a", None, 1.0, 4.0, 0, 0],
        ["a.inner", None, 2.0, 3.0, 1, 0],
        ["b", None, 5.0, 9.0, 0, 0],
        ["root", None, 20.0, 21.0, None, 1],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_layer_metrics_are_per_op():
    tracer = spans.Tracer()
    tracer.spans = [
        ["cli", None, 0.0, 0.010, None, 0],
        [spans.LEBESGUE, 3, 0.001, 0.004, 0, 0],
        [spans.LEBESGUE, 4, 0.005, 0.006, 0, 0],
        ["cli", None, 1.0, 1.002, None, 1],
    ]
    m = spans.layer_metrics(tracer, ops=2)
    assert m["partitions.lebesgue_partition_ms"] == pytest.approx(2.0)
    assert m["partitions.lebesgue_partition.n3_ms"] == pytest.approx(1.5)
    assert m["partitions.lebesgue_partition.n4_ms"] == pytest.approx(0.5)
    assert m["partitions.lebesgue_partition.calls"] == 1.0
    assert m["cli.self_ms"] == pytest.approx(4.0)
    assert m["mc.pass_ratio"] == 0.0


def _holders(originals):
    """(module name, attribute) of every follmer.* binding of an original."""
    found = set()
    for m in spans.follmer_modules():
        for k, v in vars(m).items():
            if any(v is o for o in originals):
                found.add((m.__name__, k))
    return found


def test_install_rebinds_every_reference_and_restore_undoes_it():
    import follmer.cli  # noqa: F401  (loads every follmer module)
    import follmer.integrals
    import follmer.mc
    import follmer.partitions
    import follmer.paths
    import follmer.quadvar

    originals = [getattr(sys.modules[f"follmer.{m}"], f) for m, fs in spans.FUNCTIONS.items() for f in fs]
    bound = _holders(originals)
    init = vars(follmer.paths.GridPath)["__init__"]
    assert ("follmer.mc", "qv_curve") in bound and ("follmer.quadvar", "qv_curve") in bound

    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        assert tracer.missing == []
        assert _holders(originals) == set()
        assert vars(follmer.paths.GridPath)["__init__"] is not init
        path = follmer.paths.DyadicBrownianGenerator(seed=1).generate(follmer.paths.dyadic_grid(1.0, 4))
        follmer.mc.qv_curve(path, follmer.partitions.dyadic_sequence(1.0, 2, 4).top)
    finally:
        spans.restore(patches)
    assert _holders(originals) == bound
    assert vars(follmer.paths.GridPath)["__init__"] is init
    assert "__init__" not in vars(follmer.paths.FVPath)
    names = [s[0] for s in tracer.spans]
    assert {"paths.generate", "paths.construct", "quadvar.qv_curve", "partitions.dyadic_sequence"} <= set(names)
    assert tracer.counts["paths.jumps_declared"] == 0


def _fake_outputs(tmp_path: Path, z_at_t: float, levels: int = 9) -> Path:
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    report = {"config_hash": "abc", "levels": levels, "z_at_T": z_at_t, "status": "converged"}
    (out / "linear_report.json").write_text(json.dumps(report))
    rows = "".join(f"{i / 4!r},{z_at_t * i!r}\n" for i in range(5))
    (out / "linear.csv").write_text("t,z\n" + rows + "# config_hash=abc\n")
    return out


def test_output_check_flags_perturbed_report_and_nonzero_exit(tmp_path):
    reference = outputs.headline("linear", _fake_outputs(tmp_path, 2.718281828459045))
    out = _fake_outputs(tmp_path, 2.718281828459045 * (1 + 1e-12))
    assert outputs.op_failures(0, reference, out, "linear") == []  # reassociation noise
    out = _fake_outputs(tmp_path, 2.718281828459045 * (1 + 1e-7))
    assert any("z_at_T" in f for f in outputs.op_failures(0, reference, out, "linear"))
    out = _fake_outputs(tmp_path, 2.718281828459045, levels=8)
    assert any("levels" in f for f in outputs.op_failures(0, reference, out, "linear"))
    out = _fake_outputs(tmp_path, 2.718281828459045)
    assert outputs.op_failures(1, reference, out, "linear") == ["exit code 1"]
    assert outputs.op_failures(0, None, out, "linear")


def test_integers_must_match_exactly_floats_within_tolerance():
    assert outputs.mismatches({"n": 3}, {"n": 3.0})
    assert outputs.mismatches([1.0, 2.0], [1.0]) != []
    assert outputs.mismatches({"x": 1e-13}, {"x": 5e-13}) == []
    assert outputs.mismatches({"x": float("nan")}, {"x": float("nan")}) == []


def test_speed_probe_runs_the_kernel_after_every_op():
    probe = speed.Probe()
    probe.after(0.0)
    assert probe.ends == [1]
    probe.after(0.2)
    assert sum(probe.samples[1:]) >= 1000.0 * speed.SHARE * 0.2
    assert probe.ends == [1, len(probe.samples)]
    assert speed.kernel() == speed.kernel()


def test_speed_scale_uses_the_samples_around_each_op(monkeypatch):
    monkeypatch.setattr(speed, "WINDOW", 4)
    probe = speed.Probe()
    # ops 0..3 with 2, 1, 3 and 1 kernel samples after them
    probe.samples = [1.0, 1.0, 2.0, 4.0, 4.0, 4.0, 8.0]
    probe.ends = [2, 3, 6, 7]
    assert probe.window(2) == [2.0, 4.0, 4.0, 4.0]  # just before and after
    assert probe.window(3) == [4.0, 4.0, 4.0, 8.0]
    assert probe.window(1) == [1.0, 1.0, 2.0, 4.0, 4.0, 4.0]  # widened
    assert probe.window(0) == [1.0, 1.0, 2.0, 4.0, 4.0, 4.0]
    assert probe.factor(2) == pytest.approx(speed.REF_MS / 3.5)


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.PER_LAYER
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END.items())

    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
