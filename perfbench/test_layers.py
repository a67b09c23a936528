"""Self-tests of the benchmark's tracer, estimators and output checks.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import repro  # noqa: E402
from repro import CompressionPipeline, EncodedNetwork, fattree_network  # noqa: E402
from repro.pipeline import core  # noqa: E402

import run as bench  # noqa: E402
from layers import LayerTracer, merge_snapshots, worker_snapshots  # noqa: E402

INJECTED_LAYER = "config.transfer"
INJECTED_SECONDS = 0.02


def traced_compress(inject=None, executor="serial", worker_dir=None):
    """Compress a k=4 fat-tree under a fully installed tracer."""
    tracer = LayerTracer(inject_sleep=inject).install(layers=True)
    tracer.worker_dir = worker_dir
    try:
        artifact = EncodedNetwork.build(fattree_network(4, policy="prefer_bottom"))
        tracer.phase = "sweep"
        outcome = CompressionPipeline(artifact=artifact, executor=executor, workers=2).run()
    finally:
        tracer.uninstall()
    return tracer, [record.canonical() for record in outcome.report.records]


def sweep_self_seconds(tracer):
    return {layer: entry[0] for layer, entry in tracer.totals["sweep"].items()}


def test_injected_sleep_lands_in_its_layer_only():
    base, base_output = traced_compress()
    slowed, slowed_output = traced_compress({INJECTED_LAYER: INJECTED_SECONDS})
    assert slowed_output == base_output

    calls = slowed.totals["sweep"][INJECTED_LAYER][1]
    assert calls == base.totals["sweep"][INJECTED_LAYER][1] > 0
    injected = calls * INJECTED_SECONDS
    before, after = sweep_self_seconds(base), sweep_self_seconds(slowed)
    added = after[INJECTED_LAYER] - before[INJECTED_LAYER]
    assert 0.95 * injected <= added <= 1.5 * injected
    for layer in after:
        if layer != INJECTED_LAYER:
            assert abs(after[layer] - before.get(layer, 0.0)) < 0.1 * injected, layer


def test_self_times_partition_the_op_time():
    tracer, _ = traced_compress()
    op_total = sum(tracer.op_durations)
    # Every sweep span nests inside an op except the report builder,
    # which the pipeline runs after the tasks return.
    inside = sum(
        seconds for layer, seconds in sweep_self_seconds(tracer).items()
        if layer != "pipeline.report"
    )
    assert inside == pytest.approx(op_total, rel=1e-6)
    assert len(tracer.op_seconds) == len(tracer.op_durations) == 8


def test_uninstall_restores_every_binding():
    bonsai = repro.abstraction.bonsai.Bonsai
    registry = repro.analysis.properties.PROPERTY_REGISTRY
    before = (core.compress_class_task, repro.solve,
              bonsai.__dict__["build_abstract_network"], dict(registry))
    tracer = LayerTracer().install(layers=True)
    assert core.compress_class_task is not before[0]
    assert repro.solve is not before[1]
    tracer.uninstall()
    after = (core.compress_class_task, repro.solve,
             bonsai.__dict__["build_abstract_network"], dict(registry))
    assert after == before


def test_pool_workers_report_their_spans(tmp_path):
    tracer, output = traced_compress(executor="process", worker_dir=tmp_path)
    _, serial_output = traced_compress()
    assert output == serial_output
    merged = merge_snapshots(worker_snapshots(tmp_path))
    assert merged["totals"]["sweep"]["op"][1] == 8
    assert merged["totals"]["sweep"]["abstraction.refinement"][1] == 8
    assert len(merged["op_durations"]) == 8


def _pass(op_seconds, walls, ops=None, workers=1, probe=bench.PROBE_REF_S):
    return {
        "sweeps": [
            {"name": name, "wall": wall, "ops": 2, "workers": workers}
            for name, wall in walls.items()
        ],
        "op_seconds": op_seconds,
        "op_probe": {key: probe for key in op_seconds},
        "ops": ops or {},
        "ratio": [10, 5],
        "errors": [],
    }


def test_sweep_estimate_takes_each_op_at_its_fastest():
    probes = 2 * bench.PROBE_REF_S
    passes = [
        _pass({"a|x": 1.0, "a|y": 3.0}, {"a": 4.5 + probes}),
        _pass({"a|x": 2.0, "a|y": 2.0}, {"a": 4.1 + probes}),
    ]
    # Fastest ops 1.0 + 2.0, plus the median wall not covered by ops and
    # probes (0.5, 0.1).
    assert bench.sweep_seconds(passes)["a"] == pytest.approx(3.3)
    # Two workers share the ops and probes: 3.0 / 2, plus the median of
    # 4.5 - 4.0 / 2 and 4.1 - 4.0 / 2.
    pool = [
        _pass({"a|x": 1.0, "a|y": 3.0}, {"a": 4.5 + probes / 2}, workers=2),
        _pass({"a|x": 2.0, "a|y": 2.0}, {"a": 4.1 + probes / 2}, workers=2),
    ]
    assert bench.sweep_seconds(pool)["a"] == pytest.approx(1.5 + 2.3)


def test_probe_corrects_a_slowdown():
    # The probe takes twice its reference time; the ops stretch by
    # 2 ** PROBE_EXPONENT, as the correction assumes.
    stretch = 2 ** bench.PROBE_EXPONENT
    quiet = _pass({"a|x": 1.0, "a|y": 3.0}, {"a": 4.0 + 2 * bench.PROBE_REF_S})
    busy = _pass({"a|x": stretch, "a|y": 3 * stretch},
                 {"a": 4 * stretch + 4 * bench.PROBE_REF_S}, probe=2 * bench.PROBE_REF_S)
    alone = bench.sweep_seconds([quiet, quiet])["a"]
    assert alone == pytest.approx(4.0)
    assert bench.sweep_seconds([busy, busy])["a"] == pytest.approx(alone)
    assert bench.sweep_seconds([quiet, busy])["a"] == pytest.approx(alone)


def test_sweep_that_failed_before_any_op_is_still_estimated():
    failed = [_pass({}, {"a": 0.5}), _pass({}, {"a": 0.7})]
    assert bench.sweep_seconds(failed)["a"] == pytest.approx(0.6)


def test_output_checks_count_wrong_ops():
    ops = {"n|a": ["d1", False], "n|b": ["d2", True]}
    passes = [_pass({}, {"n": 1.0}, ops), _pass({}, {"n": 1.0}, dict(ops))]
    assert bench.check_outputs(passes, None)[:3] == (True, 2, 1)
    reference = {"ops": {"n|a": ["other", False], "n|b": ["d2", False]}}
    assert bench.check_outputs(passes, reference)[:3] == (True, 2, 2)
    passes[1]["ops"] = {"n|a": ["changed", False], "n|b": ["d2", True]}
    assert bench.check_outputs(passes, None)[0] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wan-dc-verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
