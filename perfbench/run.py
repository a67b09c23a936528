#!/usr/bin/env python3
"""The benchmark: the paper's workloads, end to end and layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload fattree-compress --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One run makes the workload's inputs from ``--seed`` (untimed), then runs a
fixed number of passes -- as many as fit ``--seconds`` at this machine's
nominal pass length, at least two -- each in a fresh ``passrun.py``
process.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
(self time per op for every wrapped layer, program counters, the tracing
overhead).  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a table of every metric by
name and unit precedes it.  See ``NOTES.md`` for the workloads and the
estimator behind each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional

from passrun import POOL_WORKERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: name -> (nominal seconds per pass on the reference 2-vCPU machine,
#: set-ups timed at each end of a pass).
WORKLOADS = {
    "fattree-compress": (10.0, 2),
    "fattree-compress-pool": (10.0, 2),
    "wan-dc-verify": (6.0, 6),
    "dc-whatif": (11.0, 2),
}
MIN_PASSES = 2

#: The probe's time on the reference 2-vCPU machine at a quiet moment.
PROBE_REF_S = 0.002

#: How much the ops slow down relative to the probe: when the probe takes
#: s times its quiet time, an op takes about s ** PROBE_EXPONENT times its
#: own.  Fitted on this machine's runs: 0 (no correction) left 8-18%
#: between the quartiles of six runs, 1 (full correction) 3-6% with quiet
#: runs reading slower than busy ones, 0.8 3-4% on every workload.
PROBE_EXPONENT = 0.8

#: Each pass process must finish within this many seconds.
PASS_TIMEOUT = 150

END_TO_END = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "compression_ratio": "ratio",
}

PER_LAYER = {
    "config.parser.ms": "ms",
    "abstraction.ec.ms": "ms",
    "bdd.policy.encode_ms": "ms",
    "bdd.policy.specialize_ms_per_op": "ms/op",
    "config.transfer.srp_build_ms_per_op": "ms/op",
    "abstraction.refinement.ms_per_op": "ms/op",
    "abstraction.refinement.cache_hit_ratio": "ratio",
    "abstraction.bonsai.abstract_build_ms_per_op": "ms/op",
    "pipeline.report.ms_per_op": "ms/op",
    "pipeline.ipc.bytes_per_op": "B/op",
    "pipeline.ipc.unpickle_ms_per_op": "ms/op",
    "pipeline.shard.busy_ratio": "ratio",
    "pipeline.shard.steals": "count",
    "pipeline.shard.worker_peak_rss_mb": "MB",
    "srp.solver.ms_per_op": "ms/op",
    "srp.solver.seeded_ratio": "ratio",
    "analysis.dataplane.ms_per_op": "ms/op",
    "analysis.properties.ms_per_op": "ms/op",
    "failures.incremental.ms_per_op": "ms/op",
    "failures.incremental.scratch_fallbacks": "count",
    "failures.soundness.ms_per_op": "ms/op",
    "delta.incremental.ms_per_op": "ms/op",
    "delta.revalidate.ms_per_op": "ms/op",
    "op.self_ms_per_op": "ms/op",
    "op.p50_ms": "ms",
    "op.p90_ms": "ms",
    "op.samples": "count",
    "trace.overhead_ratio": "ratio",
    "failure_ops_per_s": "1/s",
    "delta_ops_per_s": "1/s",
}

#: Per-op layer metrics: metric name -> traced layer name.
PER_OP_LAYERS = {
    "bdd.policy.specialize_ms_per_op": "bdd.policy.specialize",
    "config.transfer.srp_build_ms_per_op": "config.transfer",
    "abstraction.refinement.ms_per_op": "abstraction.refinement",
    "abstraction.bonsai.abstract_build_ms_per_op": "abstraction.bonsai",
    "pipeline.report.ms_per_op": "pipeline.report",
    "srp.solver.ms_per_op": "srp.solver",
    "analysis.dataplane.ms_per_op": "analysis.dataplane",
    "analysis.properties.ms_per_op": "analysis.properties",
    "failures.incremental.ms_per_op": "failures.incremental",
    "failures.soundness.ms_per_op": "failures.soundness",
    "delta.incremental.ms_per_op": "delta.incremental",
    "delta.revalidate.ms_per_op": "delta.revalidate",
    "op.self_ms_per_op": "op",
}

#: Set-up layer metrics (ms per set-up): metric name -> traced layer name.
SETUP_LAYERS = {
    "config.parser.ms": "config.parser",
    "abstraction.ec.ms": "abstraction.ec",
    "bdd.policy.encode_ms": "bdd.policy.encode",
}


class BenchError(RuntimeError):
    """A pass process failed outright (no result to count)."""


def pass_count(workload: str, seconds: float) -> int:
    nominal, _ = WORKLOADS[workload]
    return max(MIN_PASSES, round(seconds / nominal))


def run_child(request: Dict[str, object], seed: int) -> Dict[str, object]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = str(seed % (2**32))
    # A session of its own, so a timeout also kills the pass's pool workers.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passrun.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=str(ROOT),
        env=env,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps(request), timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"pass process exceeded {PASS_TIMEOUT} s") from None
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"pass process exited {proc.returncode}:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
def reference_seconds(seconds: float, probe_seconds: float) -> float:
    """A time measured next to a probe, corrected to the machine's speed
    when the probe takes :data:`PROBE_REF_S`."""
    return seconds * (PROBE_REF_S / probe_seconds) ** PROBE_EXPONENT


def sweep_seconds(passes: List[Dict[str, object]]) -> Dict[str, float]:
    """Per sweep, its time in reference seconds.

    The machine's speed for memory-heavy code drifts by up to 2x over
    seconds to minutes, so a wall clock mostly measures when it ran.
    Every op is timed in every pass, and the probe (``layers.probe``) is
    timed right after it; :func:`reference_seconds` corrects the op's
    time by that probe.  An op's cost is its smallest corrected time over
    the passes.  A sweep's cost sums those over its ops, divided by the
    workers running them, plus the median over passes of the wall clock
    no op or probe covers (pipeline and pool start-up, result transfer,
    aggregation), corrected by that pass's median probe.
    """
    estimates: Dict[str, float] = {}
    timed_in_every_pass = set.intersection(*(set(p["op_probe"]) for p in passes))
    for index, sweep in enumerate(passes[0]["sweeps"]):
        name, workers = sweep["name"], sweep["workers"]
        prefix = name + "|"
        ops = 0.0
        for key in timed_in_every_pass:
            if key.startswith(prefix):
                ops += min(
                    reference_seconds(p["op_seconds"][key], p["op_probe"][key])
                    for p in passes
                )
        outside = []
        for p in passes:
            times = [t for k, t in p["op_seconds"].items() if k.startswith(prefix)]
            probes = [q for k, q in p["op_probe"].items() if k.startswith(prefix)]
            uncovered = p["sweeps"][index]["wall"] - (sum(times) + sum(probes)) / workers
            # A sweep that failed before its first op has no probe to go by.
            outside.append(
                reference_seconds(uncovered, statistics.median(probes)) if probes else uncovered
            )
        estimates[name] = ops / workers + max(0.0, statistics.median(outside))
    return estimates


def sweep_ops(first: Dict[str, object]) -> Dict[str, int]:
    return {sweep["name"]: sweep["ops"] for sweep in first["sweeps"]}


def throughput(passes, names=None) -> float:
    seconds = sweep_seconds(passes)
    ops = sweep_ops(passes[0])
    names = names or list(ops)
    return sum(ops[n] for n in names) / sum(seconds[n] for n in names)


def check_outputs(passes, reference) -> tuple:
    """(correct, attempted, failed, problems): every pass must report the
    same ops with the same outputs (and, for the pool, the same outputs
    as the serial reference); failed counts ops whose output is wrong."""
    problems: List[str] = []
    first = passes[0]["ops"]
    for index, other in enumerate(passes[1:], start=2):
        if other["ops"] != first:
            problems.append(f"pass {index} outputs differ from pass 1")
    ratios = {tuple(p["ratio"]) for p in passes}
    if len(ratios) != 1:
        problems.append(f"compression sizes differ between passes: {sorted(ratios)}")
    failed = {key for key, (_, bad) in first.items() if bad}
    if reference is not None:
        expected = reference["ops"]
        if set(expected) != set(first):
            problems.append("pool ran other ops than the serial reference")
        failed |= {
            key
            for key, (digest, _) in first.items()
            if key in expected and expected[key][0] != digest
        }
    for p in passes:
        problems.extend(p["errors"])
    return not problems, len(first), len(failed), problems


def end_to_end(passes) -> Dict[str, float]:
    ratio = passes[0]["ratio"]
    return {
        "ops_per_s": throughput(passes),
        "setup_s": statistics.median(
            reference_seconds(t, q)
            for p in passes
            for t, q in zip(p["setup_s"], p["setup_probe_s"])
        ),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "compression_ratio": ratio[0] / ratio[1] if ratio[1] else 0.0,
    }


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(workload: str, plain, traced) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced passes, except the
    failure/delta throughputs and the tracing overhead, which compare
    the untraced passes of the same run."""
    ops = sum(sweep_ops(traced[0]).values())

    def per_pass(fn) -> float:
        return statistics.median(fn(p) for p in traced)

    def layer_seconds(p, phase, layer) -> float:
        return p["layers"].get(phase, {}).get(layer, [0.0, 0])[0]

    out: Dict[str, float] = {}
    for metric, layer in SETUP_LAYERS.items():
        out[metric] = per_pass(
            lambda p: layer_seconds(p, "setup", layer) * 1000 / len(p["setup_s"])
        )
    for metric, layer in PER_OP_LAYERS.items():
        out[metric] = per_pass(lambda p: layer_seconds(p, "sweep", layer) * 1000 / ops)

    def ratio(num, den):
        def fn(p):
            c = p["counters"]
            total = sum(c.get(name, 0.0) for name in den)
            return c.get(num, 0.0) / total if total else 0.0
        return fn

    out["abstraction.refinement.cache_hit_ratio"] = per_pass(ratio(
        "abstraction.refinement_cache.hits",
        ("abstraction.refinement_cache.hits", "abstraction.refinement_cache.misses"),
    ))
    out["srp.solver.seeded_ratio"] = per_pass(ratio(
        "srp.seeded_solves", ("srp.seeded_solves", "srp.scratch_solves")
    ))
    out["failures.incremental.scratch_fallbacks"] = per_pass(
        lambda p: p["counters"].get("incremental.scratch_fallbacks", 0.0)
    )
    out["pipeline.shard.steals"] = per_pass(lambda p: p["counters"].get("shard.steals", 0.0))

    def ipc(field, scale):
        def fn(p):
            sample = p["ipc"]
            return sample[field] * scale / sample["samples"] if sample["samples"] else 0.0
        return fn

    out["pipeline.ipc.bytes_per_op"] = per_pass(ipc("bytes", 1))
    out["pipeline.ipc.unpickle_ms_per_op"] = per_pass(ipc("seconds", 1000))
    pool = workload == "fattree-compress-pool"
    out["pipeline.shard.busy_ratio"] = per_pass(
        lambda p: sum(p["op_durations"]) / (POOL_WORKERS * sum(s["wall"] for s in p["sweeps"]))
        if pool else 0.0
    )
    out["pipeline.shard.worker_peak_rss_mb"] = per_pass(
        lambda p: p["worker_peak_rss_mb"] if pool else 0.0
    )
    durations = [d for p in traced for d in p["op_durations"]]
    out["op.p50_ms"] = _percentile(durations, 0.5) * 1000
    out["op.p90_ms"] = _percentile(durations, 0.9) * 1000
    out["op.samples"] = float(len(durations))
    out["trace.overhead_ratio"] = throughput(plain) / throughput(traced)
    names = sweep_ops(plain[0])
    out["failure_ops_per_s"] = throughput(plain, ["failures"]) if "failures" in names else 0.0
    out["delta_ops_per_s"] = throughput(plain, ["delta"]) if "delta" in names else 0.0
    return out


# ----------------------------------------------------------------------
# Running workloads
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    from inputs import make_inputs

    inputs = make_inputs(workload, seed)
    _, reps = WORKLOADS[workload]
    scratch = ROOT / ".perfbench" / uuid.uuid4().hex
    scratch.mkdir(parents=True)
    try:
        plain, traced = [], []
        for index in range(pass_count(workload, seconds)):
            mode = "traced" if trace and index % 2 == 1 else "plain"
            worker_dir = scratch / f"pass{index}"
            worker_dir.mkdir()
            request = {"workload": workload, "inputs": inputs, "mode": mode,
                       "setup_reps": reps, "worker_dir": str(worker_dir)}
            result = run_child(request, seed)
            (traced if mode == "traced" else plain).append(result)
            walls = " ".join(f"{s['wall']:.3f}" for s in result["sweeps"])
            setups = " ".join(f"{s:.4f}" for s in result["setup_s"])
            print(f"[{workload}] pass {index + 1} {mode}: sweeps {walls} s; "
                  f"set-ups {setups} s", file=sys.stderr)
        reference = None
        if workload == "fattree-compress-pool":
            request = {"workload": workload, "inputs": inputs, "mode": "reference",
                       "setup_reps": 1, "worker_dir": str(scratch)}
            reference = run_child(request, seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()  # only when no concurrent run still uses it
    correct, attempted, failed, problems = check_outputs(plain + traced, reference)
    for problem in problems:
        print(f"[{workload}] {problem}", file=sys.stderr)
    if trace:
        values, units = layer_metrics(workload, plain, traced), PER_LAYER
    else:
        values, units = end_to_end(plain), END_TO_END
        names = sweep_ops(plain[0])
        for name, label in (("failures", "failure_ops_per_s"), ("delta", "delta_ops_per_s")):
            if name in names:  # shown, not reported: see NOTES.md
                print(f"  {workload:24} {label:44} {throughput(plain, [name]):14.4f} 1/s")
    for name, value in values.items():
        print(f"  {workload:24} {name:44} {value:14.4f} {units[name]}")
    print(f"  {workload:24} {'ops (attempted / failed)':44} {attempted:>8} / {failed}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    start = time.perf_counter()
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"  ({time.perf_counter() - start:.1f} s)", file=sys.stderr)
    if len(results) == 1:
        summary = results[workloads[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}/{name}": metric
                for workload, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
