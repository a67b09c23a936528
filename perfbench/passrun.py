"""One measured pass of one workload, in a fresh process.

Run by ``run.py`` as ``python3 passrun.py`` with a JSON request on stdin;
prints one JSON result line on stdout.  A pass parses the config text and
builds fresh program state (``setup_reps`` times, keeping the last),
collects garbage, runs the workload's sweep once, and then times
``setup_reps`` more set-ups; every op and set-up is timed next to the
probe (``layers.probe``).  Fresh processes make every pass start from the
same state -- including the pool scheduler's in-process cost cache -- and
make this process's peak RSS that of the input text plus the program's
state alone.

Request keys: ``workload``, ``inputs`` (from :mod:`inputs`), ``mode``
(``"plain"``, ``"traced"`` or ``"reference"``: a serial compression sweep
whose per-op digests check the pool's output), ``setup_reps`` and
``worker_dir`` (where pool workers leave their op times and span totals).
"""

from __future__ import annotations

import gc
import hashlib
import json
import pickle
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

from layers import LayerTracer, merge_snapshots, probe, read_counters, worker_snapshots

#: Pool size of ``fattree-compress-pool`` (the benchmark machine's nproc).
POOL_WORKERS = 2

#: Results re-pickled per pool sweep to measure IPC size and unpickle time
#: (each is ~1 MB at k=16, so timing all 256 would dominate the pass).
IPC_SAMPLES_PER_SWEEP = 4


def digest(canonical) -> str:
    return hashlib.sha1(repr(canonical).encode()).hexdigest()[:16]


class Pass:
    """Accumulates one pass's measurements and per-op outcomes."""

    def __init__(self, tracer: LayerTracer, workers: int):
        self.tracer = tracer
        self.workers = workers
        self.sweeps: List[Dict[str, object]] = []
        self.ops: Dict[str, List[object]] = {}  # key -> [digest, failed]
        self.ratio = [0, 0]
        self.errors: List[str] = []
        #: Sampled result sizes and unpickle times (traced pool passes).
        self.ipc = {"bytes": 0, "seconds": 0.0, "samples": 0}

    def sweep(self, name: str, expected_ops: int, body) -> None:
        """Time ``body()`` as one sweep; ops it never reported (because it
        raised) count as failed."""
        self.tracer.sweep = name
        before = len(self.ops)
        gc.collect()
        start = time.perf_counter()
        try:
            body()
        except Exception:  # noqa: BLE001 - a failing sweep is counted, not fatal
            self.errors.append(traceback.format_exc())
        wall = time.perf_counter() - start
        done = len(self.ops) - before
        for index in range(done, expected_ops):
            self.ops[f"{name}|unfinished-{index}"] = ["", True]
        self.sweeps.append({"name": name, "wall": wall, "ops": max(done, expected_ops),
                            "workers": self.workers})

    def op(self, sweep: str, key: str, canonical, failed: bool) -> None:
        self.ops[f"{sweep}|{key}"] = [digest(canonical), bool(failed)]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def setup_artifacts(inputs):
    from repro import EncodedNetwork, parse_network

    return [
        EncodedNetwork.build(parse_network(n["text"], name=n["name"]))
        for n in inputs["networks"]
    ]


def setup_session(inputs):
    from repro import Session, parse_network

    (network,) = inputs["networks"]
    return Session(parse_network(network["text"], name=network["name"]))


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def sweep_compress(run: Pass, artifacts, executor: str, traced: bool) -> None:
    from repro import CompressionPipeline

    for artifact in artifacts:
        name = artifact.network.name

        def body(artifact=artifact, name=name):
            pipeline = CompressionPipeline(
                artifact=artifact, executor=executor, workers=POOL_WORKERS
            )
            outcome = pipeline.run()
            for record in outcome.report.records:
                run.op(name, record.prefix, record.canonical(), False)
                run.ratio[0] += record.concrete_nodes
                run.ratio[1] += record.abstract_nodes
            if traced and executor == "process":
                measure_ipc(run, outcome.results)

        run.sweep(name, len(artifact.classes), body)


def measure_ipc(run: Pass, results) -> None:
    """Pickle a spread sample of returned results, as the pool does to
    ship them, and time the coordinator-side unpickle."""
    ipc = run.ipc
    step = max(1, len(results) // IPC_SAMPLES_PER_SWEEP)
    for result in results[::step][:IPC_SAMPLES_PER_SWEEP]:
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        start = time.perf_counter()
        pickle.loads(blob)
        ipc["seconds"] += time.perf_counter() - start
        ipc["bytes"] += len(blob)
        ipc["samples"] += 1


def sweep_verify(run: Pass, artifacts) -> None:
    from repro import BatchVerifier

    for artifact in artifacts:
        name = artifact.network.name

        def body(artifact=artifact, name=name):
            report = BatchVerifier(artifact=artifact, executor="serial").run()
            for record in report.records:
                failed = record.timed_out or not record.agrees()
                run.op(name, record.prefix, record.canonical(), failed)
                run.ratio[0] += record.concrete_nodes
                run.ratio[1] += record.abstract_nodes

        run.sweep(name, len(artifact.classes), body)


def sweep_whatif(run: Pass, session, inputs) -> None:
    from repro import ChangeSet, FailureScenario

    scenarios = [FailureScenario.from_dict(d) for d in inputs["scenarios"]]
    script = [ChangeSet.from_dict(d) for d in inputs["script"]]
    classes = len(session.classes)
    concrete = session.network.graph.num_nodes()
    for baseline in session.baseline.baselines.values():
        run.ratio[0] += concrete
        run.ratio[1] += baseline.compression.abstract_nodes

    def failures():
        report = session.failures(k=1, scenarios=scenarios)
        for record in report.iter_records():
            for outcome in record.scenarios:
                failed = (
                    outcome.incremental_matches_scratch is False
                    or outcome.abstract_agrees() is False
                )
                run.op("failures", f"{record.prefix}|{outcome.scenario}",
                       (record.prefix, outcome.canonical()), failed)

    def delta():
        report = session.delta(script, oracle=True)
        for record in report.iter_records():
            for outcome in record.steps:
                failed = (
                    outcome.incremental_matches_scratch is False
                    or outcome.abstract_agrees() is False
                )
                run.op("delta", f"{record.prefix}|{outcome.step}",
                       (record.prefix, outcome.canonical()), failed)

    run.sweep("failures", classes * len(scenarios), failures)
    run.sweep("delta", classes * len(script), delta)


# ----------------------------------------------------------------------
# Running a pass
# ----------------------------------------------------------------------
def timed_setup(build, inputs, reps: int, times: List[float], probes: List[float]):
    """Build the program state ``reps`` times and return the last state,
    appending each set-up's time to ``times`` and the mean of the probe
    times right before and after it to ``probes``.  Each repetition
    starts with garbage collected and the previous state dropped."""
    state = None
    for _ in range(reps):
        state = None
        gc.collect()
        before = probe()
        start = time.perf_counter()
        state = build(inputs)
        times.append(time.perf_counter() - start)
        probes.append((before + probe()) / 2)
    return state


def run_pass(request: Dict[str, object]) -> Dict[str, object]:
    workload = request["workload"]
    inputs = request["inputs"]
    mode = request["mode"]
    traced = mode == "traced"
    pool = workload == "fattree-compress-pool" and mode != "reference"
    # The op clock (task + report spans) runs on every pass, in the pool's
    # workers too; the layer wrappers only on traced passes.
    tracer = LayerTracer().install(layers=traced)
    if pool:
        tracer.worker_dir = Path(request["worker_dir"])
    run = Pass(tracer, POOL_WORKERS if pool else 1)

    build = setup_session if workload == "dc-whatif" else setup_artifacts
    reps = int(request["setup_reps"])
    setup_times: List[float] = []
    setup_probes: List[float] = []
    state = timed_setup(build, inputs, reps, setup_times, setup_probes)

    tracer.phase = "sweep"
    counters_before = read_counters()
    if workload == "wan-dc-verify":
        sweep_verify(run, state)
    elif workload == "dc-whatif":
        sweep_whatif(run, state, inputs)
    else:
        sweep_compress(run, state, "process" if pool else "serial", traced)
    counters = read_counters()
    counters = {name: counters[name] - counters_before[name] for name in counters}

    rusage = resource.getrusage
    result = {
        "sweeps": run.sweeps,
        "ops": run.ops,
        "ratio": run.ratio,
        "errors": run.errors,
        "peak_rss_mb": rusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "worker_peak_rss_mb": rusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "ipc": run.ipc,
    }
    # Set up again once the sweep's state is gone, so the run samples
    # set-up time at both ends of every pass (peak RSS is read above).
    state = None
    tracer.phase = "setup"
    timed_setup(build, inputs, reps, setup_times, setup_probes)
    result["setup_s"] = setup_times
    result["setup_probe_s"] = setup_probes
    snapshot = tracer.snapshot()
    snapshot["counters"] = counters
    if pool:
        snapshot = merge_snapshots([snapshot, *worker_snapshots(tracer.worker_dir)])
    result["op_seconds"] = snapshot["op_seconds"]
    result["op_probe"] = snapshot["op_probe"]
    if traced:
        result["layers"] = snapshot["totals"]
        result["op_durations"] = snapshot["op_durations"]
        result["counters"] = snapshot["counters"]
    tracer.uninstall()
    return result


def main() -> int:
    request = json.loads(sys.stdin.read())
    result = run_pass(request)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
