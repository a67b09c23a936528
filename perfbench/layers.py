"""Per-layer self-time tracing from outside the program.

The benchmark never edits ``src/``: it wraps each paper layer's public
entry points (module functions, methods, registered property checks) in
place, the way a profiler would, and restores them afterwards.  Every call
through a wrapper is a span; a span's *self* time is its duration minus
the part covered by the spans it encloses, so nested layers (refinement
inside compression, the solver inside the data plane) are never counted
twice.  Spans are folded into per-``(phase, layer)`` totals as they close,
which keeps memory constant however many calls a sweep makes.

Process-pool workers are forked from the coordinator, so they inherit
the wrappers.  A worker notices the pid change, restarts its totals from
zero, and after every top-level span rewrites ``w<pid>.json`` in
:attr:`LayerTracer.worker_dir`; the coordinator folds those files in when
the pool has finished (:func:`worker_snapshots`, :func:`merge_snapshots`).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import random
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: The per-op tasks: one span per destination class, keyed by its prefix.
OP_TASKS = (
    ("repro.pipeline.core", "compress_class_task"),
    ("repro.analysis.batch", "verify_class_task"),
    ("repro.failures.sweep", "failure_class_task"),
    ("repro.delta.sweep", "delta_class_task"),
)

#: ``(layer, module, attribute path)`` for every timed public call.
LAYER_TARGETS = (
    ("config.parser", "repro.config.parser", "parse_network"),
    ("abstraction.ec", "repro.abstraction.ec", "routable_equivalence_classes"),
    ("bdd.policy.encode", "repro.bdd.policy", "PolicyBddEncoder.encode_all_edges"),
    ("bdd.policy.specialize", "repro.bdd.policy", "PolicyBddEncoder.specialized_policy_keys"),
    ("config.transfer", "repro.config.transfer", "build_srp_from_network"),
    ("abstraction.refinement", "repro.abstraction.refinement", "compute_abstraction"),
    ("abstraction.bonsai", "repro.abstraction.bonsai", "Bonsai.build_abstract_network"),
    ("srp.solver", "repro.srp.solver", "solve"),
    ("srp.solver", "repro.srp.solver", "solve_seeded"),
    ("analysis.dataplane", "repro.analysis.dataplane", "compute_forwarding_table"),
    ("analysis.properties", "repro.analysis.properties", "evaluate_suite"),
    ("failures.incremental", "repro.failures.incremental", "incremental_resolve"),
    ("failures.soundness", "repro.failures.soundness", "check_scenario_soundness"),
    ("delta.incremental", "repro.delta.incremental", "delta_resolve"),
    ("delta.revalidate", "repro.delta.revalidate", "revalidate_class"),
)

#: Where a compression's report record is built (per-op work that runs
#: after the task returns, so the op clock must include it).
REPORT_TARGET = ("pipeline.report", "repro.pipeline.report", "EcRecord.from_result")

#: Program counters read around each phase: the ``repro.obs.metrics``
#: registry plus the solver's own scratch/seeded solve counts.
COUNTER_NAMES = (
    "abstraction.refinement_cache.hits",
    "abstraction.refinement_cache.misses",
    "incremental.scratch_fallbacks",
    "shard.steals",
)


def read_counters() -> Dict[str, float]:
    """The program counters the per-layer table uses, as one flat dict."""
    from repro.obs import metrics
    from repro.srp.solver import COUNTERS

    values = metrics.snapshot_counters()
    out = {name: float(values.get(name, 0)) for name in COUNTER_NAMES}
    out["srp.scratch_solves"] = float(COUNTERS.scratch_solves)
    out["srp.seeded_solves"] = float(COUNTERS.seeded_solves)
    return out


def _class_key(args) -> Optional[str]:
    """Op key of a task call ``task(bonsai, equivalence_class, options)``."""
    return str(args[1].prefix) if len(args) > 1 else None


def _result_key(args) -> Optional[str]:
    """Op key of ``EcRecord.from_result(result)`` (``args[0]`` is the class)."""
    return str(args[1].equivalence_class.prefix) if len(args) > 1 else None


def probe() -> float:
    """Time one fixed, allocation- and pointer-heavy Python task (~2 ms).

    The machine's speed for memory-heavy code drifts by up to 2x over
    seconds to minutes.  The probe is slowed the way the program's ops
    are, so an op's time divided by the probe time measured right after
    it is nearly independent of the machine's speed at that moment.  The
    probe is the benchmark's own code and never changes with the program.
    """
    start = time.perf_counter()
    nodes = [{"id": i, "next": None} for i in range(PROBE_NODES)]
    order = list(range(PROBE_NODES))
    random.Random(7).shuffle(order)
    for a, b in zip(order, order[1:]):
        nodes[a]["next"] = nodes[b]
    node, total = nodes[order[0]], 0
    while node is not None:
        total += node["id"]
        node = node["next"]
    return time.perf_counter() - start


PROBE_NODES = 3000


class LayerTracer:
    """Self-time accounting for wrapped layer calls.

    ``phase`` labels where spans land (``"setup"`` or ``"sweep"``);
    ``sweep`` names the current sweep so op keys from two networks with
    the same prefixes stay apart.  ``inject_sleep`` maps a layer to extra
    seconds slept *inside* its spans (the attribution self-test).
    """

    def __init__(self, inject_sleep: Optional[Dict[str, float]] = None) -> None:
        self.inject_sleep = dict(inject_sleep or {})
        self.phase = "setup"
        self.sweep = ""
        self.worker_dir: Optional[Path] = None
        #: Undo actions for every patched binding, oldest first.
        self._restores: List[Callable[[], None]] = []
        self._reset(os.getpid())

    def _reset(self, pid: int) -> None:
        self.pid = pid
        #: ``{phase: {layer: [self seconds, calls]}}``
        self.totals: Dict[str, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0])
        )
        #: ``{"sweep|prefix": seconds}`` summed over the op's keyed spans.
        self.op_seconds: Dict[str, float] = defaultdict(float)
        #: ``{"sweep|prefix": probe seconds}`` measured right after the op.
        self.op_probe: Dict[str, float] = {}
        #: Durations of the per-op task spans, in completion order.
        self.op_durations: List[float] = []
        self._stack: List[List[float]] = []  # [start, child seconds]
        self._counters_at_fork: Optional[Dict[str, float]] = None

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable, key_of=None, is_op: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            if pid != tracer.pid:  # first call in a forked pool worker
                tracer._reset(pid)
                tracer.phase = "sweep"
                tracer._counters_at_fork = read_counters()
            frame = [time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                sleep = tracer.inject_sleep.get(layer)
                if sleep:
                    time.sleep(sleep)
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                entry = tracer.totals[tracer.phase][layer]
                entry[0] += duration - frame[1]
                entry[1] += 1
                key = key_of(args) if key_of is not None else None
                if key is not None:
                    tracer.op_seconds[f"{tracer.sweep}|{key}"] += duration
                if is_op:
                    tracer.op_durations.append(duration)
                    if not tracer._stack and key is not None:
                        tracer.op_probe[f"{tracer.sweep}|{key}"] = probe()
                if not tracer._stack and tracer._counters_at_fork is not None:
                    tracer._dump_worker()

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._restores.append(functools.partial(setattr, owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch_function(self, module_name: str, attr: str, layer: str, key_of=None,
                        is_op: bool = False) -> None:
        """Wrap a module function everywhere it is bound: its own module
        and every loaded ``repro`` module that imported it by name."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapped = self._wrap(layer, original, key_of, is_op)
        for name, loaded in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or loaded is None:
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, binding, wrapped)

    def _patch_method(self, module_name: str, path: str, layer: str, key_of=None) -> None:
        owner_name, attr = path.split(".")
        owner = getattr(importlib.import_module(module_name), owner_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(owner, attr, classmethod(self._wrap(layer, raw.__func__, key_of)))
        else:
            self._patch(owner, attr, self._wrap(layer, raw, key_of))

    def _patch_target(self, layer: str, module_name: str, path: str, key_of=None) -> None:
        if "." in path:
            self._patch_method(module_name, path, layer, key_of)
        else:
            self._patch_function(module_name, path, layer, key_of)

    def install(self, layers: bool = True) -> "LayerTracer":
        """Wrap the op tasks and report builder (always: they feed the op
        clock), plus every layer in :data:`LAYER_TARGETS` when ``layers``."""
        import repro  # noqa: F401 - loads every module that binds a target

        for module_name, attr in OP_TASKS:
            self._patch_function(module_name, attr, "op", _class_key, is_op=True)
        self._patch_target(*REPORT_TARGET, key_of=_result_key)
        if not layers:
            return self
        for layer, module_name, path in LAYER_TARGETS:
            self._patch_target(layer, module_name, path)
        from repro.analysis import properties

        for name, spec in list(properties.PROPERTY_REGISTRY.items()):
            wrapped = dataclasses.replace(
                spec, evaluate=self._wrap("analysis.properties", spec.evaluate)
            )
            registry = properties.PROPERTY_REGISTRY
            self._restores.append(functools.partial(registry.__setitem__, name, spec))
            registry[name] = wrapped
        return self

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._restores:
            self._restores.pop()()

    # -- results -----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The totals as plain JSON-ready data."""
        return {
            "totals": {
                phase: {layer: list(entry) for layer, entry in layers.items()}
                for phase, layers in self.totals.items()
            },
            "op_seconds": dict(self.op_seconds),
            "op_probe": dict(self.op_probe),
            "op_durations": list(self.op_durations),
        }

    def _dump_worker(self) -> None:
        if self.worker_dir is None:
            return
        state = self.snapshot()
        now = read_counters()
        state["counters"] = {
            name: now[name] - self._counters_at_fork.get(name, 0.0) for name in now
        }
        path = self.worker_dir / f"w{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(state))
        os.replace(tmp, path)


def merge_snapshots(snapshots) -> Dict[str, object]:
    """Sum snapshots: the coordinator's and its pool workers'."""
    merged = {"totals": {}, "op_seconds": {}, "op_probe": {}, "op_durations": [],
              "counters": {}}
    for state in snapshots:
        for phase, layers in state["totals"].items():
            into = merged["totals"].setdefault(phase, {})
            for layer, (seconds, calls) in layers.items():
                entry = into.setdefault(layer, [0.0, 0])
                entry[0] += seconds
                entry[1] += calls
        for key, seconds in state["op_seconds"].items():
            merged["op_seconds"][key] = merged["op_seconds"].get(key, 0.0) + seconds
        merged["op_probe"].update(state["op_probe"])
        merged["op_durations"].extend(state["op_durations"])
        for name, value in state["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0.0) + value
    return merged


def worker_snapshots(worker_dir: Path) -> List[Dict[str, object]]:
    """The snapshots the pool's workers left in ``worker_dir``."""
    return [json.loads(path.read_text()) for path in sorted(worker_dir.glob("w*.json"))]
