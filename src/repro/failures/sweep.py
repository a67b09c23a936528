"""Failure sweeps: scenarios x equivalence classes on the what-if engine.

:class:`FailureSweep` runs the what-if engine (:mod:`repro.delta.engine`)
in its *independent-steps* mode: the scenarios are enumerated (or
sampled) once and every one starts from the class baseline, whose
labeling, transfer memo and compression serve every scenario of the
class.  A scenario's seeded re-solve gets exactly its removed edges and
nodes (:func:`repro.failures.incremental.incremental_resolve`); its
abstraction check is :func:`repro.failures.soundness.check_scenario_soundness`
-- whether the baseline abstraction can represent the scenario
(``sound_under_failure``), and the differential abstract-vs-concrete
comparison against either the mapped abstract failure or a per-scenario
re-compression.  The :class:`FailureReport` adds k-resilience verdicts on
top of the shared aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.abstraction.ec import EquivalenceClass
from repro.analysis.batch import PropertySuite
from repro.config.network import Network
from repro.delta.engine import (
    StepMode,
    StepView,
    WhatIfOutcome,
    WhatIfRecord,
    WhatIfReport,
    WhatIfSweep,
    run_class_steps,
)
from repro.delta.incremental import BaselineIndex, EdgeDiff
from repro.failures.incremental import incremental_resolve
from repro.failures.scenario import FailureScenario, scenarios_for
from repro.failures.soundness import check_scenario_soundness
from repro.pipeline.core import register_class_task
from repro.reporting import register_report
from repro.srp.solver import TransferCache

#: Format version of the JSON failure reports.
FAILURE_REPORT_VERSION = 1


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass
class ScenarioOutcome(WhatIfOutcome):
    """Everything recorded for one (equivalence class, scenario) pair."""

    NAME = "scenario"
    CHECK = "soundness"

    scenario: str = field(kw_only=True)
    failed_links: List[str] = field(default_factory=list)
    failed_nodes: List[str] = field(default_factory=list)
    #: Structural soundness flag (``None`` when soundness checking was
    #: off or the scenario was unroutable).
    sound_under_failure: Optional[bool] = None
    #: Full :class:`~repro.failures.soundness.SoundnessOutcome` wire form.
    soundness: Optional[Dict] = None

    def canonical(self) -> Tuple:
        """Timing-free outcome, for executor-parity comparisons."""
        return (
            self.scenario,
            self.unroutable,
            self.incremental_matches_scratch,
            self.sound_under_failure,
            self.abstract_agrees(),
            tuple(sorted((k, tuple(v)) for k, v in self.newly_failing.items())),
            tuple(sorted((k, tuple(v)) for k, v in self.newly_passing.items())),
        )


@dataclass
class ClassFailureRecord(WhatIfRecord):
    """All scenario outcomes for one destination equivalence class."""

    OUTCOMES = "scenarios"
    OUTCOME_CLS = ScenarioOutcome

    #: Every node verdicts were evaluated on (the k-resilience universe).
    nodes: List[str] = field(default_factory=list)
    scenarios: List[ScenarioOutcome] = field(default_factory=list)


@register_report
@dataclass
class FailureReport(WhatIfReport):
    """Run-level aggregation of a failure sweep."""

    kind = "failures"
    RECORD_CLS = ClassFailureRecord
    NAMES = "scenario_names"
    STEP_NOUN = "scenario"
    CHECK_ON = "soundness"
    CHECK_PASSED = ("sound_under_failure", "sound")
    SUMMARY_SIZE = "scenarios: {num_scenarios} (k={k}) x {num_classes} classes"
    SUMMARY_TIMING = "incremental re-solve: {inc:.3f}s vs scratch {scratch:.3f}s"
    SUMMARY_SPEEDUP = " ({:.2f}x)"
    SUMMARY_CHECK = (
        "abstraction soundness: {sound}/{checked} scenarios representable "
        "by the baseline abstraction"
    )

    soundness_counts = WhatIfReport.check_counts
    soundness_disagreements = WhatIfReport.abstract_disagreements
    first_failing_scenario = WhatIfReport.first_breaking_step
    property_failure_counts = WhatIfReport.property_break_counts

    network_name: str
    executor: str
    workers: int
    k: int
    num_classes: int
    num_scenarios: int
    properties: List[str]
    path_bound: Optional[int]
    oracle: bool
    soundness: bool
    encode_seconds: float
    total_seconds: float
    scenario_names: List[str] = field(default_factory=list)
    #: Whether the scenario list covers *every* ``≤k`` failure (False under
    #: sampling or an explicit scenario list): k-resilience verdicts are
    #: only proofs when it does.
    exhaustive: bool = False
    records: List[ClassFailureRecord] = field(default_factory=list)
    #: Peak resident set of the producing run in MiB, when measured
    #: (``--memory-budget`` runs and the scale benchmark fill this).
    peak_rss_mb: Optional[float] = None
    version: int = FAILURE_REPORT_VERSION

    @property
    def incremental_speedup(self) -> Optional[float]:
        """Scratch-vs-incremental wall-clock ratio over compared scenarios."""
        compared = [
            o for _, o in self._outcomes() if o.incremental_used and o.scratch_seconds > 0
        ]
        inc = sum(o.incremental_seconds for o in compared)
        scratch = sum(o.scratch_seconds for o in compared)
        return scratch / inc if inc > 0 and scratch > 0 else None

    def k_resilience(self, prop: str = "reachability") -> Dict[str, object]:
        """Evaluate "``prop`` holds under every ≤k cut" over the sweep records.

        A node is *k-resilient* for a destination class when the property
        holds on it at the failure-free baseline and no swept scenario
        newly breaks it; fragile nodes are reported with the first
        scenario (sweep order) that breaks them.  The verdict is evaluated
        directly on the existing records -- no extra simulation -- and is
        a proof only when the sweep enumerated exhaustively
        (``complete=True``); under sampling it is an upper bound on
        resilience.
        """
        per_class: Dict[str, Dict[str, object]] = {}
        for record in self.iter_records():
            baseline_failing = set(record.baseline_failing.get(prop, []))
            first_break = self._first_steps(
                (node, outcome.scenario)
                for outcome in record.scenarios
                for node in outcome.newly_failing.get(prop, [])
            )
            # The node universe: recorded explicitly; reports written
            # before the field existed fall back to the nodes the verdict
            # lists mention (an under-approximation).
            candidates = set(record.nodes) | set(first_break)
            for nodes in record.baseline_failing.values():
                candidates.update(nodes)
            fragile = {
                node: scenario
                for node, scenario in first_break.items()
                if node not in baseline_failing
            }
            per_class[record.prefix] = {
                "resilient": sorted(candidates - baseline_failing - set(fragile)),
                "fragile": {node: fragile[node] for node in sorted(fragile)},
                "baseline_failing": sorted(baseline_failing),
            }
        return {
            "property": prop,
            "k": self.k,
            "complete": bool(self.exhaustive),
            "per_class": per_class,
        }

    def k_resilient_nodes(self, prop: str = "reachability") -> Dict[str, List[str]]:
        """Per destination class: the nodes on which ``prop`` survives every
        swept ≤k cut (see :meth:`k_resilience` for the exact semantics)."""
        return {
            prefix: list(entry["resilient"])
            for prefix, entry in self.k_resilience(prop)["per_class"].items()
        }

    def aggregate_extras(self) -> Dict[str, object]:
        extras = {
            "soundness": self.soundness_counts(),
            "first_failing_scenario": self.first_failing_scenario(),
            "property_failure_counts": self.property_failure_counts(),
        }
        if "reachability" in self.properties:
            extras["k_resilience"] = self.k_resilience()
        return extras

    def summary_lines(self) -> List[str]:
        lines = super().summary_lines()
        if "reachability" in self.properties:
            resilience = self.k_resilience()
            per_class = resilience["per_class"].values()
            resilient = sum(len(entry["resilient"]) for entry in per_class)
            fragile = sum(len(entry["fragile"]) for entry in per_class)
            qualifier = "" if resilience["complete"] else " (sampled: upper bound only)"
            lines.append(
                f"{self.k}-resilience (reachability under every <={self.k} cut): "
                f"{resilient} (class, node) pairs resilient, {fragile} fragile"
                f"{qualifier}"
            )
        return lines


# ----------------------------------------------------------------------
# The per-class "failures" task (runs inside pipeline workers)
# ----------------------------------------------------------------------
class _FailureMode(StepMode):
    """Independent steps: every scenario starts from the class baseline."""

    SPAN = "scenario"
    CHECK_OPTION = "soundness"
    RECORD_CLS = ClassFailureRecord

    def __init__(self, bonsai, equivalence_class: EquivalenceClass, options: dict):
        super().__init__(bonsai, equivalence_class, options)
        self.steps = [FailureScenario.from_dict(raw) for raw in options.get("steps", [])]
        self.recompress_fallback = bool(options.get("recompress_fallback", True))
        # One bounded transfer memo shared by every scenario's incremental
        # re-solve, seeded once from the baseline; scratch oracle runs stay
        # cold on purpose (they are the "what a fresh solve costs"
        # yardstick).  The forwarding index likewise amortises taint
        # queries per class.
        self.shared_cache = TransferCache().seeded_from(self.baseline_solution.transfer_cache)
        self.index = BaselineIndex.from_solution(self.baseline_solution)

    def record_extras(self) -> Dict[str, object]:
        return {"nodes": list(self.node_names)}

    def new_outcome(self, scenario: FailureScenario) -> ScenarioOutcome:
        return ScenarioOutcome(
            scenario=scenario.name,
            failed_links=[f"{u}|{v}" for u, v in sorted(scenario.links)],
            failed_nodes=sorted(scenario.nodes),
        )

    def view(self, index: int, scenario: FailureScenario, outcome) -> StepView:
        surviving_origins = frozenset(
            origin
            for origin in self.equivalence_class.origins
            if str(origin) not in scenario.nodes
        )
        removed = scenario.directed_edges(self.network.graph)
        return StepView(
            network=scenario.apply(self.network),
            equivalence_class=(
                EquivalenceClass(prefix=self.prefix, origins=surviving_origins)
                if surviving_origins
                else None
            ),
            waypoints=frozenset(w for w in self.waypoints if w not in scenario.nodes),
            surviving=[n for n in self.node_names if n not in scenario.nodes],
            compiled={e: info for e, info in self.compiled.items() if e not in removed},
            diff=EdgeDiff(removed=removed, removed_nodes=frozenset(scenario.nodes)),
        )

    def can_seed(self, view: StepView, outcome) -> bool:
        return view.equivalence_class.origins == self.equivalence_class.origins

    def resolve(self, view: StepView, srp, outcome):
        return incremental_resolve(
            srp,
            self.baseline_solution,
            view.diff.removed,
            view.diff.removed_nodes,
            transfer_cache=self.shared_cache,
            index=self.index,
            max_rounds=self.max_rounds,
        )

    def check(self, index: int, view: StepView, verdicts, outcome) -> None:
        sound = check_scenario_soundness(
            self.bonsai,
            self.compression,
            self.steps[index],
            view.network,
            view.equivalence_class,
            verdicts,
            self.specs,
            view.waypoints,
            self.path_bound,
            recompress_fallback=self.recompress_fallback,
        )
        outcome.sound_under_failure = sound.sound_under_failure
        outcome.soundness = sound.to_dict()


def failure_class_task(bonsai, equivalence_class: EquivalenceClass, options: dict):
    """Run every failure scenario against one equivalence class."""
    return run_class_steps(bonsai, equivalence_class, options, _FailureMode)


register_class_task("failures", "repro.failures.sweep:failure_class_task")


# ----------------------------------------------------------------------
# The sweep driver
# ----------------------------------------------------------------------
class FailureSweep(WhatIfSweep):
    """Run a failure sweep over every destination equivalence class.

    Parameters are those of :class:`~repro.delta.engine.WhatIfSweep`
    (the fan-out knobs, ``baseline``, ``suite``, ``oracle``, spilling),
    plus:

    k:
        Enumerate all scenarios of at most ``k`` simultaneous failures.
    scenarios:
        An explicit scenario list (overrides enumeration).
    sample:
        Deterministically sample this many scenarios instead of
        enumerating (seeded by ``seed``).
    include_nodes:
        Also enumerate node failures (default: links only).
    soundness:
        Run the per-scenario abstraction-soundness checker (default True).
    recompress_fallback:
        Re-compress the failed network when the baseline abstraction
        cannot represent a scenario (default True).
    """

    TASK = "failures"
    REPORT_CLS = FailureReport

    def __init__(
        self,
        network: Optional[Network] = None,
        *,
        k: int = 1,
        scenarios: Optional[Sequence[FailureScenario]] = None,
        sample: Optional[int] = None,
        seed: int = 0,
        include_nodes: bool = False,
        soundness: bool = True,
        recompress_fallback: bool = True,
        **kwargs,
    ):
        super().__init__(network, **kwargs)
        self.k = k
        self.exhaustive = scenarios is None and sample is None
        if scenarios is None:
            scenarios = scenarios_for(
                self.network, k=k, sample=sample, seed=seed, include_nodes=include_nodes
            )
        else:
            scenarios = list(scenarios)
            for scenario in scenarios:
                scenario.assert_valid(self.network)
        self.steps = self.scenarios = list(scenarios)
        self.soundness = soundness
        self.recompress_fallback = recompress_fallback

    def _task_options(self) -> Dict[str, object]:
        return {
            "soundness": self.soundness,
            "recompress_fallback": self.recompress_fallback,
        }

    def _report_fields(self) -> Dict[str, object]:
        return {
            "k": self.k,
            "num_scenarios": len(self.scenarios),
            "soundness": self.soundness,
            "scenario_names": [s.name for s in self.scenarios],
            "exhaustive": self.exhaustive,
        }


def sweep_network(
    network: Network,
    k: int = 1,
    properties: Optional[Sequence[str]] = None,
    **kwargs,
) -> FailureReport:
    """One-call failure sweep (serial by default)."""
    suite = (
        PropertySuite.default()
        if properties is None
        else PropertySuite.from_names(properties)
    )
    return FailureSweep(network, k=k, suite=suite, **kwargs).run()
