"""Failure sweeps: scenarios x equivalence classes through the pipeline.

:class:`FailureSweep` is the driver that makes failure analysis a batch
workload like compression and verification before it: enumerate (or
sample) the scenarios once, then fan the per-class work out through the
generic :class:`~repro.pipeline.core.ClassFanOut` engine as the
``"failures"`` task.  Each task invocation handles *all* scenarios of one
destination equivalence class, because that is where the reuse lives --
the baseline is solved once, its labeling and transfer memo seed every
scenario's incremental re-solve, and one baseline compression serves
every scenario's soundness check.

Per (class, scenario) the task records:

* the **incremental re-solve** outcome -- label-for-label agreement with
  the scratch oracle (when ``oracle`` is on), the taint/dirty set sizes,
  and both wall-clock times (the report's headline incremental-vs-scratch
  speedup);
* the **verdict delta vs. the failure-free baseline** for every suite
  property (which nodes newly fail, which newly pass);
* the **abstraction-soundness outcome** (:mod:`repro.failures.soundness`):
  whether the baseline Bonsai abstraction can represent the scenario
  (``sound_under_failure``), and the differential abstract-vs-concrete
  comparison against either the mapped abstract failure or a per-scenario
  re-compression.

The aggregated :class:`FailureReport` is JSON-serialisable and consumed
by ``python -m repro.pipeline failures``, the failure-sweep benchmark
stage and the CI smoke job.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.abstraction.ec import EquivalenceClass
from repro.analysis.batch import PropertySuite
from repro.analysis.dataplane import (
    ForwardingTable,
    forwarding_table_from_solution,
)
from repro.analysis.properties import (
    PropertyContext,
    VerdictMap,
    evaluate_suite,
    failure_witness,
    verdict_delta,
)
from repro.config.network import Network
from repro.config.transfer import build_srp_from_network
from repro.failures.incremental import (
    BaselineIndex,
    divergent_nodes,
    incremental_resolve,
)
from repro.failures.scenario import FailureScenario, scenarios_for
from repro.obs import trace
from repro.failures.soundness import check_scenario_soundness
from repro.pipeline.core import EXECUTORS, ClassFanOut, register_class_task
from repro.pipeline.encoded import EncodedNetwork
from repro.srp.solver import TransferCache, solve
from repro.reporting import ReportEnvelope, StreamingReport, register_report

#: Format version of the JSON failure reports.
FAILURE_REPORT_VERSION = 1


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass
class ScenarioOutcome:
    """Everything recorded for one (equivalence class, scenario) pair."""

    scenario: str
    failed_links: List[str] = field(default_factory=list)
    failed_nodes: List[str] = field(default_factory=list)
    #: Every origin of the class failed: nothing can route, nothing is
    #: solved, and every property trivially fails on every surviving node.
    unroutable: bool = False
    #: Whether the seeded incremental path produced the solution (False
    #: when the origin set changed, the seed could not converge, or the
    #: scenario was unroutable).
    incremental_used: bool = False
    #: Incremental labeling is identical to the scratch oracle's (``None``
    #: when the oracle was skipped or incremental did not run).
    incremental_matches_scratch: Optional[bool] = None
    divergent: List[str] = field(default_factory=list)
    incremental_seconds: float = 0.0
    scratch_seconds: float = 0.0
    tainted: int = 0
    dirty: int = 0
    #: Structural soundness flag (``None`` when soundness checking was
    #: off or the scenario was unroutable).
    sound_under_failure: Optional[bool] = None
    #: Full :class:`~repro.failures.soundness.SoundnessOutcome` wire form.
    soundness: Optional[Dict] = None
    #: Per-property verdict delta vs. the failure-free baseline, over the
    #: surviving nodes.
    newly_failing: Dict[str, List[str]] = field(default_factory=dict)
    newly_passing: Dict[str, List[str]] = field(default_factory=dict)
    #: One structured counterexample (offending path/cycle) per newly
    #: broken property, from its first failing node.
    witnesses: Dict[str, Dict] = field(default_factory=dict)

    def abstract_agrees(self) -> Optional[bool]:
        if self.soundness is None:
            return None
        return self.soundness.get("agrees")

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
class ClassFailureRecord:
    """All scenario outcomes for one destination equivalence class."""

    prefix: str
    origins: List[str]
    baseline_seconds: float
    compression_seconds: float
    baseline_failing: Dict[str, List[str]] = field(default_factory=dict)
    #: Every node verdicts were evaluated on (the k-resilience universe).
    nodes: List[str] = field(default_factory=list)
    scenarios: List[ScenarioOutcome] = field(default_factory=list)

    def canonical(self) -> Tuple:
        return (
            self.prefix,
            tuple(self.origins),
            tuple(sorted((k, tuple(v)) for k, v in self.baseline_failing.items())),
            tuple(outcome.canonical() for outcome in self.scenarios),
        )


@register_report
@dataclass
class FailureReport(StreamingReport, ReportEnvelope):
    """Run-level aggregation of a failure sweep."""

    kind = "failures"

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

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def _outcomes(self):
        for record in self.iter_records():
            for outcome in record.scenarios:
                yield record, outcome

    @property
    def incremental_seconds(self) -> float:
        return sum(o.incremental_seconds for _, o in self._outcomes())

    @property
    def scratch_seconds(self) -> float:
        return sum(o.scratch_seconds for _, o in self._outcomes())

    @property
    def incremental_speedup(self) -> Optional[float]:
        """Scratch-vs-incremental wall-clock ratio over compared scenarios."""
        inc = sum(
            o.incremental_seconds
            for _, o in self._outcomes()
            if o.incremental_used and o.scratch_seconds > 0
        )
        scratch = sum(
            o.scratch_seconds
            for _, o in self._outcomes()
            if o.incremental_used and o.scratch_seconds > 0
        )
        if inc <= 0 or scratch <= 0:
            return None
        return scratch / inc

    def incremental_all_match(self) -> bool:
        """Every compared scenario re-solved bit-identically to scratch."""
        return all(
            o.incremental_matches_scratch is not False for _, o in self._outcomes()
        )

    def incremental_divergences(self) -> List[Tuple[str, str, List[str]]]:
        return [
            (record.prefix, outcome.scenario, list(outcome.divergent))
            for record, outcome in self._outcomes()
            if outcome.incremental_matches_scratch is False
        ]

    def soundness_counts(self) -> Dict[str, int]:
        """How scenarios fared against the abstraction, summed over classes."""
        counts = {"checked": 0, "sound": 0, "recompressed": 0, "disagreed": 0}
        for _, outcome in self._outcomes():
            if outcome.sound_under_failure is None:
                continue
            counts["checked"] += 1
            if outcome.sound_under_failure:
                counts["sound"] += 1
            if outcome.soundness and outcome.soundness.get("recompressed"):
                counts["recompressed"] += 1
            if outcome.abstract_agrees() is False:
                counts["disagreed"] += 1
        return counts

    def soundness_disagreements(self) -> List[Tuple[str, str, Dict]]:
        return [
            (record.prefix, outcome.scenario, dict(outcome.soundness or {}))
            for record, outcome in self._outcomes()
            if outcome.abstract_agrees() is False
        ]

    def first_failing_scenario(self) -> Dict[str, Optional[str]]:
        """Per property: the first scenario (sweep order) breaking it anywhere."""
        order = {name: index for index, name in enumerate(self.scenario_names)}
        first: Dict[str, Optional[str]] = {name: None for name in self.properties}
        for _, outcome in self._outcomes():
            for prop, nodes in outcome.newly_failing.items():
                if not nodes:
                    continue
                current = first.get(prop)
                if current is None or order.get(outcome.scenario, 1 << 30) < order.get(
                    current, 1 << 30
                ):
                    first[prop] = outcome.scenario
        return first

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
        order = {name: index for index, name in enumerate(self.scenario_names)}
        per_class: Dict[str, Dict[str, object]] = {}
        for record in self.iter_records():
            baseline_failing = set(record.baseline_failing.get(prop, []))
            # The node universe: recorded explicitly; reports written
            # before the field existed fall back to the nodes the verdict
            # lists mention (an under-approximation).
            candidates = set(record.nodes)
            for nodes in record.baseline_failing.values():
                candidates.update(nodes)
            first_break: Dict[str, str] = {}
            for outcome in record.scenarios:
                for node in outcome.newly_failing.get(prop, []):
                    candidates.add(node)
                    current = first_break.get(node)
                    if current is None or order.get(outcome.scenario, 1 << 30) < order.get(
                        current, 1 << 30
                    ):
                        first_break[node] = outcome.scenario
            fragile = {
                node: scenario
                for node, scenario in first_break.items()
                if node not in baseline_failing
            }
            resilient = sorted(
                node
                for node in candidates
                if node not in baseline_failing and node not in fragile
            )
            per_class[record.prefix] = {
                "resilient": resilient,
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

    def property_failure_counts(self) -> Dict[str, int]:
        """Per property: how many (class, scenario) pairs newly fail it."""
        counts = {name: 0 for name in self.properties}
        for _, outcome in self._outcomes():
            for prop, nodes in outcome.newly_failing.items():
                if nodes:
                    counts[prop] = counts.get(prop, 0) + 1
        return counts

    def ok(self) -> bool:
        """The sweep-level gate: no divergence, no soundness disagreement."""
        return (
            self.incremental_all_match()
            and not self.soundness_disagreements()
        )

    def canonical_records(self) -> Tuple[Tuple, ...]:
        return tuple(
            record.canonical()
            for record in sorted(self.iter_records(), key=lambda r: r.prefix)
        )

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    @classmethod
    def record_from_payload(cls, payload: Dict) -> ClassFailureRecord:
        raw = dict(payload)
        outcomes = [ScenarioOutcome(**outcome) for outcome in raw.pop("scenarios", [])]
        return ClassFailureRecord(scenarios=outcomes, **raw)

    def to_dict(self, include_records: bool = True) -> Dict:
        data = asdict(self)
        data.pop("records", None)
        if include_records:
            data["records"] = self.records_payload()
        data.update(self.envelope_dict())
        data["aggregate"] = {
            "incremental_seconds": self.incremental_seconds,
            "scratch_seconds": self.scratch_seconds,
            "incremental_speedup": self.incremental_speedup,
            "incremental_all_match": self.incremental_all_match(),
            "soundness": self.soundness_counts(),
            "first_failing_scenario": self.first_failing_scenario(),
            "property_failure_counts": self.property_failure_counts(),
        }
        if "reachability" in self.properties:
            data["aggregate"]["k_resilience"] = self.k_resilience()
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict) -> "FailureReport":
        payload = cls.strip_envelope(data)
        payload.pop("aggregate", None)
        records = [
            cls.record_from_payload(raw) for raw in payload.pop("records", [])
        ]
        return cls(records=records, **payload)

    @classmethod
    def from_json(cls, text: str) -> "FailureReport":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def summary_lines(self) -> List[str]:
        lines = [
            f"network: {self.network_name}",
            f"executor: {self.executor} (workers={self.workers})",
            f"scenarios: {self.num_scenarios} (k={self.k}) "
            f"x {self.num_classes} classes",
            f"properties: {', '.join(self.properties)}",
        ]
        if self.oracle:
            speedup = self.incremental_speedup
            lines.append(
                f"incremental re-solve: {self.incremental_seconds:.3f}s vs "
                f"scratch {self.scratch_seconds:.3f}s"
                + (f" ({speedup:.2f}x)" if speedup is not None else "")
            )
            lines.append(
                "incremental labelings IDENTICAL to the scratch oracle"
                if self.incremental_all_match()
                else f"INCREMENTAL DIVERGED: {self.incremental_divergences()}"
            )
        if self.soundness:
            counts = self.soundness_counts()
            lines.append(
                f"abstraction soundness: {counts['sound']}/{counts['checked']} "
                f"scenarios representable by the baseline abstraction, "
                f"{counts['recompressed']} re-compressed, "
                f"{counts['disagreed']} verdict disagreements"
            )
        first = self.first_failing_scenario()
        for prop in self.properties:
            scenario = first.get(prop)
            lines.append(
                f"  {prop}: "
                + ("survives every scenario" if scenario is None else f"first broken by {scenario}")
            )
        if "reachability" in self.properties:
            resilience = self.k_resilience()
            resilient = sum(
                len(entry["resilient"]) for entry in resilience["per_class"].values()
            )
            fragile = sum(
                len(entry["fragile"]) for entry in resilience["per_class"].values()
            )
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
def failure_class_task(bonsai, equivalence_class: EquivalenceClass, options: dict):
    """Run every failure scenario against one equivalence class."""
    suite = PropertySuite.from_options(options)
    scenarios = [
        FailureScenario.from_dict(raw) for raw in options.get("scenarios", [])
    ]
    oracle = bool(options.get("oracle", True))
    soundness_on = bool(options.get("soundness", True))
    recompress_fallback = bool(options.get("recompress_fallback", True))
    max_rounds = int(options.get("max_rounds", 1000))

    network: Network = bonsai.network
    prefix = equivalence_class.prefix
    origins = set(equivalence_class.origins)
    specs = suite.specs()
    nodes = sorted(network.graph.nodes, key=str)
    node_names = [str(n) for n in nodes]
    path_bound = (
        suite.path_bound if suite.path_bound is not None else network.graph.num_nodes()
    )
    waypoints = (
        frozenset(suite.waypoints)
        if suite.waypoints is not None
        else frozenset(str(origin) for origin in origins)
    )

    # -- failure-free baseline -------------------------------------------
    baseline_start = time.perf_counter()
    compiled = bonsai.compile_for(prefix)
    baseline_srp = build_srp_from_network(
        network, prefix, origins, compiled=compiled, include_syntactic_keys=False
    )
    baseline_solution = solve(baseline_srp)
    baseline_table = forwarding_table_from_solution(
        network, baseline_solution, equivalence_class
    )
    baseline_verdicts = evaluate_suite(
        specs, baseline_table, nodes, waypoints, path_bound
    )
    baseline_seconds = time.perf_counter() - baseline_start

    compression = None
    compression_seconds = 0.0
    if soundness_on:
        compression = bonsai.compress(equivalence_class, build_network=True)
        compression_seconds = compression.compression_seconds

    # One bounded transfer memo shared by every scenario's incremental
    # re-solve, seeded once from the baseline; scratch oracle runs stay
    # cold on purpose (they are the "what a fresh solve costs" yardstick).
    # The forwarding index likewise amortises taint queries per class.
    shared_cache = TransferCache().seeded_from(baseline_solution.transfer_cache)
    baseline_index = BaselineIndex.from_solution(baseline_solution)

    outcomes: List[ScenarioOutcome] = []
    for scenario in scenarios:
        # One span per scenario -- and deliberately nothing around the
        # class baseline above: split shard chunks re-pay the baseline
        # per chunk, and the chunk-merged trace must reproduce the
        # serial tree span for span.  Scenarios are pre-sliced per
        # chunk, so their spans concatenate back in scenario order.
        with trace.span("scenario", name=scenario.name):
            outcomes.append(
                _run_scenario(
                    bonsai,
                    scenario,
                    network,
                    equivalence_class,
                    compiled,
                    baseline_solution,
                    baseline_verdicts,
                    compression,
                    specs,
                    waypoints,
                    path_bound,
                    node_names,
                    shared_cache,
                    baseline_index,
                    oracle=oracle,
                    soundness_on=soundness_on,
                    recompress_fallback=recompress_fallback,
                    max_rounds=max_rounds,
                )
            )

    return ClassFailureRecord(
        prefix=str(prefix),
        origins=sorted(str(origin) for origin in origins),
        baseline_seconds=baseline_seconds,
        compression_seconds=compression_seconds,
        baseline_failing={
            prop: [n for n in node_names if not per_node[n]]
            for prop, per_node in baseline_verdicts.items()
        },
        nodes=list(node_names),
        scenarios=outcomes,
    )


def _run_scenario(
    bonsai,
    scenario: FailureScenario,
    network: Network,
    equivalence_class: EquivalenceClass,
    compiled,
    baseline_solution,
    baseline_verdicts: VerdictMap,
    compression,
    specs,
    waypoints,
    path_bound: int,
    node_names,
    shared_cache: TransferCache,
    baseline_index: BaselineIndex,
    *,
    oracle: bool,
    soundness_on: bool,
    recompress_fallback: bool,
    max_rounds: int,
) -> ScenarioOutcome:
    prefix = equivalence_class.prefix
    outcome = ScenarioOutcome(
        scenario=scenario.name,
        failed_links=[f"{u}|{v}" for u, v in sorted(scenario.links)],
        failed_nodes=sorted(scenario.nodes),
    )
    surviving_origins = {
        origin
        for origin in equivalence_class.origins
        if str(origin) not in scenario.nodes
    }
    failed_network = scenario.apply(network)
    surviving = [n for n in node_names if n not in scenario.nodes]

    if not surviving_origins:
        # Nothing originates the class any more: no control plane to
        # solve, and every property trivially fails everywhere.
        outcome.unroutable = True
        empty = ForwardingTable(
            destination=prefix,
            origins=set(),
            next_hops={node: set() for node in failed_network.graph.nodes},
        )
        verdicts = evaluate_suite(
            specs, empty, failed_network.graph.nodes, waypoints, path_bound
        )
        outcome.newly_failing, outcome.newly_passing = verdict_delta(
            baseline_verdicts, verdicts, surviving
        )
        return outcome

    removed = scenario.directed_edges(network.graph)
    compiled_failed = {
        edge: info for edge, info in compiled.items() if edge not in removed
    }
    failed_ec = EquivalenceClass(
        prefix=prefix, origins=frozenset(surviving_origins)
    )
    origins_changed = surviving_origins != set(equivalence_class.origins)

    def build_failed_srp():
        return build_srp_from_network(
            failed_network,
            prefix,
            set(surviving_origins),
            compiled=compiled_failed,
            include_syntactic_keys=False,
        )

    scratch_solution = None
    if oracle or origins_changed:
        scratch_srp = build_failed_srp()
        scratch_start = time.perf_counter()
        scratch_solution = solve(scratch_srp, max_rounds=max_rounds)
        outcome.scratch_seconds = time.perf_counter() - scratch_start

    if origins_changed:
        # The SRP's destination structure (virtual node, initial edges)
        # changed with the origin set; the baseline labeling does not line
        # up node-for-node, so the scratch result stands.
        solution = scratch_solution
    else:
        incremental_srp = build_failed_srp()
        result = incremental_resolve(
            incremental_srp,
            baseline_solution,
            removed,
            frozenset(scenario.nodes),
            transfer_cache=shared_cache,
            index=baseline_index,
            max_rounds=max_rounds,
        )
        solution = result.solution
        outcome.incremental_used = result.incremental_used
        outcome.incremental_seconds = result.seconds
        outcome.tainted = len(result.tainted)
        outcome.dirty = result.dirty_count
        if scratch_solution is not None:
            matches = solution.labeling == scratch_solution.labeling
            outcome.incremental_matches_scratch = matches
            if not matches:
                outcome.divergent = [
                    str(n) for n in divergent_nodes(solution, scratch_solution)
                ]

    table = forwarding_table_from_solution(failed_network, solution, failed_ec)
    scenario_waypoints = frozenset(w for w in waypoints if w not in scenario.nodes)
    verdicts = evaluate_suite(
        specs, table, failed_network.graph.nodes, scenario_waypoints, path_bound
    )
    outcome.newly_failing, outcome.newly_passing = verdict_delta(
        baseline_verdicts, verdicts, surviving
    )
    if outcome.newly_failing:
        context = PropertyContext(
            table=table, waypoints=scenario_waypoints, path_bound=path_bound
        )
        for spec in specs:
            broken = outcome.newly_failing.get(spec.name)
            if broken:
                witness = failure_witness(spec, context, broken[0])
                if witness is not None:
                    outcome.witnesses[spec.name] = witness

    if soundness_on and compression is not None:
        sound = check_scenario_soundness(
            bonsai,
            compression,
            scenario,
            failed_network,
            failed_ec,
            verdicts,
            specs,
            scenario_waypoints,
            path_bound,
            recompress_fallback=recompress_fallback,
        )
        outcome.sound_under_failure = sound.sound_under_failure
        outcome.soundness = sound.to_dict()
    return outcome


register_class_task("failures", "repro.failures.sweep:failure_class_task")


# ----------------------------------------------------------------------
# The sweep driver
# ----------------------------------------------------------------------
class FailureSweep:
    """Run a failure sweep over every destination equivalence class.

    Parameters mirror :class:`~repro.pipeline.core.ClassFanOut`
    (``executor`` / ``workers`` / ``batch_size`` / ``limit`` /
    ``use_bdds`` / ``artifact``), plus:

    k:
        Enumerate all scenarios of at most ``k`` simultaneous failures.
    scenarios:
        An explicit scenario list (overrides enumeration).
    sample:
        Deterministically sample this many scenarios instead of
        enumerating (seeded by ``seed``).
    include_nodes:
        Also enumerate node failures (default: links only).
    suite:
        The :class:`~repro.analysis.batch.PropertySuite` to evaluate
        (default: the full registered catalogue).
    oracle:
        Also scratch-solve every scenario and compare labelings
        (default True -- this is the incremental solver's soundness gate
        and the source of the reported speedup).
    soundness:
        Run the per-scenario abstraction-soundness checker (default True).
    """

    def __init__(
        self,
        network: Optional[Network] = None,
        *,
        artifact: Optional[EncodedNetwork] = None,
        k: int = 1,
        scenarios: Optional[Sequence[FailureScenario]] = None,
        sample: Optional[int] = None,
        seed: int = 0,
        include_nodes: bool = False,
        suite: Optional[PropertySuite] = None,
        oracle: bool = True,
        soundness: bool = True,
        recompress_fallback: bool = True,
        executor: str = "serial",
        workers: int = 4,
        batch_size: Optional[int] = None,
        limit: Optional[int] = None,
        use_bdds: bool = True,
        scheduler: str = "stealing",
        cost_store=None,
        unit_costs: Optional[Dict[str, float]] = None,
        spill: bool = False,
        spill_path: Optional[str] = None,
    ):
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        if network is None and artifact is None:
            raise ValueError("either a network or an EncodedNetwork is required")
        self.network = artifact.network if artifact is not None else network
        self.k = k
        if scenarios is None:
            self.exhaustive = sample is None
            scenarios = scenarios_for(
                self.network,
                k=k,
                sample=sample,
                seed=seed,
                include_nodes=include_nodes,
            )
        else:
            self.exhaustive = False
            scenarios = list(scenarios)
            for scenario in scenarios:
                scenario.assert_valid(self.network)
        self.scenarios: List[FailureScenario] = list(scenarios)
        self.suite = suite or PropertySuite.default()
        self.oracle = oracle
        self.soundness = soundness
        self.recompress_fallback = recompress_fallback
        self.executor = executor
        self.workers = workers
        self.spill = spill
        self.spill_path = spill_path
        self._fanout_kwargs = dict(
            artifact=artifact,
            executor=executor,
            workers=workers,
            batch_size=batch_size,
            limit=limit,
            use_bdds=use_bdds,
            scheduler=scheduler,
            cost_store=cost_store,
            unit_costs=unit_costs,
        )

    def run(self) -> FailureReport:
        from repro import obs

        counters_before = obs.snapshot_run()
        start = time.perf_counter()
        options = self.suite.to_options()
        options["scenarios"] = [s.to_dict() for s in self.scenarios]
        options["oracle"] = self.oracle
        options["soundness"] = self.soundness
        options["recompress_fallback"] = self.recompress_fallback
        fanout = ClassFanOut(
            self.network,
            task="failures",
            task_options=options,
            **self._fanout_kwargs,
        )
        artifact, classes = fanout.prepare()
        report = FailureReport(
            network_name=fanout.network.name,
            executor=self.executor,
            workers=1 if self.executor == "serial" else self.workers,
            k=self.k,
            num_classes=len(classes),
            num_scenarios=len(self.scenarios),
            properties=list(self.suite.names),
            path_bound=self.suite.path_bound,
            oracle=self.oracle,
            soundness=self.soundness,
            encode_seconds=artifact.encode_seconds,
            total_seconds=0.0,
            scenario_names=[s.name for s in self.scenarios],
            exhaustive=self.exhaustive,
        )
        if self.spill:
            from repro.pipeline.stream import RecordSpill

            report.attach_spill(RecordSpill(self.spill_path))

        # Records merge into the report as they stream off the pool (in
        # class order at merge time, whatever order the scheduler
        # completed them in) instead of collecting the whole sweep first.
        def on_result(index: int, record: ClassFailureRecord, seconds: float) -> None:
            report.merge_partial(index, record)

        fanout.execute(on_result=on_result, collect=False)
        report.total_seconds = time.perf_counter() - start
        obs.finish_run(report, counters_before)
        return report


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
