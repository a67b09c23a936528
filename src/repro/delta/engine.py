"""The what-if engine: perturb, re-solve seeded, re-check, diff verdicts.

Failure sweeps (:mod:`repro.failures`) and change sweeps
(:mod:`repro.delta`) ask every destination class one question: after this
perturbation, which property verdicts change, and does the baseline
Bonsai abstraction still answer them correctly?  This module answers it
for both.  Per class it solves the unperturbed baseline -- or, given a
stored :class:`~repro.store.BaselineArtifact`, validates the stored
labeling with a zero-dirty seeded solve and takes the stored compression
-- and then, per step, derives the perturbed network and the class on it
(a step leaving no origin is *unroutable*: nothing is solved and every
property fails everywhere), scratch-solves it as the oracle, re-solves it
seeded through :mod:`repro.delta.incremental`, diffs the verdicts against
the baseline (one witness per newly broken property) and re-checks the
abstraction.

The step type picks the mode (a :class:`StepMode`):

* **independent** steps (:class:`~repro.failures.scenario.FailureScenario`)
  each start from the class baseline; a step's diff is exactly the
  scenario's directed edges and nodes, and its abstraction check is
  :func:`~repro.failures.soundness.check_scenario_soundness`;
* **chained** steps (:class:`~repro.delta.changeset.ChangeSet`) each seed
  from the previous step's solution through a policy-key edge diff, and
  their abstraction check is :func:`~repro.delta.revalidate.revalidate_class`.

The records, the report aggregates and wire format
(:class:`WhatIfReport`) and the sweep driver (:class:`WhatIfSweep`) are
shared the same way.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import ClassVar, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.abstraction.ec import EquivalenceClass
from repro.analysis.batch import PropertySuite
from repro.analysis.dataplane import ForwardingTable, forwarding_table_from_solution
from repro.analysis.properties import (
    PropertyContext,
    evaluate_suite,
    failure_witness,
    verdict_delta,
)
from repro.config.network import Network
from repro.config.transfer import build_srp_from_network
from repro.delta.incremental import EdgeDiff, divergent_nodes
from repro.obs import trace
from repro.pipeline.core import EXECUTORS, ClassFanOut
from repro.pipeline.encoded import EncodedNetwork
from repro.reporting import ReportEnvelope, StreamingReport
from repro.srp.solver import ConvergenceError, TransferCache, solve, solve_seeded

#: Sort position of a step name missing from the report's step list.
_UNKNOWN_STEP = 1 << 30


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass
class WhatIfOutcome:
    """What both modes record for one (class, step) pair.  Subclasses add
    the step's name field (named by ``NAME``) and the wire form of their
    abstraction check (named by ``CHECK``)."""

    NAME: ClassVar[str] = ""
    CHECK: ClassVar[str] = ""

    #: No device originates the class any more after this step.
    unroutable: bool = False
    #: Whether the seeded path produced the solution (False when the
    #: origin set changed, the seed failed, or the step was unroutable).
    incremental_used: bool = False
    #: Incremental labeling is identical to the scratch oracle's (``None``
    #: when the oracle was skipped or incremental did not run).
    incremental_matches_scratch: Optional[bool] = None
    divergent: List[str] = field(default_factory=list)
    incremental_seconds: float = 0.0
    scratch_seconds: float = 0.0
    tainted: int = 0
    dirty: int = 0
    #: Per-property verdict delta vs. the unperturbed baseline.
    newly_failing: Dict[str, List[str]] = field(default_factory=dict)
    newly_passing: Dict[str, List[str]] = field(default_factory=dict)
    #: One structured counterexample per newly broken property.
    witnesses: Dict[str, Dict] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return getattr(self, self.NAME)

    def abstract_check(self) -> Optional[Dict]:
        """The abstraction check's wire form (``None`` when it did not run)."""
        return getattr(self, self.CHECK)

    def abstract_agrees(self) -> Optional[bool]:
        check = self.abstract_check()
        return None if check is None else check.get("agrees")


@dataclass
class WhatIfRecord:
    """All step outcomes of one class; subclasses name the outcome list
    (``OUTCOMES``) and its element type (``OUTCOME_CLS``)."""

    OUTCOMES: ClassVar[str] = ""
    OUTCOME_CLS: ClassVar[type] = WhatIfOutcome

    prefix: str
    origins: List[str]
    baseline_seconds: float
    compression_seconds: float
    baseline_failing: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def outcomes(self) -> list:
        return getattr(self, self.OUTCOMES)

    def canonical(self) -> Tuple:
        return (
            self.prefix,
            tuple(self.origins),
            tuple(sorted((k, tuple(v)) for k, v in self.baseline_failing.items())),
            tuple(outcome.canonical() for outcome in self.outcomes),
        )


class WhatIfReport(StreamingReport, ReportEnvelope):
    """Aggregates, wire format and summary shared by both sweep reports.

    Subclasses are dataclasses holding ``records``, ``properties``,
    ``oracle``, the step names (field ``NAMES``) and the check-ran flag
    (field ``CHECK_ON``); they set ``RECORD_CLS``, ``CHECK_PASSED`` (the
    check's pass flag and its name in :meth:`check_counts`) and the
    summary templates, and define ``incremental_speedup``.
    """

    RECORD_CLS: ClassVar[type] = WhatIfRecord
    NAMES: ClassVar[str] = ""
    CHECK_ON: ClassVar[str] = ""
    CHECK_PASSED: ClassVar[Tuple[str, str]] = ("", "")
    #: Summary templates: the sweep size (formatted with the report's
    #: fields), the timing line (``inc``, ``scratch``), the speedup suffix
    #: and the check line (formatted with :meth:`check_counts`).
    SUMMARY_SIZE: ClassVar[str] = ""
    SUMMARY_TIMING: ClassVar[str] = ""
    SUMMARY_SPEEDUP: ClassVar[str] = ""
    SUMMARY_CHECK: ClassVar[str] = ""
    #: The noun for one step in summary lines.
    STEP_NOUN: ClassVar[str] = "step"

    def _outcomes(self):
        for record in self.iter_records():
            for outcome in record.outcomes:
                yield record, outcome

    def _step_order(self) -> Dict[str, int]:
        return {name: index for index, name in enumerate(getattr(self, self.NAMES))}

    @property
    def incremental_seconds(self) -> float:
        return sum(o.incremental_seconds for _, o in self._outcomes())

    @property
    def scratch_seconds(self) -> float:
        return sum(o.scratch_seconds for _, o in self._outcomes())

    def incremental_all_match(self) -> bool:
        """Every compared step re-solved bit-identically to scratch."""
        return all(
            o.incremental_matches_scratch is not False for _, o in self._outcomes()
        )

    def incremental_divergences(self) -> List[Tuple[str, str, List[str]]]:
        return [
            (record.prefix, outcome.name, list(outcome.divergent))
            for record, outcome in self._outcomes()
            if outcome.incremental_matches_scratch is False
        ]

    def abstract_disagreements(self) -> List[Tuple[str, str, Dict]]:
        """``(prefix, step, check)`` wherever abstract verdicts disagreed."""
        return [
            (record.prefix, outcome.name, dict(outcome.abstract_check() or {}))
            for record, outcome in self._outcomes()
            if outcome.abstract_agrees() is False
        ]

    def _first_steps(self, pairs) -> Dict[object, str]:
        """``key -> earliest step`` (sweep order) over ``(key, step)`` pairs."""
        order = self._step_order()
        first: Dict[object, str] = {}
        for key, step in pairs:
            current = first.get(key)
            if current is None or order.get(step, _UNKNOWN_STEP) < order.get(
                current, _UNKNOWN_STEP
            ):
                first[key] = step
        return first

    def first_breaking_step(self) -> Dict[str, Optional[str]]:
        """Per property: the first step (sweep order) breaking it anywhere."""
        first: Dict[str, Optional[str]] = {name: None for name in self.properties}
        first.update(
            self._first_steps(
                (prop, outcome.name)
                for _, outcome in self._outcomes()
                for prop, nodes in outcome.newly_failing.items()
                if nodes
            )
        )
        return first

    def property_break_counts(self) -> Dict[str, int]:
        """Per property: how many (class, step) pairs newly break it."""
        counts = {name: 0 for name in self.properties}
        for _, outcome in self._outcomes():
            for prop, nodes in outcome.newly_failing.items():
                if nodes:
                    counts[prop] = counts.get(prop, 0) + 1
        return counts

    def check_counts(self) -> Dict[str, int]:
        """How (class, step) pairs fared against the baseline abstraction."""
        flag, label = self.CHECK_PASSED
        counts = {"checked": 0, label: 0, "recompressed": 0, "disagreed": 0}
        for _, outcome in self._outcomes():
            check = outcome.abstract_check()
            if check is None:
                continue
            counts["checked"] += 1
            counts[label] += bool(check.get(flag))
            counts["recompressed"] += bool(check.get("recompressed"))
            counts["disagreed"] += check.get("agrees") is False
        return counts

    def ok(self) -> bool:
        """The sweep-level gate: no divergence, no abstract disagreement."""
        return self.incremental_all_match() and not self.abstract_disagreements()

    def canonical_records(self) -> Tuple[Tuple, ...]:
        return tuple(
            record.canonical()
            for record in sorted(self.iter_records(), key=lambda r: r.prefix)
        )

    @classmethod
    def record_from_payload(cls, payload: Dict) -> WhatIfRecord:
        raw = dict(payload)
        record_cls = cls.RECORD_CLS
        outcomes = [
            record_cls.OUTCOME_CLS(**outcome)
            for outcome in raw.pop(record_cls.OUTCOMES, [])
        ]
        return record_cls(**{record_cls.OUTCOMES: outcomes}, **raw)

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
            **self.aggregate_extras(),
        }
        return data

    def summary_lines(self) -> List[str]:
        lines = [
            f"network: {self.network_name}",
            f"executor: {self.executor} (workers={self.workers})",
            self.SUMMARY_SIZE.format(**vars(self)),
            f"properties: {', '.join(self.properties)}",
        ]
        if self.oracle:
            speedup = self.incremental_speedup
            lines.append(
                self.SUMMARY_TIMING.format(
                    inc=self.incremental_seconds, scratch=self.scratch_seconds
                )
                + ("" if speedup is None else self.SUMMARY_SPEEDUP.format(speedup))
            )
            lines.append(
                "incremental labelings IDENTICAL to the scratch oracle"
                if self.incremental_all_match()
                else f"INCREMENTAL DIVERGED: {self.incremental_divergences()}"
            )
        if getattr(self, self.CHECK_ON):
            counts = self.check_counts()
            lines.append(
                self.SUMMARY_CHECK.format(**counts)
                + f", {counts['recompressed']} re-compressed, "
                f"{counts['disagreed']} verdict disagreements"
            )
        first = self.first_breaking_step()
        for prop in self.properties:
            step = first.get(prop)
            verdict = (
                f"survives every {self.STEP_NOUN}" if step is None else f"first broken by {step}"
            )
            lines.append(f"  {prop}: {verdict}")
        return lines


# ----------------------------------------------------------------------
# The per-class step loop (runs inside pipeline workers)
# ----------------------------------------------------------------------
@dataclass
class StepView:
    """One step's perturbed network and the class to simulate on it."""

    network: Network
    #: The class on the perturbed network (``None``: unroutable).
    equivalence_class: Optional[EquivalenceClass]
    waypoints: FrozenSet[str]
    #: The perturbed network's node names, sorted: the verdict universe.
    surviving: List[str]
    #: Destination-specialized compiled edges for the step's SRP builds.
    compiled: Optional[Dict] = None
    #: The edge diff against the seed.
    diff: Optional[EdgeDiff] = None
    #: The step network's specialized policy keys (chained steps).
    keys: Optional[Dict] = None


class StepMode:
    """The steps of one kind for one class, run by :func:`run_class_steps`.

    The base solves the class baseline and its compression.  Subclasses
    set ``SPAN`` (the per-step trace span), ``CHECK_OPTION`` (the task
    option switching the abstraction check on) and ``RECORD_CLS``, parse
    ``self.steps`` from ``options["steps"]``, and implement
    ``new_outcome(step)``, ``view(index, step, outcome) -> StepView``,
    ``can_seed(view, outcome)``, ``resolve(view, srp, outcome)`` and
    ``check(index, view, verdicts, outcome)``.
    """

    SPAN: ClassVar[str] = "step"
    CHECK_OPTION: ClassVar[str] = ""
    RECORD_CLS: ClassVar[type] = WhatIfRecord

    def __init__(self, bonsai, equivalence_class: EquivalenceClass, options: dict):
        suite = PropertySuite.from_options(options)
        network: Network = bonsai.network
        self.bonsai = bonsai
        self.network = network
        self.equivalence_class = equivalence_class
        self.prefix = prefix = equivalence_class.prefix
        origins = set(equivalence_class.origins)
        self.oracle = bool(options.get("oracle", True))
        self.check_on = bool(options.get(self.CHECK_OPTION, True))
        self.max_rounds = int(options.get("max_rounds", 1000))
        self.specs = suite.specs()
        nodes = sorted(network.graph.nodes, key=str)
        self.node_names = [str(n) for n in nodes]
        self.path_bound = (
            suite.path_bound if suite.path_bound is not None else network.graph.num_nodes()
        )
        self.explicit_waypoints = suite.waypoints is not None
        self.waypoints = (
            frozenset(suite.waypoints)
            if suite.waypoints is not None
            else frozenset(str(origin) for origin in origins)
        )

        # With a stored baseline the labeling comes from the artifact: a
        # zero-dirty seeded solve validates it against the live SRP (the
        # no-update round plus the O(E) stability scan) without a single
        # fixed-point iteration, and the stored transfer memo makes the
        # offer tables pure cache hits.  A bad seed falls back to a
        # scratch solve instead of failing the run.
        stored = (options.get("baseline") or {}).get(str(prefix))
        start = time.perf_counter()
        self.compiled = bonsai.compile_for(prefix)
        srp = build_srp_from_network(
            network, prefix, origins, compiled=self.compiled, include_syntactic_keys=False
        )
        solution = None
        if stored is not None:
            try:
                solution = solve_seeded(
                    srp,
                    stored.labeling,
                    dirty=(),
                    transfer_cache=TransferCache().seeded_from(stored.transfer_memo),
                    max_rounds=self.max_rounds,
                )
            except ConvergenceError:
                stored = None
        if solution is None:
            solution = solve(srp)
        table = forwarding_table_from_solution(network, solution, equivalence_class)
        self.baseline_solution = solution
        self.baseline_verdicts = evaluate_suite(
            self.specs, table, nodes, self.waypoints, self.path_bound
        )
        self.baseline_seconds = time.perf_counter() - start
        self.stored = stored

        self.compression = None
        self.compression_seconds = 0.0
        if not self.check_on:
            return
        if (
            stored is not None
            and stored.compression is not None
            and stored.compression.abstract_network is not None
        ):
            self.compression = stored.compression
        else:
            self.compression = bonsai.compress(equivalence_class, build_network=True)
            self.compression_seconds = self.compression.compression_seconds

    def record_extras(self) -> Dict[str, object]:
        """Mode-specific fields of the class record."""
        return {}

    def advance(self, index: int, view: StepView, solution) -> None:
        """Called after every step with its solution (``None``: unroutable)."""

    def run_step(self, index: int, step):
        outcome = self.new_outcome(step)
        view = self.view(index, step, outcome)
        specs, path_bound = self.specs, self.path_bound
        ec = view.equivalence_class
        if ec is None:
            # Nothing originates the destination any more: no control
            # plane to solve, and every property trivially fails.
            outcome.unroutable = True
            table = ForwardingTable(
                destination=self.prefix,
                origins=set(),
                next_hops={node: set() for node in view.network.graph.nodes},
            )
            solution = None
        else:
            solution = self._solve_step(view, outcome)
            table = forwarding_table_from_solution(view.network, solution, ec)
        verdicts = evaluate_suite(
            specs, table, view.network.graph.nodes, view.waypoints, path_bound
        )
        outcome.newly_failing, outcome.newly_passing = verdict_delta(
            self.baseline_verdicts, verdicts, view.surviving
        )
        if ec is not None and outcome.newly_failing:
            context = PropertyContext(
                table=table, waypoints=view.waypoints, path_bound=path_bound
            )
            for spec in specs:
                broken = outcome.newly_failing.get(spec.name)
                if broken:
                    witness = failure_witness(spec, context, broken[0])
                    if witness is not None:
                        outcome.witnesses[spec.name] = witness
        if ec is not None and self.compression is not None:
            self.check(index, view, verdicts, outcome)
        self.advance(index, view, solution)
        return outcome

    def _solve_step(self, view: StepView, outcome):
        """Scratch oracle and seeded re-solve of one routable step."""
        ec = view.equivalence_class
        can_seed = self.can_seed(view, outcome)

        def build_srp():
            return build_srp_from_network(
                view.network,
                ec.prefix,
                set(ec.origins),
                compiled=view.compiled,
                include_syntactic_keys=False,
            )

        scratch = None
        if self.oracle or not can_seed:
            scratch_srp = build_srp()
            start = time.perf_counter()
            scratch = solve(scratch_srp, max_rounds=self.max_rounds)
            outcome.scratch_seconds = time.perf_counter() - start
        if not can_seed:
            # The SRP's destination structure (virtual node, initial
            # edges) changed with the origin set; the seed does not line
            # up node-for-node, so the scratch result stands.
            return scratch
        result = self.resolve(view, build_srp(), outcome)
        outcome.incremental_used = result.incremental_used
        outcome.incremental_seconds = result.seconds
        outcome.tainted = len(result.tainted)
        outcome.dirty = result.dirty_count
        if scratch is not None:
            matches = result.solution.labeling == scratch.labeling
            outcome.incremental_matches_scratch = matches
            if not matches:
                outcome.divergent = [
                    str(n) for n in divergent_nodes(result.solution, scratch)
                ]
        return result.solution


def run_class_steps(bonsai, equivalence_class: EquivalenceClass, options: dict, mode_cls):
    """Run every step of one class in ``mode_cls``; return its record."""
    mode = mode_cls(bonsai, equivalence_class, options)
    record = mode.RECORD_CLS(
        prefix=str(mode.prefix),
        origins=sorted(str(origin) for origin in equivalence_class.origins),
        baseline_seconds=mode.baseline_seconds,
        compression_seconds=mode.compression_seconds,
        baseline_failing={
            prop: [n for n in mode.node_names if not per_node[n]]
            for prop, per_node in mode.baseline_verdicts.items()
        },
        **mode.record_extras(),
    )
    for index, step in enumerate(mode.steps):
        with trace.span(mode.SPAN, name=step.name):
            record.outcomes.append(mode.run_step(index, step))
    return record


# ----------------------------------------------------------------------
# The sweep driver
# ----------------------------------------------------------------------
class WhatIfSweep:
    """Fan one mode's per-class task out over every destination class.

    ``fanout`` takes the :class:`~repro.pipeline.core.ClassFanOut` knobs
    (``batch_size`` / ``limit`` / ``use_bdds``).  ``baseline`` is a stored
    :class:`~repro.store.BaselineArtifact`: it supplies the encoding and
    every class's labeling, transfer memo and compression, so no class
    re-solves or re-compresses its baseline.  ``oracle`` also
    scratch-solves every step and compares labelings; ``spill`` streams
    records to disk.  Subclasses set ``TASK`` and ``REPORT_CLS``, fill
    ``self.steps`` and supply ``_task_options()`` and ``_report_fields()``.
    """

    TASK: ClassVar[str] = ""
    REPORT_CLS: ClassVar[type] = WhatIfReport

    def __init__(
        self,
        network: Optional[Network] = None,
        *,
        artifact: Optional[EncodedNetwork] = None,
        baseline=None,
        suite: Optional[PropertySuite] = None,
        oracle: bool = True,
        executor: str = "serial",
        workers: int = 4,
        spill: bool = False,
        spill_path: Optional[str] = None,
        **fanout,
    ):
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        if baseline is not None:
            # A network passed alongside must be the artifact's own by
            # content, or the stored labelings would be silently wrong.
            artifact = artifact or baseline.encoded
            if network is not None and network is not baseline.network:
                if not baseline.matches(network):
                    raise ValueError(
                        "stored baseline artifact does not match the network "
                        "(content fingerprints differ); rebuild the artifact"
                    )
        if network is None and artifact is None:
            raise ValueError("either a network or an EncodedNetwork is required")
        self.network = artifact.network if artifact is not None else network
        self.baseline = baseline
        self.steps: Sequence = ()
        self.suite = suite or PropertySuite.default()
        self.oracle = oracle
        self.executor = executor
        self.workers = workers
        self.spill = spill
        self.spill_path = spill_path
        self._fanout_kwargs = dict(
            artifact=artifact, executor=executor, workers=workers, **fanout
        )

    def run(self):
        from repro import obs

        counters_before = obs.snapshot_run()
        start = time.perf_counter()
        options = self.suite.to_options()
        options["steps"] = [step.to_dict() for step in self.steps]
        options["oracle"] = self.oracle
        options.update(self._task_options())
        if self.baseline is not None:
            options["baseline"] = self.baseline.baselines
        fanout = ClassFanOut(
            self.network, task=self.TASK, task_options=options, **self._fanout_kwargs
        )
        artifact, classes = fanout.prepare()
        report = self.REPORT_CLS(
            network_name=fanout.network.name,
            executor=self.executor,
            workers=1 if self.executor == "serial" else self.workers,
            num_classes=len(classes),
            properties=list(self.suite.names),
            path_bound=self.suite.path_bound,
            oracle=self.oracle,
            encode_seconds=artifact.encode_seconds,
            total_seconds=0.0,
            **self._report_fields(),
        )
        if self.spill:
            from repro.pipeline.stream import RecordSpill

            report.attach_spill(RecordSpill(self.spill_path))
        # Records merge into the report, in class order, as they stream off
        # the pool instead of collecting the whole sweep first.
        fanout.execute(
            on_result=lambda index, record, seconds: report.merge_partial(index, record),
            collect=False,
        )
        report.total_seconds = time.perf_counter() - start
        obs.finish_run(report, counters_before)
        return report
