"""What-if change sweeps: change scripts x equivalence classes.

:class:`DeltaSweep` runs the what-if engine (:mod:`repro.delta.engine`) in
its *chained-steps* mode: an **ordered change script** (a list of
:class:`~repro.delta.changeset.ChangeSet` steps, applied cumulatively) is
validated per class, each step's seeded re-solve starting from the
previous step's solution through the compiled-edge diff
(:func:`repro.delta.incremental.delta_resolve`).  The baseline
abstraction is revalidated per step -- reused outright when the class's
refinement signature is unchanged, re-compressed only when dirty
(:func:`repro.delta.revalidate.revalidate_class`) -- and, when it is
reused, a *rebuild arm* (scratch solve plus fresh re-compression) is
timed for the report's incremental-vs-rebuild speedup.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.abstraction.bonsai import Bonsai
from repro.abstraction.ec import EquivalenceClass, routable_equivalence_classes
from repro.analysis.batch import PropertySuite
from repro.config.network import Network
from repro.config.transfer import (
    compile_base_edges,
    specialize_compiled_edges,
    syntactic_policy_keys,
)
from repro.delta.changeset import ChangeSet
from repro.delta.engine import (
    _UNKNOWN_STEP,
    StepMode,
    StepView,
    WhatIfOutcome,
    WhatIfRecord,
    WhatIfReport,
    WhatIfSweep,
    run_class_steps,
)
from repro.delta.incremental import BaselineIndex, delta_resolve, diff_network_edges
from repro.delta.revalidate import class_signature, revalidate_class
from repro.failures.soundness import lifted_abstract_verdicts
from repro.pipeline.core import register_class_task
from repro.reporting import register_report

#: Format version of the JSON delta reports.
DELTA_REPORT_VERSION = 1


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass
class ChangeOutcome(WhatIfOutcome):
    """Everything recorded for one (equivalence class, change step) pair."""

    NAME = "step"
    CHECK = "revalidation"

    step: str = field(kw_only=True)
    changes: List[str] = field(default_factory=list)
    #: The origin set (or destination partition) changed: the SRP's
    #: destination structure no longer lines up with the previous step's,
    #: so the scratch result served the solution.
    origins_changed: bool = False
    #: The destination trie no longer has a class at exactly this prefix.
    partition_changed: bool = False
    edges_removed: int = 0
    edges_added: int = 0
    edges_changed: int = 0
    #: Revalidation verdicts (``None`` when revalidation was off or the
    #: step was unroutable).
    reused: Optional[bool] = None
    recompressed: bool = False
    revalidate_seconds: float = 0.0
    #: Re-compression cost charged to the *incremental* arm (only when the
    #: signature mismatched and the class really was re-compressed).
    recompress_seconds: float = 0.0
    #: Fresh-compression cost of the *rebuild* arm (equals
    #: ``recompress_seconds`` when a re-compression ran; a separately
    #: timed throwaway compression when the abstraction was reused and the
    #: rebuild oracle is on; 0 when unmeasured).
    rebuild_compress_seconds: float = 0.0
    #: Full :class:`~repro.delta.revalidate.RevalidationOutcome` wire form.
    revalidation: Optional[Dict] = None

    def canonical(self) -> Tuple:
        """Timing-free outcome, for executor-parity comparisons."""
        return (
            self.step,
            self.unroutable,
            self.origins_changed,
            self.partition_changed,
            self.incremental_matches_scratch,
            self.reused,
            self.recompressed,
            self.abstract_agrees(),
            tuple(sorted((k, tuple(v)) for k, v in self.newly_failing.items())),
            tuple(sorted((k, tuple(v)) for k, v in self.newly_passing.items())),
        )


@dataclass
class ClassDeltaRecord(WhatIfRecord):
    """All change-step outcomes for one destination equivalence class."""

    OUTCOMES = "steps"
    OUTCOME_CLS = ChangeOutcome

    steps: List[ChangeOutcome] = field(default_factory=list)
    #: True when the baseline labeling (and compression, if revalidating)
    #: came from a stored :class:`~repro.store.BaselineArtifact` instead
    #: of being re-solved in this run.
    baseline_from_store: bool = False


@register_report
@dataclass
class DeltaReport(WhatIfReport):
    """Run-level aggregation of a what-if change sweep."""

    kind = "delta"
    RECORD_CLS = ClassDeltaRecord
    NAMES = "step_names"
    STEP_NOUN = "change"
    CHECK_ON = "revalidate"
    CHECK_PASSED = ("reused", "reused")
    SUMMARY_SIZE = "change script: {num_steps} steps x {num_classes} classes"
    SUMMARY_TIMING = "incremental re-verify: {inc:.3f}s vs scratch solve {scratch:.3f}s"
    SUMMARY_SPEEDUP = " (vs full rebuild: {:.2f}x)"
    SUMMARY_CHECK = (
        "abstraction revalidation: {reused}/{checked} (class, step) pairs "
        "reused the baseline abstraction"
    )

    reuse_counts = WhatIfReport.check_counts
    first_breaking_change = WhatIfReport.first_breaking_step

    network_name: str
    executor: str
    workers: int
    num_classes: int
    num_steps: int
    properties: List[str]
    path_bound: Optional[int]
    oracle: bool
    revalidate: bool
    rebuild_oracle: bool
    encode_seconds: float
    total_seconds: float
    step_names: List[str] = field(default_factory=list)
    records: List[ClassDeltaRecord] = field(default_factory=list)
    #: Content fingerprint of the stored baseline artifact this run
    #: validated against, when one was supplied.
    baseline_fingerprint: Optional[str] = None
    #: Peak resident set of the producing run in MiB, when measured
    #: (``--memory-budget`` runs and the scale benchmark fill this).
    peak_rss_mb: Optional[float] = None
    version: int = DELTA_REPORT_VERSION

    @property
    def incremental_speedup(self) -> Optional[float]:
        """Rebuild-vs-incremental wall-clock ratio over measured steps.

        The incremental arm is what change validation actually pays:
        seeded re-solve plus revalidation (including any per-class
        re-compression the signature check forced).  The rebuild arm is
        what a from-scratch pipeline pays for the same answer: a fresh
        solve plus a fresh compression.  Only (class, step) pairs where
        both arms were measured contribute.
        """
        inc = 0.0
        rebuild = 0.0
        for _, o in self._outcomes():
            if not o.incremental_used or o.scratch_seconds <= 0:
                continue
            if o.rebuild_compress_seconds <= 0:
                continue
            inc += o.incremental_seconds + o.revalidate_seconds + o.recompress_seconds
            rebuild += o.scratch_seconds + o.rebuild_compress_seconds
        if inc <= 0 or rebuild <= 0:
            return None
        return rebuild / inc

    def first_property_broken(self) -> Optional[Tuple[str, str]]:
        """The earliest ``(property, step)`` break of the whole sweep."""
        order = self._step_order()
        breaks = [
            (order.get(step, _UNKNOWN_STEP), index, (prop, step))
            for index, (prop, step) in enumerate(self.first_breaking_change().items())
            if step is not None
        ]
        return min(breaks)[2] if breaks else None

    def aggregate_extras(self) -> Dict[str, object]:
        return {
            "reuse": self.reuse_counts(),
            "first_breaking_change": self.first_breaking_change(),
            "first_property_broken": self.first_property_broken(),
            "property_break_counts": self.property_break_counts(),
        }


# ----------------------------------------------------------------------
# Per-worker script state (shared across the classes one worker handles)
# ----------------------------------------------------------------------
#: Step index standing for the unchanged baseline network in the script
#: state's per-network caches.
_BASELINE_STEP = -1


class _ScriptState:
    """The cumulative changed networks (and per-network caches) of one
    script, cached on the worker's Bonsai so every class the worker
    handles shares the applied networks, each step's policy encoder, the
    destination-independent base compilations and the route-map
    specialization memos."""

    __slots__ = ("key", "steps", "bonsais", "base_compiled", "ignore", "spec_caches", "compiled")

    def __init__(self, key, steps):
        self.key = key
        #: ``[(ChangeSet, changed Network)]``, cumulative.
        self.steps = steps
        #: ``step index -> Bonsai`` over that step's network (lazy).
        self.bonsais: Dict[int, Bonsai] = {}
        #: ``step index -> destination-independent compiled edges``.
        self.base_compiled: Dict[int, Dict] = {}
        #: ``step index -> unused-community set``.
        self.ignore: Dict[int, frozenset] = {}
        #: ``(ignore set, prefix) -> specialize_route_map memo``.  Scoped
        #: per destination-and-ignore pair as the memo contract requires;
        #: steps whose ignore set is unchanged share one memo, so route
        #: maps shared across the copy-on-write step networks are
        #: specialized once for the whole script.
        self.spec_caches: Dict[Tuple[frozenset, object], Dict] = {}
        #: ``step index -> (prefix, specialized compiled edges)``: a
        #: single-entry memo per step (one class runs all its steps back
        #: to back) shared by the SRP builds of both oracle arms and the
        #: policy-key computation.
        self.compiled: Dict[int, Tuple[object, Dict]] = {}

    def bonsai_for(self, step: int, use_bdds: bool) -> Bonsai:
        """The fresh Bonsai over one step's changed network (built lazily)."""
        if step not in self.bonsais:
            self.bonsais[step] = Bonsai(self.steps[step][1], use_bdds=use_bdds)
        return self.bonsais[step]

    def network_for(self, step: int, baseline: Network) -> Network:
        return baseline if step == _BASELINE_STEP else self.steps[step][1]

    def compiled_for(self, step: int, baseline: Network, prefix) -> Dict:
        """The destination-specialized compiled edges of one step's network."""
        cached = self.compiled.get(step)
        if cached is not None and cached[0] == prefix:
            return cached[1]
        network = self.network_for(step, baseline)
        base = self.base_compiled.get(step)
        if base is None:
            base = self.base_compiled[step] = compile_base_edges(network)
        compiled = specialize_compiled_edges(network, prefix, base)
        self.compiled[step] = (prefix, compiled)
        return compiled

    def policy_keys(self, step: int, baseline: Network, prefix) -> Dict:
        """The specialized syntactic policy keys of one step's network.

        Every layer is cached: the base compilation and unused-community
        set per step network, the specialized compilation per (step,
        current class), and the route-map specialization memo per
        (ignore set, destination) -- shared across steps, since the
        copy-on-write views share the unchanged route-map and device
        objects.
        """
        network = self.network_for(step, baseline)
        ignore = self.ignore.get(step)
        if ignore is None:
            ignore = self.ignore[step] = network.unused_communities()
        spec_cache = self.spec_caches.setdefault((ignore, prefix), {})
        return syntactic_policy_keys(
            network,
            prefix,
            self.compiled_for(step, baseline, prefix),
            ignore,
            specialize_cache=spec_cache,
        )


def _script_state(bonsai: Bonsai, script: Sequence[ChangeSet]) -> _ScriptState:
    key = tuple(json.dumps(cs.to_dict(), sort_keys=True) for cs in script)
    state = getattr(bonsai, "_delta_script_state", None)
    if state is None or state.key != key:
        steps = []
        current = bonsai.network
        for changeset in script:
            current = changeset.apply(current)
            steps.append((changeset, current))
        state = _ScriptState(key, steps)
        bonsai._delta_script_state = state
    return state


# ----------------------------------------------------------------------
# The per-class "delta" task (runs inside pipeline workers)
# ----------------------------------------------------------------------
def _class_on(network: Network, prefix) -> Tuple[Optional[EquivalenceClass], bool]:
    """The changed network's class for ``prefix``: ``(class, reshaped)``.

    ``reshaped`` is True when the destination partition no longer has a
    class at exactly this prefix (origination churn refined or merged the
    trie); the most specific overlapping routable class stands in, so the
    swept destination still gets verdicts.
    """
    classes = routable_equivalence_classes(network)
    for candidate in classes:
        if candidate.prefix == prefix:
            return candidate, False
    overlapping = [c for c in classes if c.prefix.overlaps(prefix)]
    if not overlapping:
        return None, True
    return max(overlapping, key=lambda c: c.prefix.length), True


class _ChangeMode(StepMode):
    """Chained steps: each step seeds from the previous step's solution,
    so a ten-step script never re-solves from scratch."""

    SPAN = "step"
    CHECK_OPTION = "revalidate"
    RECORD_CLS = ClassDeltaRecord

    def __init__(self, bonsai, equivalence_class: EquivalenceClass, options: dict):
        super().__init__(bonsai, equivalence_class, options)
        network, prefix = self.network, self.prefix
        self.steps = [ChangeSet.from_dict(raw) for raw in options.get("steps", [])]
        self.rebuild_oracle = bool(options.get("rebuild_oracle", True))
        self.state = _script_state(bonsai, self.steps)
        self.signature = None
        if self.compression is not None:
            if self.stored is not None and self.compression is self.stored.compression:
                self.signature = self.stored.signature
            else:
                self.signature = class_signature(
                    network,
                    prefix,
                    equivalence_class.origins,
                    keys=self.state.policy_keys(_BASELINE_STEP, network, prefix),
                )
        #: Reuse-side lifted verdicts, fixed across steps by a matching
        #: signature; computed at most once per class.
        self.baseline_lifted = None
        # The seed of the next step: the previous step's network, solution
        # and policy keys (the baseline's to begin with).
        self.prev_step = _BASELINE_STEP
        self.prev_network = network
        self.prev_solution = self.baseline_solution
        self.prev_origins = frozenset(str(o) for o in equivalence_class.origins)
        self.prev_prefix = prefix
        self.prev_keys = None
        self.prev_index = BaselineIndex.from_solution(self.baseline_solution)

    def record_extras(self) -> Dict[str, object]:
        return {"baseline_from_store": self.stored is not None}

    def new_outcome(self, changeset: ChangeSet) -> ChangeOutcome:
        return ChangeOutcome(
            step=changeset.name,
            changes=[change.describe() for change in changeset.changes],
        )

    def view(self, index: int, changeset: ChangeSet, outcome) -> StepView:
        changed_network = self.state.steps[index][1]
        changed_ec, outcome.partition_changed = _class_on(changed_network, self.prefix)
        # Default waypoints follow the *changed* class's origins (the batch
        # verifier convention: origin sets are unions of abstraction
        # groups by construction, arbitrary sets need not be); explicit
        # suite waypoints are kept, restricted to surviving devices.
        if not self.explicit_waypoints and changed_ec is not None:
            waypoints = frozenset(str(o) for o in changed_ec.origins)
        else:
            waypoints = frozenset(
                w for w in self.waypoints if changed_network.graph.has_node(w)
            )
        view = StepView(
            network=changed_network,
            equivalence_class=changed_ec,
            waypoints=waypoints,
            # The delta universe is the *changed* network's nodes: devices
            # a change removed drop out, devices it added are included (an
            # added device failing a property is newly failing -- absent
            # baseline nodes default to passing in verdict_delta).
            surviving=sorted(str(n) for n in changed_network.graph.nodes),
        )
        if changed_ec is not None:
            # Both oracle arms and the policy keys share one specialized
            # compilation per (step, class) via the script state.
            view.compiled = self.state.compiled_for(index, self.network, changed_ec.prefix)
            view.keys = self.state.policy_keys(index, self.network, changed_ec.prefix)
        return view

    def can_seed(self, view: StepView, outcome) -> bool:
        ec = view.equivalence_class
        seedable = (
            self.prev_solution is not None
            and ec.prefix == self.prev_prefix
            and frozenset(str(o) for o in ec.origins) == self.prev_origins
        )
        outcome.origins_changed = not seedable
        return seedable

    def resolve(self, view: StepView, srp, outcome):
        sim_prefix = view.equivalence_class.prefix
        if self.prev_keys is None:
            self.prev_keys = self.state.policy_keys(self.prev_step, self.network, sim_prefix)
        view.diff = diff = diff_network_edges(
            self.prev_network,
            view.network,
            sim_prefix,
            old_keys=self.prev_keys,
            new_keys=view.keys,
        )
        outcome.edges_removed = len(diff.removed)
        outcome.edges_added = len(diff.added)
        outcome.edges_changed = len(diff.changed)
        return delta_resolve(
            srp, self.prev_solution, diff, index=self.prev_index, max_rounds=self.max_rounds
        )

    def check(self, index: int, view: StepView, verdicts, outcome) -> None:
        changed_ec = view.equivalence_class
        factory = functools.partial(self.state.bonsai_for, index, self.bonsai.use_bdds)
        reval = revalidate_class(
            self.compression,
            self.signature,
            view.network,
            changed_ec,
            verdicts,
            self.specs,
            view.waypoints,
            self.path_bound,
            recompress_bonsai=factory,
            changed_keys=view.keys,
            baseline_lifted=self.baseline_lifted,
        )
        if reval.reused and self.baseline_lifted is None:
            self.baseline_lifted = reval.lifted
        outcome.reused = reval.reused
        outcome.recompressed = reval.recompressed
        outcome.revalidate_seconds = reval.seconds
        outcome.recompress_seconds = reval.recompress_seconds
        outcome.revalidation = reval.to_dict()
        if reval.recompressed:
            outcome.rebuild_compress_seconds = reval.recompress_seconds
        elif self.rebuild_oracle:
            # The abstraction was reused, so the incremental arm paid no
            # compression.  Time what a full rebuild would have paid for
            # the same answer -- a fresh per-class compression of the
            # changed network plus the abstract re-verification on it
            # (mirroring what the dirty path's ``recompress_seconds``
            # measures) -- for the report's speedup denominator.
            rebuild_start = time.perf_counter()
            rebuilt = factory().compress(changed_ec, build_network=True)
            lifted_abstract_verdicts(
                rebuilt.abstraction, rebuilt.abstract_network, changed_ec,
                self.specs, view.surviving, view.waypoints, self.path_bound,
            )
            outcome.rebuild_compress_seconds = time.perf_counter() - rebuild_start

    def advance(self, index: int, view: StepView, solution) -> None:
        self.prev_step = index
        self.prev_network = view.network
        self.prev_solution = solution
        if solution is None:
            self.prev_keys = self.prev_index = None
            return
        self.prev_origins = frozenset(str(o) for o in view.equivalence_class.origins)
        self.prev_prefix = view.equivalence_class.prefix
        self.prev_keys = view.keys
        self.prev_index = BaselineIndex.from_solution(solution)


def delta_class_task(bonsai, equivalence_class: EquivalenceClass, options: dict):
    """Run every change step against one equivalence class."""
    return run_class_steps(bonsai, equivalence_class, options, _ChangeMode)


register_class_task("delta", "repro.delta.sweep:delta_class_task")


# ----------------------------------------------------------------------
# The sweep driver
# ----------------------------------------------------------------------
class DeltaSweep(WhatIfSweep):
    """Run a change script over every destination equivalence class.

    Parameters are those of :class:`~repro.delta.engine.WhatIfSweep`
    (the fan-out knobs, ``baseline``, ``suite``, ``oracle``, spilling),
    plus:

    script:
        The ordered change script: a sequence of
        :class:`~repro.delta.changeset.ChangeSet` steps applied
        cumulatively.  Every step is validated against the network state
        the previous steps produce before any work is dispatched.
    revalidate:
        Run the per-step abstraction revalidator (default True).
    rebuild_oracle:
        When the abstraction is reused, additionally time a fresh
        per-class compression so the incremental-vs-rebuild speedup has a
        measured denominator (default True; disable for the fastest
        possible smoke runs).
    """

    TASK = "delta"
    REPORT_CLS = DeltaReport

    def __init__(
        self,
        network: Optional[Network] = None,
        *,
        script: Sequence[ChangeSet] = (),
        revalidate: bool = True,
        rebuild_oracle: bool = True,
        **kwargs,
    ):
        super().__init__(network, **kwargs)
        self.script: List[ChangeSet] = list(script)
        if not self.script:
            raise ValueError("a delta sweep needs at least one change step")
        current = self.network
        for changeset in self.script:
            current = changeset.apply(current)  # raises ChangeError when invalid
        self.steps = self.script
        self.revalidate = revalidate
        self.rebuild_oracle = rebuild_oracle

    def _task_options(self) -> Dict[str, object]:
        return {"revalidate": self.revalidate, "rebuild_oracle": self.rebuild_oracle}

    def _report_fields(self) -> Dict[str, object]:
        return {
            "num_steps": len(self.script),
            "revalidate": self.revalidate,
            "rebuild_oracle": self.rebuild_oracle,
            "step_names": [changeset.name for changeset in self.script],
            "baseline_fingerprint": (
                self.baseline.fingerprint if self.baseline is not None else None
            ),
        }


def sweep_changes(
    network: Network,
    script: Sequence[ChangeSet],
    properties: Optional[Sequence[str]] = None,
    **kwargs,
) -> DeltaReport:
    """One-call change-impact sweep (serial by default)."""
    suite = (
        PropertySuite.default()
        if properties is None
        else PropertySuite.from_names(properties)
    )
    return DeltaSweep(network, script=script, suite=suite, **kwargs).run()
