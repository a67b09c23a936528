"""Failure-scenario analysis: k-failure sweeps over compressed networks.

Failure sweeps are the *independent-steps* mode of the what-if engine
(:mod:`repro.delta.engine`): link/node failures are first-class scenarios,
each failed control plane is re-solved *incrementally* from the
failure-free baseline, and each scenario checks whether Bonsai's
abstraction is still sound once the topology loses edges (the paper's
stated limitation).  This package holds what is particular to failures:
scenarios, their re-solve entry point, the soundness checker and report.
"""

from repro.failures.incremental import incremental_resolve, tainted_nodes
from repro.failures.scenario import (
    FailureScenario,
    ScenarioError,
    canonical_link,
    enumerate_link_failures,
    link_scenario,
    node_scenario,
    points_of_interest,
    sample_link_failures,
    scenarios_for,
    undirected_links,
)
from repro.failures.soundness import (
    SoundnessOutcome,
    abstract_scenario_for,
    check_scenario_soundness,
)
from repro.failures.sweep import (
    ClassFailureRecord,
    FailureReport,
    FailureSweep,
    ScenarioOutcome,
    failure_class_task,
    sweep_network,
)

__all__ = [
    "FailureScenario",
    "ScenarioError",
    "canonical_link",
    "enumerate_link_failures",
    "sample_link_failures",
    "scenarios_for",
    "link_scenario",
    "node_scenario",
    "points_of_interest",
    "undirected_links",
    "incremental_resolve",
    "tainted_nodes",
    "SoundnessOutcome",
    "abstract_scenario_for",
    "check_scenario_soundness",
    "FailureSweep",
    "FailureReport",
    "ClassFailureRecord",
    "ScenarioOutcome",
    "failure_class_task",
    "sweep_network",
]
