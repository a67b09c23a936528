"""Tests for the one what-if engine (`repro.delta.engine`) behind both
failure sweeps (independent steps) and change sweeps (chained steps),
and for the timing-free report oracle pinned in ``tests/fixtures``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.batch import PropertySuite
from repro.config.transfer import build_srp_from_network
from repro.delta import DeltaSweep, EdgeDiff, delta_class_task, delta_resolve
from repro.failures import (
    FailureSweep,
    enumerate_link_failures,
    failure_class_task,
    incremental_resolve,
    link_scenario,
)
from repro.netgen.changes import generated_change_script
from repro.netgen.families import build_topology
from repro.pipeline.cli import main as pipeline_main
from repro.pipeline.encoded import EncodedNetwork
from repro.srp.solver import COUNTERS, TransferCache, solve

FIXTURES = Path(__file__).parent / "fixtures"


def _timing_free(data):
    """Drop wall-clock and process-measurement keys, recursively."""
    if isinstance(data, dict):
        return {
            key: _timing_free(value)
            for key, value in data.items()
            if "seconds" not in key
            and "speedup" not in key
            and key not in ("obs_metrics", "peak_rss_mb")
        }
    if isinstance(data, list):
        return [_timing_free(value) for value in data]
    return data


@pytest.mark.parametrize(
    "argv, fixture",
    [
        (
            ["failures", "--family", "ring", "--size", "5", "--k", "1", "--fail-nodes"],
            "failures_ring5_k1_nodes.json",
        ),
        (["delta", "--family", "ring", "--size", "5"], "delta_ring5.json"),
    ],
)
def test_report_matches_pinned_oracle(tmp_path, capsys, argv, fixture):
    """The whole timing-free JSON report -- records, witnesses, soundness
    and revalidation outcomes, aggregates -- equals the pinned one."""
    out = tmp_path / "report.json"
    assert pipeline_main([*argv, "--executor", "serial", "--output", str(out)]) == 0
    expected = json.loads((FIXTURES / fixture).read_text())
    assert _timing_free(json.loads(out.read_text())) == expected


def test_incremental_resolve_is_delta_resolve_on_a_removal_diff():
    """A failure re-solve is the change re-solve of a diff holding only
    removed edges and nodes."""
    network = build_topology("ring", 6)
    artifact = EncodedNetwork.build(network)
    equivalence_class = artifact.classes[0]
    prefix, origins = equivalence_class.prefix, set(equivalence_class.origins)
    baseline = solve(build_srp_from_network(network, prefix, origins))
    scenario = link_scenario("r2", "r3")
    failed = scenario.apply(network)
    removed = scenario.directed_edges(network.graph)

    def failed_srp():
        return build_srp_from_network(failed, prefix, origins)

    failure = incremental_resolve(failed_srp(), baseline, removed)
    change = delta_resolve(
        failed_srp(),
        baseline,
        EdgeDiff(removed=removed),
        transfer_cache=TransferCache().seeded_from(baseline.transfer_cache),
    )
    assert failure.solution.labeling == change.solution.labeling
    assert failure.tainted == change.tainted
    assert failure.dirty_count == change.dirty_count
    assert failure.incremental_used and change.incremental_used


def _task_options(steps, **extra):
    options = PropertySuite.default().to_options()
    options.update(steps=[step.to_dict() for step in steps], oracle=False, **extra)
    return options


def test_only_chained_chunks_replay_the_step_before_them():
    """A chunk of independent steps starts from the class baseline; a
    chunk of chained steps scratch-solves the step before it.  Either way
    the chunk's outcomes are the serial run's."""
    network = build_topology("fattree", 4)
    bonsai = EncodedNetwork.build(network).make_bonsai()
    equivalence_class = bonsai.equivalence_classes()[0]
    scenarios = enumerate_link_failures(network, 1)[:4]
    script = generated_change_script(network, "fattree")
    assert len(script) >= 3
    runs = (
        (failure_class_task, _task_options(scenarios, soundness=False), 1),
        (delta_class_task, _task_options(script, revalidate=False), 2),
    )
    for task, options, chunk_solves in runs:
        whole = task(bonsai, equivalence_class, options)
        COUNTERS.reset()
        chunk = task(bonsai, equivalence_class, dict(options, step_range=[2, 4]))
        # Baseline solve, plus the replay of step 1 for chained steps.
        assert COUNTERS.snapshot()["scratch_solves"] == chunk_solves
        assert [o.canonical() for o in chunk.outcomes] == [
            o.canonical() for o in whole.outcomes[2:4]
        ]


@pytest.mark.parametrize("mode", ["failures", "delta"])
def test_split_units_match_serial_records(mode):
    """Few classes and many workers split each class into step ranges;
    the merged records equal the serial sweep's, abstraction checks on."""
    network = build_topology("fattree", 4)
    if mode == "failures":
        sweep, kwargs = FailureSweep, dict(k=1, limit=2)
    else:
        script = generated_change_script(network, "fattree")
        sweep, kwargs = DeltaSweep, dict(script=script, limit=2)
    serial = sweep(network, executor="serial", **kwargs).run()
    split = sweep(network, executor="process", workers=4, **kwargs).run()
    assert split.canonical_records() == serial.canonical_records()
    assert split.ok()
