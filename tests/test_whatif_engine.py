"""Tests for the one what-if engine (`repro.delta.engine`) behind both
failure sweeps (independent steps) and change sweeps (chained steps),
and for the timing-free report oracle pinned in ``tests/fixtures``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config.transfer import build_srp_from_network
from repro.delta import DeltaSweep, EdgeDiff, delta_resolve
from repro.failures import FailureSweep, incremental_resolve, link_scenario
from repro.netgen.changes import generated_change_script
from repro.netgen.families import build_topology
from repro.pipeline.cli import main as pipeline_main
from repro.pipeline.encoded import EncodedNetwork
from repro.srp.solver import TransferCache, solve

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


def _without_execution(data):
    """Drop the fields naming how the sweep ran (executor, pool size)."""
    return {key: value for key, value in data.items() if key not in ("executor", "workers")}


@pytest.mark.parametrize(
    "execution",
    [
        ["--executor", "serial"],
        # ring(5) has 5 classes, fewer than two per worker.
        ["--executor", "process", "--workers", "4"],
    ],
    ids=["serial", "process4"],
)
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
def test_report_matches_pinned_oracle(tmp_path, capsys, argv, fixture, execution):
    """The whole timing-free JSON report -- records, witnesses, soundness
    and revalidation outcomes, aggregates -- equals the pinned one, on
    either executor."""
    out = tmp_path / "report.json"
    assert pipeline_main([*argv, *execution, "--output", str(out)]) == 0
    expected = json.loads((FIXTURES / fixture).read_text())
    actual = _timing_free(json.loads(out.read_text()))
    if execution[1] == "serial":
        assert actual == expected
    else:
        assert actual["executor"] == "process" and actual["workers"] == 4
        assert _without_execution(actual) == _without_execution(expected)


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


@pytest.mark.parametrize("mode", ["failures", "delta"])
def test_process_records_match_serial_with_few_classes(mode):
    """Fewer classes than workers: each class runs whole in one worker,
    and the records equal the serial sweep's, abstraction checks on."""
    network = build_topology("fattree", 4)
    if mode == "failures":
        sweep, kwargs = FailureSweep, dict(k=1, limit=2)
    else:
        script = generated_change_script(network, "fattree")
        sweep, kwargs = DeltaSweep, dict(script=script, limit=2)
    serial = sweep(network, executor="serial", **kwargs).run()
    pooled = sweep(network, executor="process", workers=4, **kwargs).run()
    assert pooled.canonical_records() == serial.canonical_records()
    assert pooled.ok()
