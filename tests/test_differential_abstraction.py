"""The paper's soundness theorem as an executable oracle.

For every generated topology family and every registered property, the
abstract (Bonsai-compressed) network's verdict must equal the concrete
network's verdict on every node (§4.4: CP-equivalence preserves
reachability, path lengths, loops, black holes, waypointing and multipath
consistency).  The :class:`~repro.analysis.batch.BatchVerifier` computes
both sides per destination equivalence class; these tests assert the
differential result node by node, and additionally that abstract
counterexamples lift back through the abstraction mapping to real
concrete devices.
"""

from __future__ import annotations

import pytest

from repro.abstraction import Bonsai, routable_equivalence_classes
from repro.analysis import (
    BatchVerifier,
    PropertySuite,
    lift_counterexample,
    registered_properties,
)
from repro.analysis.properties import Counterexample
from repro.config import Prefix
from repro.netgen import fattree_network
from repro.netgen.families import TOPOLOGY_FAMILIES, build_topology, default_size
from repro.pipeline import EncodedNetwork

FAMILIES = sorted(TOPOLOGY_FAMILIES)
PROPERTIES = registered_properties()


@pytest.fixture(scope="module")
def family_reports():
    """One serial differential run per family at its default (small) size."""
    reports = {}
    for family in FAMILIES:
        network = build_topology(family, default_size(family))
        reports[family] = BatchVerifier(network, executor="serial").run()
    return reports


class TestSoundnessOracle:
    @pytest.mark.parametrize("prop", PROPERTIES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_abstract_verdict_equals_concrete_verdict(
        self, family_reports, family, prop
    ):
        report = family_reports[family]
        assert report.records, f"no equivalence classes verified for {family}"
        for record in report.records:
            verdict = next(v for v in record.verdicts if v.property == prop)
            assert verdict.nodes_checked > 0
            assert verdict.mismatched == [], (
                f"{family} {record.prefix} {prop}: abstract and concrete "
                f"verdicts diverge on {verdict.mismatched}"
            )
            # Divergence-free means the failing node sets coincide exactly.
            assert verdict.concrete_failing == verdict.abstract_failing

    @pytest.mark.parametrize("family", FAMILIES)
    def test_report_level_agreement(self, family_reports, family):
        report = family_reports[family]
        assert report.verdicts_agree()
        assert report.mismatches() == []
        assert set(report.properties) == set(PROPERTIES)
        assert report.num_classes == len(report.records)

    def test_case_split_network_verdicts_agree(self):
        """BGP case splitting (multiple local-prefs) survives the oracle:
        verdicts are lifted over every copy with the property's quantifier."""
        network = fattree_network(4, policy="prefer_bottom")
        report = BatchVerifier(network, executor="serial").run()
        assert report.verdicts_agree()


class TestBrokenNetworkDifferential:
    """A network with a real violation: both sides must report it."""

    @pytest.fixture()
    def report(self, broken_acl_network):
        return BatchVerifier(broken_acl_network, executor="serial").run()

    def _verdict(self, report, prefix, prop):
        record = next(r for r in report.records if r.prefix == prefix)
        return next(v for v in record.verdicts if v.property == prop)

    def test_black_hole_fails_on_both_sides(self, report):
        verdict = self._verdict(report, "10.0.1.0/24", "black-hole-freedom")
        assert verdict.concrete_failing  # the violation is real...
        assert verdict.concrete_failing == verdict.abstract_failing
        assert verdict.mismatched == []  # ...and preserved, not masked

    def test_multipath_divergence_fails_on_both_sides(self, report):
        verdict = self._verdict(report, "10.0.1.0/24", "multipath-consistency")
        assert "x" in verdict.concrete_failing
        assert verdict.concrete_failing == verdict.abstract_failing

    def test_healthy_destination_passes_on_both_sides(self, report):
        for prop in PROPERTIES:
            verdict = self._verdict(report, "10.0.2.0/24", prop)
            assert verdict.concrete_failing == []
            assert verdict.abstract_failing == []

    def test_counterexamples_lift_to_concrete_devices(self, report):
        """Abstract witnesses must name abstract nodes whose concrete
        members include the concrete witness (counterexample lifting)."""
        verdict = self._verdict(report, "10.0.1.0/24", "black-hole-freedom")
        assert verdict.counterexamples
        for entry in verdict.counterexamples:
            concrete = entry["concrete"]
            abstract = entry["abstract"]
            assert concrete is not None and abstract is not None
            candidates = abstract["concrete_candidates"]
            assert candidates, "abstract witness mentions no nodes"
            assert all(members for members in candidates.values())
            # The concrete offending device is represented somewhere in
            # the lifted witness.
            lifted_union = {name for members in candidates.values() for name in members}
            assert concrete["node"] in lifted_union


class TestCounterexampleLifting:
    def test_lift_maps_every_abstract_node_to_its_members(self, broken_acl_network):
        network = broken_acl_network
        ec = next(
            ec
            for ec in routable_equivalence_classes(network)
            if ec.prefix == Prefix.parse("10.0.1.0/24")
        )
        result = Bonsai(network).compress(ec, build_network=True)
        abstraction = result.abstraction
        witness = Counterexample(
            kind="blackhole",
            node=abstraction.f("s2"),
            path=(abstraction.f("x"), abstraction.f("s2")),
        )
        lifted = lift_counterexample(abstraction, witness)
        assert lifted["abstract"]["kind"] == "blackhole"
        assert "s2" in lifted["concrete_candidates"][abstraction.f("s2")]
        assert "x" in lifted["concrete_candidates"][abstraction.f("x")]


class TestSuiteSelectionDifferential:
    def test_subset_suite_still_agrees(self, broken_acl_network):
        suite = PropertySuite.from_names(["reachability", "routing-loop-freedom"])
        report = BatchVerifier(
            broken_acl_network, suite=suite, executor="serial"
        ).run()
        assert [v.property for r in report.records for v in r.verdicts] == [
            "reachability",
            "routing-loop-freedom",
        ] * len(report.records)
        assert report.verdicts_agree()

    def test_explicit_waypoints_lift_through_abstraction(self):
        """Waypointing through an explicit device set: the abstract check
        uses the f-image of the waypoints and must agree with the concrete
        verdict on every node."""
        network = fattree_network(4)
        aggs = tuple(
            sorted(str(n) for n in network.graph.nodes if str(n).startswith("agg"))
        )
        suite = PropertySuite.from_names(["waypointing"], waypoints=aggs)
        report = BatchVerifier(network, suite=suite, executor="serial").run()
        assert report.verdicts_agree()

    def test_non_closed_waypoints_flagged_not_comparable(self):
        """A waypoint set that names only *some* members of a merged group
        cannot be expressed on the abstract network; the engine flags the
        verdict instead of reporting a phantom soundness violation."""
        network = fattree_network(4)
        suite = PropertySuite.from_names(
            ["waypointing"], waypoints=("agg0_0", "agg0_1")
        )
        report = BatchVerifier(network, suite=suite, executor="serial").run()
        assert report.verdicts_agree()  # non-comparable is not a mismatch
        flagged = [
            v
            for record in report.records
            for v in record.verdicts
            if not v.comparable
        ]
        assert flagged, "the subset waypoint set should be non-closed somewhere"
        for verdict in flagged:
            assert verdict.mismatched == []
            assert "not a union of abstraction groups" in verdict.note

    def test_tight_path_bound_fails_identically(self):
        """An unsatisfiable hop bound fails on *both* networks for exactly
        the same sources -- the differential harness also covers failing
        verdicts, not just passing ones."""
        network = fattree_network(4)
        suite = PropertySuite.from_names(["bounded-path-length"], path_bound=1)
        report = BatchVerifier(network, suite=suite, executor="serial").run()
        assert report.verdicts_agree()
        failing = [
            v
            for record in report.records
            for v in record.verdicts
            if v.concrete_failing
        ]
        assert failing, "a 1-hop bound should fail somewhere in a fat-tree"


@pytest.fixture(scope="module")
def shared_artifact():
    return EncodedNetwork.build(build_topology("mesh", 6))


class TestExecutorDifferentialParity:
    """The differential verdicts are executor-independent."""

    def test_parallel_matches_serial(self, shared_artifact):
        serial = BatchVerifier(artifact=shared_artifact, executor="serial").run()
        parallel = BatchVerifier(
            artifact=shared_artifact, executor="process", workers=2
        ).run()
        assert serial.canonical_records() == parallel.canonical_records()
        assert parallel.verdicts_agree()


@pytest.mark.xfail(
    strict=True,
    reason="known abstraction-soundness defect on WANs with >= 4 core routers "
    "(see perfbench/NOTES.md, 'Known defect'): abstract and concrete verdicts "
    "disagree; a fix flips this test to passing",
)
def test_wan_with_four_core_routers_is_sound():
    """The smallest known reproduction of the WAN soundness defect: 7 of
    its 15 classes disagree under the serial verifier."""
    from repro.netgen.wan import WanParams, wan_network

    network = wan_network(
        WanParams(core_routers=4, regions=3, access_per_region=4, static_access_per_region=1)
    )
    report = BatchVerifier(network, executor="serial").run()
    assert all(record.agrees() for record in report.records)
