"""Tests for the `repro.api` Session facade."""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.netgen.families import build_topology
from repro.srp.solver import COUNTERS
from repro.store import ArtifactStore, StoreError


@pytest.fixture(scope="module")
def ring_session():
    return Session(build_topology("ring", 5))


def _failing_sets(report):
    """``{prefix: {property: (concrete, abstract, mismatched)}}`` for
    timing-free comparison between warm and batch verification runs."""
    out = {}
    for record in report.records:
        out[record.prefix] = {
            verdict.property: (
                tuple(sorted(verdict.concrete_failing)),
                tuple(sorted(verdict.abstract_failing)),
                tuple(sorted(verdict.mismatched)),
            )
            for verdict in record.verdicts
        }
    return out


class TestSessionConstruction:
    def test_needs_network_or_baseline(self):
        with pytest.raises(ValueError, match="needs a network"):
            Session()

    def test_builds_baseline_from_network(self, ring_session):
        assert len(ring_session.classes) == 5
        assert ring_session.fingerprint == ring_session.baseline.fingerprint
        assert not ring_session.rebuilt

    def test_rejects_foreign_baseline(self, ring_session):
        other = build_topology("mesh", 4)
        with pytest.raises(ValueError, match="fingerprints differ"):
            Session(other, baseline=ring_session.baseline)

    def test_class_for(self, ring_session):
        prefix = str(ring_session.classes[0].prefix)
        assert ring_session.class_for(prefix) is not None
        assert ring_session.class_for("203.0.113.0/24") is None


class TestWarmVerify:
    def test_warm_matches_batch_exactly(self, ring_session):
        warm = ring_session.verify()
        assert warm.executor == "warm"
        assert warm.verdicts_agree()
        cold = ring_session.verify(warm=False)
        assert cold.executor != "warm"
        assert _failing_sets(warm) == _failing_sets(cold)
        assert warm.kind == cold.kind == "verification"

    def test_warm_never_resolves_the_concrete_baseline(self, ring_session):
        """The warm path evaluates properties off the stored concrete
        forwarding tables; the only solves are the per-class *abstract*
        networks inside the lifted verdicts (compressed instances -- the
        cheap side of the paper's asymmetry)."""
        COUNTERS.reset()
        ring_session.verify()
        counters = COUNTERS.snapshot()
        assert counters["seeded_solves"] == 0
        assert counters["scratch_solves"] == len(ring_session.classes)

    def test_per_prefix(self, ring_session):
        prefix = str(ring_session.classes[0].prefix)
        report = ring_session.verify(prefix=prefix)
        assert report.num_classes == 1
        assert report.records[0].prefix == prefix
        with pytest.raises(ValueError, match="no destination class"):
            ring_session.verify(prefix="203.0.113.0/24")

    def test_selected_properties(self, ring_session):
        report = ring_session.verify(["reachability"])
        assert report.properties == ["reachability"]

    def test_explicit_waypoints_fall_back_to_batch(self, ring_session):
        node = str(sorted(ring_session.network.graph.nodes, key=str)[0])
        report = ring_session.verify(["waypointing"], waypoints=[node])
        assert report.executor != "warm"

    def test_uncompressed_baseline_falls_back(self):
        network = build_topology("ring", 5)
        session = Session(network, compress=False)
        report = session.verify()
        assert report.executor != "warm"
        assert report.verdicts_agree()


class TestSessionAnalyses:
    def test_failures(self, ring_session):
        report = ring_session.failures(k=1, sample=4, oracle=False, soundness=False)
        assert report.kind == "failures"
        assert report.num_classes == 5

    def test_k_resilience(self, ring_session):
        result = ring_session.k_resilience(
            max_k=1, sample=4, oracle=False, soundness=False
        )
        assert result["property"] == "reachability"
        assert "k=1" in result
        assert "breaking_k" in result

    def test_failures_use_stored_baseline(self, monkeypatch):
        """Warm failures equal a cold sweep record for record, and no
        class re-compresses its baseline (per-scenario fallback
        compressions run on the failed network, never the baseline)."""
        from repro.abstraction.bonsai import Bonsai
        from repro.failures import FailureSweep, sample_link_failures

        network = build_topology("datacenter", 2)
        scenarios = sample_link_failures(network, 1, 3, seed=3)
        session = Session(network)
        cold = FailureSweep(network, scenarios=scenarios, executor="serial").run()

        compressed = []
        original = Bonsai.compress

        def counting(bonsai, *args, **kwargs):
            compressed.append(bonsai.network)
            return original(bonsai, *args, **kwargs)

        monkeypatch.setattr(Bonsai, "compress", counting)
        COUNTERS.reset()
        warm = session.failures(scenarios=scenarios)
        assert warm.canonical_records() == cold.canonical_records()
        assert not any(net is session.network for net in compressed)
        assert all(record.compression_seconds == 0.0 for record in warm.records)
        # Every baseline is validated by one zero-dirty seeded solve.
        assert COUNTERS.snapshot()["seeded_solves"] >= len(session.classes)

    def test_failures_reject_a_foreign_baseline(self, ring_session):
        from repro.failures import FailureSweep

        with pytest.raises(ValueError, match="does not match"):
            FailureSweep(build_topology("ring", 6), baseline=ring_session.baseline)

    def test_delta_uses_stored_baseline(self, ring_session):
        from repro.delta import ChangeSet, LocalPrefOverride

        device = sorted(ring_session.network.devices)[0]
        peer = next(iter(ring_session.network.graph.successors(device)))
        script = [
            ChangeSet(
                name="prefer-peer",
                changes=[
                    LocalPrefOverride(
                        device=str(device), peer=str(peer), local_pref=260
                    )
                ],
            )
        ]
        COUNTERS.reset()
        report = ring_session.delta(script, revalidate=False)
        assert report.kind == "delta"
        assert report.baseline_fingerprint == ring_session.fingerprint
        assert COUNTERS.snapshot()["scratch_solves"] == 0
        assert all(record.baseline_from_store for record in report.records)


class TestSessionPersistence:
    def test_save_and_load_round_trip(self, tmp_path, ring_session):
        entry = ring_session.save(tmp_path)
        assert entry.is_dir()
        loaded = Session.load(tmp_path, network=build_topology("ring", 5))
        assert loaded.fingerprint == ring_session.fingerprint
        assert _failing_sets(loaded.verify()) == _failing_sets(ring_session.verify())

    def test_load_by_fingerprint(self, tmp_path, ring_session):
        ring_session.save(tmp_path)
        loaded = Session.load(tmp_path, fingerprint=ring_session.fingerprint)
        assert loaded.fingerprint == ring_session.fingerprint

    def test_load_missing_is_strict(self, tmp_path):
        with pytest.raises(StoreError):
            Session.load(tmp_path, network=build_topology("ring", 5))
        with pytest.raises(ValueError, match="needs a network or a fingerprint"):
            Session.load(tmp_path)

    def test_save_needs_a_root(self, ring_session):
        with pytest.raises(ValueError, match="no store root"):
            Session(baseline=ring_session.baseline).save()

    def test_constructor_load_or_build(self, tmp_path):
        network = build_topology("ring", 5)
        first = Session(network, store=tmp_path)
        assert first.rebuilt  # nothing stored yet: built and saved
        assert ArtifactStore(tmp_path).has(first.fingerprint)
        second = Session(build_topology("ring", 5), store=tmp_path)
        assert not second.rebuilt  # warm load, no re-solve
        assert second.fingerprint == first.fingerprint


class TestReportEnvelope:
    def test_load_report_round_trips_every_kind(self, ring_session, tmp_path):
        from repro.reporting import load_report, registered_report_kinds

        assert set(registered_report_kinds()) >= {
            "compression",
            "verification",
            "failures",
            "delta",
        }
        verification = ring_session.verify()
        loaded = load_report(verification.to_json())
        assert type(loaded) is type(verification)
        assert loaded.kind == "verification"
        data = verification.to_dict()
        assert data["schema_version"] == 2
        assert data["kind"] == "verification"
        assert data["ok"] is True
        assert data["generated_by"].startswith("repro-bonsai")

    def test_load_report_rejects_unknown_kind(self):
        from repro.reporting import load_report

        with pytest.raises(ValueError, match="unknown report kind"):
            load_report({"kind": "bogus"})
        with pytest.raises(ValueError, match="no 'kind'"):
            load_report({"records": []})

    def test_compression_report_envelope(self):
        from repro.pipeline.core import CompressionPipeline
        from repro.reporting import load_report

        report = CompressionPipeline(
            build_topology("ring", 5), executor="serial"
        ).run().report
        loaded = load_report(report.to_dict())
        assert loaded.kind == "compression"
        assert loaded.num_classes == report.num_classes
