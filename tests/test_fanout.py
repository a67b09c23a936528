"""Tests for the process executor of the class fan-out (contiguous
batches pulled from the pool's FIFO call queue) and for streaming,
memory-bounded report aggregation."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import metrics
from repro.pipeline import core
from repro.pipeline.core import ClassFanOut, CompressionPipeline
from repro.pipeline.encoded import EncodedNetwork
from repro.pipeline.report import PipelineReport
from repro.pipeline.stream import RecordSpill


@pytest.fixture(scope="module")
def shared_fattree_artifact():
    from repro.netgen.families import build_topology

    return EncodedNetwork.build(build_topology("fattree", 4))


class _RecordingPool(core.ProcessPoolExecutor):
    """A real process pool that remembers its size and submissions."""

    sizes: list = []
    submitted: list = []

    def __init__(self, max_workers=None, **kwargs):
        type(self).sizes.append(max_workers)
        super().__init__(max_workers=max_workers, **kwargs)

    def submit(self, fn, *args, **kwargs):
        type(self).submitted.append(args[1])  # the batch of (index, class)
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def recording_pool(monkeypatch):
    _RecordingPool.sizes = []
    _RecordingPool.submitted = []
    monkeypatch.setattr(core, "ProcessPoolExecutor", _RecordingPool)
    return _RecordingPool


# ----------------------------------------------------------------------
# Batching and the pool
# ----------------------------------------------------------------------
class TestPartition:
    @given(
        num_classes=st.integers(0, 60),
        workers=st.integers(1, 8),
        batch_size=st.one_of(st.none(), st.integers(1, 12)),
    )
    @settings(max_examples=80, deadline=None)
    def test_batches_are_contiguous_and_cover_every_class(
        self, shared_fattree_artifact, num_classes, workers, batch_size
    ):
        fanout = ClassFanOut(
            artifact=shared_fattree_artifact, workers=workers, batch_size=batch_size
        )
        classes = [f"class-{i}" for i in range(num_classes)]
        batches = fanout.partition(classes)
        assert [pair for batch in batches for pair in batch] == list(enumerate(classes))
        assert all(batch for batch in batches)
        if batch_size is not None:
            assert all(len(batch) <= batch_size for batch in batches)
            assert all(len(batch) == batch_size for batch in batches[:-1])
        else:
            # About four batches per worker, never more.
            assert len(batches) <= workers * 4

    @pytest.mark.parametrize(
        "workers, batch_size, limit, pool_size",
        [
            (2, None, None, 2),  # enough batches: one process per worker
            (4, None, 3, 3),  # three classes, three batches, three processes
            (8, 2, 4, 2),  # two batches of two
            (3, 100, None, 1),  # one batch needs one process
        ],
    )
    def test_pool_is_sized_by_batch_count(
        self, shared_fattree_artifact, recording_pool, workers, batch_size, limit, pool_size
    ):
        fanout = ClassFanOut(
            artifact=shared_fattree_artifact,
            executor="process",
            workers=workers,
            batch_size=batch_size,
            limit=limit,
        )
        fanout.execute()
        assert recording_pool.sizes == [pool_size]
        assert pool_size == min(workers, len(fanout.last_batches))

    def test_batches_are_submitted_in_class_order(self, shared_fattree_artifact, recording_pool):
        fanout = ClassFanOut(
            artifact=shared_fattree_artifact, executor="process", workers=2, batch_size=3
        )
        fanout.execute()
        assert recording_pool.submitted == fanout.last_batches
        firsts = [batch[0][0] for batch in recording_pool.submitted]
        assert firsts == sorted(firsts)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_no_classes_starts_no_pool(self, shared_fattree_artifact, recording_pool, executor):
        fanout = ClassFanOut(
            artifact=shared_fattree_artifact, executor=executor, workers=2, limit=0
        )
        assert fanout.execute() == []
        assert fanout.last_batches == []
        assert recording_pool.sizes == []

    def test_report_records_the_batches_that_ran(self, shared_fattree_artifact):
        pipeline = CompressionPipeline(
            artifact=shared_fattree_artifact, executor="process", workers=2
        )
        report = pipeline.run().report
        batches = pipeline.partition(shared_fattree_artifact.classes)
        assert report.num_batches == len(batches) == len(pipeline.last_batches)
        assert report.batch_size == len(batches[0])


# ----------------------------------------------------------------------
# Streaming results and per-class observations
# ----------------------------------------------------------------------
class TestExecute:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_streams_every_class_once(self, shared_fattree_artifact, executor):
        seen = []
        fanout = ClassFanOut(
            artifact=shared_fattree_artifact, executor=executor, workers=2
        )
        returned = fanout.execute(
            on_result=lambda index, result, seconds: seen.append((index, result, seconds))
        )
        assert returned is None  # streaming collects nothing by default
        assert sorted(index for index, _, _ in seen) == list(
            range(len(shared_fattree_artifact.classes))
        )
        for index, result, seconds in seen:
            assert result.equivalence_class.prefix == fanout.last_classes[index].prefix
            assert seconds >= 0.0

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_stream_and_collect(self, shared_fattree_artifact, executor):
        seen = []
        fanout = ClassFanOut(
            artifact=shared_fattree_artifact, executor=executor, workers=2, limit=5
        )
        results = fanout.execute(
            on_result=lambda index, result, seconds: seen.append(index), collect=True
        )
        assert [r.equivalence_class.prefix for r in results] == [
            ec.prefix for ec in fanout.last_classes
        ]
        assert sorted(seen) == list(range(5))

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_observed_seconds_cover_every_class(self, shared_fattree_artifact, executor):
        fanout = ClassFanOut(
            artifact=shared_fattree_artifact, executor=executor, workers=2
        )
        results = fanout.execute()
        assert len(results) == len(fanout.last_classes)
        assert set(fanout.last_unit_seconds) == {
            str(ec.prefix) for ec in fanout.last_classes
        }

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_completion_metrics(self, shared_fattree_artifact, executor):
        before = metrics.snapshot_counters()
        fanout = ClassFanOut(
            artifact=shared_fattree_artifact, executor=executor, workers=2, limit=6
        )
        fanout.execute()
        delta = metrics.counters_delta(before)
        assert delta.get("pipeline.classes_completed") == 6

    def test_worker_counters_merge_into_the_coordinator(self, shared_fattree_artifact):
        """Counters incremented inside pool workers come home: a process
        sweep moves the refinement-cache counters as a serial one does."""
        names = ("abstraction.refinement_cache.hits", "abstraction.refinement_cache.misses")

        def moved(executor):
            before = metrics.snapshot_counters()
            ClassFanOut(
                artifact=shared_fattree_artifact, executor=executor, workers=2
            ).execute()
            delta = metrics.counters_delta(before)
            return sum(delta.get(name, 0) for name in names)

        serial = moved("serial")
        assert serial > 0
        assert moved("process") == serial


# ----------------------------------------------------------------------
# Validation regressions
# ----------------------------------------------------------------------
class TestValidation:
    def test_rejects_nonpositive_workers(self, small_fattree):
        with pytest.raises(ValueError, match="workers"):
            ClassFanOut(small_fattree, workers=0)
        with pytest.raises(ValueError, match="workers"):
            ClassFanOut(small_fattree, workers=-2)

    def test_rejects_empty_task_name(self, small_fattree):
        with pytest.raises(ValueError, match="non-empty"):
            ClassFanOut(small_fattree, task="")
        with pytest.raises(ValueError, match="non-empty"):
            ClassFanOut(small_fattree, task="   ")
        with pytest.raises(ValueError, match="non-empty"):
            ClassFanOut(small_fattree, task=None)


# ----------------------------------------------------------------------
# Parity: pooled results must be bit-identical to serial ones
# ----------------------------------------------------------------------
class TestProcessParity:
    def test_compress_process_matches_serial(self, small_fattree):
        artifact = EncodedNetwork.build(small_fattree)
        serial = CompressionPipeline(artifact=artifact, executor="serial").run()
        pooled = CompressionPipeline(artifact=artifact, executor="process", workers=2).run()
        assert serial.report.canonical_records() == pooled.report.canonical_records()

    def test_failure_sweep_with_more_workers_than_classes(self, small_fattree):
        from repro.failures import FailureSweep

        kwargs = dict(k=1, soundness=False, oracle=True, limit=2)
        serial = FailureSweep(small_fattree, executor="serial", **kwargs).run()
        pooled = FailureSweep(small_fattree, executor="process", workers=4, **kwargs).run()
        assert serial.canonical_records() == pooled.canonical_records()

    def test_delta_sweep_with_more_workers_than_classes(self, small_fattree):
        from repro.delta import DeltaSweep
        from repro.netgen.changes import generated_change_script

        script = generated_change_script(small_fattree, "fattree")
        kwargs = dict(script=script, oracle=True, revalidate=True, limit=2)
        serial = DeltaSweep(small_fattree, executor="serial", **kwargs).run()
        pooled = DeltaSweep(small_fattree, executor="process", workers=4, **kwargs).run()
        assert serial.canonical_records() == pooled.canonical_records()

    @given(
        executor_workers=st.sampled_from([("serial", 1), ("process", 2), ("process", 3)]),
        batch_size=st.sampled_from([None, 1, 5]),
        limit=st.sampled_from([None, 3]),
    )
    @settings(max_examples=6, deadline=None)
    def test_any_configuration_matches_serial(
        self, shared_fattree_artifact, executor_workers, batch_size, limit
    ):
        executor, workers = executor_workers
        serial = CompressionPipeline(
            artifact=shared_fattree_artifact, executor="serial", limit=limit
        ).run()
        other = CompressionPipeline(
            artifact=shared_fattree_artifact,
            executor=executor,
            workers=workers,
            batch_size=batch_size,
            limit=limit,
        ).run()
        assert serial.report.canonical_records() == other.report.canonical_records()


# ----------------------------------------------------------------------
# Streaming aggregation and the record spill
# ----------------------------------------------------------------------
class TestRecordSpill:
    def test_round_trip_in_index_order(self, tmp_path):
        spill = RecordSpill(tmp_path / "records.jsonl")
        spill.append(2, {"name": "c"})
        spill.append(0, {"name": "a"})
        spill.append(1, {"name": "b"})
        assert len(spill) == 3
        assert [p["name"] for _, p in spill] == ["a", "b", "c"]
        spill.close()

    def test_anonymous_spill_cleans_up(self):
        import os

        spill = RecordSpill()
        spill.append(0, {"x": 1})
        path = spill.path
        assert os.path.exists(path)
        spill.close()
        assert not os.path.exists(path)
        with pytest.raises(ValueError):
            spill.append(1, {"y": 2})


class TestStreamingReports:
    def test_run_streaming_matches_run(self, small_fattree):
        artifact = EncodedNetwork.build(small_fattree)
        plain = CompressionPipeline(artifact=artifact, executor="serial").run().report
        streamed = CompressionPipeline(
            artifact=artifact, executor="serial"
        ).run_streaming(spill=False)
        assert plain.canonical_records() == streamed.canonical_records()
        assert streamed.ok()

    def test_process_run_streaming_matches_run(self, small_fattree, tmp_path):
        artifact = EncodedNetwork.build(small_fattree)
        plain = CompressionPipeline(artifact=artifact, executor="serial").run().report
        streamed = CompressionPipeline(
            artifact=artifact, executor="process", workers=2
        ).run_streaming(spill=True, spill_path=tmp_path / "spill.jsonl")
        assert plain.canonical_records() == streamed.canonical_records()
        assert streamed.num_batches > 0

    def test_spilled_report_roundtrips_via_write_json(self, small_fattree, tmp_path):
        artifact = EncodedNetwork.build(small_fattree)
        report = CompressionPipeline(
            artifact=artifact, executor="serial"
        ).run_streaming(spill=True, spill_path=tmp_path / "spill.jsonl")
        assert report.spill is not None
        assert report.records == []  # nothing materialised in memory
        assert report.ok()
        out = tmp_path / "report.json"
        report.write_json(out)
        loaded = PipelineReport.from_dict(json.loads(out.read_text()))
        plain = CompressionPipeline(artifact=artifact, executor="serial").run().report
        assert loaded.canonical_records() == plain.canonical_records()
        assert loaded.num_classes == plain.num_classes

    def test_streaming_failure_sweep_matches_plain(self, small_fattree, tmp_path):
        from repro.failures import FailureSweep

        kwargs = dict(k=1, soundness=False, oracle=False, limit=2)
        plain = FailureSweep(small_fattree, executor="serial", **kwargs).run()
        spilled = FailureSweep(
            small_fattree,
            executor="serial",
            spill=True,
            spill_path=tmp_path / "fail.jsonl",
            **kwargs,
        ).run()
        assert spilled.records == []
        assert plain.canonical_records() == spilled.canonical_records()
        assert plain.k_resilience() == spilled.k_resilience()
