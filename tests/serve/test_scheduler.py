"""MicroBatcher flush rules, driven by a fake clock (no sleeps).

The scheduler is a pure data structure: these tests pin the batching
contract the engine relies on — flush on ``max_batch``, flush on
deadline, geometry grouping, shutdown drain, and ordering.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.serve import FakeClock, MicroBatcher
from repro.ultrasound import stream_gain_drift


@pytest.fixture(scope="module")
def frames(sim_contrast_dataset):
    return list(stream_gain_drift(sim_contrast_dataset, 12, seed=3))


@pytest.fixture(scope="module")
def other_geometry(sim_contrast_dataset):
    # The contrast/resolution presets deliberately share one plan key
    # (same probe/grid/angle/speed); a steered copy is a genuinely
    # different acquisition geometry.
    return replace(sim_contrast_dataset, angle_rad=np.deg2rad(5.0))


def make_batcher(max_batch=4, max_latency_s=0.050):
    clock = FakeClock()
    return MicroBatcher(
        max_batch=max_batch, max_latency_s=max_latency_s, clock=clock
    ), clock


class TestFlushOnMaxBatch:
    def test_partial_group_not_ready(self, frames):
        batcher, _ = make_batcher(max_batch=4)
        for frame in frames[:3]:
            batcher.submit(frame)
        assert batcher.ready() == []
        assert batcher.pending == 3

    def test_full_group_flushes_immediately(self, frames):
        batcher, _ = make_batcher(max_batch=4)
        for frame in frames[:4]:
            batcher.submit(frame)
        (batch,) = batcher.ready()
        assert batch.reason == "max_batch"
        assert len(batch) == 4
        assert batcher.pending == 0

    def test_overfull_group_emits_chunks_and_keeps_remainder(self, frames):
        batcher, _ = make_batcher(max_batch=4)
        for frame in frames[:9]:
            batcher.submit(frame)
        batches = batcher.ready()
        assert [len(batch) for batch in batches] == [4, 4]
        assert all(batch.reason == "max_batch" for batch in batches)
        assert batcher.pending == 1  # the 9th frame waits for company

    def test_submission_order_preserved(self, frames):
        batcher, _ = make_batcher(max_batch=4)
        submitted = [batcher.submit(frame) for frame in frames[:8]]
        batches = batcher.ready()
        seqs = [f.seq for batch in batches for f in batch.frames]
        assert seqs == [frame.seq for frame in submitted]


class TestFlushOnDeadline:
    def test_not_ready_before_deadline(self, frames):
        batcher, clock = make_batcher(max_batch=8, max_latency_s=0.050)
        batcher.submit(frames[0])
        clock.advance(0.049)
        assert batcher.ready() == []

    def test_flushes_at_deadline(self, frames):
        batcher, clock = make_batcher(max_batch=8, max_latency_s=0.050)
        batcher.submit(frames[0])
        batcher.submit(frames[1])
        clock.advance(0.050)
        (batch,) = batcher.ready()
        assert batch.reason == "deadline"
        assert len(batch) == 2
        assert batcher.pending == 0

    def test_deadline_runs_from_oldest_frame(self, frames):
        batcher, clock = make_batcher(max_batch=8, max_latency_s=0.050)
        batcher.submit(frames[0])
        clock.advance(0.030)
        batcher.submit(frames[1])  # younger frame, same group
        clock.advance(0.020)  # oldest hits 50 ms, youngest only 20 ms
        (batch,) = batcher.ready()
        assert len(batch) == 2

    def test_next_deadline_tracks_oldest(self, frames):
        batcher, clock = make_batcher(max_latency_s=0.050)
        assert batcher.next_deadline() is None
        batcher.submit(frames[0])
        assert batcher.next_deadline() == pytest.approx(0.050)
        clock.advance(0.010)
        batcher.submit(frames[1])
        assert batcher.next_deadline() == pytest.approx(0.050)

    def test_tied_deadlines_flush_without_comparing_geometry(
        self, frames, other_geometry
    ):
        # Identical submission timestamps are routine under a fake
        # clock; the deadline sort must never fall through to comparing
        # geometry keys, whose leading element is a probe object with
        # no ordering (different probes => TypeError before the fix).
        from repro.ultrasound import small_probe

        other_probe = replace(frames[0], probe=small_probe(16))
        batcher, clock = make_batcher(max_batch=8, max_latency_s=0.050)
        batcher.submit(frames[0])
        batcher.submit(other_probe)  # same instant, different group
        clock.advance(0.050)
        batches = batcher.ready()
        assert [b.reason for b in batches] == ["deadline", "deadline"]
        assert sum(len(b) for b in batches) == 2

    def test_expired_groups_flush_oldest_first(
        self, frames, other_geometry
    ):
        batcher, clock = make_batcher(max_batch=8, max_latency_s=0.050)
        batcher.submit(other_geometry)
        clock.advance(0.010)
        batcher.submit(frames[0])
        clock.advance(0.050)  # both groups expired; other_geometry older
        batches = batcher.ready()
        assert [b.reason for b in batches] == ["deadline", "deadline"]
        assert batches[0].frames[0].dataset is other_geometry


class TestGeometryGrouping:
    def test_mixed_geometries_never_share_a_batch(
        self, frames, other_geometry
    ):
        batcher, _ = make_batcher(max_batch=2)
        batcher.submit(frames[0])
        batcher.submit(other_geometry)
        batcher.submit(frames[1])
        batcher.submit(other_geometry)
        batches = batcher.ready()
        assert len(batches) == 2
        for batch in batches:
            angles = {f.dataset.angle_rad for f in batch.frames}
            assert len(angles) == 1

    def test_equal_geometry_different_objects_share_group(self, frames):
        batcher, _ = make_batcher(max_batch=2)
        # stream_gain_drift yields distinct dataset objects on one
        # geometry; a replaced-rf copy still lands in the same group.
        batcher.submit(frames[0])
        batcher.submit(replace(frames[1], rf=np.flip(frames[1].rf)))
        (batch,) = batcher.ready()
        assert len(batch) == 2

    def test_pending_groups_counts_geometries(
        self, frames, other_geometry
    ):
        batcher, _ = make_batcher()
        batcher.submit(frames[0])
        batcher.submit(other_geometry)
        assert batcher.pending_groups == 2


class TestFlush:
    def test_flush_drains_everything(self, frames, other_geometry):
        batcher, _ = make_batcher(max_batch=4)
        for frame in frames[:6]:
            batcher.submit(frame)
        batcher.submit(other_geometry)
        batches = batcher.flush()
        assert batcher.pending == 0
        assert sum(len(batch) for batch in batches) == 7
        assert all(batch.reason == "flush" for batch in batches)

    def test_flush_respects_max_batch(self, frames):
        batcher, _ = make_batcher(max_batch=4)
        for frame in frames[:6]:
            batcher.submit(frame)
        assert [len(b) for b in batcher.ready()] == [4]
        assert [len(b) for b in batcher.flush()] == [2]

    def test_flush_empty_is_noop(self):
        batcher, _ = make_batcher()
        assert batcher.flush() == []


class TestValidation:
    def test_rejects_bad_max_batch(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_latency_s=-1.0)


class TestRuntimeMutableLimits:
    """``set_limits`` mid-stream: the controller's batching actuator.

    The contract (docs/autotuning.md): limit changes are only *read*
    at flush decisions, so no change can ever drop or double-emit a
    pending frame — the pending set simply flushes under the new
    rules on the next decision.
    """

    def test_set_limits_applies_and_validates(self):
        batcher, _ = make_batcher(max_batch=4, max_latency_s=0.050)
        batcher.set_limits(max_batch=8)
        assert batcher.max_batch == 8
        assert batcher.max_latency_s == 0.050  # untouched
        batcher.set_limits(max_latency_s=0.010)
        assert batcher.max_latency_s == 0.010
        with pytest.raises(ValueError):
            batcher.set_limits(max_batch=0)
        with pytest.raises(ValueError):
            batcher.set_limits(max_latency_s=-1.0)
        # A rejected update must leave both limits unchanged, even the
        # one that was individually valid in the failing call.
        assert batcher.max_batch == 8
        assert batcher.max_latency_s == 0.010

    def test_batch_cut_chunk_emits_every_pending_frame_once(
        self, frames
    ):
        batcher, _ = make_batcher(max_batch=8, max_latency_s=10.0)
        submitted = [batcher.submit(frame) for frame in frames[:5]]
        assert batcher.ready() == []  # 5 < 8, far from deadline
        batcher.set_limits(max_batch=2)
        batches = batcher.ready()
        assert [len(batch) for batch in batches] == [2, 2]
        seqs = [f.seq for batch in batches for f in batch.frames]
        assert batcher.pending == 1
        leftover = batcher.flush()
        seqs += [f.seq for batch in leftover for f in batch.frames]
        # Exactly once, in submission order: nothing dropped, nothing
        # double-emitted by the cut.
        assert seqs == [frame.seq for frame in submitted]

    def test_batch_grow_keeps_pending_waiting(self, frames):
        batcher, _ = make_batcher(max_batch=2, max_latency_s=10.0)
        batcher.submit(frames[0])
        batcher.submit(frames[1])
        batcher.set_limits(max_batch=4)
        # Under the grown cap the full-at-2 group is no longer full.
        assert batcher.ready() == []
        assert batcher.pending == 2

    def test_deadline_cut_makes_pending_overdue(self, frames):
        batcher, clock = make_batcher(max_batch=8, max_latency_s=0.500)
        batcher.submit(frames[0])
        clock.advance(0.050)
        assert batcher.ready() == []  # 50 ms < 500 ms: still waiting
        batcher.set_limits(max_latency_s=0.010)
        (batch,) = batcher.ready()
        assert batch.reason == "deadline"
        assert len(batch) == 1
        assert batcher.pending == 0

    def test_next_deadline_consistent_after_cut(self, frames):
        batcher, clock = make_batcher(max_batch=8, max_latency_s=0.500)
        batcher.submit(frames[0])
        assert batcher.next_deadline() == pytest.approx(0.500)
        batcher.set_limits(max_latency_s=0.020)
        # The deadline re-derives from oldest-submit + new latency: it
        # moves the moment the limit does, and stays consistent with
        # what ready() will decide at that instant.
        assert batcher.next_deadline() == pytest.approx(0.020)
        clock.advance(0.020)
        assert batcher.ready() != []
        assert batcher.next_deadline() is None
