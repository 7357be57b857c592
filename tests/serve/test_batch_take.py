"""The workers' hand-off: ``BoundedQueue.get_batch`` and consumer retire.

A serving worker takes the oldest queued frame plus up to
``max_batch - 1`` queued frames of the same acquisition geometry, in
one step under the queue's lock.  These tests pin that batching
contract on the queue itself — geometry grouping, the cap, order — with
frames keyed exactly as the engine keys them, plus the retire count
that lets an idle worker exit.  Only the blocking tests start threads;
each of their waits is bounded by ``WAIT_S``.
"""

import threading
from dataclasses import replace
from operator import itemgetter

import numpy as np
import pytest

from repro.api.base import dataset_plan_key
from repro.serve import (
    BoundedQueue,
    ConsumerRetired,
    PendingFrame,
    QueueClosed,
)
from repro.ultrasound import small_probe, stream_gain_drift

#: Bound on every wait for another thread; exceeding it fails the test.
WAIT_S = 30.0


@pytest.fixture(scope="module")
def frames(sim_contrast_dataset):
    return list(stream_gain_drift(sim_contrast_dataset, 6, seed=3))


@pytest.fixture(scope="module")
def other_geometry(sim_contrast_dataset):
    # A steered copy is a different acquisition geometry.
    return replace(sim_contrast_dataset, angle_rad=np.deg2rad(5.0))


def queued(*datasets, capacity=16):
    """A queue holding ``datasets`` as frames keyed like the engine's."""
    queue = BoundedQueue(capacity)
    for seq, dataset in enumerate(datasets):
        queue.put(
            PendingFrame(
                seq=seq, dataset=dataset, submitted_at=0.0,
                key=dataset_plan_key(dataset),
            )
        )
    return queue


def frame_key(frame):
    return frame.key


def take(queue, limit):
    """Sequence numbers of the next batch."""
    return [frame.seq for frame in queue.get_batch(limit, frame_key)]


class TestGeometryGrouping:
    @pytest.mark.parametrize(
        "change",
        [{"angle_rad": np.deg2rad(5.0)}, {"probe": small_probe(16)}],
        ids=["steered", "other_probe"],
    )
    def test_batches_never_mix_geometries(self, frames, change):
        other = replace(frames[0], **change)
        queue = queued(frames[0], other, frames[1], other)
        assert take(queue, 4) == [0, 2]
        assert take(queue, 4) == [1, 3]
        assert len(queue) == 0

    def test_equal_geometries_in_different_objects_share_a_batch(
        self, frames
    ):
        # Distinct dataset objects on one geometry, one with its own rf
        # array, still key equal and go as one batch.
        flipped = replace(frames[1], rf=np.flip(frames[1].rf))
        queue = queued(frames[0], flipped)
        assert take(queue, 4) == [0, 1]


class TestCapAndOrder:
    def test_max_batch_cap_leaves_the_remainder_queued(self, frames):
        queue = queued(*frames[:5])
        assert take(queue, 2) == [0, 1]
        assert len(queue) == 3
        assert take(queue, 2) == [2, 3]
        assert take(queue, 2) == [4]

    def test_submission_order_is_kept(self, frames, other_geometry):
        # The oldest frame leads every batch, members keep their queue
        # order, and frames left behind keep theirs.
        queue = queued(
            other_geometry, frames[0], frames[1], other_geometry,
            frames[2], other_geometry,
        )
        assert take(queue, 2) == [0, 3]
        assert take(queue, 2) == [1, 2]
        assert take(queue, 2) == [4]
        assert take(queue, 2) == [5]

    def test_a_cap_of_one_takes_only_the_oldest(self, frames):
        queue = queued(*frames[:3])
        assert [take(queue, 1) for _ in range(3)] == [[0], [1], [2]]


class TestEviction:
    def test_drop_oldest_evicts_the_next_batch_head(self):
        # Eviction and the take see one queue: the evicted frame is the
        # one the next take would have led with.
        queue = BoundedQueue(3, "drop_oldest")
        for item in (("a", 0), ("b", 1), ("a", 2)):
            queue.put(item)
        assert queue.put(("b", 3)) == ("a", 0)
        assert queue.get_batch(4, itemgetter(0)) == [("b", 1), ("b", 3)]
        assert queue.get_batch(4, itemgetter(0)) == [("a", 2)]
        assert queue.dropped == 1


class TestRetireAndClose:
    def test_retire_goes_ahead_of_queued_items(self):
        queue = BoundedQueue(4)
        queue.put(("a", 0))
        queue.retire_consumer()
        with pytest.raises(ConsumerRetired):
            queue.get_batch(4, itemgetter(0))
        assert queue.get_batch(4, itemgetter(0)) == [("a", 0)]

    def test_each_retire_stops_one_consumer(self):
        queue = BoundedQueue(4)
        queue.put(("a", 0))
        queue.retire_consumer()
        queue.retire_consumer()
        for _ in range(2):
            with pytest.raises(ConsumerRetired):
                queue.get_batch(4, itemgetter(0))
        assert queue.get_batch(4, itemgetter(0)) == [("a", 0)]

    def test_retire_pending_at_close_still_goes_first(self):
        queue = BoundedQueue(4)
        queue.put(("a", 0))
        queue.retire_consumer()
        queue.close()
        with pytest.raises(ConsumerRetired):
            queue.get_batch(4, itemgetter(0))
        assert queue.get_batch(4, itemgetter(0)) == [("a", 0)]
        with pytest.raises(QueueClosed):
            queue.get_batch(4, itemgetter(0))

    def test_close_drains_then_ends_every_consumer(self):
        queue = BoundedQueue(4)
        queue.put(("a", 0))
        queue.close()
        assert queue.get_batch(4, itemgetter(0)) == [("a", 0)]
        with pytest.raises(QueueClosed):
            queue.get_batch(4, itemgetter(0))

    def test_retire_refused_once_closed(self):
        queue = BoundedQueue(4)
        queue.close()
        with pytest.raises(QueueClosed):
            queue.retire_consumer()

    def test_retire_wakes_a_blocked_consumer(self):
        queue = BoundedQueue(4)
        outcome = []
        entered = threading.Event()

        def consume():
            entered.set()
            try:
                queue.get_batch(4, itemgetter(0))
            except ConsumerRetired:
                outcome.append("retired")

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        assert entered.wait(timeout=WAIT_S)
        queue.retire_consumer()
        consumer.join(timeout=WAIT_S)
        assert not consumer.is_alive()
        assert outcome == ["retired"]

    def test_a_batch_take_frees_a_slot_per_item(self):
        # Two producers block on a full queue; one take of two items
        # must let both finish.
        queue = BoundedQueue(2, "block")
        queue.put(("a", 0))
        queue.put(("a", 1))
        producers = [
            threading.Thread(
                target=queue.put, args=(("b", seq),), daemon=True
            )
            for seq in (2, 3)
        ]
        for producer in producers:
            producer.start()
        assert queue.get_batch(2, itemgetter(0)) == [("a", 0), ("a", 1)]
        for producer in producers:
            producer.join(timeout=WAIT_S)
            assert not producer.is_alive()
        assert len(queue) == 2
        assert sorted(queue.get_batch(2, itemgetter(0))) == [
            ("b", 2), ("b", 3),
        ]
