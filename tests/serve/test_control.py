"""ServoController decision logic, driven by a fake clock (no sleeps).

These tests steer the controller with *synthetic telemetry*: each
"tick" first paints a telemetry window (``batch_done`` calls shaped to
a target p99, ``observe_queue_depth`` for backlog) and then calls
``tick()`` directly — no threads, no real time.  The engine and
gateway are stubs that record actuations, so every policy's
trigger/actuator/bounds contract (docs/autotuning.md) is pinned
without spawning a single worker.
"""

import pytest

from repro.api import create_beamformer
from repro.serve import FakeClock, ServeEngine, ServeTelemetry
from repro.serve.control import (
    SLO,
    ControlBounds,
    ServoController,
)


class StubEngine:
    """Minimal engine surface the controller actuates.

    ``add_worker``/``retire_worker`` return ``True`` when they act and
    ``False`` when refused, as :class:`~repro.serve.ServeEngine` does;
    ``refuse_add``/``refuse_retire`` make every such call refused (no
    run active).
    """

    def __init__(self, max_batch=4, workers=2):
        self.max_batch = max_batch
        self.workers = workers
        self.refuse_add = False
        self.refuse_retire = False
        self.calls = []

    def set_batching(self, max_batch):
        self.max_batch = max_batch
        self.calls.append(("set_batching", max_batch))

    @property
    def live_workers(self):
        return self.workers

    def add_worker(self):
        if self.refuse_add:
            return False
        self.workers += 1
        self.calls.append(("add_worker", self.workers))
        return True

    def retire_worker(self):
        if self.refuse_retire or self.workers <= 1:
            return False
        self.workers -= 1
        self.calls.append(("retire_worker", self.workers))
        return True


class StubGateway:
    """Minimal gateway surface the controller actuates."""

    def __init__(self, max_inflight=8):
        self.max_inflight = max_inflight
        self.max_sessions = 8
        self.calls = []

    def set_admission(self, max_sessions=None, max_inflight=None):
        if max_sessions is not None:
            self.max_sessions = max_sessions
        if max_inflight is not None:
            self.max_inflight = max_inflight
        self.calls.append(("set_admission", max_sessions, max_inflight))


def paint_window(telemetry, clock, p99_s, frames=20, depth=0):
    """Record one telemetry window whose total latency ~= ``p99_s``."""
    for _ in range(frames):
        now = clock.now()
        telemetry.batch_done([now - p99_s], now - p99_s / 2, now)
    telemetry.observe_queue_depth("ingest", depth)


@pytest.fixture()
def rig():
    clock = FakeClock()
    telemetry = ServeTelemetry(clock=clock)
    engine = StubEngine()
    return clock, telemetry, engine


class TestValidation:
    def test_slo_rejects_bad_objective(self):
        with pytest.raises(ValueError):
            SLO(p99_latency_s=0.0)
        with pytest.raises(ValueError):
            SLO(p99_latency_s=0.1, max_queue_depth=0)

    def test_bounds_reject_inversions(self):
        with pytest.raises(ValueError):
            ControlBounds(min_batch=8, max_batch=4)
        with pytest.raises(ValueError):
            ControlBounds(min_batch=0)
        with pytest.raises(ValueError):
            ControlBounds(min_workers=4, max_workers=2)
        with pytest.raises(ValueError):
            ControlBounds(headroom=1.5)
        with pytest.raises(ValueError):
            ControlBounds(patience=0)

    def test_controller_rejects_bad_interval(self, rig):
        clock, telemetry, engine = rig
        with pytest.raises(ValueError):
            ServoController(
                SLO(0.1), telemetry, engine=engine, interval_s=0.0
            )


class TestBatchingPolicy:
    def make(self, rig, slo_s=0.100, **bounds):
        clock, telemetry, engine = rig
        controller = ServoController(
            SLO(p99_latency_s=slo_s),
            telemetry,
            engine=engine,
            bounds=ControlBounds(**bounds),
            clock=clock,
        )
        return clock, telemetry, engine, controller

    def test_idle_window_takes_no_action(self, rig):
        clock, telemetry, engine, controller = self.make(rig)
        assert controller.tick() == []
        assert engine.calls == []

    def test_grows_batch_under_headroom(self, rig):
        clock, telemetry, engine, controller = self.make(rig)
        paint_window(telemetry, clock, p99_s=0.020)  # 20ms << 70ms
        actions = controller.tick()
        assert [a.action for a in actions] == ["grow_batch"]
        assert engine.max_batch == 5

    def test_grow_stops_at_bounds(self, rig):
        clock, telemetry, engine, controller = self.make(
            rig, max_batch=5
        )
        for _ in range(4):
            paint_window(telemetry, clock, p99_s=0.020)
            controller.tick()
        assert engine.max_batch == 5  # clamped, not 8

    def test_no_growth_without_headroom(self, rig):
        # p99 between headroom (70ms) and the SLO (100ms): healthy but
        # too close to grow — the controller holds position.
        clock, telemetry, engine, controller = self.make(rig)
        paint_window(telemetry, clock, p99_s=0.090)
        assert controller.tick() == []

    def test_latency_breach_shrinks_batch_at_once(self, rig):
        clock, telemetry, engine, controller = self.make(rig)
        paint_window(telemetry, clock, p99_s=0.300)  # 3x the SLO
        actions = controller.tick()
        assert [a.action for a in actions] == ["shrink_batch"]
        assert engine.max_batch == 3
        assert engine.calls == [("set_batching", 3)]

    def test_sustained_breach_shrinks_down_to_the_floor(self, rig):
        clock, telemetry, engine, controller = self.make(
            rig, min_batch=2
        )
        shrunk = []
        for _ in range(4):
            paint_window(telemetry, clock, p99_s=0.300)
            shrunk += [a.value for a in controller.tick()]
        # One step per breached tick, then hold at the floor.
        assert shrunk == [3.0, 2.0]
        assert engine.max_batch == 2

    def test_queue_breach_grows_batch_to_amortize(self, rig):
        clock, telemetry, engine, controller = self.make(rig)
        paint_window(telemetry, clock, p99_s=0.300, depth=1000)
        actions = controller.tick()
        # Backlog beats latency in the decision order: batch grows
        # (amortization) instead of shrinking.
        assert [a.action for a in actions] == ["grow_batch"]
        assert engine.max_batch == 5

    def test_healthy_window_grows_a_shrunk_batch_back(self, rig):
        clock, telemetry, engine, controller = self.make(
            rig, max_batch=4
        )
        paint_window(telemetry, clock, p99_s=0.300)
        controller.tick()
        assert engine.max_batch == 3
        paint_window(telemetry, clock, p99_s=0.020)
        actions = controller.tick()
        assert [a.action for a in actions] == ["grow_batch"]
        assert engine.max_batch == 4
        paint_window(telemetry, clock, p99_s=0.020)
        assert controller.tick() == []  # never past the bound

    def test_queue_breach_at_the_cap_holds(self, rig):
        clock, telemetry, engine, controller = self.make(
            rig, max_batch=4
        )
        paint_window(telemetry, clock, p99_s=0.020, depth=1000)
        assert controller.tick() == []
        assert engine.calls == []

    def test_steers_a_real_engine(self, rig):
        # ServeEngine.set_batching takes the controller's keyword call
        # and validates it; the engine needs no run for that.
        clock, telemetry, _ = rig
        engine = ServeEngine(
            create_beamformer("das"), max_batch=2, log_every_s=0
        )
        controller = ServoController(
            SLO(p99_latency_s=0.100), telemetry, engine=engine,
            bounds=ControlBounds(min_batch=1, max_batch=3), clock=clock,
        )
        values = []
        for p99_s in (0.020, 0.020, 0.300, 0.300, 0.300):
            paint_window(telemetry, clock, p99_s=p99_s)
            values += [(a.action, a.value) for a in controller.tick()]
        assert values == [
            ("grow_batch", 3.0), ("shrink_batch", 2.0),
            ("shrink_batch", 1.0),
        ]
        assert engine.max_batch == 1

    def test_breaches_counted_in_status(self, rig):
        clock, telemetry, engine, controller = self.make(rig)
        paint_window(telemetry, clock, p99_s=0.300, depth=1000)
        controller.tick()
        status = controller.status()
        assert status["breaches"] == 2  # latency AND queue signals
        assert status["ticks"] == 1
        assert status["engine"]["max_batch"] == engine.max_batch
        assert status["engine"] == {
            "max_batch": engine.max_batch, "live_workers": engine.workers,
        }


class TestAdmissionPolicy:
    def make(self, rig, patience=2):
        clock, telemetry, engine = rig
        gateway = StubGateway(max_inflight=8)
        controller = ServoController(
            SLO(p99_latency_s=0.100),
            telemetry,
            engine=engine,
            gateway=gateway,
            bounds=ControlBounds(patience=patience),
            clock=clock,
        )
        return clock, telemetry, gateway, controller

    def test_sheds_after_sustained_breach_only(self, rig):
        clock, telemetry, gateway, controller = self.make(rig)
        paint_window(telemetry, clock, p99_s=0.300)
        controller.tick()
        assert gateway.max_inflight == 8  # one breach: not yet
        paint_window(telemetry, clock, p99_s=0.300)
        controller.tick()
        assert gateway.max_inflight == 4  # patience reached: halved

    def test_restores_additively_when_healthy(self, rig):
        clock, telemetry, gateway, controller = self.make(rig)
        for _ in range(2):
            paint_window(telemetry, clock, p99_s=0.300)
            controller.tick()
        assert gateway.max_inflight == 4
        for _ in range(2):
            paint_window(telemetry, clock, p99_s=0.020)
            controller.tick()
        assert gateway.max_inflight == 5  # +1, not a jump back to 8

    def test_never_sheds_below_floor(self, rig):
        clock, telemetry, gateway, controller = self.make(rig)
        for _ in range(20):
            paint_window(telemetry, clock, p99_s=0.300)
            controller.tick()
        assert gateway.max_inflight >= 1


class TestScalingPolicy:
    def make(self, rig, **bounds):
        clock, telemetry, engine = rig
        bounds.setdefault("patience", 2)
        bounds.setdefault("cooldown_ticks", 3)
        bounds.setdefault("max_batch", 4)  # start saturated
        controller = ServoController(
            SLO(p99_latency_s=0.100),
            telemetry,
            engine=engine,
            bounds=ControlBounds(**bounds),
            autoscale=True,
            clock=clock,
        )
        return clock, telemetry, engine, controller

    def test_adds_worker_on_sustained_saturated_breach(self, rig):
        clock, telemetry, engine, controller = self.make(rig)
        for _ in range(2):
            paint_window(telemetry, clock, p99_s=0.300)
            controller.tick()
        assert engine.workers == 3
        assert ("add_worker", 3) in engine.calls

    def test_refused_add_records_no_action(self, rig):
        """A refused ``add_worker`` (``False``) is not an actuation.

        It must not enter the action log or the actions counter, and it
        must not start a cooldown: the next breached tick that the
        engine accepts adds the worker straight away.
        """
        clock, telemetry, engine, controller = self.make(rig)
        engine.refuse_add = True
        for _ in range(2):
            paint_window(telemetry, clock, p99_s=0.300)
            controller.tick()
        assert engine.workers == 2
        assert [a for a in controller.actions if a.policy == "scaling"] == []
        counter = controller.obs.metrics.counter(
            "repro_control_actions_total", labels=("policy", "action")
        )
        assert counter.value(policy="scaling", action="add_worker") == 0
        engine.refuse_add = False
        paint_window(telemetry, clock, p99_s=0.300)
        controller.tick()
        assert engine.workers == 3
        assert ("add_worker", 3) in engine.calls

    def test_refused_retire_records_no_action(self, rig):
        clock, telemetry, engine, controller = self.make(rig)
        engine.refuse_retire = True
        for _ in range(4):
            paint_window(telemetry, clock, p99_s=0.005, depth=0)
            controller.tick()
        assert engine.workers == 2
        assert [a for a in controller.actions if a.policy == "scaling"] == []
        # No cooldown was started: the first accepted retire happens on
        # the very next idle tick.
        engine.refuse_retire = False
        paint_window(telemetry, clock, p99_s=0.005, depth=0)
        controller.tick()
        assert engine.workers == 1
        assert ("retire_worker", 1) in engine.calls

    def test_real_engine_refusal_is_not_an_action(self, rig):
        """The contract the stub mirrors, checked on a real engine.

        Outside a run :class:`~repro.serve.ServeEngine` refuses every
        add (``False``); the controller must log nothing for it.
        """
        clock, telemetry, _ = rig
        engine = ServeEngine(
            create_beamformer("das"), max_batch=4, log_every_s=0
        )
        controller = ServoController(
            SLO(p99_latency_s=0.100),
            telemetry,
            engine=engine,
            bounds=ControlBounds(patience=2, max_batch=4),
            autoscale=True,
            clock=clock,
        )
        for _ in range(4):
            paint_window(telemetry, clock, p99_s=0.300)
            controller.tick()
        assert engine.live_workers == 0
        assert [a for a in controller.actions if a.policy == "scaling"] == []

    def test_sustained_latency_breach_adds_a_worker_below_the_cap(
        self, rig
    ):
        # Batching shrinks on each breached tick; a breach that outlasts
        # patience adds a worker wherever max_batch stands.
        clock, telemetry, engine, controller = self.make(
            rig, max_batch=64
        )
        for _ in range(2):
            paint_window(telemetry, clock, p99_s=0.300)
            controller.tick()
        assert engine.max_batch == 2
        assert engine.workers == 3
        kinds = [a.action for a in controller.actions]
        assert kinds == ["shrink_batch", "shrink_batch", "add_worker"]

    def test_add_respects_max_workers(self, rig):
        clock, telemetry, engine, controller = self.make(
            rig, max_workers=2
        )
        for _ in range(4):
            paint_window(telemetry, clock, p99_s=0.300)
            controller.tick()
        assert engine.workers == 2
        assert [a for a in controller.actions if a.policy == "scaling"] == []

    def test_cooldown_prevents_flapping(self, rig):
        clock, telemetry, engine, controller = self.make(rig)
        for _ in range(4):
            paint_window(telemetry, clock, p99_s=0.300)
            controller.tick()
        # Breaches continue but the cooldown holds: one add, not three.
        assert engine.workers == 3

    def test_retires_worker_after_sustained_idle(self, rig):
        clock, telemetry, engine, controller = self.make(rig)
        # 2*patience healthy ticks with empty queues and a tiny p99.
        for _ in range(4):
            paint_window(telemetry, clock, p99_s=0.005, depth=0)
            controller.tick()
        assert engine.workers == 1
        assert ("retire_worker", 1) in engine.calls

    def test_scaling_respects_min_workers(self, rig):
        clock, telemetry, engine, controller = self.make(
            rig, min_workers=2
        )
        for _ in range(10):
            paint_window(telemetry, clock, p99_s=0.005, depth=0)
            controller.tick()
        assert engine.workers == 2

    def test_autoscale_off_never_scales(self, rig):
        clock, telemetry, engine = rig
        controller = ServoController(
            SLO(p99_latency_s=0.100),
            telemetry,
            engine=engine,
            bounds=ControlBounds(patience=1, max_batch=4),
            autoscale=False,
            clock=clock,
        )
        for _ in range(5):
            paint_window(telemetry, clock, p99_s=0.300)
            controller.tick()
        assert engine.workers == 2


class TestPlumbing:
    def test_callable_telemetry_handles_none(self, rig):
        clock, telemetry, engine = rig
        holder = {"telemetry": None}
        controller = ServoController(
            SLO(0.1),
            lambda: holder["telemetry"],
            engine=engine,
            clock=clock,
        )
        assert controller.tick() == []  # no run yet: no-op
        holder["telemetry"] = telemetry
        paint_window(telemetry, clock, p99_s=0.020)
        assert controller.tick() != []

    def test_actions_log_is_bounded(self, rig):
        from repro.serve.control import ACTION_LOG_CAP

        clock, telemetry, engine, = rig
        controller = ServoController(
            SLO(0.1),
            telemetry,
            engine=engine,
            bounds=ControlBounds(max_batch=10_000),
            clock=clock,
        )
        for _ in range(ACTION_LOG_CAP + 50):
            paint_window(telemetry, clock, p99_s=0.020)
            controller.tick()
        assert len(controller.actions) == ACTION_LOG_CAP

    def test_metrics_families_exported(self, rig):
        clock, telemetry, engine = rig
        controller = ServoController(
            SLO(0.1), telemetry, engine=engine, clock=clock
        )
        paint_window(telemetry, clock, p99_s=0.300)
        controller.tick()
        rendered = controller.obs.metrics.render_prometheus()
        assert "repro_control_actions_total" in rendered
        assert "repro_control_slo_breaches_total" in rendered
        assert 'signal="p99_latency"' in rendered

    def test_thread_runner_start_stop(self, rig):
        clock, telemetry, engine = rig
        controller = ServoController(
            SLO(0.1),
            telemetry,
            engine=engine,
            interval_s=0.01,
            clock=clock,
        )
        paint_window(telemetry, clock, p99_s=0.020)
        with controller:
            import time

            deadline = time.monotonic() + 5.0
            while not controller._ticks and time.monotonic() < deadline:
                time.sleep(0.005)
        assert controller._ticks >= 1
        assert controller._thread is None  # stopped and joined
