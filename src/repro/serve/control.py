"""Telemetry-driven serving control loop (the "servo").

:class:`ServoController` closes the loop ROADMAP item 4 describes:
instead of hand-tuning ``max_batch`` / worker count / session credits
for one traffic shape, the operator declares an
:class:`SLO` and the controller steers the running system toward it.
Every ``tick`` it pulls one windowed telemetry snapshot
(:meth:`~repro.serve.telemetry.ServeTelemetry.control_snapshot` —
stage p99s, queue depths, batch sizes, plan-cache hit rate since the
previous tick) and actuates up to three axes:

* **batching** (always on) — grow ``max_batch`` by one while the p99
  has headroom and shrink it by one on a latency breach, so the oldest
  queued frame no longer waits behind a long batch.  A *queue* breach
  instead grows the batch — backlog means per-batch overhead is the
  bottleneck, and larger batches amortize it.
* **admission** (when a gateway is attached) — on a sustained breach
  halve every session's in-flight credit via
  :meth:`~repro.gateway.server.GatewayServer.set_admission` so load is
  shed at the edge (clients see ``busy`` responses, not silent queue
  growth); restore additively once healthy.
* **scaling** (when ``autoscale`` and the engine supports it) — add a
  worker when a breach outlasts ``patience`` ticks of batching steps,
  retire one after a sustained idle stretch; both behind a cooldown so
  the pool does not flap.  A frame waits only while every worker is
  busy, so a sustained breach is a capacity problem.

Why AIMD on admission: additive increase probes capacity gently (one
step per tick, so overshoot is bounded by one step), multiplicative
decrease backs off fast when the SLO is violated — the same asymmetry
that lets TCP share a bottleneck stably.  The controller is
deliberately *stateless beyond streak counters*: every decision derives
from the latest window plus bounded memory, so a restarted controller
converges to the same behaviour within ``patience`` ticks.

The loop is fake-clock testable: construct with any
:class:`~repro.serve.clock.Clock` and call :meth:`tick` directly; the
background thread (:meth:`start` / :meth:`stop`) is only a real-time
convenience wrapper around the same method.

Observability: every decision lands in the bounded :attr:`actions` log,
as a ``control_action`` structured event, and in two metric families —
``repro_control_actions_total{policy,action}`` and
``repro_control_slo_breaches_total{signal}`` (see docs/autotuning.md
for how to read them).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from repro.obs import Observability
from repro.serve.clock import Clock, MonotonicClock

#: How many control decisions the in-memory action log retains.
ACTION_LOG_CAP = 256


@dataclass(frozen=True)
class SLO:
    """The service-level objective the controller enforces.

    Attributes:
        p99_latency_s: ceiling on the windowed end-to-end (``total``
            stage) p99 latency, in seconds.
        max_queue_depth: ceiling on the last-observed depth of any
            queue the telemetry samples (the engine's ingest queue, the
            gateway's feed and in-flight count); sustained depth
            above this is treated as saturation even while latency
            still looks fine (queues hide latency until they are full).
    """

    p99_latency_s: float
    max_queue_depth: int = 64

    def __post_init__(self) -> None:
        """Validate the objective is actually enforceable."""
        if self.p99_latency_s <= 0:
            raise ValueError(
                f"p99_latency_s must be > 0, got {self.p99_latency_s}"
            )
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, "
                f"got {self.max_queue_depth}"
            )


@dataclass(frozen=True)
class ControlBounds:
    """Actuation limits: the box the controller may steer within.

    The controller never moves a knob outside these bounds, no matter
    what telemetry says — they are the operator's guard rails.
    ``headroom`` sets the AIMD grow threshold: batching only grows
    while the windowed p99 is below ``headroom * slo.p99_latency_s``.
    ``patience`` is the number of consecutive breached (or healthy)
    ticks before the slower axes (admission, scaling) act, and
    ``cooldown_ticks`` is the scale-action refractory period.
    """

    min_batch: int = 1
    max_batch: int = 64
    min_workers: int = 1
    max_workers: int = 64
    min_inflight: int = 1
    headroom: float = 0.7
    patience: int = 3
    cooldown_ticks: int = 5

    def __post_init__(self) -> None:
        """Reject inverted or degenerate bounds."""
        if not 1 <= self.min_batch <= self.max_batch:
            raise ValueError(
                f"need 1 <= min_batch <= max_batch, got "
                f"{self.min_batch}..{self.max_batch}"
            )
        if not 1 <= self.min_workers <= self.max_workers:
            raise ValueError(
                f"need 1 <= min_workers <= max_workers, got "
                f"{self.min_workers}..{self.max_workers}"
            )
        if self.min_inflight < 1:
            raise ValueError(
                f"min_inflight must be >= 1, got {self.min_inflight}"
            )
        if not 0 < self.headroom < 1:
            raise ValueError(
                f"headroom must be in (0, 1), got {self.headroom}"
            )
        if self.patience < 1 or self.cooldown_ticks < 0:
            raise ValueError(
                "patience must be >= 1 and cooldown_ticks >= 0"
            )


@dataclass(frozen=True)
class ControlAction:
    """One decision the controller took (or deliberately skipped).

    Attributes:
        at: controller-clock timestamp of the decision.
        policy: which axis acted — ``batching`` / ``admission`` /
            ``scaling``.
        action: what it did (e.g. ``grow_batch``, ``shrink_batch``,
            ``shed``, ``add_worker``).
        value: the knob's new value.
        reason: the telemetry fact that triggered it.
    """

    at: float
    policy: str
    action: str
    value: float
    reason: str


@dataclass
class _AxisState:
    """Streak/cooldown counters for one actuation axis."""

    breach_streak: int = 0
    healthy_streak: int = 0
    cooldown: int = 0


class ServoController:
    """Steer a serving engine (and optional gateway) toward an SLO.

    Args:
        slo: the objective to enforce.
        telemetry: the live :class:`~repro.serve.telemetry.ServeTelemetry`
            to read, or a zero-arg callable returning it (or ``None``
            while no run is active) — the gateway creates its telemetry
            per ``start()``, so a callable keeps the controller attached
            across restarts.  The controller is this telemetry's *only*
            ``control_snapshot`` reader.
        engine: the engine to actuate — anything exposing
            ``set_batching`` and (for autoscale) ``add_worker`` /
            ``retire_worker`` (each returning whether it acted) and
            ``live_workers``, as :class:`~repro.serve.engine.ServeEngine`
            does.
        gateway: optional :class:`~repro.gateway.server.GatewayServer`
            whose admission credits the controller may shed/restore.
        bounds: actuation limits (default :class:`ControlBounds`).
        autoscale: enable the worker-scaling axis (off by default —
            adding processes is the most invasive actuator).
        interval_s: tick period of the background thread; direct
            :meth:`tick` callers ignore it.
        clock: time source for action timestamps (fake in tests).
        observability: metrics/event sink; defaults to the engine's
            bundle when it has one.
    """

    def __init__(
        self,
        slo: SLO,
        telemetry,
        engine=None,
        gateway=None,
        bounds: ControlBounds | None = None,
        autoscale: bool = False,
        interval_s: float = 1.0,
        clock: Clock | None = None,
        observability: Observability | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(
                f"interval_s must be > 0, got {interval_s}"
            )
        self.slo = slo
        self.bounds = bounds or ControlBounds()
        self._telemetry = telemetry
        self.engine = engine
        self.gateway = gateway
        self.autoscale = autoscale and engine is not None and hasattr(
            engine, "add_worker"
        )
        self.interval_s = interval_s
        self.clock = clock or MonotonicClock()
        self.obs = observability or getattr(
            engine, "obs", None
        ) or Observability.create(clock=self.clock)
        self._m_actions = self.obs.metrics.counter(
            "repro_control_actions_total",
            "Control-loop actuations, by policy axis and action.",
            labels=("policy", "action"),
        )
        self._m_breaches = self.obs.metrics.counter(
            "repro_control_slo_breaches_total",
            "Ticks whose telemetry window violated the SLO, by signal.",
            labels=("signal",),
        )
        #: Bounded decision log (newest last); exported via
        #: :meth:`status` and printed by ``examples/autoscale_demo.py``.
        self.actions: deque[ControlAction] = deque(maxlen=ACTION_LOG_CAP)
        self._tick_actions: list[ControlAction] = []
        self._batching = _AxisState()
        self._admission = _AxisState()
        self._scaling = _AxisState()
        self._ticks = 0
        self._breaches = 0
        # Admission restore target: the gateway's configured credit at
        # attach time.
        self._base_inflight = (
            gateway.max_inflight if gateway is not None else None
        )
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()

    # -- plumbing --------------------------------------------------------

    def _snapshot(self) -> dict | None:
        telemetry = self._telemetry
        if callable(telemetry) and not hasattr(
            telemetry, "control_snapshot"
        ):
            telemetry = telemetry()
        if telemetry is None:
            return None
        return telemetry.control_snapshot()

    def _record(
        self, policy: str, action: str, value: float, reason: str
    ) -> None:
        entry = ControlAction(
            at=self.clock.now(),
            policy=policy,
            action=action,
            value=float(value),
            reason=reason,
        )
        self.actions.append(entry)
        self._tick_actions.append(entry)
        self._m_actions.inc(policy=policy, action=action)
        self.obs.events.emit(
            "control_action",
            policy=policy,
            action=action,
            value=float(value),
            reason=reason,
        )

    def status(self) -> dict:
        """Current controller state (JSON-serializable)."""
        return {
            "ticks": self._ticks,
            "breaches": self._breaches,
            "slo": {
                "p99_latency_s": self.slo.p99_latency_s,
                "max_queue_depth": self.slo.max_queue_depth,
            },
            "engine": (
                {
                    "max_batch": self.engine.max_batch,
                    "live_workers": getattr(
                        self.engine, "live_workers", None
                    ),
                }
                if self.engine is not None
                else None
            ),
            "gateway": (
                {"max_inflight": self.gateway.max_inflight}
                if self.gateway is not None
                else None
            ),
            "actions": [
                {
                    "at": action.at,
                    "policy": action.policy,
                    "action": action.action,
                    "value": action.value,
                    "reason": action.reason,
                }
                for action in self.actions
            ],
        }

    # -- the control loop ------------------------------------------------

    def tick(self) -> list[ControlAction]:
        """Run one control cycle; returns the actions it took.

        Reads one telemetry window, classifies it against the SLO
        (breach signals are counted in
        ``repro_control_slo_breaches_total``), then lets each enabled
        axis act.  Windows with no completed frames are skipped
        entirely — an idle system gives the controller nothing to
        steer on, and acting on silence would unwind a configuration
        the next burst still needs.
        """
        self._tick_actions = []
        snapshot = self._snapshot()
        self._ticks += 1
        if snapshot is None:
            return []
        depth = max(snapshot.get("queue_depth", {}).values(), default=0)
        if not snapshot.get("frames_done"):
            # No completions this window.  Idle silence is nothing to
            # steer on — but a window that completed *zero* frames
            # while the queue sits over the SLO is the opposite of
            # idle (a long batch is hogging the worker while backlog
            # builds), and queue depth is refreshed on every arrival,
            # so it stays a valid — and leading — breach signal.
            if depth <= self.slo.max_queue_depth:
                return []
        p99_s = (
            snapshot["stages"]["total"].get("p99_ms", 0.0) / 1e3
        )
        latency_breach = p99_s > self.slo.p99_latency_s
        queue_breach = depth > self.slo.max_queue_depth
        if latency_breach:
            self._breaches += 1
            self._m_breaches.inc(signal="p99_latency")
        if queue_breach:
            self._breaches += 1
            self._m_breaches.inc(signal="queue_depth")
        breached = latency_breach or queue_breach
        for axis in (self._batching, self._admission, self._scaling):
            if breached:
                axis.breach_streak += 1
                axis.healthy_streak = 0
            else:
                axis.healthy_streak += 1
                axis.breach_streak = 0
            if axis.cooldown > 0:
                axis.cooldown -= 1
        if self.engine is not None:
            self._steer_batching(p99_s, latency_breach, queue_breach)
        if self.gateway is not None:
            self._steer_admission(p99_s, depth)
        if self.autoscale:
            self._steer_scaling(p99_s, depth)
        return self._tick_actions

    def _steer_batching(
        self, p99_s: float, latency_breach: bool, queue_breach: bool
    ) -> None:
        """One ``max_batch`` step per tick, within the bounds."""
        bounds = self.bounds
        engine = self.engine
        if queue_breach:
            # Backlog: per-batch overhead is the bottleneck; larger
            # batches amortize it.
            if engine.max_batch < bounds.max_batch:
                engine.set_batching(max_batch=engine.max_batch + 1)
                self._record(
                    "batching", "grow_batch", engine.max_batch,
                    "queue depth over SLO: amortize dispatch overhead",
                )
            return
        if latency_breach:
            # The oldest queued frame waits for a whole batch to run:
            # shorter batches free a worker sooner.
            if engine.max_batch > bounds.min_batch:
                engine.set_batching(max_batch=engine.max_batch - 1)
                self._record(
                    "batching", "shrink_batch", engine.max_batch,
                    f"p99 {p99_s * 1e3:.1f}ms over SLO",
                )
            return
        if (
            p99_s < bounds.headroom * self.slo.p99_latency_s
            and engine.max_batch < bounds.max_batch
        ):
            engine.set_batching(max_batch=engine.max_batch + 1)
            self._record(
                "batching", "grow_batch", engine.max_batch,
                f"p99 {p99_s * 1e3:.1f}ms under "
                f"{bounds.headroom:.0%} of SLO",
            )

    def _steer_admission(self, p99_s: float, depth: int) -> None:
        """Shed/restore gateway session credits (sustained signals)."""
        bounds = self.bounds
        gateway = self.gateway
        axis = self._admission
        if axis.breach_streak >= bounds.patience:
            if gateway.max_inflight > bounds.min_inflight:
                shed = max(
                    bounds.min_inflight, gateway.max_inflight // 2
                )
                gateway.set_admission(max_inflight=shed)
                self._record(
                    "admission", "shed", shed,
                    f"{axis.breach_streak} breached ticks: shed load "
                    f"at the edge",
                )
                axis.breach_streak = 0
        elif (
            axis.healthy_streak >= bounds.patience
            and axis.cooldown == 0
            and self._base_inflight is not None
            and gateway.max_inflight < self._base_inflight
        ):
            # Additive increase, rate-limited by the cooldown: credit
            # restores one step per ``cooldown_ticks``, never one per
            # tick — restoring as fast as shedding just rebuilds the
            # queue the shed drained and oscillates through the SLO.
            restored = gateway.max_inflight + 1
            gateway.set_admission(max_inflight=restored)
            self._record(
                "admission", "restore", restored,
                f"{axis.healthy_streak} healthy ticks: re-admit load",
            )
            axis.cooldown = bounds.cooldown_ticks

    def _steer_scaling(self, p99_s: float, depth: int) -> None:
        """Worker add/retire (sustained signals, behind a cooldown)."""
        bounds = self.bounds
        engine = self.engine
        axis = self._scaling
        if axis.cooldown > 0:
            return
        live = engine.live_workers
        # Batching steps on every breached tick; a breach that outlasts
        # ``patience`` of them needs another worker.
        if (
            axis.breach_streak >= bounds.patience
            and live < bounds.max_workers
        ):
            if engine.add_worker():
                self._record(
                    "scaling", "add_worker", live + 1,
                    f"{axis.breach_streak} breached ticks",
                )
                axis.cooldown = bounds.cooldown_ticks
                axis.breach_streak = 0
        elif (
            axis.healthy_streak >= 2 * bounds.patience
            and live > bounds.min_workers
            and depth == 0
            and p99_s < 0.5 * bounds.headroom * self.slo.p99_latency_s
        ):
            if engine.retire_worker():
                self._record(
                    "scaling", "retire_worker", live - 1,
                    f"{axis.healthy_streak} idle ticks: shrink the "
                    f"pool",
                )
                axis.cooldown = bounds.cooldown_ticks
                axis.healthy_streak = 0

    # -- background runner -----------------------------------------------

    def start(self) -> "ServoController":
        """Run :meth:`tick` every ``interval_s`` on a daemon thread."""
        if self._thread is not None:
            return self
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="serve-control", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            try:
                self.tick()
            except Exception:  # pragma: no cover - defensive
                # A telemetry race (e.g. the run ended mid-snapshot)
                # must not kill the control thread; the next tick
                # re-reads fresh state.
                continue

    def stop(self) -> None:
        """Stop the background thread (idempotent; joins it)."""
        thread = self._thread
        if thread is None:
            return
        self._stop_event.set()
        thread.join(timeout=10.0)
        self._thread = None

    def __enter__(self) -> "ServoController":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
