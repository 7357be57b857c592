"""Clock abstraction: real time for serving, fake time for tests.

Every time-dependent piece of :mod:`repro.serve` (frame pacing, stage
timestamps, control-loop actions) reads time through a :class:`Clock`
so the source, telemetry and control tests can drive time
deterministically with :class:`FakeClock` — no ``time.sleep`` in the
test suite.
"""

from __future__ import annotations

import abc
import time


class Clock(abc.ABC):
    """Minimal monotonic-time interface."""

    @abc.abstractmethod
    def now(self) -> float:
        """Current monotonic time in seconds."""

    @abc.abstractmethod
    def sleep(self, seconds: float) -> None:
        """Block for ``seconds`` (no-op for non-positive values)."""


class MonotonicClock(Clock):
    """Wall-clock implementation over ``time.monotonic``."""

    def now(self) -> float:
        """``time.monotonic()``."""
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        """``time.sleep`` for positive durations."""
        if seconds > 0:
            time.sleep(seconds)


class FakeClock(Clock):
    """Manually advanced clock for deterministic tests.

    ``sleep`` advances time instead of blocking and records every
    requested duration in :attr:`sleeps`, so tests can assert pacing
    behaviour (frame intervals, jitter) without waiting for it.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self.sleeps: list[float] = []

    def now(self) -> float:
        """The manually advanced fake time."""
        return self._now

    def sleep(self, seconds: float) -> None:
        """Advance fake time and record the requested duration."""
        self.sleeps.append(float(seconds))
        if seconds > 0:
            self._now += float(seconds)

    def advance(self, seconds: float) -> None:
        """Move time forward without recording a sleep."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds}")
        self._now += float(seconds)
