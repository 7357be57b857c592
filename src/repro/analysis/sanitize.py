"""Runtime concurrency sanitizer: lock-order recording + leak guards.

Static rules (:mod:`repro.analysis.rules`) catch what is visible in
the source; this module catches what only shows up at runtime:

* **Lock-order cycles.**  :class:`LockOrderGraph` records, per thread,
  the stack of locks currently held and draws a ``held → acquired``
  edge on every successful acquisition.  A cycle in that graph is a
  *potential deadlock*: two code paths take the same locks in opposite
  orders, and whether they ever deadlock is just a scheduling accident.
  :func:`lock_order_monitor` patches ``threading.Lock``/``RLock`` (and
  therefore everything built on them — Conditions, Events, queues) so
  any code run under it is recorded without modification.

* **Resource leaks.**  :class:`LeakGuard` snapshots threads, child
  processes and open file descriptors around a block of code and
  reports what outlived it.  A serving test that forgets to stop a
  gateway leaks its pump thread; a test that never joins a child
  process leaks it; a test that never closes a socket leaks its fd.  The
  guard polls with a grace period (threads finish asynchronously) and
  carries whitelists for the multiprocessing helper threads the stdlib
  parks forever.

Both are exposed to the test suite as fixtures (see the root
``conftest.py`` and ``tests/serve``/``tests/gateway`` conftests); the
classes here are plain context managers so they are equally usable in
scripts and examples.
"""

from __future__ import annotations

import _thread
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

__all__ = [
    "LockOrderGraph",
    "TrackedLock",
    "lock_order_monitor",
    "LeakGuard",
    "LeakReport",
]


# --------------------------------------------------------------------------
# Lock-order recording
# --------------------------------------------------------------------------


class LockOrderGraph:
    """Held→acquired edges over every tracked lock, plus cycle search.

    Thread-safe: the graph serializes its own mutations with a *raw*
    ``_thread`` lock so recording never recurses into the tracking
    layer it serves.
    """

    def __init__(self) -> None:
        self._mutex = _thread.allocate_lock()
        self._sites: dict[int, str] = {}
        self._edges: dict[int, set[int]] = {}
        self._local = threading.local()

    def register(self, lock_id: int, site: str) -> None:
        """Name ``lock_id`` by its creation site for readable reports."""
        with self._mutex:
            self._sites[lock_id] = site

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def note_acquired(self, lock_id: int) -> None:
        """Record a successful acquisition by the calling thread."""
        stack = self._stack()
        if stack and stack[-1] != lock_id:
            with self._mutex:
                self._edges.setdefault(stack[-1], set()).add(lock_id)
        stack.append(lock_id)

    def note_released(self, lock_id: int) -> None:
        """Record a release (last matching acquisition wins)."""
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == lock_id:
                del stack[index]
                return

    def site(self, lock_id: int) -> str:
        """The creation site registered for ``lock_id``."""
        with self._mutex:
            return self._sites.get(lock_id, f"<lock {lock_id:#x}>")

    def edges(self) -> dict[int, set[int]]:
        """A snapshot of the held→acquired edge set."""
        with self._mutex:
            return {node: set(targets) for node, targets in self._edges.items()}

    def cycles(self) -> list[list[str]]:
        """Every elementary cycle found by DFS, as creation-site lists.

        An empty list means no lock-order inversion was observed.  Each
        cycle is reported once, rotated so its smallest site comes
        first (stable output for tests and CI logs).
        """
        graph = self.edges()
        seen_cycles: set[tuple[str, ...]] = set()
        result: list[list[str]] = []

        def dfs(node: int, path: list[int], on_path: set[int]) -> None:
            for target in sorted(graph.get(node, ())):
                if target in on_path:
                    start = path.index(target)
                    cycle_ids = path[start:]
                    sites = [self.site(i) for i in cycle_ids]
                    smallest = min(range(len(sites)), key=sites.__getitem__)
                    rotated = tuple(
                        sites[smallest:] + sites[:smallest]
                    )
                    if rotated not in seen_cycles:
                        seen_cycles.add(rotated)
                        result.append(list(rotated))
                    continue
                dfs(target, path + [target], on_path | {target})

        for node in sorted(graph):
            dfs(node, [node], {node})
        return result


class TrackedLock:
    """A ``threading.Lock``/``RLock`` wrapper that reports to a graph.

    Matches the lock protocol (``acquire``/``release``/context
    manager/``locked``) and delegates everything else — notably the
    ``_release_save``/``_acquire_restore``/``_is_owned`` hooks
    :class:`threading.Condition` probes for — to the wrapped lock.
    A plain ``Lock`` has none of those, so Condition falls back to its
    ``acquire(0)`` probe, which this wrapper tracks like any acquire.
    (For RLocks, Condition.wait's release/reacquire bypasses tracking;
    the thread acquires nothing while waiting, so per-thread stacks
    stay consistent.)
    """

    def __init__(self, inner: Any, graph: LockOrderGraph, site: str) -> None:
        self._inner = inner
        self._graph = graph
        graph.register(id(self), site)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the wrapped lock; record edges on success."""
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._graph.note_acquired(id(self))
        return acquired

    def release(self) -> None:
        """Release the wrapped lock and pop the held stack."""
        self._inner.release()
        self._graph.note_released(id(self))

    def locked(self) -> bool:
        """Whether the wrapped lock is currently held."""
        return self._inner.locked()

    def __enter__(self) -> bool:
        """``with lock:`` acquires like the stdlib primitive."""
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        """Release on block exit."""
        self.release()

    def __getattr__(self, name: str) -> Any:
        """Delegate Condition's private hooks to the wrapped lock."""
        return getattr(self._inner, name)


class lock_order_monitor:
    """Patch ``threading.Lock``/``RLock`` so new locks are tracked.

    Usage::

        with lock_order_monitor() as graph:
            ...  # run code that creates and uses locks
        assert graph.cycles() == []

    Everything *created* inside the block is tracked (including
    Conditions and Events built from the patched factories); locks
    created before the block are invisible.  Patching is process-global
    — do not nest monitors or run them concurrently.
    """

    def __init__(self) -> None:
        self.graph = LockOrderGraph()
        self._originals: tuple[Any, Any] | None = None

    def _site(self) -> str:
        import traceback

        for frame in reversed(traceback.extract_stack(limit=16)):
            filename = frame.filename or ""
            if "threading" in os.path.basename(filename):
                continue
            if filename.endswith("sanitize.py"):
                continue
            return f"{filename}:{frame.lineno}"
        return "<unknown>"

    _active: "lock_order_monitor | None" = None

    def __enter__(self) -> LockOrderGraph:
        """Install the tracking factories."""
        if lock_order_monitor._active is not None:
            raise RuntimeError(
                "another lock_order_monitor is already active; "
                "monitors patch process-global state and cannot nest"
            )
        lock_order_monitor._active = self
        original_lock, original_rlock = threading.Lock, threading.RLock
        self._originals = (original_lock, original_rlock)

        def tracked_lock() -> TrackedLock:
            return TrackedLock(original_lock(), self.graph, self._site())

        def tracked_rlock() -> TrackedLock:
            return TrackedLock(original_rlock(), self.graph, self._site())

        threading.Lock = tracked_lock  # type: ignore[misc]
        threading.RLock = tracked_rlock  # type: ignore[misc]
        return self.graph

    def __exit__(self, *exc: object) -> None:
        """Restore the stdlib factories."""
        assert self._originals is not None
        threading.Lock, threading.RLock = self._originals
        self._originals = None
        lock_order_monitor._active = None


# --------------------------------------------------------------------------
# Leak detection
# --------------------------------------------------------------------------

#: Thread-name prefixes the stdlib parks for the process lifetime.
DEFAULT_THREAD_WHITELIST = (
    "QueueFeederThread",
    "QueueManagerThread",
    "Dummy",
    "pydevd",
)


def _fd_count() -> int | None:
    """Open descriptor count, or None where /proc is unavailable."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


@dataclass
class LeakReport:
    """What outlived a :class:`LeakGuard` block."""

    leaked_threads: list[str] = field(default_factory=list)
    leaked_processes: list[str] = field(default_factory=list)
    fd_delta: int = 0
    fd_tolerance: int = 0

    @property
    def ok(self) -> bool:
        """True when nothing leaked beyond tolerance."""
        return (
            not self.leaked_threads
            and not self.leaked_processes
            and self.fd_delta <= self.fd_tolerance
        )

    def describe(self) -> str:
        """Human-readable multi-line leak summary."""
        lines: list[str] = []
        for name in self.leaked_threads:
            lines.append(f"leaked thread: {name}")
        for name in self.leaked_processes:
            lines.append(f"leaked child process: {name}")
        if self.fd_delta > self.fd_tolerance:
            lines.append(
                f"fd count grew by {self.fd_delta} "
                f"(tolerance {self.fd_tolerance})"
            )
        return "\n".join(lines) or "no leaks"


class LeakGuard:
    """Snapshot threads/processes/fds and report what outlives a block.

    Args:
        grace_s: how long to poll for stragglers before declaring a
            leak.  Threads and worker processes wind down
            asynchronously; a zero grace flags ordinary shutdown races.
        fd_tolerance: allowed growth in open descriptors.  Imports,
            numpy scratch files and logging handlers legitimately keep
            a few descriptors; the default absorbs that noise while
            still catching a test that leaks sockets or files.
        include_daemon: count daemon threads as leaks.  Off by default
            (libraries park daemon helpers freely); the sanitizer's own
            unit tests switch it on to catch deliberate leaks.
        thread_whitelist: name prefixes that never count as leaks.
    """

    def __init__(
        self,
        grace_s: float = 5.0,
        fd_tolerance: int = 16,
        include_daemon: bool = False,
        thread_whitelist: Iterable[str] = DEFAULT_THREAD_WHITELIST,
    ) -> None:
        self.grace_s = grace_s
        self.fd_tolerance = fd_tolerance
        self.include_daemon = include_daemon
        self.thread_whitelist = tuple(thread_whitelist)
        self._threads_before: set[threading.Thread] = set()
        self._fds_before: int | None = None

    def _relevant_threads(self) -> set[threading.Thread]:
        relevant: set[threading.Thread] = set()
        for thread in threading.enumerate():
            if not self.include_daemon and thread.daemon:
                continue
            name = thread.name or ""
            if any(name.startswith(p) for p in self.thread_whitelist):
                continue
            relevant.add(thread)
        return relevant

    def __enter__(self) -> "LeakGuard":
        """Take the baseline snapshot."""
        # Reap finished children first so they don't mask as baseline.
        multiprocessing.active_children()
        self._threads_before = self._relevant_threads()
        self._fds_before = _fd_count()
        return self

    def __exit__(self, *exc: object) -> None:
        """Leave checking to :meth:`check` (fixtures decide severity)."""
        return None

    def check(self) -> LeakReport:
        """Poll (within the grace period) and report surviving leaks."""
        deadline = time.monotonic() + self.grace_s
        while True:
            report = self._snapshot_report()
            if report.ok or time.monotonic() >= deadline:
                return report
            time.sleep(0.05)

    def _snapshot_report(self) -> LeakReport:
        threads = [
            thread
            for thread in self._relevant_threads() - self._threads_before
            if thread.is_alive()
        ]
        processes = [
            process
            for process in multiprocessing.active_children()
            if process.is_alive()
        ]
        fd_delta = 0
        fds_now = _fd_count()
        if self._fds_before is not None and fds_now is not None:
            if fds_now > self._fds_before:
                import gc

                gc.collect()
                fds_now = _fd_count() or fds_now
            fd_delta = max(0, fds_now - self._fds_before)
        return LeakReport(
            leaked_threads=[
                f"{t.name} (daemon={t.daemon})" for t in threads
            ],
            leaked_processes=[
                f"{p.name} (pid={p.pid})" for p in processes
            ],
            fd_delta=fd_delta,
            fd_tolerance=self.fd_tolerance,
        )


def iter_lock_sites(graph: LockOrderGraph) -> Iterator[str]:
    """Creation sites of every lock the graph has seen (debug helper)."""
    for lock_id in sorted(graph.edges()):
        yield graph.site(lock_id)
