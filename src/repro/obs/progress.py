"""Live progress reporting: the hook the pipeline's hot loops call.

Long ATPG jobs used to report nothing until they finished.  The loops now
call :func:`progress` with their phase and counters; when no reporter is
installed — every plain CLI run — that call is one thread-local lookup
and a ``None`` check, cheap enough for per-fault granularity.  The job
server's worker installs a :class:`QueueProgressReporter` around each job
so throttled events (plus liveness heartbeats) flow over a
``multiprocessing`` pipe back to the server, which republishes them on
``GET /v1/jobs/<id>/events``.

Reporters are per *thread*, not per process: the server's in-thread
worker mode runs concurrent jobs in one process, and each must see only
its own reporter.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional

from repro.obs.trace import epoch_seconds, wall_clock

_local = threading.local()


def get_reporter() -> Optional["ProgressReporter"]:
    """This thread's installed reporter, if any."""
    return getattr(_local, "reporter", None)


def set_reporter(reporter: Optional["ProgressReporter"]) -> None:
    """Install (or with ``None``, remove) this thread's reporter."""
    _local.reporter = reporter


@contextmanager
def reporting(reporter: "ProgressReporter") -> Iterator["ProgressReporter"]:
    """Install a reporter for the duration of the block."""
    previous = get_reporter()
    set_reporter(reporter)
    try:
        yield reporter
    finally:
        set_reporter(previous)


def progress(phase: str, force: bool = False, **fields: Any) -> None:
    """Report progress from a hot loop; no-op without a reporter."""
    reporter = getattr(_local, "reporter", None)
    if reporter is not None:
        reporter.emit(phase, force=force, **fields)


class ProgressReporter:
    """Base reporter: throttling, sequencing and payload shaping.

    Events inside one phase are rate-limited to one per ``min_interval``
    seconds; phase transitions and ``force=True`` events always go out.
    Subclasses implement :meth:`send`, which must never raise into the
    loop being instrumented.

    Reporters are bound to the process that created them: a forked child
    inherits the installed reporter (thread-locals survive fork), but its
    copy of the underlying channel shares pipe state with the parent, so
    emitting from the child risks interleaved writes or deadlock on an
    inherited lock.  :meth:`emit` therefore drops events from any process
    other than the creator — a run forked by a process pool (the per-MUT
    runs of ``repro atpg --jobs``, local campaign trials) goes silent
    instead of corrupting its parent's progress stream.
    """

    def __init__(self, min_interval: float = 0.25):
        self.min_interval = min_interval
        self.seq = 0
        self._last_phase: Optional[str] = None
        self._last_emit = float("-inf")
        self._pid = os.getpid()

    def emit(self, phase: str, force: bool = False, **fields: Any) -> None:
        if os.getpid() != self._pid:
            return
        now = wall_clock()
        if (not force and phase == self._last_phase
                and now - self._last_emit < self.min_interval):
            return
        self._last_phase = phase
        self._last_emit = now
        self.seq += 1
        payload: Dict[str, Any] = {
            "event": "progress",
            "phase": phase,
            "seq": self.seq,
            "t": round(epoch_seconds(now), 6),
        }
        payload.update(fields)
        self.send(payload)

    def send(self, payload: Dict[str, Any]) -> None:
        raise NotImplementedError

    # Lifecycle hooks; meaningful only for reporters with background work.
    def start(self) -> "ProgressReporter":
        return self

    def stop(self) -> None:
        pass


class CallbackProgressReporter(ProgressReporter):
    """Deliver payloads to a plain callable (tests, benchmarks, CLI)."""

    def __init__(self, callback: Callable[[Dict[str, Any]], None],
                 min_interval: float = 0.25):
        super().__init__(min_interval=min_interval)
        self._callback = callback

    def send(self, payload: Dict[str, Any]) -> None:
        self._callback(payload)


class QueueProgressReporter(ProgressReporter):
    """Forward ``(job_id, payload)`` pairs over a multiprocessing queue.

    The queue is the worker→server progress pipe.  A background thread
    sends a heartbeat whenever ``heartbeat_s`` passes without a real
    event, so the server can distinguish "grinding through a hard fault"
    from "worker died".  Send failures (server gone, pipe closed) disable
    the reporter instead of propagating into the ATPG loop.
    """

    def __init__(self, queue: Any, job_id: str,
                 min_interval: float = 0.25,
                 heartbeat_s: Optional[float] = 5.0):
        super().__init__(min_interval=min_interval)
        self.queue = queue
        self.job_id = job_id
        self.heartbeat_s = heartbeat_s
        self._broken = False
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def send(self, payload: Dict[str, Any]) -> None:
        if self._broken:
            return
        try:
            self.queue.put((self.job_id, payload))
        except (OSError, ValueError):
            self._broken = True

    def start(self) -> "QueueProgressReporter":
        if self.heartbeat_s is not None and self._thread is None:
            self._thread = threading.Thread(
                target=self._heartbeat_loop, daemon=True,
                name=f"progress-heartbeat-{self.job_id}")
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            if wall_clock() - self._last_emit >= self.heartbeat_s:
                self.send({"event": "heartbeat",
                           "t": round(epoch_seconds(wall_clock()), 6)})
