"""Shared execution knobs: whole-run fan-out, worker counts and SIGTERM.

Every process pool of the tool is sized through :func:`resolve_jobs`, so
``--jobs`` flags and the ``REPRO_JOBS`` environment variable mean the same
thing everywhere:

- an explicit positive ``jobs`` wins,
- ``jobs`` of ``0`` (or any non-positive value) means "all cores",
- ``None`` falls back to ``REPRO_JOBS``, then to ``os.cpu_count()``.

Parallelism stops at the run boundary: a single ATPG run is always
serial, and whole independent runs fan out through :func:`map_runs` —
the per-MUT runs of ``repro atpg --mut A --mut B``, the Table 4-6 report
drivers and local campaign trials.  The ``repro serve`` worker pool is
the only other pool; it is long-lived and streams progress.

The module also owns SIGTERM-to-exception translation for the synchronous
CLI: long ``repro atpg``/``repro bench`` runs must exit cleanly (status
143) with partial metrics flushed instead of dying mid-write.  The asyncio
job server installs its own loop-level handlers for graceful drain, which
override this one for the lifetime of ``repro serve``.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.obs import get_registry

#: Conventional exit status for "terminated by SIGTERM" (128 + 15).
SIGTERM_EXIT_CODE = 143


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``REPRO_JOBS``, else all cores.

    Non-positive values (from either the argument or the environment) mean
    "use every core", so ``--jobs 0`` is a portable way to say "as parallel
    as this machine allows".  A ``REPRO_JOBS`` that is not an integer
    raises :class:`ValueError` naming the variable and its value.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        try:
            jobs = int(env) if env else 0
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}") from None
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


#: ``(fn, items)`` of the :func:`map_runs` call whose pool is running.
#: Forked workers read the work from here, so it is never pickled.
_WORK: Optional[Tuple[Callable[[Any], Any], Sequence[Any]]] = None


def _run_one(index: int) -> Tuple[Any, dict]:
    """Pool worker: one item's result and the metrics it recorded."""
    registry = get_registry()
    registry.reset()
    fn, items = _WORK
    return fn(items[index]), registry.snapshot()


def map_runs(fn: Callable[[Any], Any], items: Sequence[Any],
             jobs: Optional[int] = None) -> List[Any]:
    """``[fn(x) for x in items]``, fanned out over forked workers.

    The pool has ``min(resolve_jobs(jobs), len(items))`` workers.  With at
    most one item or one worker, or without ``os.fork``, the items run in
    this process instead; a single item never consults ``REPRO_JOBS``.
    Workers inherit ``fn`` and the items through fork, so closures and
    bound methods work; only indices go out, and each result comes back
    with the metrics its run recorded, merged into this process's registry
    in item order.  A worker's exception propagates.  Fork copies only the
    calling thread, so call this from a process that runs no other thread.
    """
    global _WORK
    items = list(items)
    if len(items) <= 1:
        return [fn(item) for item in items]
    workers = min(resolve_jobs(jobs), len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    previous, _WORK = _WORK, (fn, items)
    try:
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork")) as pool:
            pairs = list(pool.map(_run_one, range(len(items))))
    finally:
        _WORK = previous
    registry = get_registry()
    for _result, snapshot in pairs:
        registry.merge_snapshot(snapshot)
    return [result for result, _snapshot in pairs]


class Terminated(Exception):
    """Raised in the main thread when the process receives SIGTERM."""

    def __init__(self, signum: int = signal.SIGTERM):
        super().__init__(f"terminated by signal {signum}")
        self.signum = signum


def install_sigterm_handler() -> bool:
    """Convert SIGTERM into a :class:`Terminated` exception.

    Returns False (and installs nothing) off the main thread or on
    platforms without SIGTERM; repeated installation is harmless.  The
    handler raises, so ordinary ``try``/``finally`` cleanup and the CLI's
    metrics flush run before the process exits.
    """
    if threading.current_thread() is not threading.main_thread():
        return False
    if not hasattr(signal, "SIGTERM"):  # pragma: no cover - non-posix
        return False

    def _raise(signum, frame):
        raise Terminated(signum)

    signal.signal(signal.SIGTERM, _raise)
    return True
