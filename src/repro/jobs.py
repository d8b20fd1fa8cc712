"""Shared execution knobs: worker-count resolution and termination signals.

Every process pool of the tool — the Table 4-6 report drivers, the
multi-MUT fan-out of ``repro atpg --jobs``, the ``repro serve`` worker
pool and the serve suite of ``repro bench`` — is sized through one helper,
so ``--jobs`` flags and the ``REPRO_JOBS`` environment variable mean the
same thing everywhere:

- an explicit positive ``jobs`` wins,
- ``jobs`` of ``0`` (or any non-positive value) means "all cores",
- ``None`` falls back to ``REPRO_JOBS``, then to ``os.cpu_count()``.

Each pool runs whole independent jobs; a single ATPG run is always serial.

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
from typing import Optional

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
