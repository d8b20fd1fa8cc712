"""The persistent, content-addressed artifact store.

Layout on disk (one file per artifact, content-addressed by key
fingerprint)::

    <root>/v1/<stage>/<kk>/<key-fingerprint>.pkl

where ``<kk>`` is the first two hex digits of the key fingerprint and
``<stage>`` is a short stage name (``ast``, ``extract``, ``transform``,
``synth``, ``codegen``, ``atpg``, ``campaign``, ``serve``).  Every
payload is wrapped in an envelope
recording the store schema and the producing tool version; entries whose
envelope does not match the reader are treated as misses and recomputed —
the store may *never* fail a pipeline run.

Publishing is atomic: payloads are written to a temp file in the target
directory and moved into place with :func:`os.replace`, so concurrent
``--jobs`` workers and parallel CI shards can share one cache directory
without readers ever observing a partial entry.

Environment knobs:

- ``REPRO_CACHE_DIR`` — cache root (default ``$XDG_CACHE_HOME/repro`` or
  ``~/.cache/repro``),
- ``REPRO_NO_CACHE`` — any value other than empty/``0`` disables the store
  entirely (no reads, no writes).

Per-stage traffic is counted through :mod:`repro.obs.metrics` under the
``store.`` prefix (``store.<stage>.hits`` / ``.misses`` / ``.writes``,
``store.<stage>.bytes_read`` / ``.bytes_written``, plus
``store.corrupt_entries`` for envelope/deserialization failures), which
``repro profile`` surfaces alongside the pipeline metrics.
"""

from __future__ import annotations

import os
import pickle
import sys
import tempfile
from typing import Any, Dict, Tuple

from repro.obs import counter, get_logger
from repro.store.fingerprint import fingerprint_text, canonical_json

_log = get_logger("store")

#: Bump when the on-disk entry format (envelope or layout) changes.
STORE_SCHEMA = 1

#: Sentinel returned by :meth:`ArtifactStore.get` on a miss, so ``None``
#: payloads remain storable.
MISS = object()

_PICKLE_PROTOCOL = 4


def _repro_version() -> str:
    # Imported lazily: repro/__init__ -> core.factor -> hierarchy ->
    # repro.store would otherwise see a partially initialized package.
    from repro import __version__

    return __version__


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``/``~/.cache``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


def store_disabled() -> bool:
    return os.environ.get("REPRO_NO_CACHE", "") not in ("", "0")


class ArtifactStore:
    """Content-addressed pickle store with atomic publish."""

    def __init__(self, root: str, enabled: bool = True):
        self.root = root
        self.enabled = enabled
        self._broken = False  # set when the root is unwritable

    # -- keys and paths ----------------------------------------------------

    def key_fingerprint(self, stage: str, key: Dict[str, Any]) -> str:
        """The content address of an entry.

        The tool version, store schema and python major.minor are folded
        into every key, so upgrades miss cleanly instead of deserializing
        foreign payloads (the envelope check is the backstop).
        """
        full = {
            "stage": stage,
            "schema": STORE_SCHEMA,
            "repro": _repro_version(),
            "python": f"{sys.version_info[0]}.{sys.version_info[1]}",
            "key": key,
        }
        return fingerprint_text(canonical_json(full))

    def entry_path(self, stage: str, key: Dict[str, Any]) -> str:
        fp = self.key_fingerprint(stage, key)
        return os.path.join(self.root, f"v{STORE_SCHEMA}", stage,
                            fp[:2], fp + ".pkl")

    # -- read/write --------------------------------------------------------

    def get(self, stage: str, key: Dict[str, Any]) -> Any:
        """The stored payload, or :data:`MISS`.

        Corrupted, truncated, version-skewed or otherwise unreadable
        entries count as misses (and are unlinked best-effort); a store
        read can never raise into the pipeline.
        """
        if not self.enabled:
            return MISS
        path = self.entry_path(stage, key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            counter(f"store.{stage}.misses").inc()
            return MISS
        try:
            envelope = pickle.loads(data)
            if (envelope["schema"] != STORE_SCHEMA
                    or envelope["repro"] != _repro_version()
                    or envelope["stage"] != stage):
                raise ValueError("envelope mismatch")
            payload = envelope["payload"]
        except Exception as exc:
            # Truncated write, schema drift, unpicklable class change...
            # all degrade to a recompute, never a crash.
            _log.warning("store_corrupt_entry", stage=stage, path=path,
                         error=str(exc))
            counter("store.corrupt_entries").inc()
            counter(f"store.{stage}.misses").inc()
            self._unlink_quiet(path)
            return MISS
        counter(f"store.{stage}.hits").inc()
        counter(f"store.{stage}.bytes_read").inc(len(data))
        return payload

    def put(self, stage: str, key: Dict[str, Any], payload: Any) -> bool:
        """Atomically publish ``payload``; returns False when skipped.

        Write failures (read-only cache dir, disk full, unpicklable
        payload) disable further writes for this store instance and are
        reported once at warning level — the run itself proceeds.
        """
        if not self.enabled or self._broken:
            return False
        path = self.entry_path(stage, key)
        try:
            data = pickle.dumps({
                "schema": STORE_SCHEMA,
                "repro": _repro_version(),
                "stage": stage,
                "payload": payload,
            }, protocol=_PICKLE_PROTOCOL)
        except Exception as exc:
            _log.warning("store_unpicklable_payload", stage=stage,
                         error=str(exc))
            return False
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp_path, path)
            except BaseException:
                self._unlink_quiet(tmp_path)
                raise
        except OSError as exc:
            self._broken = True
            _log.warning("store_unwritable", root=self.root, error=str(exc))
            return False
        counter(f"store.{stage}.writes").inc()
        counter(f"store.{stage}.bytes_written").inc(len(data))
        return True

    # -- maintenance -------------------------------------------------------

    def _entries(self):
        """Yield ``(stage, path, size_bytes, mtime)`` for every entry."""
        schema_root = os.path.join(self.root, f"v{STORE_SCHEMA}")
        if not os.path.isdir(schema_root):
            return
        for stage in sorted(os.listdir(schema_root)):
            stage_dir = os.path.join(schema_root, stage)
            if not os.path.isdir(stage_dir):
                continue
            for dirpath, _dirnames, filenames in os.walk(stage_dir):
                for filename in sorted(filenames):
                    if not filename.endswith(".pkl"):
                        continue
                    path = os.path.join(dirpath, filename)
                    try:
                        st = os.stat(path)
                    except OSError:
                        continue
                    yield stage, path, st.st_size, st.st_mtime

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage entry counts and byte totals (plus a ``total`` row)."""
        out: Dict[str, Dict[str, int]] = {}
        total = {"entries": 0, "bytes": 0}
        for stage, _path, size, _mtime in self._entries():
            bucket = out.setdefault(stage, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
            total["entries"] += 1
            total["bytes"] += size
        out["total"] = total
        return out

    def clear(self) -> int:
        """Remove every entry; returns the number of files removed."""
        removed = 0
        for _stage, path, _size, _mtime in list(self._entries()):
            if self._unlink_quiet(path):
                removed += 1
        return removed

    def gc(self, max_bytes: int) -> Tuple[int, int]:
        """Evict least-recently-modified entries until the store fits in
        ``max_bytes``; returns ``(files_removed, bytes_remaining)``."""
        entries = sorted(self._entries(), key=lambda e: e[3])  # oldest first
        total = sum(size for _stage, _path, size, _mtime in entries)
        removed = 0
        for _stage, path, size, _mtime in entries:
            if total <= max_bytes:
                break
            if self._unlink_quiet(path):
                total -= size
                removed += 1
        return removed, total

    @staticmethod
    def _unlink_quiet(path: str) -> bool:
        try:
            os.unlink(path)
            return True
        except OSError:
            return False


_NULL_STORE = ArtifactStore(root="", enabled=False)
_STORES: Dict[str, ArtifactStore] = {}


def get_store() -> ArtifactStore:
    """The store for the current environment configuration.

    Resolved per call so tests (and long-lived processes) can flip
    ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE`` between pipeline runs;
    instances are reused per root so write-failure latching sticks.
    """
    if store_disabled():
        return _NULL_STORE
    root = default_cache_dir()
    store = _STORES.get(root)
    if store is None:
        store = ArtifactStore(root=root, enabled=True)
        _STORES[root] = store
    return store
