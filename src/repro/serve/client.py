"""Minimal blocking client for the job server.

Used by ``repro submit`` / ``repro jobs``, the serve benchmark suite and
the tests.  Plain stdlib ``http.client`` — one connection per request,
which keeps the client trivially thread-safe for concurrent submitters.
"""

from __future__ import annotations

import json
import os
import random
import time
from http.client import HTTPConnection
from typing import Any, Dict, Iterator, List, Optional, Tuple
from urllib.parse import urlparse

DEFAULT_SERVER = "http://127.0.0.1:8371"


def default_server_url() -> str:
    """``REPRO_SERVER`` env override, else the default local address."""
    return os.environ.get("REPRO_SERVER", DEFAULT_SERVER)


class ServeError(RuntimeError):
    """A non-2xx response from the server."""

    def __init__(self, status: int, message: str,
                 retry_after: Optional[int] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after


class ServeClient:
    """Thin request wrapper over one server base URL."""

    def __init__(self, base_url: Optional[str] = None,
                 timeout: float = 30.0):
        parsed = urlparse(base_url or default_server_url())
        if parsed.scheme not in ("", "http"):
            raise ValueError(f"unsupported scheme {parsed.scheme!r} "
                             "(the job server speaks plain http)")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 8371
        self.timeout = timeout

    # -- transport ---------------------------------------------------------

    def request(self, method: str, path: str,
                payload: Optional[Dict[str, Any]] = None,
                headers: Optional[Dict[str, str]] = None
                ) -> Tuple[int, Dict[str, str], Any]:
        """One request; returns (status, headers, parsed body)."""
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            body = None
            send_headers = {"Connection": "close"}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                send_headers["Content-Type"] = "application/json"
            send_headers.update(headers or {})
            conn.request(method, path, body=body, headers=send_headers)
            response = conn.getresponse()
            raw = response.read()
            header_map = {k.lower(): v for k, v in response.getheaders()}
        finally:
            conn.close()
        content_type = header_map.get("content-type", "")
        if content_type.startswith("application/json"):
            parsed = json.loads(raw.decode("utf-8")) if raw else None
        else:
            parsed = raw.decode("utf-8", errors="replace")
        return response.status, header_map, parsed

    def _checked(self, method: str, path: str,
                 payload: Optional[Dict[str, Any]] = None,
                 headers: Optional[Dict[str, str]] = None) -> Any:
        status, headers, body = self.request(method, path, payload,
                                             headers=headers)
        if status >= 400:
            message = body.get("error", str(body)) \
                if isinstance(body, dict) else str(body)
            retry_after = headers.get("retry-after")
            raise ServeError(status, message,
                             retry_after=int(retry_after)
                             if retry_after else None)
        return body

    # -- API ---------------------------------------------------------------

    def submit(self, spec: Dict[str, Any],
               traceparent: Optional[str] = None) -> Dict[str, Any]:
        """Submit a job spec; returns ``{"job": ..., "coalesced": ...}``.

        ``traceparent`` propagates a caller-side trace context: the
        server parents its submit span (and everything under it) there.
        """
        headers = {"traceparent": traceparent} if traceparent else None
        return self._checked("POST", "/v1/jobs", spec, headers=headers)

    def submit_with_retry(self, spec: Dict[str, Any],
                          traceparent: Optional[str] = None,
                          max_retries: int = 8,
                          base_delay: float = 0.1,
                          max_delay: float = 10.0,
                          rng: Optional[random.Random] = None,
                          sleep=None) -> Dict[str, Any]:
        """Submit, riding out 429 admission pushback instead of failing.

        Batch submitters (campaigns) are exactly the overload traffic the
        server's bounded queue throttles; a 429 means "later", not
        "never".  Backoff is capped exponential with jitter, and the
        server's ``Retry-After`` hint is honored as the floor of each
        delay (still capped at ``max_delay``).  Other errors, and a 429
        persisting past ``max_retries``, raise as usual.  ``rng`` and
        ``sleep`` are injectable for deterministic tests.
        """
        rng = rng if rng is not None else random.Random()
        do_sleep = sleep if sleep is not None else time.sleep
        attempt = 0
        while True:
            try:
                return self.submit(spec, traceparent=traceparent)
            except ServeError as exc:
                if exc.status != 429 or attempt >= max_retries:
                    raise
                delay = min(max_delay, base_delay * (2 ** attempt))
                delay *= 0.5 + rng.random() / 2  # full-ish jitter
                if exc.retry_after:
                    delay = max(delay, float(exc.retry_after))
                do_sleep(min(delay, max_delay))
                attempt += 1

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._checked("GET", f"/v1/jobs/{job_id}")["job"]

    def jobs(self, status: Optional[str] = None) -> Dict[str, Any]:
        path = "/v1/jobs" + (f"?status={status}" if status else "")
        return self._checked("GET", path)

    def health(self) -> Dict[str, Any]:
        return self._checked("GET", "/healthz")

    def metrics_text(self) -> str:
        return self._checked("GET", "/metrics")

    def metric_value(self, name: str) -> Optional[float]:
        """One sample value out of the Prometheus exposition, by name."""
        for line in self.metrics_text().splitlines():
            if line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) == 2 and parts[0] == name:
                return float(parts[1])
        return None

    def events(self, job_id: str, since: int = 0,
               timeout: Optional[float] = None
               ) -> Iterator[Dict[str, Any]]:
        """Stream a job's NDJSON event feed; yields one dict per event.

        Long-poll semantics: replays events past the ``since`` cursor,
        then follows live until the job reaches a terminal state (the
        server closes the stream after the ``done``/``failed`` event).
        Keep-alive lines (``{"event": "keepalive"}``) are yielded too so
        callers can show liveness; filter on ``event`` if unwanted.
        ``timeout`` bounds each read, not the whole stream — it must
        exceed the server's keep-alive interval.
        """
        conn = HTTPConnection(self.host, self.port,
                              timeout=timeout or max(self.timeout, 60.0))
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events?since={since}",
                         headers={"Connection": "close"})
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                try:
                    message = json.loads(raw.decode("utf-8"))["error"]
                except (ValueError, KeyError, UnicodeDecodeError):
                    message = raw.decode("utf-8", errors="replace")
                raise ServeError(response.status, message)
            # http.client undoes the chunked framing; iterating the
            # response yields the NDJSON lines as the server flushes them.
            for raw_line in response:
                line = raw_line.decode("utf-8").strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError:
                    continue
                if isinstance(event, dict):
                    yield event
        finally:
            conn.close()

    def wait(self, job_id: str, timeout: float = 300.0,
             interval: float = 0.05) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns the job."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["status"] in ("done", "failed"):
                return job
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['status']} "
                    f"after {timeout:.0f}s")
            time.sleep(interval)
            interval = min(interval * 1.5, 1.0)

    def wait_until_up(self, timeout: float = 30.0) -> Dict[str, Any]:
        """Poll ``/healthz`` until the server answers (startup helper)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except (OSError, ServeError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)


def jobs_summary_rows(listing: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Table rows for ``repro jobs`` out of a ``GET /v1/jobs`` payload."""
    rows = []
    for job in listing.get("jobs", []):
        wait_s = run_s = None
        if job.get("started_at") is not None:
            wait_s = job["started_at"] - job["submitted_at"]
            end = job.get("finished_at")
            if end is not None:
                run_s = end - job["started_at"]
        rows.append({
            "id": job["id"],
            "op": job["op"],
            "mut": job.get("mut") or "-",
            "status": job["status"],
            "from": job.get("served_from") or "-",
            "coalesced": job.get("coalesced_count", 0),
            "wait_s": f"{wait_s:.2f}" if wait_s is not None else "-",
            "run_s": f"{run_s:.2f}" if run_s is not None else "-",
        })
    return rows
