"""The resident ATPG job server.

One asyncio event loop owns all bookkeeping (job table, coalescing index,
admission queue, journal); pipeline work runs in a worker pool
(:class:`~concurrent.futures.ProcessPoolExecutor` by default) sized by the
shared ``--jobs``/``REPRO_JOBS`` rule.  Request flow for ``POST /v1/jobs``:

1. **validate** the spec and compute its store fingerprint,
2. **coalesce**: an identical job already queued or running absorbs the
   submission (same job id, one pipeline run for N clients),
3. **warm-serve**: a result already published to the artifact store under
   this fingerprint completes the job instantly, no worker involved,
4. **admit**: the bounded queue accepts the job (or answers 429 with a
   ``Retry-After`` estimate), the journal records it, a dispatcher hands
   it to the pool when a worker frees up.

Telemetry flows end to end.  Each submission opens a ``serve.submit``
span (parented under the client's ``traceparent`` header when present);
its context rides into the worker via the spec, and the worker's span
tree comes back in the job outcome, so every finished job leaves one
stitched cross-process trace at ``<cache>/traces/<job_id>.jsonl``.
While a job runs, workers push throttled progress events and liveness
heartbeats over a ``multiprocessing`` queue; the server republishes them
as a ``progress`` block on ``GET /v1/jobs/<id>`` and as a chunked-NDJSON
long-poll stream on ``GET /v1/jobs/<id>/events``.  Each job's stream ends
with a worker end-of-stream marker, and the terminal event waits for it,
so no progress event is lost to a result that arrives first.  Jobs that
overshoot the EWMA-derived duration threshold land in a slow-job log next
to the traces.

``SIGTERM``/``SIGINT`` start a graceful drain: admission closes, running
jobs get ``drain_timeout`` seconds to finish, the queued backlog persists
in the JSONL journal (or is finished in-line when no journal is
configured), and the process exits 0.  A restarted server replays the
journal and resumes the backlog before accepting new work.
"""

from __future__ import annotations

import asyncio
import functools
import json
import multiprocessing
import os
import signal
import threading
from concurrent.futures import Executor, ProcessPoolExecutor, \
    ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.jobs import resolve_jobs
from repro.obs import Span, atomic_write_text, counter, epoch_seconds, \
    gauge, get_logger, get_registry, histogram, parse_traceparent, \
    wall_clock
from repro.obs.trace import flatten_span_dict
from repro.store import MISS, default_cache_dir, get_store
from repro.serve.admission import CLOSED, AdmissionController, QueueFull
from repro.serve.httpd import HttpError, HttpRequest, HttpResponse, \
    NdjsonStream, Router, read_request
from repro.serve.journal import JobJournal
from repro.serve.protocol import DONE, FAILED, FROM_PIPELINE, FROM_STORE, \
    Job, JobSpec, ProtocolError, QUEUED, RUNNING
from repro.serve.worker import PROGRESS_END, execute_job, \
    init_worker_progress

_log = get_logger("serve")

#: Finished jobs kept in the in-memory table for ``GET /v1/jobs``.
MAX_FINISHED_JOBS = 1000

#: Seconds a finished job waits for the reader thread to deliver its
#: worker's end-of-stream marker before the terminal event goes out
#: anyway (counted as ``serve.progress_late``).
PROGRESS_END_WAIT_S = 10.0


@dataclass
class ServeConfig:
    """Deployment knobs for one server instance."""

    host: str = "127.0.0.1"
    port: int = 8371
    jobs: Optional[int] = None        # worker pool size (shared --jobs rule)
    queue_depth: int = 64             # admission bound
    journal_path: Optional[str] = None
    drain_timeout: float = 30.0       # seconds running jobs get on drain
    job_timeout: Optional[float] = None  # per-job wall budget once running
    worker_mode: str = "process"      # process | thread
    #: Progress telemetry: in-worker event throttle and heartbeat cadence.
    progress_interval: float = 0.25
    heartbeat_s: float = 5.0
    #: Idle seconds before an ``/events`` stream emits a keep-alive line.
    events_keepalive_s: float = 15.0
    #: Where stitched per-job traces (and the slow-job log) land; defaults
    #: to ``<cache>/traces`` next to the artifact store.
    trace_dir: Optional[str] = None
    #: A finished pipeline job is "slow" when its duration exceeds
    #: ``slow_job_factor`` × the admission EWMA (floored at
    #: ``slow_job_min_s``); slow jobs get a warning log line with their
    #: trace path and phase breakdown, plus an entry in slow_jobs.jsonl.
    slow_job_factor: float = 3.0
    slow_job_min_s: float = 1.0


class JobServer:
    """One resident server: HTTP front, admission, pool, journal."""

    def __init__(self, config: ServeConfig):
        if config.worker_mode not in ("process", "thread"):
            raise ValueError(
                f"bad worker_mode {config.worker_mode!r}; "
                "expected process|thread")
        self.config = config
        self.workers = resolve_jobs(config.jobs)
        self.address: Optional[str] = None
        self.trace_dir = config.trace_dir or os.path.join(
            default_cache_dir(), "traces")
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, str] = {}  # fingerprint -> job id
        self._submit_spans: Dict[str, Span] = {}  # job id -> open span
        self._event_signals: Dict[str, asyncio.Event] = {}
        # job id -> set once the worker's end-of-stream marker is read
        self._progress_ends: Dict[str, asyncio.Event] = {}
        self._seq = 1
        self._running = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._journal = JobJournal(config.journal_path)
        self._admission = AdmissionController(
            config.queue_depth, self.workers,
            on_expired=self._on_queue_expired)
        self._executor: Optional[Executor] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._progress_queue: Optional[Any] = None
        self._progress_thread: Optional[threading.Thread] = None
        self._dispatchers = []
        self._router = Router()
        self._router.add("POST", "/v1/jobs", self._route_submit)
        self._router.add("GET", "/v1/jobs", self._route_list)
        self._router.add("GET", "/v1/jobs/{job_id}", self._route_job)
        self._router.add("GET", "/v1/jobs/{job_id}/events",
                         self._route_job_events)
        self._router.add("GET", "/healthz", self._route_health)
        self._router.add("GET", "/metrics", self._route_metrics)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> str:
        """Bind, replay the journal, start dispatchers; returns base URL."""
        self._loop = asyncio.get_event_loop()
        # One queue serves every worker for the server's lifetime; it is
        # handed over at pool-spawn time (the only moment a multiprocessing
        # queue may legally cross the process boundary).
        self._progress_queue = multiprocessing.SimpleQueue()
        if self.config.worker_mode == "process":
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=init_worker_progress,
                initargs=(self._progress_queue,))
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="serve-worker",
                initializer=init_worker_progress,
                initargs=(self._progress_queue,))
        self._progress_thread = threading.Thread(
            target=self._drain_progress_queue, daemon=True,
            name="serve-progress")
        self._progress_thread.start()
        gauge("serve.workers", "worker pool size").set(self.workers)
        self._resume_from_journal()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port)
        host, port = self._server.sockets[0].getsockname()[:2]
        self.address = f"http://{host}:{port}"
        self._dispatchers = [
            asyncio.ensure_future(self._dispatcher())
            for _ in range(self.workers)
        ]
        _log.info("serve_started", address=self.address,
                  workers=self.workers, mode=self.config.worker_mode,
                  queue_depth=self.config.queue_depth,
                  journal=self.config.journal_path or "",
                  trace_dir=self.trace_dir)
        return self.address

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_event_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, functools.partial(self.request_drain, signum))

    def request_drain(self, signum: int = signal.SIGTERM) -> None:
        """Begin graceful shutdown (idempotent, callable from the loop)."""
        if self._draining:
            return
        self._draining = True
        _log.info("serve_draining", signum=signum,
                  queued=len(self._admission), running=self._running)
        # With a journal the backlog is durable, so drain fast: persist
        # queued jobs and only wait for the ones already on a worker.
        # Without one, finishing the backlog is the only non-lossy option.
        self._admission.close(keep_backlog=not self._journal.enabled)
        # Wake every /events streamer so it can terminate its response
        # instead of holding the listener open past the drain.
        for signal_ in self._event_signals.values():
            signal_.set()
        self._drained.set()

    async def run_until_drained(self) -> int:
        """Serve until a drain is requested, then shut down; returns 0."""
        await self._drained.wait()
        try:
            await asyncio.wait_for(
                asyncio.gather(*self._dispatchers, return_exceptions=True),
                timeout=self.config.drain_timeout)
        except asyncio.TimeoutError:
            _log.warning("drain_timeout_exceeded",
                         timeout=self.config.drain_timeout)
            for task in self._dispatchers:
                task.cancel()
            await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self._server.close()
        await self._server.wait_closed()
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self._progress_queue is not None:
            try:
                self._progress_queue.put(None)  # reader-thread sentinel
            except (OSError, ValueError):  # pragma: no cover
                pass
        if self._progress_thread is not None:
            self._progress_thread.join(timeout=2.0)
        self._journal.close()
        _log.info("serve_stopped", jobs_total=len(self._jobs))
        return 0

    async def run(self, install_signals: bool = True) -> int:
        await self.start()
        if install_signals:
            self.install_signal_handlers()
        return await self.run_until_drained()

    # -- journal resume ----------------------------------------------------

    def _resume_from_journal(self) -> None:
        survivors, next_seq = self._journal.replay()
        self._seq = max(self._seq, next_seq)
        for record in survivors:
            try:
                spec = JobSpec.from_journal(record["spec"]).validate()
            except (ProtocolError, KeyError, TypeError) as exc:
                _log.warning("journal_bad_spec", id=record.get("id"),
                             error=str(exc))
                continue
            job = Job(job_id=record["id"], spec=spec,
                      fingerprint=spec.fingerprint(),
                      submitted_at=wall_clock())
            # Parent the resumed run under the journaled submit context so
            # the job keeps one trace across the restart.
            self._attach_submit_span(job, client_trace=spec.trace)
            self._jobs[job.job_id] = job
            self._inflight[job.fingerprint] = job.job_id
            # Resumed work predates this process's admission window, so
            # it may exceed queue_depth; it must never be dropped.
            self._admission.admit(job, force=True)
        if survivors:
            _log.info("journal_resume_enqueued", jobs=len(survivors))

    def _on_queue_expired(self, job: Job) -> None:
        self._inflight.pop(job.fingerprint, None)
        self._journal.append("failed", id=job.job_id, error=job.error)
        self._publish_event(job, {"event": "failed", "error": job.error,
                                  "t": round(epoch_seconds(
                                      job.finished_at), 6)})
        self._finalize_trace(job)

    # -- progress channel --------------------------------------------------

    def _drain_progress_queue(self) -> None:
        """Reader thread: pump worker events onto the event loop."""
        while True:
            try:
                item = self._progress_queue.get()
            except (EOFError, OSError):
                return
            if item is None:
                return
            try:
                job_id, payload = item
            except (TypeError, ValueError):
                continue
            try:
                self._loop.call_soon_threadsafe(
                    self._on_progress, job_id, payload)
            except RuntimeError:  # loop already closed
                return

    def _on_progress(self, job_id: str, payload: Any) -> None:
        if isinstance(payload, dict) \
                and payload.get("event") == PROGRESS_END:
            end = self._progress_ends.get(job_id)
            if end is not None:
                end.set()
            return
        job = self._jobs.get(job_id)
        if job is None or job.status in (DONE, FAILED) \
                or not isinstance(payload, dict):
            return
        job.last_event_at = wall_clock()
        if payload.get("event") == "heartbeat":
            return  # liveness only; not part of the event log
        if payload.get("event") == "progress":
            job.progress = {k: v for k, v in payload.items()
                            if k != "event"}
            counter("serve.progress_events",
                    "worker progress events received").inc()
        self._publish_event(job, payload)

    def _publish_event(self, job: Job, payload: Dict[str, Any]) -> None:
        job.append_event(payload)
        signal_ = self._event_signals.get(job.job_id)
        if signal_ is not None:
            signal_.set()

    # -- dispatch ----------------------------------------------------------

    async def _dispatcher(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            job = await self._admission.next_job()
            if job is CLOSED:
                return
            job.status = RUNNING
            job.started_at = wall_clock()
            job.last_event_at = job.started_at
            self._running += 1
            gauge("serve.running", "jobs on a worker").set(self._running)
            gauge("serve.workers_busy",
                  "workers executing a job right now").set(self._running)
            histogram("serve.queue_wait_seconds").observe(
                job.started_at - job.submitted_at)
            self._journal.append("started", id=job.job_id)
            self._publish_event(job, {
                "event": "started",
                "t": round(epoch_seconds(job.started_at), 6)})
            fresh_registry = self.config.worker_mode == "process"
            progress_end = self._progress_ends[job.job_id] = asyncio.Event()
            try:
                future = loop.run_in_executor(
                    self._executor, functools.partial(
                        execute_job, job.spec.as_dict(),
                        fresh_registry=fresh_registry,
                        job_id=job.job_id,
                        progress_interval=self.config.progress_interval,
                        heartbeat_s=self.config.heartbeat_s))
                counter("serve.executed",
                        "jobs dispatched to the pipeline").inc()
                if self.config.job_timeout is not None:
                    outcome = await asyncio.wait_for(
                        asyncio.shield(future),
                        timeout=self.config.job_timeout)
                else:
                    outcome = await future
            except asyncio.TimeoutError:
                self._finish(job, ok=False,
                             error=f"job exceeded the server's "
                                   f"{self.config.job_timeout}s run budget")
                continue
            except Exception as exc:  # pool broke, worker died...
                self._finish(job, ok=False,
                             error=f"worker failure: {exc}")
                continue
            finally:
                self._running -= 1
                gauge("serve.running").set(self._running)
                gauge("serve.workers_busy").set(self._running)
            if outcome.get("progress_end"):
                # The result can overtake the progress the reader thread
                # has yet to pump: hold the terminal event until the
                # worker's end-of-stream marker is through.
                try:
                    await asyncio.wait_for(progress_end.wait(),
                                           timeout=PROGRESS_END_WAIT_S)
                except asyncio.TimeoutError:
                    counter("serve.progress_late",
                            "jobs finished before their progress "
                            "stream ended").inc()
                    _log.warning("progress_late", id=job.job_id,
                                 wait_s=PROGRESS_END_WAIT_S)
            if outcome["metrics"]:
                get_registry().merge_snapshot(outcome["metrics"])
            spans = outcome.get("spans") or []
            if outcome["ok"]:
                self._finish(job, ok=True, result=outcome["result"],
                             wall_s=outcome["wall_s"], spans=spans)
            else:
                self._finish(job, ok=False, error=outcome["error"],
                             spans=spans)

    def _finish(self, job: Job, ok: bool, result=None, error=None,
                wall_s: Optional[float] = None,
                spans: Optional[List[Dict[str, Any]]] = None) -> None:
        job.finished_at = wall_clock()
        self._progress_ends.pop(job.job_id, None)
        if ok:
            job.status = DONE
            job.served_from = FROM_PIPELINE
            job.result = result
            counter("serve.completed").inc()
            self._journal.append("done", id=job.job_id,
                                 served_from=FROM_PIPELINE)
            get_store().put("serve", {"request": job.fingerprint},
                            {"result": result, "op": job.spec.op})
        else:
            job.status = FAILED
            job.error = error
            counter("serve.failed").inc()
            self._journal.append("failed", id=job.job_id, error=error)
        duration = wall_s if wall_s is not None else (
            job.finished_at - (job.started_at or job.submitted_at))
        histogram("serve.job_seconds",
                  "pipeline seconds per executed job").observe(duration)
        slow_threshold = max(
            self.config.slow_job_min_s,
            self.config.slow_job_factor * self._admission.job_seconds_ewma)
        self._admission.observe_job_seconds(duration)
        if self._inflight.get(job.fingerprint) == job.job_id:
            del self._inflight[job.fingerprint]
        terminal = {"event": "done" if ok else "failed",
                    "t": round(epoch_seconds(job.finished_at), 6),
                    "wall_s": round(duration, 6)}
        if ok:
            terminal["served_from"] = job.served_from
        else:
            terminal["error"] = error
        self._finalize_trace(job, spans)
        self._publish_event(job, terminal)
        if duration > slow_threshold:
            self._log_slow_job(job, duration, slow_threshold, spans)
        self._trim_finished()

    # -- traces and slow jobs ----------------------------------------------

    def _attach_submit_span(self, job: Job,
                            client_trace: Optional[str] = None) -> None:
        """Open the server-side root span and thread its context onward."""
        submit = Span("serve.submit",
                      {"op": job.spec.op, "job_id": job.job_id},
                      context=parse_traceparent(client_trace))
        job.trace_id = submit.trace_id
        job.spec.trace = submit.context.to_traceparent()
        self._submit_spans[job.job_id] = submit

    def _finalize_trace(self, job: Job,
                        spans: Optional[List[Dict[str, Any]]] = None
                        ) -> None:
        """Stitch server + worker spans into one trace file per job."""
        submit = self._submit_spans.pop(job.job_id, None)
        if submit is None:
            return
        submit.set("status", job.status)
        if job.served_from is not None:
            submit.set("served_from", job.served_from)
        if job.started_at is not None:
            submit.set("queue_wait_s",
                       round(job.started_at - job.submitted_at, 6))
        submit.finish()
        lines = flatten_span_dict(submit.to_dict(), process="server")
        for tree in spans or []:
            if isinstance(tree, dict):
                lines.extend(flatten_span_dict(tree, process="worker"))
        path = os.path.join(self.trace_dir, f"{job.job_id}.jsonl")
        try:
            os.makedirs(self.trace_dir, exist_ok=True)
            atomic_write_text(path, "".join(
                json.dumps(line, separators=(",", ":"), sort_keys=True)
                + "\n" for line in lines))
        except OSError as exc:  # pragma: no cover - disk trouble
            _log.warning("trace_write_failed", id=job.job_id,
                         error=str(exc))
            return
        job.trace_path = path
        counter("serve.traces_written").inc()

    def _log_slow_job(self, job: Job, duration: float, threshold: float,
                      spans: Optional[List[Dict[str, Any]]]) -> None:
        """Record a job that overshot the EWMA-derived duration threshold."""
        phases = {}
        for tree in spans or []:
            if isinstance(tree, dict):
                for child in tree.get("children") or []:
                    name = child.get("name", "?")
                    phases[name] = round(
                        phases.get(name, 0.0)
                        + (child.get("wall_s") or 0.0), 3)
        counter("serve.slow_jobs",
                "jobs exceeding the EWMA slow threshold").inc()
        _log.warning("slow_job", id=job.job_id, op=job.spec.op,
                     wall_s=round(duration, 3),
                     threshold_s=round(threshold, 3),
                     trace=job.trace_path or "",
                     phases=json.dumps(phases, sort_keys=True))
        entry = {"id": job.job_id, "op": job.spec.op,
                 "t": round(epoch_seconds(wall_clock()), 6),
                 "wall_s": round(duration, 6),
                 "threshold_s": round(threshold, 6),
                 "trace": job.trace_path, "phases": phases}
        try:
            os.makedirs(self.trace_dir, exist_ok=True)
            with open(os.path.join(self.trace_dir, "slow_jobs.jsonl"),
                      "a", encoding="utf-8") as handle:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        except OSError:  # pragma: no cover - disk trouble
            pass

    def _trim_finished(self) -> None:
        if len(self._jobs) <= MAX_FINISHED_JOBS:
            return
        finished = [job_id for job_id, job in self._jobs.items()
                    if job.status in (DONE, FAILED)]
        for job_id in finished[:len(self._jobs) - MAX_FINISHED_JOBS]:
            del self._jobs[job_id]
            self._event_signals.pop(job_id, None)

    # -- routes ------------------------------------------------------------

    def _route_submit(self, request: HttpRequest) -> HttpResponse:
        if self._draining:
            raise HttpError(503, "server is draining",
                            headers={"Retry-After": "5"})
        try:
            spec = JobSpec.from_dict(request.json()).validate()
        except ProtocolError as exc:
            raise HttpError(400, str(exc)) from exc
        except TypeError as exc:
            raise HttpError(400, f"malformed request: {exc}") from exc
        client_trace = request.headers.get("traceparent")
        fingerprint = spec.fingerprint()
        counter("serve.submitted", "job submissions accepted").inc()

        # Single flight: identical in-flight work absorbs the submission.
        existing_id = self._inflight.get(fingerprint)
        if existing_id is not None:
            job = self._jobs[existing_id]
            job.coalesced_count += 1
            counter("serve.coalesced",
                    "submissions absorbed by an in-flight twin").inc()
            return self._submit_response(job, coalesced=True, status=200)

        # Warm path: a finished twin lives in the artifact store.
        stored = get_store().get("serve", {"request": fingerprint})
        if stored is not MISS:
            job = self._new_job(spec, fingerprint, client_trace)
            now = wall_clock()
            job.status = DONE
            job.started_at = job.finished_at = now
            job.served_from = FROM_STORE
            job.result = stored["result"]
            counter("serve.store_served",
                    "submissions answered from the artifact store").inc()
            self._journal.append("submitted", id=job.job_id,
                                 fingerprint=fingerprint,
                                 spec=spec.as_dict())
            self._journal.append("done", id=job.job_id,
                                 served_from=FROM_STORE)
            self._finalize_trace(job)
            self._publish_event(job, {"event": "done",
                                      "served_from": FROM_STORE,
                                      "t": round(epoch_seconds(now), 6)})
            return self._submit_response(job, coalesced=False, status=200)

        # Cold path: admission control, then the queue.
        job = self._new_job(spec, fingerprint, client_trace)
        try:
            self._admission.admit(job)
        except QueueFull as exc:
            del self._jobs[job.job_id]
            self._submit_spans.pop(job.job_id, None)
            raise HttpError(
                429,
                f"queue full ({exc.depth} jobs); retry in "
                f"{exc.retry_after}s",
                headers={"Retry-After": str(exc.retry_after)}) from exc
        self._inflight[fingerprint] = job.job_id
        self._journal.append("submitted", id=job.job_id,
                             fingerprint=fingerprint, spec=spec.as_dict())
        self._publish_event(job, {
            "event": "submitted", "op": job.spec.op,
            "t": round(epoch_seconds(job.submitted_at), 6)})
        return self._submit_response(job, coalesced=False, status=202)

    def _new_job(self, spec: JobSpec, fingerprint: str,
                 client_trace: Optional[str] = None) -> Job:
        job = Job(job_id=f"job-{self._seq}-{fingerprint[:8]}", spec=spec,
                  fingerprint=fingerprint, status=QUEUED,
                  submitted_at=wall_clock())
        self._seq += 1
        self._attach_submit_span(job, client_trace)
        self._jobs[job.job_id] = job
        return job

    def _submit_response(self, job: Job, coalesced: bool,
                         status: int) -> HttpResponse:
        headers = {}
        if job.spec.trace:
            headers["traceparent"] = job.spec.trace
        return HttpResponse.from_json(
            {"job": job.as_dict(), "coalesced": coalesced},
            status=status, headers=headers)

    def _route_list(self, request: HttpRequest) -> HttpResponse:
        jobs = [job.summary() for job in self._jobs.values()]
        status_filter = request.query.get("status")
        if status_filter:
            jobs = [j for j in jobs if j["status"] == status_filter]
        return HttpResponse.from_json({
            "jobs": jobs,
            "queued": len(self._admission),
            "running": self._running,
        })

    def _route_job(self, request: HttpRequest,
                   job_id: str) -> HttpResponse:
        job = self._jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"no such job {job_id!r}")
        return HttpResponse.from_json({"job": job.as_dict()})

    def _route_job_events(self, request: HttpRequest,
                          job_id: str) -> NdjsonStream:
        job = self._jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"no such job {job_id!r}")
        since_raw = request.query.get("since", "0")
        try:
            since = int(since_raw)
        except ValueError as exc:
            raise HttpError(
                400, f"bad 'since' cursor {since_raw!r}") from exc
        counter("serve.event_streams", "event-stream requests").inc()
        return NdjsonStream(self._event_lines(job, since))

    async def _event_lines(self, job: Job, since: int):
        """Replay events past ``since``, then follow until terminal."""
        signal_ = self._event_signals.setdefault(job.job_id,
                                                 asyncio.Event())
        cursor = since
        while True:
            for event in list(job.events):
                if event["seq"] > cursor:
                    cursor = event["seq"]
                    yield json.dumps(event, separators=(",", ":"),
                                     sort_keys=True) + "\n"
            if job.status in (DONE, FAILED):
                return
            if self._draining:
                yield json.dumps({"event": "draining"}) + "\n"
                return
            # No await between the scan above and this clear, so a wake-up
            # cannot be lost: appends happen on this same loop thread.
            signal_.clear()
            try:
                await asyncio.wait_for(
                    signal_.wait(),
                    timeout=self.config.events_keepalive_s)
            except asyncio.TimeoutError:
                yield json.dumps({
                    "event": "keepalive",
                    "t": round(epoch_seconds(wall_clock()), 6)}) + "\n"

    def _route_health(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.from_json({
            "status": "draining" if self._draining else "ok",
            "version": __version__,
            "workers": self.workers,
            "worker_mode": self.config.worker_mode,
            "queued": len(self._admission),
            "queue_depth": self.config.queue_depth,
            "running": self._running,
            "jobs": len(self._jobs),
        })

    def _route_metrics(self, request: HttpRequest) -> HttpResponse:
        ages = [wall_clock() - job.last_event_at
                for job in self._jobs.values()
                if job.status == RUNNING and job.last_event_at is not None]
        gauge("serve.heartbeat_age_seconds",
              "seconds since the last worker event, max over running jobs"
              ).set(round(max(ages), 3) if ages else 0.0)
        gauge("serve.workers_busy",
              "workers executing a job right now").set(self._running)
        return HttpResponse.from_text(
            get_registry().to_prometheus(),
            content_type="text/plain; version=0.0.4; charset=utf-8")

    # -- connection handling ----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(self._error_response(exc, close=True)
                                 .render())
                    await writer.drain()
                    break
                if request is None:
                    break
                response = self._dispatch_request(request)
                if not request.keep_alive or self._draining:
                    response.close = True
                if isinstance(response, NdjsonStream):
                    if not await self._write_stream(writer, response):
                        break
                else:
                    writer.write(response.render())
                    await writer.drain()
                if response.close:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _write_stream(self, writer: asyncio.StreamWriter,
                            response: NdjsonStream) -> bool:
        """Send a chunked NDJSON response; False if the connection must
        close (generator failure — the terminator was never sent, so the
        client sees the truncation instead of a silently-complete body)."""
        writer.write(response.render_head())
        await writer.drain()
        try:
            async for line in response.lines:
                writer.write(NdjsonStream.encode_chunk(line))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception:
            _log.exception("event_stream_failed")
            return False
        finally:
            aclose = getattr(response.lines, "aclose", None)
            if aclose is not None:
                try:
                    await aclose()
                except Exception:  # pragma: no cover
                    pass
        writer.write(NdjsonStream.terminator())
        await writer.drain()
        return True

    def _dispatch_request(self, request: HttpRequest):
        counter("serve.http_requests", "HTTP requests handled").inc()
        try:
            handler, params = self._router.match(request.method,
                                                 request.path)
            return handler(request, **params)
        except HttpError as exc:
            return self._error_response(exc)
        except Exception:
            _log.exception("request_failed", method=request.method,
                           path=request.path)
            counter("serve.http_errors").inc()
            return self._error_response(
                HttpError(500, "internal server error"))

    @staticmethod
    def _error_response(exc: HttpError, close: bool = False
                        ) -> HttpResponse:
        response = HttpResponse.from_json(
            {"error": exc.message, "status": exc.status},
            status=exc.status, headers=exc.headers)
        response.close = close
        return response


def run_server(config: ServeConfig,
               on_started=None) -> int:
    """Blocking entry point for ``repro serve``.

    Installs loop signal handlers (overriding the CLI's synchronous
    SIGTERM translation for the lifetime of the loop), runs until drained
    and returns the exit status.  ``on_started`` is called with the bound
    base URL once the listener is up — the CLI uses it to print the
    address only after binding cannot fail anymore.
    """

    async def _amain() -> int:
        server = JobServer(config)
        await server.start()
        server.install_signal_handlers()
        if on_started is not None:
            on_started(server.address)
        return await server.run_until_drained()

    return asyncio.run(_amain())


class ServerThread:
    """A JobServer on a background thread (tests and benchmarks).

    Signal handlers are not installed (not possible off the main
    thread); stop the server with :meth:`stop`, which performs the same
    graceful drain a SIGTERM would.
    """

    def __init__(self, config: ServeConfig):
        self.config = config
        self.address: Optional[str] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[JobServer] = None
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")
        self._error: Optional[BaseException] = None

    def _run(self) -> None:
        async def _amain() -> None:
            self._server = JobServer(self.config)
            try:
                await self._server.start()
                self.address = self._server.address
            finally:
                self._started.set()
            await self._server.run_until_drained()

        self._loop = asyncio.new_event_loop()
        try:
            self._loop.run_until_complete(_amain())
        except BaseException as exc:  # surfaced by start()/stop()
            self._error = exc
            self._started.set()
        finally:
            self._loop.close()

    def start(self, timeout: float = 30.0) -> str:
        self._thread.start()
        if not self._started.wait(timeout):
            raise TimeoutError("server did not start in time")
        if self._error is not None:
            raise RuntimeError(
                f"server failed to start: {self._error}") from self._error
        return self.address

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._server.request_drain)
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - hard failure
            raise TimeoutError("server did not drain in time")
        if self._error is not None:
            raise RuntimeError(
                f"server thread failed: {self._error}") from self._error
