"""Job model and wire format for the ATPG job service.

A *job* is one pipeline operation (``analyze`` | ``testability`` | ``atpg``
| ``lint``) over a design, described by a :class:`JobSpec`.  Specs arrive
as the JSON body of ``POST /v1/jobs``; the design itself is either raw
Verilog text (``source``) or the name of a bundled benchmark design
(``design: "arm2"``).  Bundled names are resolved to their source text at
validation time, so an uploaded copy of arm2 and ``design: "arm2"``
fingerprint — and therefore coalesce and warm-start — identically.

The :meth:`JobSpec.fingerprint` is the request's content address: a SHA-256
over every field that affects the result (and nothing else — admission
knobs like ``deadline_s`` are excluded).  The server uses it for
single-flight coalescing of identical in-flight submissions and as the
artifact-store key under which finished results are published.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.store import fingerprint_obj, fingerprint_text

#: Operations a job may request, in the order the docs present them.
OPERATIONS = ("analyze", "testability", "atpg", "lint", "explain")

#: Bundled designs resolvable by name instead of uploading source text.
BUNDLED_DESIGNS = ("arm2", "filterchip")

#: Job lifecycle states (terminal: ``done`` / ``failed``).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Where a finished result came from: a fresh pipeline execution, the
#: persistent artifact store, or another in-flight job it coalesced onto.
FROM_PIPELINE = "pipeline"
FROM_STORE = "store"
FROM_COALESCED = "coalesced"


class ProtocolError(ValueError):
    """A malformed or unsatisfiable request (maps to HTTP 400)."""


def bundled_source(name: str) -> str:
    """Source text of a bundled benchmark design."""
    if name == "arm2":
        from repro.designs import arm2_source

        return arm2_source()
    if name == "filterchip":
        from repro.designs import filterchip_source

        return filterchip_source()
    raise ProtocolError(
        f"unknown bundled design {name!r}; expected one of "
        f"{', '.join(BUNDLED_DESIGNS)}")


@dataclass
class JobSpec:
    """One pipeline request, fully self-contained and picklable."""

    op: str
    source: Optional[str] = None
    design: Optional[str] = None
    top: Optional[str] = None
    mut: Optional[str] = None
    path: Optional[str] = None
    mode: str = "compose"
    frames: int = 4
    backtrack_limit: int = 300
    seed: int = 2002
    #: atpg only: ``None`` runs the arena; ``"interpreted"`` re-runs the
    #: job on the reference oracle, for differential checks.
    backend: Optional[str] = None
    #: atpg only: fault populations to target/grade
    #: (``stuck`` | ``transient`` | ``both``); see AtpgOptions.fault_model.
    fault_model: str = "stuck"
    #: atpg only: random-phase sequence length (vectors per sequence).
    #: A first-class campaign factor, hence part of the wire format.
    random_length: Optional[int] = None
    #: atpg only: seeded SEU sample size (None = full universe).
    transient_sample: Optional[int] = None
    use_piers: bool = True
    strict: bool = False  # lint only: warnings fail the job
    #: explain only: the net/port to trace (``SIGNAL`` or
    #: ``MODULE.SIGNAL``).
    target: Optional[str] = None
    #: Admission budget in seconds: a job still queued this long after
    #: submission is failed instead of dispatched.  Not part of the
    #: fingerprint — it changes *whether* the job runs, never its result.
    deadline_s: Optional[float] = None
    #: W3C ``traceparent`` carrying the server's submit-span context into
    #: the worker.  Pure telemetry: excluded from the fingerprint so two
    #: submissions with different trace ancestry still coalesce.
    trace: Optional[str] = None

    _fingerprint: Optional[str] = field(default=None, repr=False,
                                        compare=False, init=False)

    # -- validation --------------------------------------------------------

    def validate(self) -> "JobSpec":
        """Check the spec and resolve bundled design names to source text.

        Raises :class:`ProtocolError` with a client-presentable message on
        any problem; returns ``self`` for chaining.
        """
        if self.op not in OPERATIONS:
            raise ProtocolError(
                f"unknown op {self.op!r}; expected one of "
                f"{', '.join(OPERATIONS)}")
        if self.source is None and self.design is None:
            raise ProtocolError(
                "request needs Verilog text ('source') or a bundled "
                "design name ('design')")
        if self.source is not None and self.design is not None:
            raise ProtocolError("'source' and 'design' are exclusive")
        if self.design is not None:
            self.source = bundled_source(self.design)
            self.design = None
            self._fingerprint = None
        if not isinstance(self.source, str) or not self.source.strip():
            raise ProtocolError("'source' must be non-empty Verilog text")
        if self.op in ("analyze", "testability", "atpg") and not self.mut:
            raise ProtocolError(f"op {self.op!r} requires 'mut'")
        if self.op == "explain" and not self.target:
            raise ProtocolError("op 'explain' requires 'target'")
        if self.target is not None and not isinstance(self.target, str):
            raise ProtocolError("'target' must be a string")
        if self.mode not in ("compose", "conventional"):
            raise ProtocolError(
                f"bad mode {self.mode!r}; expected compose|conventional")
        if self.backend not in (None, "arena", "interpreted"):
            raise ProtocolError(
                f"bad backend {self.backend!r}; expected arena|interpreted")
        if self.fault_model not in ("stuck", "transient", "both"):
            raise ProtocolError(
                f"bad fault_model {self.fault_model!r}; "
                "expected stuck|transient|both")
        for name in ("frames", "backtrack_limit", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ProtocolError(f"{name!r} must be an integer")
        if self.frames < 1:
            raise ProtocolError("'frames' must be >= 1")
        for name in ("random_length", "transient_sample"):
            value = getattr(self, name)
            if value is not None:
                if not isinstance(value, int) or isinstance(value, bool) \
                        or value < 1:
                    raise ProtocolError(
                        f"{name!r} must be a positive integer")
        if self.deadline_s is not None:
            if not isinstance(self.deadline_s, (int, float)) \
                    or self.deadline_s <= 0:
                raise ProtocolError("'deadline_s' must be a positive number")
        if self.trace is not None and not isinstance(self.trace, str):
            raise ProtocolError("'trace' must be a traceparent string")
        return self

    # -- identity ----------------------------------------------------------

    def fingerprint(self) -> str:
        """Content address of this request (validated specs only).

        The source text enters as its own fingerprint so megabyte designs
        hash once, and the spec key stays small enough to journal.
        """
        if self._fingerprint is None:
            self._fingerprint = fingerprint_obj({
                "op": self.op,
                "source": fingerprint_text(self.source or ""),
                "top": self.top,
                "mut": self.mut,
                "path": self.path,
                "mode": self.mode,
                "frames": self.frames,
                "backtrack_limit": self.backtrack_limit,
                "seed": self.seed,
                "backend": self.backend or "arena",
                "fault_model": self.fault_model,
                "random_length": self.random_length,
                "transient_sample": self.transient_sample,
                "use_piers": self.use_piers,
                "strict": self.strict,
                "target": self.target,
            })
        return self._fingerprint

    # -- wire format -------------------------------------------------------

    _FIELDS = ("op", "source", "design", "top", "mut", "path", "mode",
               "frames", "backtrack_limit", "seed", "backend",
               "fault_model", "random_length", "transient_sample",
               "use_piers", "strict", "target", "deadline_s", "trace")

    def as_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self._FIELDS}

    @classmethod
    def from_journal(cls, payload: Any) -> "JobSpec":
        """:meth:`from_dict` for a journaled spec.

        Older releases journaled ``jobs`` (the size of a PODEM fork pool
        inside the job) with every spec; replay drops it so a job queued
        before an upgrade still resumes after it.
        """
        if isinstance(payload, dict):
            payload = {name: value for name, value in payload.items()
                       if name != "jobs"}
        return cls.from_dict(payload)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        unknown = set(payload) - set(cls._FIELDS)
        if unknown:
            raise ProtocolError(
                f"unknown request fields: {', '.join(sorted(unknown))}")
        if "op" not in payload:
            raise ProtocolError("request needs an 'op' field")
        return cls(**payload)


#: Progress events retained per job for ``GET /v1/jobs/<id>/events``.
#: Sequence numbers are preserved when the window slides, so a streamer's
#: ``since`` cursor stays valid even after truncation.
MAX_JOB_EVENTS = 4096


@dataclass
class Job:
    """Server-side state of one submitted job."""

    job_id: str
    spec: JobSpec
    fingerprint: str
    status: str = QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    served_from: Optional[str] = None
    coalesced_count: int = 0
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    #: Trace identity: the stitched trace every span of this job joins.
    trace_id: Optional[str] = None
    trace_path: Optional[str] = None
    #: Live telemetry: most recent progress payload, the bounded event
    #: log behind ``/events``, and the wall_clock() of the last sign of
    #: life from the worker (event or heartbeat).
    progress: Optional[Dict[str, Any]] = None
    events: List[Dict[str, Any]] = field(default_factory=list)
    event_seq: int = 0
    last_event_at: Optional[float] = None

    def append_event(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Append to the event log under a server-owned sequence number."""
        self.event_seq += 1
        event = dict(payload)
        event["seq"] = self.event_seq
        self.events.append(event)
        if len(self.events) > MAX_JOB_EVENTS:
            del self.events[:len(self.events) - MAX_JOB_EVENTS]
        return event

    def summary(self) -> Dict[str, Any]:
        """Listing row: everything but the (possibly large) result body."""
        return {
            "id": self.job_id,
            "op": self.spec.op,
            "mut": self.spec.mut,
            "status": self.status,
            "fingerprint": self.fingerprint,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "served_from": self.served_from,
            "coalesced_count": self.coalesced_count,
            "error": self.error,
            "trace_id": self.trace_id,
        }

    def as_dict(self) -> Dict[str, Any]:
        payload = self.summary()
        payload["result"] = self.result
        payload["progress"] = self.progress
        payload["trace_path"] = self.trace_path
        return payload
