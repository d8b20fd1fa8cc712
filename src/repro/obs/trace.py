"""Hierarchical span tracing: the pipeline's single clock source.

Every phase of the pipeline runs inside a :class:`Span` (a context manager
recording wall time via ``perf_counter`` and CPU time via ``process_time``).
Spans nest; finished roots accumulate on the process-wide :class:`Tracer`
and can be exported three ways:

- a nested **span tree** (``Tracer.to_dict`` → ``json.dump``-able),
- **JSON lines** (one flattened span per line, ``to_jsonl``),
- **Chrome trace** format (``to_chrome_trace`` → load in
  ``chrome://tracing`` / Perfetto).

Identity is distributed-safe: every span carries a random 64-bit span ID
and a random 128-bit trace ID, so spans produced in forked worker
processes never alias and can be stitched into one trace.  A
:class:`TraceContext` is the serializable (trace-id, span-id) pair that
crosses process boundaries as a W3C ``traceparent`` header; a tracer with
an ambient context parents its new roots under the remote span.

:class:`CpuTimer` and :class:`Deadline` are the accumulating-stopwatch and
budget-check forms of the same CPU clock — ATPG per-fault budgets and the
report's accumulated fault-simulation time both go through them, so every
reported number shares one clock.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional


def wall_clock() -> float:
    """Monotonic wall-clock seconds (``time.perf_counter``)."""
    return time.perf_counter()


def cpu_clock() -> float:
    """Process CPU seconds (``time.process_time``)."""
    return time.process_time()


#: perf_counter → Unix epoch offset, captured once at import.  On Linux
#: ``perf_counter`` is CLOCK_MONOTONIC, which forked/spawned children
#: share, so spans from different processes of one machine line up on a
#: common axis after conversion.
_EPOCH_OFFSET = time.time() - time.perf_counter()


def epoch_seconds(wall: float) -> float:
    """Convert a :func:`wall_clock` reading to Unix epoch seconds."""
    return wall + _EPOCH_OFFSET


class CpuTimer:
    """Accumulating CPU-seconds stopwatch.

    Use as a context manager around each slice of work whose time should be
    pooled (e.g. every fault-simulation call of an ATPG run)::

        timer = CpuTimer()
        with timer:
            simulate(...)
        report.fault_sim_seconds = timer.elapsed
    """

    __slots__ = ("elapsed", "_started")

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._started: Optional[float] = None

    def start(self) -> "CpuTimer":
        self._started = cpu_clock()
        return self

    def stop(self) -> float:
        if self._started is not None:
            self.elapsed += cpu_clock() - self._started
            self._started = None
        return self.elapsed

    def __enter__(self) -> "CpuTimer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class Deadline:
    """CPU-seconds budget check started at construction time.

    A ``None`` limit never expires, which lets call sites drop the
    ``if limit is not None`` dance.
    """

    __slots__ = ("limit", "_start")

    def __init__(self, limit: Optional[float]):
        self.limit = limit
        self._start = cpu_clock()

    @property
    def elapsed(self) -> float:
        return cpu_clock() - self._start

    def expired(self) -> bool:
        return self.limit is not None and self.elapsed > self.limit


# -- identity ----------------------------------------------------------------

_ZERO_TRACE_ID = "0" * 32
_ZERO_SPAN_ID = "0" * 16


def new_trace_id() -> str:
    """Random 128-bit trace ID as 32 lowercase hex chars (never all-zero).

    ``os.urandom`` draws from the kernel, so identity stays unique across
    forked workers — unlike ``random``, whose state forks with the process.
    """
    while True:
        trace_id = os.urandom(16).hex()
        if trace_id != _ZERO_TRACE_ID:
            return trace_id


def new_span_id() -> str:
    """Random 64-bit span ID as 16 lowercase hex chars (never all-zero)."""
    while True:
        span_id = os.urandom(8).hex()
        if span_id != _ZERO_SPAN_ID:
            return span_id


@dataclass(frozen=True)
class TraceContext:
    """The serializable (trace-id, span-id) pair that crosses processes."""

    trace_id: str
    span_id: str
    sampled: bool = True

    @classmethod
    def new(cls) -> "TraceContext":
        return cls(trace_id=new_trace_id(), span_id=new_span_id())

    def to_traceparent(self) -> str:
        """Render as a W3C ``traceparent`` header value (version 00)."""
        flags = "01" if self.sampled else "00"
        return f"00-{self.trace_id}-{self.span_id}-{flags}"


def _is_hex(text: str) -> bool:
    return bool(text) and all(c in "0123456789abcdef" for c in text)


def parse_traceparent(header: Optional[str]) -> Optional[TraceContext]:
    """Parse a W3C ``traceparent`` header; ``None`` when absent/invalid.

    Follows the spec's validation rules: the version field must be two hex
    chars and not ``ff``; trace-id is 32 hex chars, parent-id 16, flags 2;
    an all-zero trace-id or parent-id means "no trace" and is treated as
    absent; future versions (non-``00``) are accepted as long as the first
    four fields parse, version ``00`` must have exactly four fields.
    """
    if not isinstance(header, str):
        return None
    parts = header.strip().lower().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, span_id, flags = parts[:4]
    if len(version) != 2 or not _is_hex(version) or version == "ff":
        return None
    if version == "00" and len(parts) != 4:
        return None
    if len(trace_id) != 32 or not _is_hex(trace_id):
        return None
    if len(span_id) != 16 or not _is_hex(span_id):
        return None
    if len(flags) != 2 or not _is_hex(flags):
        return None
    if trace_id == _ZERO_TRACE_ID or span_id == _ZERO_SPAN_ID:
        return None
    return TraceContext(trace_id=trace_id, span_id=span_id,
                        sampled=bool(int(flags, 16) & 0x01))


class Span:
    """One timed phase: name, attributes, children, wall + CPU durations."""

    __slots__ = ("span_id", "trace_id", "parent_id", "name", "attrs",
                 "children", "start_wall", "end_wall", "start_cpu",
                 "end_cpu")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None,
                 context: Optional[TraceContext] = None):
        self.span_id = new_span_id()
        if context is not None:
            self.trace_id = context.trace_id
            self.parent_id: Optional[str] = context.span_id
        else:
            self.trace_id = new_trace_id()
            self.parent_id = None
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self.children: List[Span] = []
        self.start_wall = wall_clock()
        self.start_cpu = cpu_clock()
        self.end_wall: Optional[float] = None
        self.end_cpu: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------

    def finish(self) -> "Span":
        if self.end_wall is None:
            self.end_wall = wall_clock()
            self.end_cpu = cpu_clock()
        return self

    @property
    def finished(self) -> bool:
        return self.end_wall is not None

    @property
    def wall_seconds(self) -> float:
        end = self.end_wall if self.end_wall is not None else wall_clock()
        return end - self.start_wall

    @property
    def cpu_seconds(self) -> float:
        end = self.end_cpu if self.end_cpu is not None else cpu_clock()
        return end - self.start_cpu

    @property
    def context(self) -> TraceContext:
        """The context a child of this span (local or remote) inherits."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    # -- attributes --------------------------------------------------------

    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def add(self, key: str, amount: float = 1) -> None:
        self.attrs[key] = self.attrs.get(key, 0) + amount

    # -- traversal / export ------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """Yield this span and all descendants, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "id": self.span_id,
            "trace_id": self.trace_id,
            "parent": self.parent_id,
            "wall_s": round(self.wall_seconds, 6),
            "cpu_s": round(self.cpu_seconds, 6),
            "start_wall": self.start_wall,
            "start_unix": round(epoch_seconds(self.start_wall), 6),
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "" if self.finished else " (open)"
        return (f"Span({self.name!r}, wall={self.wall_seconds:.4f}s,"
                f" children={len(self.children)}{state})")


class Tracer:
    """Owns the active span stack (per thread) and the finished roots."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.roots: List[Span] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- ambient context ---------------------------------------------------

    def context(self) -> Optional[TraceContext]:
        """This thread's ambient remote context, if any."""
        return getattr(self._local, "context", None)

    @contextmanager
    def use_context(self, ctx: Optional[TraceContext]) -> Iterator[None]:
        """Parent new roots on this thread under a remote context.

        Spans opened inside the block join ``ctx.trace_id`` with the remote
        span as their parent — the receiving half of ``traceparent``
        propagation.  A ``None`` context makes the block a no-op.
        """
        previous = self.context()
        self._local.context = ctx
        try:
            yield
        finally:
            self._local.context = previous

    def current_context(self) -> Optional[TraceContext]:
        """Context for outbound propagation: active span, else ambient."""
        current = self.current()
        if current is not None:
            return current.context
        return self.context()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a child of the current span (or a new root)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        ctx = parent.context if parent is not None else self.context()
        node = Span(name, attrs, context=ctx)
        stack.append(node)
        try:
            yield node
        finally:
            node.finish()
            stack.pop()
            if parent is not None:
                parent.children.append(node)
            else:
                with self._lock:
                    self.roots.append(node)

    def reset(self) -> None:
        """Drop finished roots (the active stack is left alone)."""
        with self._lock:
            self.roots = []

    # -- queries -----------------------------------------------------------

    def all_spans(self) -> List[Span]:
        out: List[Span] = []
        for root in list(self.roots):
            out.extend(root.walk())
        return out

    def find(self, name: str) -> List[Span]:
        """All finished spans with the given name, anywhere in the forest."""
        return [s for s in self.all_spans() if s.name == name]

    # -- export ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": "repro-trace",
            "version": 2,
            "clock": {"wall": "perf_counter", "cpu": "process_time"},
            "spans": [root.to_dict() for root in list(self.roots)],
        }

    def write_json(self, path: str) -> None:
        """Nested span tree; Chrome-trace / JSONL variants by extension."""
        if path.endswith(".jsonl"):
            text = to_jsonl(list(self.roots))
        elif path.endswith(".chrome.json"):
            text = json.dumps(to_chrome_trace(list(self.roots)), indent=2)
        else:
            text = json.dumps(self.to_dict(), indent=2)
        from repro.obs.atomic import atomic_write_text

        atomic_write_text(path, text + "\n")


def to_jsonl(roots: List[Span]) -> str:
    """One flattened span per line, with dotted ancestry paths."""
    lines: List[str] = []

    def emit(node: Span, path: str, parent_id: Optional[str]) -> None:
        full = f"{path}/{node.name}" if path else node.name
        lines.append(json.dumps({
            "name": node.name,
            "path": full,
            "id": node.span_id,
            "trace_id": node.trace_id,
            "parent": parent_id,
            "wall_s": round(node.wall_seconds, 6),
            "cpu_s": round(node.cpu_seconds, 6),
            "attrs": dict(node.attrs),
        }))
        for child in node.children:
            emit(child, full, node.span_id)

    for root in roots:
        emit(root, "", root.parent_id)
    return "\n".join(lines)


def to_chrome_trace(roots: List[Span]) -> Dict[str, Any]:
    """Chrome trace-event JSON (complete "X" events, microseconds)."""
    events: List[Dict[str, Any]] = []
    for root in roots:
        for node in root.walk():
            events.append({
                "name": node.name,
                "ph": "X",
                "ts": node.start_wall * 1e6,
                "dur": node.wall_seconds * 1e6,
                "pid": 0,
                "tid": 0,
                "args": dict(node.attrs),
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- stitched traces ---------------------------------------------------------
#
# A *stitched* trace is one flat JSONL file per served job: every span from
# every process that worked on the job, on a shared Unix-epoch time axis,
# linked purely by (trace_id, id, parent).  The job server writes one under
# ``<cache>/traces/<job_id>.jsonl``; ``repro trace show`` renders it.


def flatten_span_dict(tree: Dict[str, Any], process: str
                      ) -> List[Dict[str, Any]]:
    """Flatten one ``Span.to_dict`` tree into stitched-trace lines.

    ``process`` labels which process produced the spans (``server`` /
    ``worker``) so the waterfall can show where the boundary was crossed.
    Parent links inside the tree come from its structure; the root keeps
    whatever remote ``parent`` it recorded.
    """
    lines: List[Dict[str, Any]] = []

    def emit(node: Dict[str, Any], parent_id: Optional[str]) -> None:
        lines.append({
            "trace_id": node.get("trace_id"),
            "id": node.get("id"),
            "parent": parent_id,
            "name": node.get("name"),
            "process": process,
            "start_unix": node.get("start_unix"),
            "wall_s": node.get("wall_s"),
            "cpu_s": node.get("cpu_s"),
            "attrs": node.get("attrs") or {},
        })
        for child in node.get("children") or []:
            emit(child, node.get("id"))

    emit(tree, tree.get("parent"))
    return lines


def read_trace_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a stitched trace file, tolerating a torn final line.

    Trace files are written atomically, but a crashed writer or a copy in
    flight can truncate mid-line; replay keeps every parseable line and
    silently drops garbage, mirroring the job journal's policy.
    """
    spans: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    spans.append(record)
    except OSError:
        return []
    return spans


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


@contextmanager
def span(name: str, **attrs) -> Iterator[Span]:
    """Open a span on the process-wide tracer."""
    with _TRACER.span(name, **attrs) as node:
        yield node
