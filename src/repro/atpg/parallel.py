"""Fault-parallel PODEM: speculative workers, serial-order commits.

The deterministic phase of an ATPG run spends ~95% of its CPU inside
``SequentialAtpg.generate``, which is a pure function of (netlist,
options, fault) — it never reads the shrinking fault set.  That purity is
the whole design: forked workers *speculate* PODEM results for shards of
the cone-packed fault list, while the parent replays the exact serial
fault loop, committing buffered worker results in serial order through
:class:`~repro.atpg.engine.PodemCommitState`.  All classification — test
acceptance, cross-fault-simulation drops, untestable/aborted bookkeeping
— happens in the parent, so detected/untestable/aborted sets, coverage
and the tests list are bit-identical to a serial run at any worker
count.  The only cost is speculation: a worker may finish a fault the
parent's cross-sim has already dropped (~25% of attempts on arm2, partly
recovered by pruning dropped faults from shards at dispatch time).

Topology: one ``fork`` Process per worker, a per-worker ``Pipe`` for
shard dispatch and shutdown, one shared result queue back to the parent.
Shards are contiguous runs of the cone-packed fault order (neighbours
share fanout cones, so a detected fault's cross-sim tends to drop
neighbours *in the same shard*, maximising prune value), pre-assigned
round-robin; a worker that drains its own queue steals from the longest
one.  A worker that dies mid-shard has its unfinished faults re-queued;
faults that keep dying are generated directly in the parent, as is
everything else if every worker is lost — the run degrades to serial,
never wrong, never hung.

Telemetry crosses back on worker exit: each worker runs a private
``MetricsRegistry`` and an ``atpg.worker`` span (parented under the
coordinator's span context), and the parent folds the snapshots into the
process registry and adopts the span trees, so ``repro profile`` and the
stitched trace see per-worker wall/CPU.  Progress streams from the
*parent only*: per-commit ``atpg.podem`` events carry a live ``coverage``
percentage, per-shard ``atpg.shard`` events mark dispatch milestones.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.obs import MetricsRegistry, Span, counter, gauge, get_registry, \
    histogram, progress, set_reporter, wall_clock
from repro.obs.trace import TraceContext
from repro.atpg.arena import NetlistArena, get_arena
from repro.atpg.engine import PodemCommitState, SequentialAtpg
from repro.atpg.faults import Fault

# Below these sizes a fork pool costs more than it saves (arm_alu benched
# at 0.61x serial with a forced pool): pool spin-up, per-worker warm-up and
# result pickling dominate the small workload.  The ATPG engine consults
# :func:`should_parallelize` before forking PODEM workers, so small designs
# silently stay serial; the ``REPRO_PARALLEL_MIN_*`` environment knobs let
# tests and smoke jobs lower the floor.
MIN_PARALLEL_FAULTS = 2000
MIN_PARALLEL_GATES = 1000

# Forked workers only help when they can run on *different* cores.  On a
# single-core host (or a cgroup pinned to one CPU) the pool timeshares one
# core: every speculated fault still costs its full CPU time, plus fork,
# context-switch and pickling overhead — strictly slower than serial.
MIN_PARALLEL_CORES = 2


def _env_threshold(name: str, default: int) -> int:
    try:
        return int(os.environ[name])
    except (KeyError, ValueError):
        return default


def available_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def parallelize_decision(jobs: int, num_faults: int,
                         num_gates: int) -> Tuple[bool, Optional[str]]:
    """Is a fork worker pool worth it for this workload, and if not, why?

    Returns ``(False, reason)`` when only one worker is available, when
    the platform cannot fork (workers inherit netlists and generated code
    by address-space copy, not pickling), when the host has only one
    usable core (a pool would timeshare it and lose), or when the
    workload sits below the small-design thresholds where pool overhead
    exceeds the work.  The reason string is what bench rows and telemetry
    record so a serial fallback is never mistaken for a parallel run.
    """
    if jobs <= 1:
        return False, "jobs<=1"
    if not hasattr(os, "fork"):
        return False, "platform-cannot-fork"
    min_cores = _env_threshold("REPRO_PARALLEL_MIN_CORES",
                               MIN_PARALLEL_CORES)
    cores = available_cores()
    if cores < min_cores:
        return False, f"cores={cores}<min_cores={min_cores}"
    min_faults = _env_threshold("REPRO_PARALLEL_MIN_FAULTS",
                                MIN_PARALLEL_FAULTS)
    if num_faults < min_faults:
        return False, f"faults={num_faults}<min_faults={min_faults}"
    min_gates = _env_threshold("REPRO_PARALLEL_MIN_GATES",
                               MIN_PARALLEL_GATES)
    if num_gates < min_gates:
        return False, f"gates={num_gates}<min_gates={min_gates}"
    return True, None


def should_parallelize(jobs: int, num_faults: int, num_gates: int) -> bool:
    """Boolean form of :func:`parallelize_decision`."""
    return parallelize_decision(jobs, num_faults, num_gates)[0]


#: Test hook: called with the list of worker Process objects right after
#: they start (crash-injection tests SIGKILL one here).
_TEST_ON_WORKERS_STARTED: Optional[Callable[[List[Any]], None]] = None

#: Faults re-queued from dead workers more times than this are generated
#: directly in the parent — a fault that reliably kills workers must not
#: be able to live-lock the run.
_MAX_REQUEUES = 2

#: Result-queue poll interval; also the worker-liveness check cadence.
_POLL_S = 0.5


def shard_faults(faults: List[Fault], arena: NetlistArena,
                 jobs: int) -> List[List[Fault]]:
    """Cone-packed fault list chopped into work-stealing shards.

    Shard size balances two pressures: small shards steal and prune
    well (a dropped fault costs nothing if its shard was never
    dispatched), large shards amortize dispatch.  ~16 shards per worker
    keeps the tail short without flooding the pipes.
    """
    ordered = arena.cone_pack_order(faults)
    size = max(4, min(64, len(ordered) // max(1, jobs * 16)))
    return [ordered[i:i + size] for i in range(0, len(ordered), size)]


def _worker_main(worker_id: int, seq: SequentialAtpg, conn: Any,
                 results: Any, ctx: Optional[TraceContext]) -> None:
    """Worker loop: recv shard, generate per fault, stream results back.

    Runs in a forked child.  The inherited progress reporter is dropped
    (its pipe belongs to the parent); metrics go to a private registry
    and spans under a hand-built ``atpg.worker`` node, both shipped back
    in the final ``finished`` message.  Between faults the control pipe
    is polled so a parent shutdown (``None``) aborts the shard promptly.
    """
    set_reporter(None)
    registry = MetricsRegistry()
    sp = Span("atpg.worker", {"worker": worker_id}, context=ctx)
    attempted = 0
    shards_done = 0
    try:
        while True:
            msg = conn.recv()
            if msg is None:
                break
            shard_id, shard = msg
            abandoned = False
            for fault in shard:
                if conn.poll() and conn.recv() is None:
                    abandoned = True
                    break
                result = seq.generate(fault)
                attempted += 1
                registry.histogram(
                    "atpg.parallel.worker_fault_seconds"
                ).observe(result.cpu_seconds)
                results.put(("result", worker_id, shard_id, fault, result))
            if abandoned:
                break
            shards_done += 1
            results.put(("shard_done", worker_id, shard_id))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        sp.set("faults", attempted)
        sp.set("shards", shards_done)
        sp.finish()
        registry.counter("atpg.parallel.worker_faults").inc(attempted)
        try:
            results.put(("finished", worker_id, registry.snapshot(),
                         sp.to_dict(), sp.wall_seconds))
        except Exception:
            pass


class _Coordinator:
    """Parent-side state machine for one parallel PODEM phase."""

    def __init__(self, seq: SequentialAtpg, commit: PodemCommitState,
                 jobs: int, parent_span: Span):
        self.seq = seq
        self.commit = commit
        self.jobs = jobs
        self.parent_span = parent_span
        pending = [f for f in commit.faults if f in commit.remaining]
        self.shards: List[List[Fault]] = shard_faults(
            pending, get_arena(seq.netlist), jobs)
        self.initial_shards = len(self.shards)
        self.assigned: List[deque] = [deque() for _ in range(jobs)]
        for sid in range(len(self.shards)):
            self.assigned[sid % jobs].append(sid)
        # fault -> buffered speculative result, awaiting its serial turn.
        self.buffered: Dict[Fault, Any] = {}
        # worker -> (shard_id, set of faults still expected from it).
        self.inflight: Dict[int, Optional[Tuple[int, Set[Fault]]]] = {}
        self.requeues: Dict[Fault, int] = {}
        self.ptr = 0  # serial commit cursor into commit.faults
        self.stolen = 0
        self.requeued_shards = 0
        self.wasted_results = 0
        self.shards_done = 0
        self.workers_terminated = 0
        self.alive: Set[int] = set()
        self.finished: Set[int] = set()
        self.retired: Set[int] = set()
        self.procs: List[Any] = []
        self.conns: List[Any] = []
        self.mp = multiprocessing.get_context("fork")
        self.results = self.mp.Queue()

    # -- lifecycle ---------------------------------------------------------

    def start_workers(self) -> None:
        ctx = self.parent_span.context
        for wid in range(self.jobs):
            parent_conn, child_conn = self.mp.Pipe()
            proc = self.mp.Process(
                target=_worker_main,
                args=(wid, self.seq, child_conn, self.results, ctx),
                daemon=True, name=f"atpg-podem-{wid}")
            proc.start()
            child_conn.close()
            self.procs.append(proc)
            self.conns.append(parent_conn)
            self.alive.add(wid)
            self.inflight[wid] = None
        if _TEST_ON_WORKERS_STARTED is not None:
            _TEST_ON_WORKERS_STARTED(self.procs)
        for wid in range(self.jobs):
            self._dispatch(wid)

    def run(self) -> None:
        total = len(self.commit.faults)
        self._advance()
        while self.ptr < total:
            if not self.alive - self.finished:
                self._drain_in_parent()
                break
            try:
                msg = self.results.get(timeout=_POLL_S)
            except queue_mod.Empty:
                self._reap_dead_workers()
                continue
            self._handle(msg)
        self._shutdown()
        self._book_metrics()

    # -- dispatch ----------------------------------------------------------

    def _next_shard(self, wid: int) -> Optional[Tuple[int, List[Fault]]]:
        """Pop the next non-empty shard for a worker, stealing if dry.

        Dropped faults are pruned here — dispatch time — which is how one
        worker's detection shrinks every other worker's future work.
        """
        while True:
            if self.assigned[wid]:
                sid = self.assigned[wid].popleft()
            else:
                donor = max(
                    (w for w in self.alive - self.finished
                     if w != wid and self.assigned[w]),
                    key=lambda w: len(self.assigned[w]), default=None)
                if donor is None:
                    return None
                sid = self.assigned[donor].popleft()
                self.stolen += 1
            live = [f for f in self.shards[sid]
                    if f in self.commit.remaining and f not in self.buffered]
            if live:
                return sid, live

    def _dispatch(self, wid: int) -> None:
        if wid in self.retired:
            # A retired worker has already been told to exit; sending it
            # work would race the shutdown sentinel and strand the shard.
            return
        nxt = self._next_shard(wid)
        if nxt is None:
            self.inflight[wid] = None
            self._retire(wid)
            return
        sid, live = nxt
        try:
            self.conns[wid].send((sid, live))
        except (OSError, ValueError):
            self._fail_worker(wid, carry=(sid, set(live)))
            return
        self.inflight[wid] = (sid, set(live))

    def _retire(self, wid: int) -> None:
        """No work left for this worker: ask it to exit."""
        if wid in self.retired:
            return
        self.retired.add(wid)
        try:
            self.conns[wid].send(None)
        except (OSError, ValueError):
            pass

    # -- message handling --------------------------------------------------

    def _handle(self, msg: Tuple) -> None:
        kind = msg[0]
        if kind == "result":
            _, wid, sid, fault, result = msg
            entry = self.inflight.get(wid)
            if entry is not None and entry[0] == sid:
                entry[1].discard(fault)
            if fault in self.commit.remaining:
                self.buffered[fault] = result
                self._advance()
            else:
                self.wasted_results += 1
        elif kind == "shard_done":
            _, wid, sid = msg
            self.shards_done += 1
            entry = self.inflight.get(wid)
            if entry is not None and entry[0] == sid:
                self.inflight[wid] = None
            progress("atpg.shard", force=True, shard=sid, worker=wid,
                     shards_done=self.shards_done,
                     shards_total=len(self.shards),
                     stolen=self.stolen,
                     detected=len(self.commit.detected),
                     coverage=round(self.commit.coverage_percent, 2))
            if wid in self.alive and wid not in self.finished:
                self._dispatch(wid)
        elif kind == "finished":
            _, wid, snapshot, span_dict, wall_s = msg
            self.finished.add(wid)
            get_registry().merge_snapshot(snapshot)
            self.parent_span.adopt(span_dict)
            histogram("atpg.parallel.worker_wall_seconds").observe(wall_s)

    def _advance(self) -> None:
        """Commit buffered results in serial fault order."""
        faults = self.commit.faults
        while self.ptr < len(faults):
            fault = faults[self.ptr]
            if fault not in self.commit.remaining:
                self.ptr += 1
                continue
            result = self.buffered.pop(fault, None)
            if result is None:
                return
            self.commit.commit(fault, result)
            self.commit.emit_progress(workers=len(self.alive),
                                      shards_done=self.shards_done)
            self.ptr += 1

    # -- failure handling --------------------------------------------------

    def _reap_dead_workers(self) -> None:
        for wid in sorted(self.alive - self.finished):
            if not self.procs[wid].is_alive():
                self._fail_worker(wid)

    def _fail_worker(self, wid: int,
                     carry: Optional[Tuple[int, Set[Fault]]] = None) -> None:
        """A worker died: re-queue its unfinished work, redistribute."""
        self.alive.discard(wid)
        entry = carry if carry is not None else self.inflight.get(wid)
        self.inflight[wid] = None
        survivors = sorted(self.alive - self.finished - self.retired)
        # Its undispatched shards are still valid — hand them over.
        if self.assigned[wid]:
            heir = min(survivors, key=lambda w: len(self.assigned[w]),
                       default=None) if survivors else None
            if heir is not None:
                self.assigned[heir].extend(self.assigned[wid])
            self.assigned[wid].clear()
        if entry is not None:
            lost = [f for f in entry[1]
                    if f in self.commit.remaining
                    and f not in self.buffered]
            retry, direct = [], []
            for fault in lost:
                self.requeues[fault] = self.requeues.get(fault, 0) + 1
                (retry if self.requeues[fault] <= _MAX_REQUEUES
                 else direct).append(fault)
            if retry:
                self.shards.append(retry)
                self.requeued_shards += 1
                heir = min(survivors, key=lambda w: len(self.assigned[w]),
                           default=None) if survivors else None
                if heir is not None:
                    # Front of the heir's queue: lost faults are the
                    # oldest still-uncommitted work and likely block the
                    # serial cursor.
                    self.assigned[heir].appendleft(len(self.shards) - 1)
            for fault in direct:
                if fault in self.commit.remaining:
                    self.buffered[fault] = self.seq.generate(fault)
            if direct:
                self._advance()
        # Idle survivors may now have stealable work again.
        for w in survivors:
            if self.inflight.get(w) is None:
                self._dispatch(w)

    def _drain_in_parent(self) -> None:
        """Every worker is gone: finish the remaining faults serially."""
        faults = self.commit.faults
        while self.ptr < len(faults):
            fault = faults[self.ptr]
            if fault not in self.commit.remaining:
                self.ptr += 1
                continue
            if fault not in self.buffered:
                self.buffered[fault] = self.seq.generate(fault)
            self._advance()

    # -- teardown ----------------------------------------------------------

    def _shutdown(self) -> None:
        """Stop speculation, collect telemetry, reap every worker."""
        for wid in sorted(self.alive - self.finished):
            self._retire(wid)
        opts = self.seq.options
        grace = max(5.0, 2.0 * opts.fault_time_limit
                    * max(1, len(opts.schedule())))
        deadline = wall_clock() + grace
        while (self.alive - self.finished
               and wall_clock() < deadline):
            try:
                msg = self.results.get(timeout=_POLL_S)
            except queue_mod.Empty:
                for wid in sorted(self.alive - self.finished):
                    if not self.procs[wid].is_alive():
                        self.alive.discard(wid)
                continue
            if msg[0] == "finished":
                self._handle(msg)
        for wid, proc in enumerate(self.procs):
            if proc.is_alive() and wid not in self.finished:
                proc.terminate()
                self.workers_terminated += 1
            proc.join(timeout=5.0)
        self.results.close()
        self.results.join_thread()
        for conn in self.conns:
            try:
                conn.close()
            except OSError:
                pass

    def _book_metrics(self) -> None:
        counter("atpg.parallel.runs").inc()
        gauge("atpg.parallel.workers").set(self.jobs)
        counter("atpg.parallel.shards").inc(self.initial_shards)
        counter("atpg.parallel.shards_stolen").inc(self.stolen)
        counter("atpg.parallel.shards_requeued").inc(self.requeued_shards)
        counter("atpg.parallel.cross_sim_drops").inc(
            self.commit.cross_sim_drops)
        counter("atpg.parallel.wasted_results").inc(self.wasted_results)
        if self.workers_terminated:
            counter("atpg.parallel.workers_terminated").inc(
                self.workers_terminated)
        sp = self.parent_span
        sp.set("shards", self.initial_shards)
        sp.set("shards_stolen", self.stolen)
        sp.set("shards_requeued", self.requeued_shards)
        sp.set("wasted_results", self.wasted_results)


def run_parallel_podem(seq: SequentialAtpg, commit: PodemCommitState,
                       jobs: int, parent_span: Span) -> None:
    """Run the deterministic PODEM phase on ``jobs`` forked workers.

    Mutates ``commit`` exactly as the serial loop would (same sets, same
    tests, same order); see the module docstring for why that holds.
    """
    # Build the unrolled models once, pre-fork: every worker inherits
    # them copy-on-write instead of rebuilding per process.  The netlist
    # arena the coordinator shards with is inherited the same way, and
    # serves the workers' cross-simulation on the arena backend.
    for frames in seq.options.schedule():
        seq.model(frames)
    coordinator = _Coordinator(seq, commit, jobs, parent_span)
    if not coordinator.shards:
        return
    coordinator.start_workers()
    coordinator.run()
