"""ATPG driver: random phase + deterministic PODEM phase + fault dropping.

Produces the numbers the paper's Tables 4-6 report per module: fault
coverage %, ATPG efficiency % (detected + proven-untestable over total),
test generation CPU time and total CPU time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs import CpuTimer, Deadline, counter, gauge, histogram, \
    progress, span
from repro.obs.record import RunRecord
from repro.synth.netlist import Netlist
from repro.atpg.faults import (Fault, TransientFault, build_fault_list,
                               build_transient_fault_list)
from repro.atpg.fault_sim import DEFAULT_LANES, FaultSimulator
from repro.atpg.podem import Podem, PodemResult
from repro.atpg.sequential import UnrolledModel


@dataclass
class AtpgOptions:
    """Knobs for a test-generation run.

    The limits are what make an embedded module hard: with the whole design
    around it, the same backtrack/time budget that easily covers the
    stand-alone module aborts on most faults — exactly the effect of the
    paper's Table 4.
    """

    max_frames: int = 8
    frame_schedule: Optional[Sequence[int]] = None
    backtrack_limit: int = 200
    fault_time_limit: float = 1.0  # CPU seconds per fault per depth
    total_time_limit: Optional[float] = None  # CPU budget for the whole run
    random_sequences: int = 16
    random_sequence_length: int = 32
    seed: int = 2002
    pier_qs: frozenset = frozenset()
    fault_region: Optional[str] = None
    fault_sample: Optional[int] = None
    # Which fault populations the run targets/grades.  "stuck" is the
    # classic flow.  "both" additionally grades the generated test set
    # against a seeded SEU population (single-cycle bit flips).  In
    # "transient" mode the deterministic PODEM phase is skipped — only the
    # random phase generates sequences, which are then graded against the
    # SEU population; that is the cheap robustness-screening trial shape
    # campaigns sweep against the full flow.
    fault_model: str = "stuck"
    # Seeded sample size of the SEU population (sites x values x cycles);
    # None grades the full universe.
    transient_sample: Optional[int] = 256
    fault_sim_lanes: int = DEFAULT_LANES
    # None defers to the session default (arena unless REPRO_SIM_BACKEND
    # says otherwise); set "interpreted" to run against the reference oracle.
    fault_sim_backend: Optional[str] = None
    # PODEM worker processes for the deterministic phase: 1 = serial,
    # 0 = all cores, N = N forked workers.  Results are bit-identical at
    # any value (docs/performance.md, "intra-job fault parallelism"), so
    # the store fingerprint deliberately excludes this knob.  Small runs
    # stay serial regardless (see fault_sim.should_parallelize), as do
    # runs under a total_time_limit — which fault the budget cuts off
    # depends on one process's CPU clock and cannot be replicated across
    # workers.
    jobs: int = 1

    def schedule(self) -> List[int]:
        if self.frame_schedule is not None:
            sched = [f for f in self.frame_schedule if f <= self.max_frames]
        else:
            sched = [f for f in (1, 2, 3, 4, 6, 8, 12, 16)
                     if f <= self.max_frames]
        if not sched or sched[-1] != self.max_frames:
            sched.append(self.max_frames)
        return sched


@dataclass
class AtpgReport:
    name: str
    total_faults: int
    detected: int
    untestable: int
    aborted: int
    unattempted: int
    random_detected: int
    coverage_percent: float
    efficiency_percent: float
    test_gen_seconds: float
    fault_sim_seconds: float
    total_seconds: float
    num_tests: int
    num_vectors: int
    # SEU grading phase (fault_model "transient"/"both"); all-zero when
    # the run only targeted stuck-at faults.
    transient_total: int = 0
    transient_detected: int = 0
    transient_coverage_percent: float = 0.0
    abort_reasons: Dict[str, int] = field(default_factory=dict)
    record: Optional[RunRecord] = field(default=None, repr=False)

    def as_row(self) -> Dict[str, object]:
        row = {
            "name": self.name,
            "faults": self.total_faults,
            "detected": self.detected,
            "cov%": round(self.coverage_percent, 2),
            "eff%": round(self.efficiency_percent, 2),
            "tgen_s": round(self.test_gen_seconds, 2),
            "total_s": round(self.total_seconds, 2),
            "tests": self.num_tests,
            "vectors": self.num_vectors,
        }
        if self.transient_total:
            row["seu"] = self.transient_total
            row["seu_detected"] = self.transient_detected
            row["seu_cov%"] = round(self.transient_coverage_percent, 2)
        return row


class SequentialAtpg:
    """Deterministic PODEM over an escalating time-frame schedule."""

    def __init__(self, netlist: Netlist, options: AtpgOptions):
        self.netlist = netlist
        self.options = options
        self._models: Dict[int, UnrolledModel] = {}

    def model(self, frames: int) -> UnrolledModel:
        if frames not in self._models:
            self._models[frames] = UnrolledModel(
                self.netlist, frames, pier_qs=set(self.options.pier_qs)
            )
        return self._models[frames]

    def generate(self, fault: Fault) -> PodemResult:
        """Try the fault at increasing sequential depths."""
        last: Optional[PodemResult] = None
        aborted_any = False
        for frames in self.options.schedule():
            podem = Podem(
                self.model(frames),
                fault,
                backtrack_limit=self.options.backtrack_limit,
                time_limit=self.options.fault_time_limit,
            )
            result = podem.run()
            if last is not None:
                result.cpu_seconds += last.cpu_seconds
                result.backtracks += last.backtracks
                result.decisions += last.decisions
                result.implications += last.implications
            if result.detected:
                return result
            if result.status == "aborted":
                aborted_any = True
            last = result
        assert last is not None
        if aborted_any:
            last.status = "aborted"
        # else: search exhausted at every depth -> untestable up to max_frames.
        return last


class PodemCommitState:
    """Per-fault classification, shared by the serial and parallel paths.

    :meth:`commit` is the exact body of the serial PODEM loop: book the
    result, and on detection append the test and cross-fault-simulate its
    vectors against every remaining fault.  The parallel coordinator
    feeds it worker-computed results *in serial fault order*, so the
    detected/untestable/aborted sets, the dropped-fault cascade, the
    tests list and the coverage are bit-identical to a serial run by
    construction — workers only ever speculate, they never classify.
    """

    def __init__(self, engine: "AtpgEngine", faults: List[Fault],
                 remaining: Set[Fault], detected: Set[Fault],
                 fsim: FaultSimulator, fault_sim_timer: CpuTimer,
                 observe: Optional[List[int]]):
        self.engine = engine
        self.faults = faults
        self.total = len(faults)
        self.remaining = remaining
        self.detected = detected
        self.untestable: Set[Fault] = set()
        self.aborted: Set[Fault] = set()
        self.abort_reasons: Dict[str, int] = {}
        self.fsim = fsim
        self.fault_sim_timer = fault_sim_timer
        self.observe = observe
        self.test_gen_seconds = 0.0
        self.total_backtracks = 0
        self.cross_sim_drops = 0
        self.unattempted = 0

    @property
    def coverage_percent(self) -> float:
        return (100.0 * len(self.detected) / self.total
                if self.total else 100.0)

    def commit(self, fault: Fault, result: PodemResult) -> None:
        self.test_gen_seconds += result.cpu_seconds
        self.total_backtracks += result.backtracks
        counter("atpg.backtracks").inc(result.backtracks)
        counter("atpg.decisions").inc(result.decisions)
        counter("atpg.implications").inc(result.implications)
        histogram("atpg.fault_seconds").observe(result.cpu_seconds)
        if result.detected:
            self.detected.add(fault)
            self.remaining.discard(fault)
            self.engine.tests.append((result.vectors, result.initial_state))
            if self.remaining:
                with self.fault_sim_timer:
                    extra = self.fsim.detected_faults(
                        result.vectors,
                        [f for f in self.faults if f in self.remaining],
                        initial_state=result.initial_state or None,
                        extra_observables=self.observe,
                    )
                self.detected |= extra
                self.remaining -= extra
                self.cross_sim_drops += len(extra)
        elif result.status == "untestable":
            self.untestable.add(fault)
            self.remaining.discard(fault)
        else:
            self.aborted.add(fault)
            self.remaining.discard(fault)
            reason = result.abort_reason or "unknown"
            self.abort_reasons[reason] = self.abort_reasons.get(reason, 0) + 1

    def mark_unattempted(self, fault: Fault) -> None:
        """Serial-only: the run's total CPU budget expired first."""
        self.unattempted += 1
        self.remaining.discard(fault)
        self.aborted.add(fault)
        self.abort_reasons["total_time_limit"] = (
            self.abort_reasons.get("total_time_limit", 0) + 1
        )

    def emit_progress(self, **extra) -> None:
        progress("atpg.podem", detected=len(self.detected),
                 remaining=len(self.remaining),
                 untestable=len(self.untestable),
                 aborted=len(self.aborted),
                 backtracks=self.total_backtracks,
                 coverage=round(self.coverage_percent, 2),
                 vectors=sum(len(v) for v, _ in self.engine.tests),
                 **extra)


class AtpgEngine:
    """Full flow: fault list -> random phase -> PODEM phase -> report."""

    def __init__(self, netlist: Netlist,
                 options: Optional[AtpgOptions] = None):
        self.netlist = netlist
        self.options = options or AtpgOptions()
        self.tests: List[Tuple[List[Dict[int, int]], Dict[int, int]]] = []
        # Populated by run(): the final classification sets (equivalence
        # tests compare these across worker counts) and how many PODEM
        # workers the run actually used (0 = stayed serial).
        self.detected_faults: Set[Fault] = set()
        self.untestable_faults: Set[Fault] = set()
        self.aborted_faults: Set[Fault] = set()
        self.parallel_workers = 0
        # Worker CPU seconds are invisible to this process's CPU clock;
        # run() adds them back so total_seconds stays comparable with a
        # serial run.
        self._offloaded_cpu_seconds = 0.0

    def run(self) -> AtpgReport:
        with span("atpg", netlist=self.netlist.name) as sp:
            report = self._run(sp)
            # Every reported time derives from one CPU clock: the span for
            # the total, CpuTimer accumulation for the phases inside it.
            # Forked PODEM workers burn CPU on their own clocks; their
            # committed generation time is added back so serial and
            # parallel totals measure the same work.
            report.total_seconds = sp.cpu_seconds + self._offloaded_cpu_seconds
            sp.set("faults", report.total_faults)
            sp.set("detected", report.detected)
            sp.set("coverage_percent", round(report.coverage_percent, 2))
        report.record = RunRecord.capture(
            f"atpg:{self.netlist.name}", spans=[sp]
        )
        if report.total_seconds > 0:
            gauge("atpg.faults_per_second").set(
                round(report.total_faults / report.total_seconds, 2)
            )
        return report

    def _run(self, sp) -> AtpgReport:
        opts = self.options
        rng = random.Random(opts.seed)
        budget = Deadline(opts.total_time_limit)

        # ``faults`` stays the one sorted list for the whole run; the hot
        # loops below filter it by membership in ``remaining`` instead of
        # re-sorting the shrinking set after every detection.
        faults = build_fault_list(self.netlist, region=opts.fault_region)
        if opts.fault_sample is not None and len(faults) > opts.fault_sample:
            faults = sorted(rng.sample(faults, opts.fault_sample))
        total = len(faults)
        remaining: Set[Fault] = set(faults)
        detected: Set[Fault] = set()

        fsim = FaultSimulator(self.netlist, lanes=opts.fault_sim_lanes,
                              backend=opts.fault_sim_backend)
        fault_sim_timer = CpuTimer()
        observe = sorted(
            dff.inputs[0]
            for dff in self.netlist.dffs()
            if dff.output in opts.pier_qs
        ) if opts.pier_qs else None

        progress("atpg.setup", force=True, faults=total,
                 netlist=self.netlist.name)

        # -- phase 1: random vectors -------------------------------------
        with span("atpg.random") as sp_random:
            for _ in range(opts.random_sequences):
                if not remaining:
                    break
                vectors = [
                    {pi: rng.randint(0, 1) for pi in self.netlist.pis}
                    for _ in range(opts.random_sequence_length)
                ]
                with fault_sim_timer:
                    found = fsim.detected_faults(
                        vectors, [f for f in faults if f in remaining]
                    )
                if found:
                    self.tests.append((vectors, {}))
                detected |= found
                remaining -= found
                progress("atpg.random", detected=len(detected),
                         remaining=len(remaining),
                         coverage=round(
                             100.0 * len(detected) / total, 2
                         ) if total else 100.0,
                         vectors=sum(len(v) for v, _ in self.tests))
            random_detected = len(detected)
            sp_random.set("detected", random_detected)

        # -- phase 2: deterministic PODEM ---------------------------------
        seq = SequentialAtpg(self.netlist, opts)
        commit = PodemCommitState(self, faults, remaining, detected,
                                  fsim, fault_sim_timer, observe)
        if opts.fault_model != "transient":
            jobs = self._podem_jobs(opts, total)
            self.parallel_workers = jobs if jobs > 1 else 0
            with span("atpg.podem", workers=jobs) as sp_podem:
                if jobs > 1:
                    from repro.atpg.parallel import run_parallel_podem

                    run_parallel_podem(seq, commit, jobs, sp_podem)
                    self._offloaded_cpu_seconds = commit.test_gen_seconds
                else:
                    for fault in faults:
                        if fault not in remaining:
                            continue
                        if budget.expired():
                            commit.mark_unattempted(fault)
                            continue
                        commit.commit(fault, seq.generate(fault))
                        commit.emit_progress()
                sp_podem.set("backtracks", commit.total_backtracks)
                sp_podem.set("test_gen_seconds",
                             round(commit.test_gen_seconds, 6))

        # -- phase 3: SEU grading of the generated test set ---------------
        transient_total = transient_detected = 0
        if opts.fault_model in ("transient", "both"):
            with span("atpg.transient") as sp_tr:
                horizon = max((len(v) for v, _ in self.tests),
                              default=opts.random_sequence_length)
                tfaults = build_transient_fault_list(
                    self.netlist, horizon, region=opts.fault_region,
                    sample=opts.transient_sample, seed=opts.seed)
                transient_total = len(tfaults)
                rem_t: Set[TransientFault] = set(tfaults)
                for vectors, istate in self.tests:
                    if not rem_t:
                        break
                    with fault_sim_timer:
                        found = fsim.detected_faults(
                            vectors, [f for f in tfaults if f in rem_t],
                            initial_state=istate or None,
                            extra_observables=observe,
                        )
                    rem_t -= found
                transient_detected = transient_total - len(rem_t)
                sp_tr.set("injections", transient_total)
                sp_tr.set("detected", transient_detected)
            counter("atpg.transient.injections").inc(transient_total)
            counter("atpg.transient.detected").inc(transient_detected)
            progress("atpg.transient", force=True,
                     injections=transient_total,
                     detected=transient_detected)

        untestable, aborted = commit.untestable, commit.aborted
        abort_reasons = commit.abort_reasons
        for reason, count in abort_reasons.items():
            counter(f"atpg.aborts.{reason}").inc(count)
        sp.set("fault_sim_seconds", round(fault_sim_timer.elapsed, 6))
        progress("atpg.done", force=True, detected=len(detected),
                 remaining=len(remaining), untestable=len(untestable),
                 aborted=len(aborted), backtracks=commit.total_backtracks,
                 coverage=round(commit.coverage_percent, 2),
                 vectors=sum(len(v) for v, _ in self.tests))

        self.detected_faults = set(detected)
        self.untestable_faults = set(untestable)
        self.aborted_faults = set(aborted)
        coverage = 100.0 * len(detected) / total if total else 100.0
        efficiency = (
            100.0 * (len(detected) + len(untestable)) / total
            if total else 100.0
        )
        return AtpgReport(
            name=self.netlist.name,
            total_faults=total,
            detected=len(detected),
            untestable=len(untestable),
            aborted=len(aborted),
            unattempted=commit.unattempted,
            random_detected=random_detected,
            coverage_percent=coverage,
            efficiency_percent=efficiency,
            test_gen_seconds=commit.test_gen_seconds,
            fault_sim_seconds=fault_sim_timer.elapsed,
            total_seconds=0.0,  # patched from the "atpg" span by run()
            num_tests=len(self.tests),
            num_vectors=sum(len(v) for v, _ in self.tests),
            transient_total=transient_total,
            transient_detected=transient_detected,
            transient_coverage_percent=(
                100.0 * transient_detected / transient_total
                if transient_total
                else (100.0 if opts.fault_model != "stuck" else 0.0)
            ),
            abort_reasons=abort_reasons,
        )

    def _podem_jobs(self, opts: AtpgOptions, total_faults: int) -> int:
        """PODEM worker count after the serial-fallback gates."""
        if opts.jobs == 1:
            return 1
        if opts.total_time_limit is not None:
            # Which fault a run-wide CPU budget cuts off is a property of
            # one process's clock; no parallel schedule reproduces it.
            return 1
        from repro.atpg.fault_sim import should_parallelize
        from repro.jobs import resolve_jobs

        resolved = resolve_jobs(opts.jobs)
        if not should_parallelize(resolved, total_faults,
                                  len(self.netlist.gates)):
            return 1
        return max(1, min(resolved, total_faults))
