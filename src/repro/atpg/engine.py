"""ATPG driver: random phase + deterministic PODEM phase + fault dropping.

Produces the numbers the paper's Tables 4-6 report per module: fault
coverage %, ATPG efficiency % (detected + proven-untestable over total),
test generation CPU time and total CPU time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs import CpuTimer, Deadline, counter, gauge, histogram, \
    progress, span
from repro.obs.record import RunRecord
from repro.synth.netlist import Netlist
from repro.atpg.faults import (Fault, TransientFault, build_fault_list,
                               build_transient_fault_list)
from repro.atpg.fault_sim import FaultSimulator
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
    # None runs the arena; "interpreted" runs against the reference oracle.
    fault_sim_backend: Optional[str] = None

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
    # PODEM effort over every depth of every targeted fault.
    implications: int = 0
    backtracks: int = 0
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


class AtpgEngine:
    """Full flow: fault list -> random phase -> PODEM phase -> report."""

    # PODEM runs in this process; perfbench's podem.workers metric reads it.
    parallel_workers = 0

    def __init__(self, netlist: Netlist,
                 options: Optional[AtpgOptions] = None):
        self.netlist = netlist
        self.options = options or AtpgOptions()
        self.tests: List[Tuple[List[Dict[int, int]], Dict[int, int]]] = []
        # Populated by run(): the final detected set (equivalence checks
        # compare it across backends).
        self.detected_faults: Set[Fault] = set()

    def run(self) -> AtpgReport:
        with span("atpg", netlist=self.netlist.name) as sp:
            report = self._run(sp)
            # Every reported time derives from one CPU clock: the span for
            # the total, CpuTimer accumulation for the phases inside it.
            report.total_seconds = sp.cpu_seconds
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

        fsim = FaultSimulator(self.netlist, backend=opts.fault_sim_backend)
        fault_sim_timer = CpuTimer()
        observe = sorted(
            dff.inputs[0]
            for dff in self.netlist.dffs()
            if dff.output in opts.pier_qs
        ) if opts.pier_qs else None

        progress("atpg.setup", force=True, faults=total,
                 netlist=self.netlist.name)

        # -- phase 1: random vectors -------------------------------------
        # The sequences are independent, so they are drawn up front and
        # graded in one batch; the loop replays the per-sequence fault
        # dropping on the first detections, stopping once nothing remains
        # and keeping only sequences that detected something.
        with span("atpg.random") as sp_random:
            sequences = [
                [{pi: rng.randint(0, 1) for pi in self.netlist.pis}
                 for _ in range(opts.random_sequence_length)]
                for _ in range(opts.random_sequences)
            ]
            firsts: List[Set[Fault]] = []
            if sequences and remaining:
                with fault_sim_timer:
                    firsts = fsim.first_detections(sequences, faults)
            for vectors, found in zip(sequences, firsts):
                if not remaining:
                    break
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
        # Each targeted fault leaves ``remaining`` for one of the three
        # verdict sets; a detection's test is cross-simulated against the
        # faults still remaining, and every fault it catches is dropped.
        untestable: Set[Fault] = set()
        aborted: Set[Fault] = set()
        abort_reasons: Dict[str, int] = {}
        test_gen_seconds = 0.0
        total_backtracks = total_implications = unattempted = 0
        if opts.fault_model != "transient":
            seq = SequentialAtpg(self.netlist, opts)
            with span("atpg.podem") as sp_podem:
                for fault in faults:
                    if fault not in remaining:
                        continue
                    remaining.discard(fault)
                    if budget.expired():
                        unattempted += 1
                        aborted.add(fault)
                        abort_reasons["total_time_limit"] = (
                            abort_reasons.get("total_time_limit", 0) + 1)
                        continue
                    result = seq.generate(fault)
                    test_gen_seconds += result.cpu_seconds
                    total_backtracks += result.backtracks
                    total_implications += result.implications
                    counter("atpg.backtracks").inc(result.backtracks)
                    counter("atpg.decisions").inc(result.decisions)
                    counter("atpg.implications").inc(result.implications)
                    histogram("atpg.fault_seconds").observe(
                        result.cpu_seconds)
                    if result.detected:
                        detected.add(fault)
                        self.tests.append(
                            (result.vectors, result.initial_state))
                        if remaining:
                            with fault_sim_timer:
                                extra = fsim.detected_faults(
                                    result.vectors,
                                    [f for f in faults if f in remaining],
                                    initial_state=(result.initial_state
                                                   or None),
                                    extra_observables=observe,
                                )
                            detected |= extra
                            remaining -= extra
                    elif result.status == "untestable":
                        untestable.add(fault)
                    else:
                        aborted.add(fault)
                        reason = result.abort_reason or "unknown"
                        abort_reasons[reason] = (
                            abort_reasons.get(reason, 0) + 1)
                    progress("atpg.podem", detected=len(detected),
                             remaining=len(remaining),
                             untestable=len(untestable),
                             aborted=len(aborted),
                             backtracks=total_backtracks,
                             coverage=round(
                                 100.0 * len(detected) / total, 2),
                             vectors=sum(len(v) for v, _ in self.tests))
                sp_podem.set("backtracks", total_backtracks)
                sp_podem.set("test_gen_seconds", round(test_gen_seconds, 6))

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
                # One batch per run of consecutive tests with equal length
                # and initial state; first detections keep the per-test
                # dropping order.
                for (_, istate), run in groupby(
                        self.tests, key=lambda t: (len(t[0]), t[1])):
                    if not rem_t:
                        break
                    with fault_sim_timer:
                        firsts = fsim.first_detections(
                            [vectors for vectors, _ in run],
                            [f for f in tfaults if f in rem_t],
                            initial_state=istate or None,
                            extra_observables=observe,
                        )
                    for found in firsts:
                        rem_t -= found
                transient_detected = transient_total - len(rem_t)
                sp_tr.set("injections", transient_total)
                sp_tr.set("detected", transient_detected)
            counter("atpg.transient.injections").inc(transient_total)
            counter("atpg.transient.detected").inc(transient_detected)
            progress("atpg.transient", force=True,
                     injections=transient_total,
                     detected=transient_detected)

        for reason, count in abort_reasons.items():
            counter(f"atpg.aborts.{reason}").inc(count)
        sp.set("fault_sim_seconds", round(fault_sim_timer.elapsed, 6))
        coverage = 100.0 * len(detected) / total if total else 100.0
        progress("atpg.done", force=True, detected=len(detected),
                 remaining=len(remaining), untestable=len(untestable),
                 aborted=len(aborted), backtracks=total_backtracks,
                 coverage=round(coverage, 2),
                 vectors=sum(len(v) for v, _ in self.tests))

        self.detected_faults = set(detected)
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
            unattempted=unattempted,
            random_detected=random_detected,
            coverage_percent=coverage,
            efficiency_percent=efficiency,
            test_gen_seconds=test_gen_seconds,
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
            implications=total_implications,
            backtracks=total_backtracks,
        )
