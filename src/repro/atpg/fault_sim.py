"""Parallel-fault sequential fault simulation.

Faults are packed into bit lanes of Python integers: lane 0 carries the good
machine, lanes 1..k one faulty machine each, all simulating the same input
sequence.  Fault injection forces the faulty value on the fault site's net in
that fault's lane only.  A fault is detected when some primary output
differs (binary vs binary) between its lane and the good lane at any cycle.
Flip-flops start at X, so every fault must be excited through a genuine
initialisation sequence — the same discipline a commercial sequential fault
simulator enforces.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Optional, Sequence, Set, Tuple

from repro.synth.netlist import CONST0, CONST1, GateType, Netlist
from repro.atpg.arena import get_arena_sim, resolve_backend
from repro.atpg.faults import Fault, TransientFault

Vector = Mapping[int, int]  # PI net -> 0 or 1 (missing = X)

# Default lane width (one good machine + 511 faulty machines per block);
# call sites that want a different width take a ``lanes`` parameter rather
# than hard-coding their own number.
DEFAULT_LANES = 512

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


class FaultSimulator:
    """Simulates vector sequences against a fault list, lane-parallel.

    ``backend="arena"`` (default) runs the struct-of-arrays word-parallel
    simulation of :mod:`repro.atpg.arena`: one memoized good-machine pass,
    a provably-exact undetectability filter, and cone-partitioned lane
    blocks.  ``backend="interpreted"`` walks the full flat gate list per
    block — slowest, kept as the reference oracle.  Detected-fault sets are
    bit-identical across both.
    """

    def __init__(self, netlist: Netlist, lanes: int = DEFAULT_LANES,
                 backend: Optional[str] = None):
        if lanes < 2:
            raise ValueError("need at least two lanes (good + one fault)")
        self.netlist = netlist
        self.lanes = lanes
        self.backend = resolve_backend(backend)
        self._dffs = netlist.dffs()
        self._arena_sim = None
        self._flat = []
        if self.backend == "arena":
            self._arena_sim = get_arena_sim(netlist)
        else:
            # Pre-extract (type, output, inputs) for the hot loop.
            self._flat = [(g.type, g.output, g.inputs)
                          for g in netlist.topological_order()]

    def detected_faults(
        self,
        vectors: Sequence[Vector],
        faults: Sequence[Fault],
        initial_state: Optional[Mapping[int, int]] = None,
        extra_observables: Optional[Sequence[int]] = None,
    ) -> Set[Fault]:
        """Return the subset of ``faults`` detected by the vector sequence.

        ``initial_state`` pre-loads flip-flop Q nets with known bits (the
        PIER load-instruction model: registers reachable from the chip pins
        can be initialised before the test body runs).  ``extra_observables``
        adds nets compared against the good machine every cycle (the PIER
        store-instruction model: those registers can be read out).
        """
        from repro.obs import counter, progress

        stuck = [f for f in faults if not isinstance(f, TransientFault)]
        transients = [f for f in faults if isinstance(f, TransientFault)]

        blocks = 0
        detected: Set[Fault] = set()
        if stuck:
            if self._arena_sim is not None:
                found, nblk = self._arena_sim.detected_faults(
                    vectors, stuck, initial_state=initial_state,
                    extra_observables=extra_observables, lanes=self.lanes,
                )
            else:
                found = set()
                block_size = self.lanes - 1
                nblk = 0
                for start in range(0, len(stuck), block_size):
                    block = stuck[start : start + block_size]
                    nblk += 1
                    found |= self._simulate_block(vectors, block,
                                                 initial_state,
                                                 extra_observables)
            detected |= found
            blocks += nblk

        if transients:
            found, nblk = self._detect_transients(vectors, transients,
                                                  initial_state,
                                                  extra_observables)
            detected |= found
            blocks += nblk
            counter("fault_sim.seu_injections").inc(len(transients))
        counter(f"fault_sim.backend.{self.backend}").inc()
        counter("fault_sim.calls").inc()
        counter("fault_sim.blocks").inc(blocks)
        counter("fault_sim.vectors").inc(len(vectors) * blocks)
        counter("fault_sim.faults_simulated").inc(len(faults))
        counter("fault_sim.faults_detected").inc(len(detected))
        progress("fault_sim", simulated=len(faults),
                 found=len(detected), vectors=len(vectors))
        return detected

    # -- internals -------------------------------------------------------------

    def _simulate_block(self, vectors: Sequence[Vector],
                        block: Sequence[Fault],
                        initial_state: Optional[Mapping[int, int]] = None,
                        extra_observables: Optional[Sequence[int]] = None
                        ) -> Set[Fault]:
        width = len(block) + 1  # lane 0 = good machine
        full = (1 << width) - 1

        force1: Dict[int, int] = {}
        force0: Dict[int, int] = {}
        for lane, fault in enumerate(block, start=1):
            if fault.value == 1:
                force1[fault.net] = force1.get(fault.net, 0) | (1 << lane)
            else:
                force0[fault.net] = force0.get(fault.net, 0) | (1 << lane)

        def inject(net: int, ones: int, zeros: int) -> Tuple[int, int]:
            f1 = force1.get(net)
            if f1:
                ones |= f1
                zeros &= ~f1
            f0 = force0.get(net)
            if f0:
                zeros |= f0
                ones &= ~f0
            return ones, zeros

        has_injection = bool(force1 or force0)
        state: Dict[int, Tuple[int, int]] = {
            dff.output: (0, 0) for dff in self._dffs
        }
        if initial_state:
            for q, bit in initial_state.items():
                state[q] = (full, 0) if bit else (0, full)
        observe_points = list(self.netlist.pos)
        if extra_observables:
            observe_points.extend(extra_observables)
        detected_mask = 0

        AND, OR, NOT, BUF = GateType.AND, GateType.OR, GateType.NOT, GateType.BUF
        NAND, NOR, XOR, XNOR = (GateType.NAND, GateType.NOR, GateType.XOR,
                                GateType.XNOR)

        for vec in vectors:
            values: Dict[int, Tuple[int, int]] = {
                CONST0: (0, full), CONST1: (full, 0)
            }
            for pi in self.netlist.pis:
                bit = vec.get(pi)
                if bit is None:
                    pair = (0, 0)
                elif bit:
                    pair = (full, 0)
                else:
                    pair = (0, full)
                values[pi] = inject(pi, *pair) if has_injection else pair
            for dff in self._dffs:
                q = dff.output
                pair = state.get(q, (0, 0))
                values[q] = inject(q, *pair) if has_injection else pair

            get = values.get
            for gtype, out, inputs in self._flat:
                if gtype is BUF:
                    ones, zeros = get(inputs[0], (0, 0))
                elif gtype is NOT:
                    i1, i0 = get(inputs[0], (0, 0))
                    ones, zeros = i0, i1
                elif gtype is AND or gtype is NAND:
                    ones, zeros = full, 0
                    for inp in inputs:
                        i1, i0 = get(inp, (0, 0))
                        ones &= i1
                        zeros |= i0
                    if gtype is NAND:
                        ones, zeros = zeros, ones
                elif gtype is OR or gtype is NOR:
                    ones, zeros = 0, full
                    for inp in inputs:
                        i1, i0 = get(inp, (0, 0))
                        ones |= i1
                        zeros &= i0
                    if gtype is NOR:
                        ones, zeros = zeros, ones
                else:  # XOR / XNOR
                    ones, zeros = 0, full
                    for inp in inputs:
                        i1, i0 = get(inp, (0, 0))
                        ones, zeros = (ones & i0) | (zeros & i1), \
                                      (ones & i1) | (zeros & i0)
                    if gtype is XNOR:
                        ones, zeros = zeros, ones
                if has_injection:
                    ones, zeros = inject(out, ones, zeros)
                values[out] = (ones, zeros)

            for po in observe_points:
                ones, zeros = values.get(po, (0, 0))
                if ones & 1:  # good machine observes 1
                    detected_mask |= zeros & ~1
                elif zeros & 1:  # good machine observes 0
                    detected_mask |= ones & ~1

            state = {
                dff.output: values.get(dff.inputs[0], (0, 0))
                for dff in self._dffs
            }

        out: Set[Fault] = set()
        for lane, fault in enumerate(block, start=1):
            if detected_mask & (1 << lane):
                out.add(fault)
        return out

    # -- transient (SEU) faults --------------------------------------------

    def _detect_transients(self, vectors: Sequence[Vector],
                           transients: Sequence[TransientFault],
                           initial_state: Optional[Mapping[int, int]],
                           extra_observables: Optional[Sequence[int]]
                           ) -> Tuple[Set[TransientFault], int]:
        """Dispatch transient faults to the backend-appropriate path.

        The arena backend gets its own word-parallel implementation with
        the good-plane pre-filter; the interpreted oracle runs the flat
        cycle-gated lane loop below.
        """
        if self._arena_sim is not None:
            return self._arena_sim.detected_transients(
                vectors, transients, initial_state=initial_state,
                extra_observables=extra_observables, lanes=self.lanes,
            )
        detected: Set[TransientFault] = set()
        block_size = self.lanes - 1
        blocks = 0
        for start in range(0, len(transients), block_size):
            block = transients[start : start + block_size]
            blocks += 1
            detected |= self._simulate_transient_block(
                vectors, block, initial_state, extra_observables)
        return detected, blocks

    def _simulate_transient_block(
        self, vectors: Sequence[Vector],
        block: Sequence[TransientFault],
        initial_state: Optional[Mapping[int, int]] = None,
        extra_observables: Optional[Sequence[int]] = None,
    ) -> Set[TransientFault]:
        """Lane-parallel simulation of one block of single-cycle upsets.

        Identical to :meth:`_simulate_block` except the injection masks
        are gated by cycle: a lane's force is only live during its
        fault's flip cycle, so before the flip the lane tracks the good
        machine exactly and after it the disturbance propagates (or dies)
        on its own.
        """
        width = len(block) + 1  # lane 0 = good machine
        full = (1 << width) - 1

        # cycle -> net -> lane mask, split by forced value
        cyc1: Dict[int, Dict[int, int]] = {}
        cyc0: Dict[int, Dict[int, int]] = {}
        for lane, fault in enumerate(block, start=1):
            per = (cyc1 if fault.value == 1 else cyc0).setdefault(
                fault.cycle, {})
            per[fault.net] = per.get(fault.net, 0) | (1 << lane)

        state: Dict[int, Tuple[int, int]] = {
            dff.output: (0, 0) for dff in self._dffs
        }
        if initial_state:
            for q, bit in initial_state.items():
                state[q] = (full, 0) if bit else (0, full)
        observe_points = list(self.netlist.pos)
        if extra_observables:
            observe_points.extend(extra_observables)
        detected_mask = 0

        AND, OR, NOT, BUF = GateType.AND, GateType.OR, GateType.NOT, GateType.BUF
        NAND, NOR, XOR, XNOR = (GateType.NAND, GateType.NOR, GateType.XOR,
                                GateType.XNOR)

        for cycle, vec in enumerate(vectors):
            force1 = cyc1.get(cycle) or {}
            force0 = cyc0.get(cycle) or {}
            has_injection = bool(force1 or force0)

            def inject(net: int, ones: int, zeros: int) -> Tuple[int, int]:
                f1 = force1.get(net)
                if f1:
                    ones |= f1
                    zeros &= ~f1
                f0 = force0.get(net)
                if f0:
                    zeros |= f0
                    ones &= ~f0
                return ones, zeros

            values: Dict[int, Tuple[int, int]] = {
                CONST0: (0, full), CONST1: (full, 0)
            }
            for pi in self.netlist.pis:
                bit = vec.get(pi)
                if bit is None:
                    pair = (0, 0)
                elif bit:
                    pair = (full, 0)
                else:
                    pair = (0, full)
                values[pi] = inject(pi, *pair) if has_injection else pair
            for dff in self._dffs:
                q = dff.output
                pair = state.get(q, (0, 0))
                values[q] = inject(q, *pair) if has_injection else pair

            get = values.get
            for gtype, out, inputs in self._flat:
                if gtype is BUF:
                    ones, zeros = get(inputs[0], (0, 0))
                elif gtype is NOT:
                    i1, i0 = get(inputs[0], (0, 0))
                    ones, zeros = i0, i1
                elif gtype is AND or gtype is NAND:
                    ones, zeros = full, 0
                    for inp in inputs:
                        i1, i0 = get(inp, (0, 0))
                        ones &= i1
                        zeros |= i0
                    if gtype is NAND:
                        ones, zeros = zeros, ones
                elif gtype is OR or gtype is NOR:
                    ones, zeros = 0, full
                    for inp in inputs:
                        i1, i0 = get(inp, (0, 0))
                        ones |= i1
                        zeros &= i0
                    if gtype is NOR:
                        ones, zeros = zeros, ones
                else:  # XOR / XNOR
                    ones, zeros = 0, full
                    for inp in inputs:
                        i1, i0 = get(inp, (0, 0))
                        ones, zeros = (ones & i0) | (zeros & i1), \
                                      (ones & i1) | (zeros & i0)
                    if gtype is XNOR:
                        ones, zeros = zeros, ones
                if has_injection:
                    ones, zeros = inject(out, ones, zeros)
                values[out] = (ones, zeros)

            for po in observe_points:
                ones, zeros = values.get(po, (0, 0))
                if ones & 1:  # good machine observes 1
                    detected_mask |= zeros & ~1
                elif zeros & 1:  # good machine observes 0
                    detected_mask |= ones & ~1

            state = {
                dff.output: values.get(dff.inputs[0], (0, 0))
                for dff in self._dffs
            }

        out: Set[TransientFault] = set()
        for lane, fault in enumerate(block, start=1):
            if detected_mask & (1 << lane):
                out.add(fault)
        return out

