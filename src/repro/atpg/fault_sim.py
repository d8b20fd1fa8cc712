"""Parallel-fault sequential fault simulation.

:class:`FaultSimulator` is the entry point for both backends.  This module
holds the interpreted one, the reference oracle: faults are packed into bit
lanes of Python integers, lane 0 carrying the good machine and lanes 1..k
one faulty machine each, all simulating the same input sequence.  Fault
injection forces the faulty value on the fault site's net in that fault's
lane only.  A fault is detected when some primary output differs (binary vs
binary) between its lane and the good lane at any cycle.  Flip-flops start
at X, so every fault must be excited through a genuine initialisation
sequence — the same discipline a commercial sequential fault simulator
enforces.  A batch of sequences is graded one sequence at a time, dropping
the faults each detects.

Both fault models are injection schedules over one interpreted lane loop,
:func:`simulate_lanes`: a stuck-at lane is forced on every cycle, an SEU
lane (:class:`~repro.atpg.faults.TransientFault`) only in its flip cycle.
"""

from __future__ import annotations

from typing import (Callable, Dict, List, Mapping, Optional, Sequence, Set,
                    Tuple, TypeVar)

from repro.synth.netlist import CONST0, CONST1, GateType, Gate, Netlist
from repro.atpg.arena import DEFAULT_LANES, get_arena_sim
from repro.atpg.faults import AnyFault, TransientFault

Vector = Mapping[int, int]  # PI net -> 0 or 1 (missing = X)
F = TypeVar("F")  # the fault type of one lane block

#: One cycle's fault injection: ``(net, ones, zeros) -> (ones, zeros)``,
#: applied to every PI, flip-flop output and gate output.
Injection = Callable[[int, int, int], Tuple[int, int]]


def flat_gates(netlist: Netlist
               ) -> List[Tuple[GateType, int, Tuple[int, ...]]]:
    """``(type, output, inputs)`` per combinational gate in topological
    order: the gate list :func:`simulate_lanes` walks."""
    return [(g.type, g.output, g.inputs) for g in netlist.topological_order()]


def simulate_lanes(netlist: Netlist, flat, vectors: Sequence[Vector],
                   block: Sequence[F],
                   inject: Callable[[int], Optional[Injection]],
                   initial_state: Optional[Mapping[int, int]] = None,
                   extra_observables: Optional[Sequence[int]] = None
                   ) -> Set[F]:
    """The interpreted lane loop shared by every fault model.

    Lane 0 is the good machine and lane ``i + 1`` carries ``block[i]``,
    all driven by ``vectors`` through the gate list ``flat`` (see
    :func:`flat_gates`).  ``inject(cycle)`` returns that cycle's
    :data:`Injection`, or ``None`` when no lane is forced.  Returns the
    faults of ``block`` whose lane differed binary-vs-binary from lane 0
    at an observe point (primary outputs plus ``extra_observables``) in
    some cycle.
    """
    full = (1 << (len(block) + 1)) - 1
    dffs: List[Gate] = netlist.dffs()
    state: Dict[int, Tuple[int, int]] = {dff.output: (0, 0) for dff in dffs}
    if initial_state:
        for q, bit in initial_state.items():
            state[q] = (full, 0) if bit else (0, full)
    observe_points = list(netlist.pos)
    if extra_observables:
        observe_points.extend(extra_observables)
    detected_mask = 0

    AND, OR, NOT, BUF = GateType.AND, GateType.OR, GateType.NOT, GateType.BUF
    NAND, NOR, XNOR = GateType.NAND, GateType.NOR, GateType.XNOR

    for cycle, vec in enumerate(vectors):
        force = inject(cycle)
        values: Dict[int, Tuple[int, int]] = {
            CONST0: (0, full), CONST1: (full, 0)
        }
        for pi in netlist.pis:
            bit = vec.get(pi)
            if bit is None:
                pair = (0, 0)
            elif bit:
                pair = (full, 0)
            else:
                pair = (0, full)
            values[pi] = pair if force is None else force(pi, *pair)
        for dff in dffs:
            q = dff.output
            pair = state.get(q, (0, 0))
            values[q] = pair if force is None else force(q, *pair)

        get = values.get
        for gtype, out, inputs in flat:
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
            if force is not None:
                ones, zeros = force(out, ones, zeros)
            values[out] = (ones, zeros)

        for po in observe_points:
            ones, zeros = values.get(po, (0, 0))
            if ones & 1:  # good machine observes 1
                detected_mask |= zeros & ~1
            elif zeros & 1:  # good machine observes 0
                detected_mask |= ones & ~1

        state = {
            dff.output: values.get(dff.inputs[0], (0, 0))
            for dff in dffs
        }
    return {fault for lane, fault in enumerate(block, start=1)
            if detected_mask >> lane & 1}


def _forcing(force0: Mapping[int, int], force1: Mapping[int, int]
             ) -> Injection:
    """Injection forcing the lanes of ``force1[net]`` to 1 and those of
    ``force0[net]`` to 0."""

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

    return inject


def _schedule(block: Sequence[AnyFault]
              ) -> Callable[[int], Optional[Injection]]:
    """Injection schedule of one block (lane 0 is the good machine): a
    stuck-at lane is forced on every cycle, an upset only in its flip
    cycle."""
    every: Tuple[Dict[int, int], Dict[int, int]] = ({}, {})
    flips: Dict[int, Tuple[Dict[int, int], Dict[int, int]]] = {}
    for lane, fault in enumerate(block, start=1):
        force = (flips.setdefault(fault.cycle, ({}, {}))
                 if isinstance(fault, TransientFault) else every)
        masks = force[1] if fault.value == 1 else force[0]
        masks[fault.net] = masks.get(fault.net, 0) | (1 << lane)
    for force in flips.values():
        for masks, always in zip(force, every):
            for net, lanes in always.items():
                masks[net] = masks.get(net, 0) | lanes
    default = _forcing(*every) if every[0] or every[1] else None
    by_cycle = {cycle: _forcing(*force) for cycle, force in flips.items()}
    return lambda cycle: by_cycle.get(cycle, default)


class FaultSimulator:
    """Grades vector sequences against a fault list, lane-parallel.

    The default (``backend=None`` or ``"arena"``) runs the
    kernel-row simulation of :mod:`repro.atpg.arena`: one
    good-machine pass per batch of sequences, a provably exact
    undetectability filter, and event-driven lane blocks whose lanes each
    carry one (fault, sequence) pair and which evaluate only the gates a
    fault effect reaches.  ``backend="interpreted"`` selects the reference
    oracle: it walks the full flat gate list per block of faults
    (:func:`simulate_lanes`), one sequence at a time with fault dropping.
    Results are bit-identical across both.

    ``lanes`` is the block width: :data:`~repro.atpg.arena.DEFAULT_LANES`
    (fault, sequence) pairs per arena block, which has no good lane, and
    one good machine + ``lanes - 1`` faults per interpreted block.  Only
    tests pass another width, to cut small netlists into many blocks.
    """

    def __init__(self, netlist: Netlist, lanes: int = DEFAULT_LANES,
                 backend: Optional[str] = None):
        if lanes < 2:
            raise ValueError("need at least two lanes (good + one fault)")
        self.netlist = netlist
        self.lanes = lanes
        if backend not in (None, "arena", "interpreted"):
            raise ValueError(f"unknown simulation backend {backend!r}; "
                             "expected arena or interpreted")
        self.backend = backend or "arena"
        self._arena_sim = None
        self._flat = []
        if self.backend == "arena":
            self._arena_sim = get_arena_sim(netlist)
        else:
            self._flat = flat_gates(netlist)

    def detected_faults(
        self,
        vectors: Sequence[Vector],
        faults: Sequence[AnyFault],
        initial_state: Optional[Mapping[int, int]] = None,
        extra_observables: Optional[Sequence[int]] = None,
    ) -> Set[AnyFault]:
        """Return the subset of ``faults`` detected by the vector sequence.

        ``faults`` may mix stuck-at faults and single-cycle upsets
        (:class:`TransientFault`); both backends grade them in one call.
        ``initial_state`` pre-loads flip-flop Q nets with known bits (the
        PIER load-instruction model: registers reachable from the chip pins
        can be initialised before the test body runs).  ``extra_observables``
        adds nets compared against the good machine every cycle (the PIER
        store-instruction model: those registers can be read out).
        """
        return self.first_detections([vectors], faults, initial_state,
                                     extra_observables)[0]

    def first_detections(
        self,
        sequences: Sequence[Sequence[Vector]],
        faults: Sequence[AnyFault],
        initial_state: Optional[Mapping[int, int]] = None,
        extra_observables: Optional[Sequence[int]] = None,
    ) -> List[Set[AnyFault]]:
        """For each of ``sequences``, the faults it detects first.

        The sequences must have equal length; all start from
        ``initial_state`` and share ``extra_observables`` (see
        :meth:`detected_faults`).  A fault appears under the first
        sequence that detects it and under no later one, which is what
        a fault-dropping loop over the sequences finds: the interpreted
        backend runs exactly that loop, the arena grades every sequence
        in shared lane blocks.
        """
        from repro.obs import counter, progress

        if len({len(vectors) for vectors in sequences}) > 1:
            raise ValueError("sequences of one batch must have equal length")
        if self._arena_sim is not None:
            found, blocks = self._arena_sim.first_detections(
                sequences, faults, initial_state=initial_state,
                extra_observables=extra_observables, lanes=self.lanes,
            )
        else:
            found, blocks = [], 0
            remaining = list(faults)
            size = self.lanes - 1
            for vectors in sequences:
                detected: Set[AnyFault] = set()
                for start in range(0, len(remaining), size):
                    block = remaining[start:start + size]
                    blocks += 1
                    detected |= simulate_lanes(
                        self.netlist, self._flat, vectors, block,
                        _schedule(block), initial_state, extra_observables)
                found.append(detected)
                if detected:
                    remaining = [f for f in remaining if f not in detected]

        # Workload counters count (fault, sequence) pairs, the unit the
        # arena filter and lanes work in.
        pairs = len(faults) * len(sequences)
        length = len(sequences[0]) if sequences else 0
        detected_total = sum(len(hit) for hit in found)
        upsets = sum(isinstance(f, TransientFault) for f in faults)
        if upsets:
            counter("fault_sim.seu_injections").inc(upsets * len(sequences))
        counter(f"fault_sim.backend.{self.backend}").inc()
        counter("fault_sim.calls").inc()
        counter("fault_sim.sequences").inc(len(sequences))
        counter("fault_sim.blocks").inc(blocks)
        counter("fault_sim.vectors").inc(length * blocks)
        counter("fault_sim.faults_simulated").inc(pairs)
        counter("fault_sim.faults_detected").inc(detected_total)
        progress("fault_sim", simulated=pairs, found=detected_total,
                 vectors=length * len(sequences),
                 sequences=len(sequences))
        return found
