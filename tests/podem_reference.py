"""Reference PODEM engine: the test-only oracle for :mod:`repro.atpg.podem`.

This is the dict-of-tuples engine that ``repro.atpg.podem`` replaced, kept
verbatim apart from one change: the D-frontier is visited in the canonical
``(-level, net)`` order instead of the iteration order of a ``set`` of
tuples.  Values live in a dict keyed by ``(frame, net)`` and every step goes
through :class:`~repro.atpg.sequential.UnrolledModel`'s tuple-key API
(``driver_of``, ``fanout_keys``, ``base_values``, ...).  The differential
suite in ``tests/test_podem_differential.py`` checks that the flat-index engine
returns exactly this engine's status, abort reason, effort counters,
vectors and initial state for every fault.

Implements the classic objective / backtrace / imply loop with:

- five-valued D-algebra simulation (event-driven, with undo logs),
- fault injection in every time frame,
- X-path pruning,
- a backtrack limit and a per-fault CPU budget.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs import CpuTimer, Deadline, progress
from repro.synth.netlist import GateType
from repro.atpg.faults import Fault
from repro.atpg.podem import PodemResult
from repro.atpg.sequential import Key, UnrolledModel
from repro.atpg.values import (
    V0,
    V1,
    VX,
    from_components,
    good_bit,
    is_d_value,
    v_and,
    v_not,
    v_or,
    v_xor,
)

_CONTROLLING = {
    GateType.AND: 0,
    GateType.NAND: 0,
    GateType.OR: 1,
    GateType.NOR: 1,
}
_INVERTING = {GateType.NAND, GateType.NOR, GateType.NOT, GateType.XNOR}


def eval_gate_values(gtype: GateType, input_keys: Sequence[Key],
                     val: Dict[Key, int]) -> int:
    """Five-valued evaluation of one gate over a value map."""
    get = val.get
    if gtype is GateType.BUF:
        return get(input_keys[0], VX)
    if gtype is GateType.NOT:
        return v_not(get(input_keys[0], VX))
    if gtype is GateType.AND or gtype is GateType.NAND:
        acc = V1
        for k in input_keys:
            acc = v_and(acc, get(k, VX))
            if acc == V0:
                break
        return v_not(acc) if gtype is GateType.NAND else acc
    if gtype is GateType.OR or gtype is GateType.NOR:
        acc = V0
        for k in input_keys:
            acc = v_or(acc, get(k, VX))
            if acc == V1:
                break
        return v_not(acc) if gtype is GateType.NOR else acc
    if gtype is GateType.XOR or gtype is GateType.XNOR:
        acc = V0
        for k in input_keys:
            acc = v_xor(acc, get(k, VX))
        return v_not(acc) if gtype is GateType.XNOR else acc
    raise ValueError(f"cannot evaluate gate type {gtype}")


class Podem:
    """One PODEM search for one fault on one unrolled model."""

    def __init__(self, model: UnrolledModel, fault: Fault,
                 backtrack_limit: int = 100,
                 time_limit: Optional[float] = None):
        self.model = model
        self.fault = fault
        self.backtrack_limit = backtrack_limit
        self.time_limit = time_limit
        self.val: Dict[Key, int] = {}
        self._observable_set: Set[Key] = set(model.observable)
        self._d_nets: Set[Key] = set()       # keys currently carrying D/D'
        self._frontier: Set[Key] = set()     # gate-output keys on D-frontier
        self.backtracks = 0
        self.decisions = 0
        self.implications = 0

    # -- public ------------------------------------------------------------

    def run(self) -> PodemResult:
        timer = CpuTimer().start()
        deadline = Deadline(self.time_limit)
        model = self.model
        self._init_values()

        stack: List[List] = []  # [key, value, tried_other, undo_log]
        status = "untestable"
        abort_reason: Optional[str] = None

        while True:
            if deadline.expired():
                status = "aborted"
                abort_reason = "time_limit"
                break
            if self._detected():
                status = "detected"
                break

            objective = self._objective()
            target = self._backtrace(objective) if objective else None
            if target is not None:
                key, value = target
                self.decisions += 1
                undo = self._assign(key, value)
                stack.append([key, value, False, undo])
                continue

            # Dead end: chronological backtracking.
            backtracked = False
            while stack:
                key, value, tried, undo = stack.pop()
                self._revert(undo)
                self.backtracks += 1
                if self.backtracks % 256 == 0:
                    progress("podem.search", backtracks=self.backtracks,
                             decisions=self.decisions,
                             frames=model.frames)
                if self.backtracks > self.backtrack_limit:
                    status = "aborted"
                    abort_reason = "backtrack_limit"
                    break
                if not tried:
                    undo2 = self._assign(key, 1 - value)
                    stack.append([key, 1 - value, True, undo2])
                    backtracked = True
                    break
            if not backtracked:
                # Search space exhausted (untestable at this depth) or the
                # backtrack limit fired (aborted).
                break

        result = PodemResult(
            status=status,
            fault=self.fault,
            frames=model.frames,
            backtracks=self.backtracks,
            decisions=self.decisions,
            implications=self.implications,
            cpu_seconds=timer.stop(),
            abort_reason=abort_reason if status == "aborted" else None,
        )
        if status == "detected":
            vectors, init_state = self._extract_vectors()
            result.vectors = vectors
            result.initial_state = init_state
        return result

    # -- value maintenance ---------------------------------------------------

    def _init_values(self) -> None:
        """Initial implication pass: copy the model's fault-free base values
        and propagate the fault injection from its site copies only."""
        model = self.model
        self.val = dict(model.base_values())
        self._d_nets = set()
        self._frontier = set()
        changed: List[Key] = []
        for key in model.fault_site_keys(self.fault.net):
            old = self.val.get(key, VX)
            new = self._faultize(old)
            if new != old:
                self.val[key] = new
                changed.append(key)
        if changed:
            undo = self._propagate(changed)
            changed.extend(k for k, _ in undo)
        self._after_changes(changed)

    def _propagate(self, seeds: Sequence[Key]) -> List[Tuple[Key, int]]:
        """Event-driven forward propagation from the given keys."""
        undo: List[Tuple[Key, int]] = []
        queue = deque()
        seen_in_queue = set()
        for seed in seeds:
            for nxt in self.model.fanout_keys(seed):
                if nxt not in seen_in_queue:
                    queue.append(nxt)
                    seen_in_queue.add(nxt)
        while queue:
            current = queue.popleft()
            seen_in_queue.discard(current)
            old_val = self.val.get(current, VX)
            new_val = self._eval_key(current)
            if new_val == old_val:
                continue
            undo.append((current, old_val))
            self.implications += 1
            self.val[current] = new_val
            for nxt in self.model.fanout_keys(current):
                if nxt not in seen_in_queue:
                    queue.append(nxt)
                    seen_in_queue.add(nxt)
        return undo

    def _after_changes(self, changed: Sequence[Key]) -> None:
        """Incrementally update D-net and D-frontier sets."""
        model = self.model
        val = self.val
        affected: Set[Key] = set()
        for key in changed:
            value = val.get(key, VX)
            if is_d_value(value):
                self._d_nets.add(key)
            else:
                self._d_nets.discard(key)
            frame, net = key
            if net in model.driver:
                affected.add(key)
            for gate in model.fanout.get(net, []):
                affected.add((frame, gate.output))
        for out_key in affected:
            frame, net = out_key
            gate = model.driver.get(net)
            if gate is None:
                continue
            if val.get(out_key, VX) == VX and any(
                is_d_value(val.get((frame, i), VX)) for i in gate.inputs
            ):
                self._frontier.add(out_key)
            else:
                self._frontier.discard(out_key)

    def _faultize(self, value: int) -> int:
        return from_components(good_bit(value), self.fault.value)

    def _eval_key(self, key: Key) -> int:
        model = self.model
        drv = model.driver_of(key)
        if drv is None:
            value = self.val.get(key, VX)
        else:
            kind, gate, input_keys = drv
            if kind == "dff":
                value = self.val.get(input_keys[0], VX)
            else:
                value = eval_gate_values(gate.type, input_keys, self.val)
        if key[1] == self.fault.net:
            value = self._faultize(value)
        return value

    def _assign(self, key: Key, bit: int) -> List[Tuple[Key, int]]:
        """Assign a PI/PIER key and propagate; returns the undo log."""
        undo: List[Tuple[Key, int]] = []
        old = self.val.get(key, VX)
        new = V1 if bit else V0
        if key[1] == self.fault.net:
            new = self._faultize(new)
        if new == old:
            return undo
        undo.append((key, old))
        self.val[key] = new
        queue = deque(self.model.fanout_keys(key))
        seen_in_queue = set(queue)
        while queue:
            current = queue.popleft()
            seen_in_queue.discard(current)
            old_val = self.val.get(current, VX)
            new_val = self._eval_key(current)
            if new_val == old_val:
                continue
            undo.append((current, old_val))
            self.implications += 1
            self.val[current] = new_val
            for nxt in self.model.fanout_keys(current):
                if nxt not in seen_in_queue:
                    queue.append(nxt)
                    seen_in_queue.add(nxt)
        self._after_changes([k for k, _ in undo])
        return undo

    def _revert(self, undo: List[Tuple[Key, int]]) -> None:
        for key, old in reversed(undo):
            if old == VX:
                self.val.pop(key, None)
            else:
                self.val[key] = old
        self._after_changes([k for k, _ in undo])

    # -- search guidance -------------------------------------------------------

    def _detected(self) -> bool:
        if len(self._d_nets) < len(self._observable_set):
            return any(k in self._observable_set for k in self._d_nets)
        return any(k in self._d_nets for k in self._observable_set)

    def _fault_activated(self) -> bool:
        val = self.val
        for key in self.model.fault_site_keys(self.fault.net):
            if is_d_value(val.get(key, VX)):
                return True
        return False

    def _objective(self) -> Optional[Tuple[Key, int]]:
        model = self.model
        val = self.val

        if not self._fault_activated():
            desired = 1 - self.fault.value
            for key in reversed(model.fault_site_keys(self.fault.net)):
                if val.get(key, VX) == VX and model.is_controllable(key):
                    return (key, desired)
            return None

        if not self._x_path_exists():
            return None

        # Propagate: pick the D-frontier gate closest to the outputs.
        frontier = self._d_frontier()
        if not frontier:
            return None
        frontier.sort(key=lambda item: (-model.level(item[0]), item[0][1]))
        for out_key, gtype, input_keys in frontier:
            ctrl = _CONTROLLING.get(gtype)
            noncontrolling = 1 - ctrl if ctrl is not None else 0
            for in_key in input_keys:
                if val.get(in_key, VX) == VX and model.is_controllable(in_key):
                    return (in_key, noncontrolling)
        return None

    def _d_frontier(self) -> List[Tuple[Key, GateType, List[Key]]]:
        """Gates with a D input and an X output, in all frames."""
        model = self.model
        out: List[Tuple[Key, GateType, List[Key]]] = []
        for out_key in self._frontier:
            frame, net = out_key
            gate = model.driver[net]
            out.append((out_key, gate.type, [(frame, i) for i in gate.inputs]))
        return out

    def _x_path_exists(self) -> bool:
        """Some D value can still reach an observable key through X nets."""
        model = self.model
        val = self.val
        sources = list(self._d_nets)
        seen: Set[Key] = set()
        stack = list(sources)
        while stack:
            key = stack.pop()
            if key in self._observable_set:
                return True
            for nxt in model.fanout_keys(key):
                if nxt in seen:
                    continue
                value = val.get(nxt, VX)
                if value == VX or is_d_value(value):
                    seen.add(nxt)
                    if nxt in self._observable_set:
                        return True
                    stack.append(nxt)
        # Direct observation of a D at an observable key is "detected",
        # handled elsewhere; reaching here means no path remains.
        return False

    def _backtrace(self, objective: Tuple[Key, int]
                   ) -> Optional[Tuple[Key, int]]:
        """Map an objective to an unassigned assignable input."""
        model = self.model
        val = self.val
        key, value = objective
        guard = 0
        while True:
            guard += 1
            if guard > 100000:
                return None
            if model.is_assignable(key) and val.get(key, VX) == VX:
                return (key, value)
            drv = model.driver_of(key)
            if drv is None:
                return None
            kind, gate, input_keys = drv
            if kind == "dff":
                key = input_keys[0]
                continue
            gtype = gate.type
            if gtype is GateType.BUF:
                key = input_keys[0]
                continue
            if gtype is GateType.NOT:
                key = input_keys[0]
                value = 1 - value
                continue
            if gtype in (GateType.AND, GateType.NAND, GateType.OR,
                         GateType.NOR):
                if gtype in _INVERTING:
                    value = 1 - value
                ctrl = _CONTROLLING[gtype]
                candidates = [
                    k for k in input_keys
                    if val.get(k, VX) == VX and model.is_controllable(k)
                ]
                if not candidates:
                    return None
                if value == ctrl:
                    # One controlling input suffices: pick the easiest.
                    key = min(candidates, key=model.level)
                else:
                    # All inputs must be non-controlling: pick the hardest.
                    key = max(candidates, key=model.level)
                continue
            if gtype in (GateType.XOR, GateType.XNOR):
                if gtype is GateType.XNOR:
                    value = 1 - value
                parity = 0
                candidates = []
                for k in input_keys:
                    bit = good_bit(val.get(k, VX))
                    if bit is None:
                        if model.is_controllable(k):
                            candidates.append(k)
                    else:
                        parity ^= bit
                if not candidates:
                    return None
                key = min(candidates, key=model.level)
                value = value ^ parity
                continue
            return None

    # -- vector extraction -------------------------------------------------------

    def _extract_vectors(self) -> Tuple[List[Dict[int, int]], Dict[int, int]]:
        model = self.model
        val = self.val
        vectors: List[Dict[int, int]] = []
        for frame in range(model.frames):
            vec: Dict[int, int] = {}
            for pi in model.base_pis:
                bit = good_bit(val.get((frame, pi), VX))
                vec[pi] = bit if bit is not None else 0
            vectors.append(vec)
        init_state: Dict[int, int] = {}
        for q in model.pier_qs:
            bit = good_bit(val.get((0, q), VX))
            if bit is not None:
                init_state[q] = bit
        return vectors, init_state
