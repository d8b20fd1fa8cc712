"""PODEM test generation over a time-frame-expanded model.

Implements the classic objective / backtrace / imply loop with:

- five-valued D-algebra simulation (event-driven, with undo logs),
- fault injection in every time frame,
- X-path pruning,
- a backtrack limit and a per-fault CPU budget (aborts are reported, which
  is exactly what produces the "ATPG Eff. %" column of the paper's tables).

The engine runs on the flat-index layout of
:class:`~repro.atpg.sequential.UnrolledModel`, where the copy of net ``n``
in frame ``f`` is the int key ``f * num_nets + n``:

- the values of one search live in one ``bytearray`` (V0, V1, D, D', X as
  0..4), copied per fault from the model's fault-free base plane, and an
  assignment's undo log is a flat list of ``key, old value`` int pairs;
- a gate evaluates through flat 5x5 tables, one lookup per input pair;
- implication is an event queue over the model's fanout rows, which keep
  the netlist's fanout order with the next-frame D->Q edges last;
- the keys carrying D/D' form an int set kept exact on every value write;
  the D-frontier (X-valued gates reading one of them) is derived from it
  when the objective needs it.

Every decision is a function of the netlist structure alone.  The objective
visits D-frontier gates in ``(-level, net)`` order: deepest first, ties by
net id.  So the status, the vectors and the effort counters (decisions,
backtracks, implications) of a search depend only on the model, the fault
and the backtrack limit, unless the CPU limit fires first.
``tests/test_podem.py`` checks the verdicts independently of the engine:
untestable ones by exhaustive simulation, detected ones by replaying the
test in the fault simulator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs import CpuTimer, Deadline, progress
from repro.atpg.arena import (OP_AND, OP_BUF, OP_NAND, OP_NOR, OP_NOT,
                              OP_OR, OP_XNOR, OP_XOR)
from repro.atpg.faults import Fault
from repro.atpg.sequential import FOLD_TABLE, OP_DFF, UnrolledModel
from repro.atpg.values import (ALL_VALUES, V0, V1, VX, from_components,
                               good_bit, is_d_value)

_GOOD = tuple(good_bit(v) for v in ALL_VALUES)
_IS_D = bytes(is_d_value(v) for v in ALL_VALUES)
# Per stuck value: a value with its faulty-machine component forced.
_FAULTIZE = tuple(bytes(from_components(good_bit(v), stuck)
                        for v in ALL_VALUES) for stuck in (0, 1))
_CONTROLLING = {OP_AND: 0, OP_NAND: 0, OP_OR: 1, OP_NOR: 1}
# Value the objective asks of a D-frontier gate's X input (the
# non-controlling one; XOR/XNOR inputs just need to be known).
_NONCONTROLLING = {op: 1 - value for op, value in _CONTROLLING.items()}
_INVERTING = frozenset({OP_NAND, OP_NOR, OP_NOT, OP_XNOR})


@dataclass
class PodemResult:
    status: str  # "detected" | "untestable" | "aborted"
    fault: Fault
    frames: int
    vectors: List[Dict[int, int]] = field(default_factory=list)
    initial_state: Dict[int, int] = field(default_factory=dict)
    backtracks: int = 0
    decisions: int = 0
    implications: int = 0
    cpu_seconds: float = 0.0
    abort_reason: Optional[str] = None  # "time_limit" | "backtrack_limit"

    @property
    def detected(self) -> bool:
        return self.status == "detected"


class Podem:
    """One PODEM search for one fault on one unrolled model."""

    def __init__(self, model: UnrolledModel, fault: Fault,
                 backtrack_limit: int = 100,
                 time_limit: Optional[float] = None):
        self.model = model
        self.fault = fault
        self.backtrack_limit = backtrack_limit
        self.time_limit = time_limit
        n = model.num_nets
        self._sites = [frame * n + fault.net for frame in range(model.frames)]
        self._site_set = frozenset(self._sites)
        self._faultize = _FAULTIZE[fault.value]
        self.val = bytearray()
        self._queued = bytearray()  # keys in the implication queue
        self._d_nets: Set[int] = set()  # keys currently carrying D/D'
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
            if not self._d_nets.isdisjoint(model.observable_keys):
                status = "detected"
                break

            objective = self._objective()
            target = self._backtrace(*objective) if objective else None
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
    #
    # ``_d_nets`` always holds exactly the keys whose value is D or D': every
    # write below updates it.  The D-frontier is derived from it on demand
    # (see :meth:`_objective`).

    def _init_values(self) -> None:
        """Copy the model's fault-free base plane and propagate the fault
        injection from its site copies only."""
        val = self.val = bytearray(self.model.base_plane)
        self._queued = bytearray(len(val))
        faultize = self._faultize
        changed: List[int] = []
        for key in self._sites:
            new = faultize[val[key]]
            if new != val[key]:
                val[key] = new
                if _IS_D[new]:
                    self._d_nets.add(key)
                changed.append(key)
        if changed:
            self._imply(changed, [])

    def _imply(self, seeds: Sequence[int], undo: List[int]) -> None:
        """Event-driven forward implication from the given keys.

        Re-evaluates every reader of a changed key, first in first out,
        and appends a ``key, old value`` pair to ``undo`` per change.
        """
        model = self.model
        val = self.val
        fanin, table, fanout = model.key_fanin, model.key_table, \
            model.key_fanout
        ops = model.key_op
        sites, faultize = self._site_set, self._faultize
        d_nets = self._d_nets
        queued = self._queued
        queue = deque()
        push, pop = queue.append, queue.popleft
        for seed in seeds:
            for nxt in fanout[seed]:
                if not queued[nxt]:
                    queued[nxt] = 1
                    push(nxt)
        changes = 0
        while queue:
            current = pop()
            queued[current] = 0
            ins = fanin[current]  # sequential.evaluate_key, inlined
            if len(ins) == 2:
                new = table[current][val[ins[0]] * 5 + val[ins[1]]]
            elif len(ins) == 1:
                new = table[current][val[ins[0]]]
            else:
                fold = FOLD_TABLE[ops[current]]
                new = val[ins[0]]
                for i in ins[1:-1]:
                    new = fold[new * 5 + val[i]]
                new = table[current][new * 5 + val[ins[-1]]]
            if current in sites:
                new = faultize[new]
            old = val[current]
            if new == old:
                continue
            val[current] = new
            undo += (current, old)
            changes += 1
            if _IS_D[new]:
                d_nets.add(current)
            elif _IS_D[old]:
                d_nets.discard(current)
            for nxt in fanout[current]:
                if not queued[nxt]:
                    queued[nxt] = 1
                    push(nxt)
        self.implications += changes

    def _assign(self, key: int, bit: int) -> List[int]:
        """Assign a PI/PIER key and propagate; returns the undo log."""
        old = self.val[key]
        new = V1 if bit else V0
        if key in self._site_set:
            new = self._faultize[new]
        if new == old:
            return []
        undo = [key, old]
        self.val[key] = new
        if _IS_D[new]:
            self._d_nets.add(key)
        self._imply((key,), undo)
        return undo

    def _revert(self, undo: List[int]) -> None:
        val = self.val
        d_nets = self._d_nets
        for i in range(len(undo) - 2, -1, -2):
            key, old = undo[i], undo[i + 1]
            if _IS_D[old]:
                d_nets.add(key)
            elif _IS_D[val[key]]:
                d_nets.discard(key)
            val[key] = old

    # -- search guidance -------------------------------------------------------

    def _objective(self) -> Optional[Tuple[int, int]]:
        model = self.model
        val = self.val
        controllable = model.key_controllable

        if not any(_IS_D[val[key]] for key in self._sites):
            desired = 1 - self.fault.value
            for key in reversed(self._sites):
                if val[key] == VX and controllable[key]:
                    return (key, desired)
            return None

        if not self._x_path_exists():
            return None

        # Propagate: pick the D-frontier gate closest to the outputs.  The
        # frontier is every gate with an X output reading a D/D' key.
        ops, fanin, fanout = model.key_op, model.key_fanin, model.key_fanout
        frontier = {gate for key in self._d_nets for gate in fanout[key]
                    if val[gate] == VX and ops[gate] < OP_DFF}
        level = model.key_level
        for out_key in sorted(frontier, key=lambda k: (-level[k], k)):
            noncontrolling = _NONCONTROLLING.get(ops[out_key], 0)
            for in_key in fanin[out_key]:
                if val[in_key] == VX and controllable[in_key]:
                    return (in_key, noncontrolling)
        return None

    def _x_path_exists(self) -> bool:
        """Some D value can still reach an observable key through X nets."""
        model = self.model
        val = self.val
        fanout = model.key_fanout
        observable = model.observable_keys
        if not self._d_nets.isdisjoint(observable):
            return True
        seen = set()
        stack = list(self._d_nets)
        while stack:
            for nxt in fanout[stack.pop()]:
                # X, D and D' are 4, 2 and 3: every value above V1.
                if val[nxt] > V1 and nxt not in seen:
                    if nxt in observable:
                        return True
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def _backtrace(self, key: int, value: int) -> Optional[Tuple[int, int]]:
        """Map an objective to an unassigned assignable input."""
        model = self.model
        val = self.val
        ops, fanin, level = model.key_op, model.key_fanin, model.key_level
        assignable, controllable = model.key_assignable, \
            model.key_controllable
        for _ in range(100000):
            if assignable[key] and val[key] == VX:
                return (key, value)
            op = ops[key]
            ins = fanin[key]
            if op == OP_BUF or op == OP_DFF:
                key = ins[0]
            elif op == OP_NOT:
                key = ins[0]
                value = 1 - value
            elif op in _CONTROLLING:
                if op in _INVERTING:
                    value = 1 - value
                candidates = [k for k in ins
                              if val[k] == VX and controllable[k]]
                if not candidates:
                    return None
                if value == _CONTROLLING[op]:
                    # One controlling input suffices: pick the easiest.
                    key = min(candidates, key=level.__getitem__)
                else:
                    # All inputs must be non-controlling: pick the hardest.
                    key = max(candidates, key=level.__getitem__)
            elif op == OP_XOR or op == OP_XNOR:
                if op == OP_XNOR:
                    value = 1 - value
                parity = 0
                candidates = []
                for k in ins:
                    bit = _GOOD[val[k]]
                    if bit is None:
                        if controllable[k]:
                            candidates.append(k)
                    else:
                        parity ^= bit
                if not candidates:
                    return None
                key = min(candidates, key=level.__getitem__)
                value = value ^ parity
            else:  # a source that is assigned or cannot be assigned
                return None
        return None

    # -- vector extraction -------------------------------------------------------

    def _extract_vectors(self) -> Tuple[List[Dict[int, int]], Dict[int, int]]:
        model = self.model
        val = self.val
        n = model.num_nets
        vectors: List[Dict[int, int]] = []
        for frame in range(model.frames):
            off = frame * n
            vec: Dict[int, int] = {}
            for pi in model.base_pis:
                bit = _GOOD[val[off + pi]]
                vec[pi] = bit if bit is not None else 0
            vectors.append(vec)
        init_state: Dict[int, int] = {}
        for q in model.pier_qs:
            bit = _GOOD[val[q]]
            if bit is not None:
                init_state[q] = bit
        return vectors, init_state
