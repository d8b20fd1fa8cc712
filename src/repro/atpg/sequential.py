"""Time-frame expansion for sequential test generation.

An :class:`UnrolledModel` presents ``k`` copies of the combinational logic of
a sequential netlist as one combinational circuit: the flip-flop D values of
frame *t* feed the flip-flop Q nets of frame *t+1*.  Frame-0 Q nets are
unknown (X) sources — unless the flop is a PIER, in which case frame-0 Q is
assignable (the register can be loaded from the chip pins) and its last-frame
D is observable (it can be stored back out).

The model is built once per (netlist, frames, PIERs) and shared by every
PODEM search on it.  The search runs on its **flat-index layout**: every
``(frame, net)`` pair is one int key ``frame * num_nets + net``, and each
``key_*`` row holds one entry per key: the driver's opcode, input keys and
5-valued evaluation table, the fanout keys, the level, and whether the key
is controllable or assignable.  ``base_plane`` holds the fault-free values
with every input unassigned.  Opcodes (the fault simulator's ``OP_*``
codes), gate inputs and flip-flop pairs come from the model's own walk of
the netlist's gates.  All of it is built in the constructor.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.synth.netlist import CONST0, CONST1, Gate, Netlist
from repro.atpg.arena import (OP_AND, OP_BUF, OP_NAND, OP_NOR, OP_NOT,
                              OP_OF, OP_OR, OP_XNOR, OP_XOR)
from repro.atpg.values import (ALL_VALUES, AND_TABLE, NOT_TABLE, OR_TABLE,
                               V0, V1, VX, XOR_TABLE)

# Key opcodes beyond the combinational ones: a later-frame flop Q
# (a copy of the previous frame's D) and a source (PI, frame-0 Q,
# constant or floating net), which has no driver.
OP_DFF = 8
OP_SOURCE = 9


def _flat(table: List[List[int]]) -> bytes:
    return bytes(table[a][b] for a in ALL_VALUES for b in ALL_VALUES)


def _inverted(table: bytes) -> bytes:
    return bytes(NOT_TABLE[v] for v in table)


_IDENT = bytes(ALL_VALUES)
_NOT = bytes(NOT_TABLE)
_AND, _OR, _XOR = _flat(AND_TABLE), _flat(OR_TABLE), _flat(XOR_TABLE)

# Per opcode: the 5x5 table that folds a gate's inputs left to right (a
# fold starts from the first input's value: V1, V0 and V0 are the
# identities of AND, OR and XOR), and the table of the last step, which
# applies the output inversion.  Evaluating ``a, b, c`` is
# ``last[fold[a * 5 + b] * 5 + c]``; one-input gates use a 5-entry table.
FOLD_TABLE = {OP_AND: _AND, OP_NAND: _AND, OP_OR: _OR, OP_NOR: _OR,
              OP_XOR: _XOR, OP_XNOR: _XOR}
_LAST_TABLE = {OP_AND: _AND, OP_NAND: _inverted(_AND), OP_OR: _OR,
               OP_NOR: _inverted(_OR), OP_XOR: _XOR,
               OP_XNOR: _inverted(_XOR)}
_ONE_INPUT_TABLE = {OP_AND: _IDENT, OP_OR: _IDENT, OP_XOR: _IDENT,
                    OP_BUF: _IDENT, OP_NAND: _NOT, OP_NOR: _NOT,
                    OP_XNOR: _NOT, OP_NOT: _NOT}


def evaluate_key(values, fanin: Tuple[int, ...], table: bytes,
                 op: int) -> int:
    """Five-valued value of one driven key from its input keys' values."""
    if len(fanin) == 1:
        return table[values[fanin[0]]]
    fold = FOLD_TABLE[op]
    acc = values[fanin[0]]
    for i in fanin[1:-1]:
        acc = fold[acc * 5 + values[i]]
    return table[acc * 5 + values[fanin[-1]]]


class UnrolledModel:
    """Combinational view of ``frames`` copies of a sequential netlist."""

    def __init__(self, netlist: Netlist, frames: int,
                 pier_qs: Optional[Set[int]] = None,
                 exclude_pis: Optional[Set[int]] = None):
        if frames < 1:
            raise ValueError("need at least one time frame")
        self.netlist = netlist
        self.frames = frames
        self.pier_qs: Set[int] = set(pier_qs or ())
        excluded = set(exclude_pis or ())

        self.order: List[Gate] = netlist.topological_order()
        self.dffs: List[Gate] = netlist.dffs()

        # Fanout within a frame (combinational gates reading each net).
        self.fanout: Dict[int, List[Gate]] = {}
        for gate in self.order:
            for inp in gate.inputs:
                self.fanout.setdefault(inp, []).append(gate)

        self.base_pis: List[int] = [p for p in netlist.pis
                                    if p not in excluded]

        # Combinational level of each net within a frame (PIs/Qs at 0).
        self._levels = netlist.levels(self.order)
        self._controllable = self._compute_controllable()
        self._build_flat()

    # -- flat-index layout -------------------------------------------------------

    def _build_flat(self) -> None:
        """Build the ``key_*`` rows and the base plane (module docstring)."""
        n = self.num_nets = self.netlist.num_nets
        frames = self.frames
        size = frames * n

        # Per-net rows, shifted by ``frame * n`` into each frame below.
        net_op = bytearray([OP_SOURCE]) * n
        net_fanin: List[Tuple[int, ...]] = [()] * n
        net_table: List[Optional[bytes]] = [None] * n
        for gate in self.order:
            out = gate.output
            op = net_op[out] = OP_OF[gate.type]
            fanin = net_fanin[out] = gate.inputs
            net_table[out] = (_ONE_INPUT_TABLE[op] if len(fanin) == 1
                              else _LAST_TABLE[op])
        # Readers in the order of ``self.fanout`` (a gate reading a net
        # twice is listed once); the next frame's flop Qs come last.
        net_readers: List[Tuple[int, ...]] = [()] * n
        for net, gates in self.fanout.items():
            net_readers[net] = tuple(dict.fromkeys(g.output for g in gates))
        net_level = [self._levels.get(net, 0) for net in range(n)]
        base = len(self._levels)
        # Later frames; frame 0 differs at the flop Qs (fixed up below).
        net_controllable = bytearray(net in self._controllable
                                     for net in range(n))
        net_assignable = bytearray(n)
        for pi in self.base_pis:
            net_assignable[pi] = 1

        self.key_op = net_op * frames
        self.key_table: List[Optional[bytes]] = net_table * frames
        self.key_controllable = net_controllable * frames
        self.key_assignable = net_assignable * frames
        self.key_fanin: List[Tuple[int, ...]] = []
        self.key_fanout: List[Tuple[int, ...]] = []
        self.key_level: List[int] = []
        for frame in range(frames):
            shift = (frame * n).__add__
            self.key_fanin += [tuple(map(shift, ins)) for ins in net_fanin]
            self.key_fanout += [tuple(map(shift, r)) for r in net_readers]
            self.key_level += [frame * base + lvl for lvl in net_level]
        d_of_q = {dff.output: dff.inputs[0] for dff in self.dffs}
        for q, d in d_of_q.items():
            # Frame 0: a source, settable only when the flop is a PIER.
            self.key_controllable[q] = self.key_assignable[q] = \
                q in self.pier_qs
            # Later frames: a copy of the previous frame's D.
            for frame in range(1, frames):
                key, d_key = frame * n + q, (frame - 1) * n + d
                self.key_op[key] = OP_DFF
                self.key_fanin[key] = (d_key,)
                self.key_table[key] = _IDENT
                self.key_fanout[d_key] += (key,)
        # Every frame's POs, and the last-frame D of each PIER flop.
        self.observable_keys = frozenset(
            [frame * n + po for frame in range(frames)
             for po in self.netlist.pos]
            + [(frames - 1) * n + d_of_q[q] for q in self.pier_qs])

        plane = bytearray([VX]) * size
        fanin, table, ops = self.key_fanin, self.key_table, self.key_op
        for frame in range(frames):
            off = frame * n
            plane[off + CONST0] = V0
            plane[off + CONST1] = V1
            if frame > 0:
                for q in d_of_q:
                    plane[off + q] = plane[fanin[off + q][0]]
            for gate in self.order:  # topological: inputs come first
                key = off + gate.output
                plane[key] = evaluate_key(plane, fanin[key], table[key],
                                          ops[key])
        self.base_plane = plane

    # -- static analyses --------------------------------------------------------

    def _compute_controllable(self) -> Set[int]:
        """Base nets whose value can (possibly) be influenced by assignable
        inputs within a frame chain.  Nets fed only by constants are not
        controllable; frame-0 Q nets are handled frame-sensitively in
        ``key_controllable``."""
        controllable: Set[int] = set(self.base_pis) | set(self.pier_qs)
        for dff in self.dffs:
            controllable.add(dff.output)  # later frames: via previous frame
        changed = True
        while changed:
            changed = False
            for gate in self.order:
                if gate.output in controllable:
                    continue
                if any(i in controllable for i in gate.inputs):
                    controllable.add(gate.output)
                    changed = True
        return controllable
