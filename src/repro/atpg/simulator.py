"""Three-valued (0/1/X) good-machine logic simulation.

Values are bit-parallel across patterns: a net's value over ``width``
patterns is a pair of Python-int masks ``(ones, zeros)`` where bit *i* of
``ones`` means pattern *i* sees logic 1 and bit *i* of ``zeros`` logic 0.
A bit set in neither mask is X.  This single representation serves both
plain multi-pattern simulation and the parallel-fault simulator built on top.

This gate-list walk is the reference oracle: the arena's generated
good-machine code (:mod:`repro.atpg.arena`) is tested against it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.synth.netlist import CONST0, CONST1, GateType, Netlist

Mask = Tuple[int, int]  # (ones, zeros)


def eval_gate(gtype: GateType, inputs: Sequence[Mask], full: int) -> Mask:
    """Evaluate one gate over bit-parallel three-valued operands."""
    if gtype is GateType.BUF or gtype is GateType.DFF:
        return inputs[0]
    if gtype is GateType.NOT:
        ones, zeros = inputs[0]
        return zeros, ones
    if gtype is GateType.AND or gtype is GateType.NAND:
        ones, zeros = full, 0
        for i1, i0 in inputs:
            ones &= i1
            zeros |= i0
        if gtype is GateType.NAND:
            return zeros, ones
        return ones, zeros
    if gtype is GateType.OR or gtype is GateType.NOR:
        ones, zeros = 0, full
        for i1, i0 in inputs:
            ones |= i1
            zeros &= i0
        if gtype is GateType.NOR:
            return zeros, ones
        return ones, zeros
    if gtype is GateType.XOR or gtype is GateType.XNOR:
        ones, zeros = 0, full
        for i1, i0 in inputs:
            new_ones = (ones & i0) | (zeros & i1)
            new_zeros = (ones & i1) | (zeros & i0)
            ones, zeros = new_ones, new_zeros
        if gtype is GateType.XNOR:
            return zeros, ones
        return ones, zeros
    raise ValueError(f"cannot simulate gate type {gtype}")


class LogicSimulator:
    """Cycle-accurate three-valued simulator for a gate netlist.

    State (DFF outputs) starts all-X, matching a real power-on; a reset
    sequence must be applied to initialise it, exactly the situation a
    sequential ATPG tool faces.
    """

    def __init__(self, netlist: Netlist, width: int = 1):
        self.netlist = netlist
        self.width = width
        self.full = (1 << width) - 1
        self._dffs = netlist.dffs()
        self._order = netlist.topological_order()
        self.reset_state()

    def reset_state(self) -> None:
        """Set all flip-flops (and nets) to X."""
        self.state: Dict[int, Mask] = {
            dff.output: (0, 0) for dff in self._dffs
        }
        self.values: Dict[int, Mask] = {}

    def load_state(self, state: Mapping[int, Mask]) -> None:
        self.state = dict(state)

    def step(self, pi_values: Mapping[int, Mask]) -> Dict[int, Mask]:
        """Simulate one clock cycle.

        ``pi_values`` maps PI net -> (ones, zeros) masks.  Unlisted PIs are X.
        Returns the net-value map for the cycle (also kept in
        ``self.values``): every constant, PI, flip-flop output and gate
        output; an undriven net is absent and reads as X.  Flip-flop state
        advances to the new D values.
        """
        full = self.full
        values: Dict[int, Mask] = {CONST0: (0, full), CONST1: (full, 0)}
        for pi in self.netlist.pis:
            values[pi] = pi_values.get(pi, (0, 0))
        for dff in self._dffs:
            values[dff.output] = self.state.get(dff.output, (0, 0))
        for gate in self._order:
            operands = [values.get(i, (0, 0)) for i in gate.inputs]
            values[gate.output] = eval_gate(gate.type, operands, full)
        self.values = values
        self.state = {
            dff.output: values.get(dff.inputs[0], (0, 0))
            for dff in self._dffs
        }
        return values

    def run(self, vectors: Iterable[Mapping[int, Mask]]
            ) -> List[Dict[int, Mask]]:
        """Simulate a sequence of input vectors; returns per-cycle PO maps."""
        outputs = []
        for vec in vectors:
            values = self.step(vec)
            outputs.append({po: values.get(po, (0, 0))
                            for po in self.netlist.pos})
        return outputs

    # -- scalar conveniences --------------------------------------------------

    def step_scalar(self, pi_bits: Mapping[str, int]) -> Dict[str, Optional[int]]:
        """Single-pattern convenience: PI names -> 0/1, returns PO name -> bit.

        ``None`` in the result marks an X output.
        """
        by_name = {self.netlist.net_name(pi): pi for pi in self.netlist.pis}
        vec: Dict[int, Mask] = {}
        for name, bit in pi_bits.items():
            net = by_name.get(name)
            if net is None:
                raise KeyError(f"no primary input named {name!r}")
            vec[net] = (self.full, 0) if bit else (0, self.full)
        values = self.step(vec)
        out: Dict[str, Optional[int]] = {}
        for po, name in self.netlist.po_pairs:
            ones, zeros = values.get(po, (0, 0))
            if ones & 1:
                out[name] = 1
            elif zeros & 1:
                out[name] = 0
            else:
                out[name] = None
        return out
