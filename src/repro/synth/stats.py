"""Netlist statistics: the numbers the paper's tables report.

Gate counts, PI/PO counts, flip-flop counts, stuck-at fault population and
sequential depth (longest flop-to-output register chain, the quantity PIERs
exist to reduce).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.synth.netlist import Netlist


@dataclass(frozen=True)
class NetlistStats:
    name: str
    num_pis: int
    num_pos: int
    num_gates: int
    num_dffs: int
    num_faults: int
    sequential_depth: int
    logic_levels: int

    def as_row(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "PI": self.num_pis,
            "PO": self.num_pos,
            "gates": self.num_gates,
            "DFFs": self.num_dffs,
            "faults": self.num_faults,
            "seq_depth": self.sequential_depth,
            "levels": self.logic_levels,
        }


def logic_levels(netlist: Netlist) -> int:
    """Longest combinational path length, in gates."""
    level: Dict[int, int] = {}
    for pi in netlist.pis:
        level[pi] = 0
    for dff in netlist.dffs():
        level[dff.output] = 0
    best = 0
    for gate in netlist.topological_order():
        lvl = 1 + max((level.get(i, 0) for i in gate.inputs), default=0)
        level[gate.output] = lvl
        best = max(best, lvl)
    return best


def sequential_depth(netlist: Netlist) -> int:
    """Longest acyclic register chain from a PI-fed flop to a PO-observed one.

    Measured on the flop dependency graph: DFF ``a`` depends on DFF ``b`` if
    ``b``'s output is in the combinational cone of ``a``'s D input.  Cycles
    (counters, FSMs) contribute their entry depth only.
    """
    driver = {g.output: g for g in netlist.gates}
    dffs = netlist.dffs()
    dff_of_output = {g.output: g for g in dffs}

    def cone_flops(start_net: int) -> Set[int]:
        """DFF output nets feeding ``start_net`` through combinational logic."""
        found: Set[int] = set()
        seen: Set[int] = set()
        stack = [start_net]
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            if net in dff_of_output:
                found.add(net)
                continue
            gate = driver.get(net)
            if gate is not None:
                stack.extend(gate.inputs)
        return found

    deps: Dict[int, Set[int]] = {
        dff.output: cone_flops(dff.inputs[0]) for dff in dffs
    }

    depth: Dict[int, int] = {}

    def visit(q: int, trail: Set[int]) -> int:
        if q in depth:
            return depth[q]
        if q in trail:
            return 0  # cycle: entry depth only
        trail.add(q)
        d = 1 + max((visit(dep, trail) for dep in deps[q]), default=0)
        trail.discard(q)
        depth[q] = d
        return d

    best = 0
    observed: Set[int] = set()
    for po in netlist.pos:
        observed |= cone_flops(po)
    for q in observed:
        best = max(best, visit(q, set()))
    return best


def netlist_stats(netlist: Netlist,
                  fault_region: Optional[str] = None) -> NetlistStats:
    """Compute the summary statistics for a netlist.

    ``fault_region`` restricts the fault count to gates created under a
    hierarchical instance prefix (the MUT), matching the paper's per-module
    "Stuck-at Faults" column.
    """
    from repro.atpg.faults import build_fault_list

    faults = build_fault_list(netlist, region=fault_region)
    return NetlistStats(
        name=netlist.name,
        num_pis=len(netlist.pis),
        num_pos=len(netlist.pos),
        num_gates=netlist.gate_count(),
        num_dffs=len(netlist.dffs()),
        num_faults=len(faults),
        sequential_depth=sequential_depth(netlist),
        logic_levels=logic_levels(netlist),
    )
