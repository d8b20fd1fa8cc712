"""Gate-level netlist intermediate representation.

A netlist is a set of single-output gates over integer net ids.  Net 0 is
constant 0 and net 1 is constant 1 by convention.  Primary inputs are nets
with no driving gate that appear in ``pis``; D flip-flops are ``DFF`` gates
whose output is the Q net and whose single input is the D net (single
implicit clock — the designs this substrate targets are single-clock with
synchronous or foldable asynchronous reset).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple


class NetlistError(Exception):
    """Raised for malformed netlists (multiple drivers, missing nets...)."""


class GateType(enum.Enum):
    AND = "and"
    OR = "or"
    NAND = "nand"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    NOT = "not"
    BUF = "buf"
    DFF = "dff"


# Gate types whose semantics are invariant under input permutation.
SYMMETRIC_TYPES = frozenset(
    {GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
     GateType.XOR, GateType.XNOR}
)


@dataclass
class Gate:
    type: GateType
    output: int
    inputs: Tuple[int, ...]

    def __post_init__(self) -> None:
        self.inputs = tuple(self.inputs)
        if self.type in (GateType.NOT, GateType.BUF, GateType.DFF):
            if len(self.inputs) != 1:
                raise NetlistError(
                    f"{self.type.value} gate must have exactly one input"
                )
        elif len(self.inputs) < 1:
            raise NetlistError(f"{self.type.value} gate needs inputs")


CONST0 = 0
CONST1 = 1

# A gate as a plain ``(type, output, inputs)`` tuple, the form the optimizer
# passes work on.
Row = Tuple[GateType, int, Tuple[int, ...]]


def topological_rows(rows: Sequence[Row], pis: Iterable[int],
                     pos: Iterable[int],
                     net_name: Callable[[int], str]) -> List[Row]:
    """The combinational ``rows`` in topological order.

    Constants, ``pis`` and flip-flop outputs are sources; a net no row
    drives is floating and ends its path.  The order is the depth-first
    post-order from each PO in ``pos``, then each flip-flop's D net, then
    every remaining gate in row order, visiting a gate's inputs left to
    right.  The walk keeps its own stack, so path depth is not bounded by
    the interpreter's recursion limit.  Raises on combinational cycles.
    """
    driver: Dict[int, Row] = {}
    done: Dict[int, bool] = dict.fromkeys(pis, True)  # False: on the path
    done[CONST0] = done[CONST1] = True
    d_nets: List[int] = []
    for row in rows:
        if row[0] is GateType.DFF:
            done[row[1]] = True
            d_nets.append(row[2][0])
        else:
            driver[row[1]] = row

    order: List[Row] = []
    for root in chain(pos, d_nets, driver):
        row = driver.get(root)
        if row is None or root in done:
            continue
        done[root] = False
        stack = [(row, iter(row[2]))]
        while stack:
            row, pending = stack[-1]
            for net in pending:
                state = done.get(net)
                if state is None:
                    sub = driver.get(net)
                    if sub is not None:
                        done[net] = False
                        stack.append((sub, iter(sub[2])))
                        break
                elif not state:
                    raise NetlistError(
                        f"combinational cycle through net {net_name(net)}"
                    )
            else:
                stack.pop()
                done[row[1]] = True
                order.append(row)
    return order


class Netlist:
    """Mutable gate-level netlist.

    Nets are dense integer ids; ``net_name(net)`` gives a best-effort
    hierarchical name for diagnostics and fault reporting.
    """

    def __init__(self, name: str = "netlist"):
        self.name = name
        self._names: List[Optional[str]] = ["const0", "const1"]
        self.gates: List[Gate] = []
        self.pis: List[int] = []
        self.pos: List[int] = []
        self.po_pairs: List[Tuple[int, str]] = []
        self._po_names: Dict[int, str] = {}
        self._driver: Dict[int, Gate] = {}
        # Structural generation counter: bumped by every mutation that can
        # change fanout or level results, invalidating the caches below.
        self._generation = 0
        self._fanouts_cache: Optional[Tuple[int, Dict[int, List[Gate]]]] = None
        self._levels_cache: Optional[Tuple[int, Dict[int, int]]] = None

    # -- construction --------------------------------------------------------

    def new_net(self, name: Optional[str] = None) -> int:
        net = len(self._names)
        self._names.append(name)
        return net

    def add_pi(self, name: str) -> int:
        net = self.new_net(name)
        self.pis.append(net)
        self._generation += 1
        return net

    def add_po(self, net: int, name: str) -> None:
        self.pos.append(net)
        self.po_pairs.append((net, name))
        # After optimization several POs may alias one net; keep the first
        # name for net-keyed lookups, the full mapping lives in po_pairs.
        self._po_names.setdefault(net, name)

    def add_gate(self, gtype: GateType, inputs: Sequence[int],
                 name: Optional[str] = None) -> int:
        """Create a gate with a fresh output net; returns the output net."""
        out = self.new_net(name)
        gate = Gate(type=gtype, output=out, inputs=tuple(inputs))
        self.gates.append(gate)
        self._driver[out] = gate
        self._generation += 1
        return out

    def add_gate_to(self, gtype: GateType, output: int,
                    inputs: Sequence[int]) -> Gate:
        """Create a gate driving an existing net."""
        if output in self._driver:
            raise NetlistError(
                f"net {output} ({self.net_name(output)}) has multiple drivers"
            )
        if output in (CONST0, CONST1):
            raise NetlistError("cannot drive a constant net")
        gate = Gate(type=gtype, output=output, inputs=tuple(inputs))
        self.gates.append(gate)
        self._driver[output] = gate
        self._generation += 1
        return gate

    # -- queries -------------------------------------------------------------

    @property
    def num_nets(self) -> int:
        return len(self._names)

    def net_name(self, net: int) -> str:
        name = self._names[net] if net < len(self._names) else None
        return name if name is not None else f"n{net}"

    def po_name(self, net: int) -> str:
        return self._po_names.get(net, self.net_name(net))

    def driver(self, net: int) -> Optional[Gate]:
        return self._driver.get(net)

    def fanouts(self) -> Dict[int, List[Gate]]:
        """Map net -> gates reading it.

        Cached against the structural generation counter (invalidated by
        ``add_pi``/``add_gate``/``add_gate_to``); treat the returned dict
        as read-only.
        """
        cached = self._fanouts_cache
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        table: Dict[int, List[Gate]] = {}
        for gate in self.gates:
            for inp in gate.inputs:
                table.setdefault(inp, []).append(gate)
        self._fanouts_cache = (self._generation, table)
        return table

    def dffs(self) -> List[Gate]:
        return [g for g in self.gates if g.type is GateType.DFF]

    def combinational_gates(self) -> List[Gate]:
        return [g for g in self.gates if g.type is not GateType.DFF]

    def gate_count(self, include_buffers: bool = False) -> int:
        """Number of combinational gates (the paper's "gates" metric)."""
        count = 0
        for gate in self.gates:
            if gate.type is GateType.DFF:
                continue
            if gate.type is GateType.BUF and not include_buffers:
                continue
            count += 1
        return count

    def validate(self) -> None:
        """Check structural sanity; raises NetlistError on problems."""
        driven: Set[int] = set()
        for gate in self.gates:
            if gate.output in driven:
                raise NetlistError(
                    f"net {gate.output} ({self.net_name(gate.output)}) has "
                    "multiple drivers"
                )
            driven.add(gate.output)
            for inp in gate.inputs:
                if inp >= self.num_nets:
                    raise NetlistError(f"gate reads undeclared net {inp}")
        pi_set = set(self.pis)
        for net in range(2, self.num_nets):
            if net not in driven and net not in pi_set:
                # Floating nets are allowed only if nothing reads them.
                pass
        for gate in self.gates:
            for inp in gate.inputs:
                if inp not in driven and inp not in pi_set and inp > 1:
                    raise NetlistError(
                        f"gate output {self.net_name(gate.output)} reads "
                        f"floating net {self.net_name(inp)}"
                    )
        for net in self.pos:
            if net not in driven and net not in pi_set and net > 1:
                raise NetlistError(
                    f"primary output {self.po_name(net)} is floating"
                )

    def levels(self, order: Optional[List[Gate]] = None) -> Dict[int, int]:
        """Combinational depth of each net within a frame: constants, PIs
        and flip-flop outputs sit at level 0, a gate output one above its
        deepest input.

        The result is identical for every valid topological ``order``, so
        it is cached against the structural generation counter; treat the
        returned dict as read-only.
        """
        cached = self._levels_cache
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        level: Dict[int, int] = {CONST0: 0, CONST1: 0}
        for pi in self.pis:
            level[pi] = 0
        for dff in self.dffs():
            level[dff.output] = 0
        for gate in order if order is not None else self.topological_order():
            level[gate.output] = 1 + max(
                (level.get(i, 0) for i in gate.inputs), default=0
            )
        self._levels_cache = (self._generation, level)
        return level

    def levelized_order(self) -> List[Gate]:
        """Combinational gates sorted by level (stable within a level).

        Level-sorting preserves topological validity — a gate's level is
        strictly above all its inputs' — while grouping gates of equal
        depth, which keeps generated straight-line code cache-friendly.
        """
        order = self.topological_order()
        level = self.levels(order)
        return sorted(order, key=lambda g: level[g.output])

    def topological_order(self) -> List[Gate]:
        """Combinational gates in topological order (DFF outputs, PIs and
        constants are sources), as :func:`topological_rows` orders them.
        Raises on combinational cycles."""
        driver = self._driver
        rows = [(g.type, g.output, g.inputs) for g in self.gates]
        return [driver[row[1]] for row in
                topological_rows(rows, self.pis, self.pos, self.net_name)]

    def clone(self) -> "Netlist":
        other = Netlist(self.name)
        other._names = list(self._names)
        other.pis = list(self.pis)
        other.pos = list(self.pos)
        other.po_pairs = list(self.po_pairs)
        other._po_names = dict(self._po_names)
        for gate in self.gates:
            other.add_gate_to(gate.type, gate.output, gate.inputs)
        return other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Netlist({self.name!r}, {len(self.pis)} PI, {len(self.pos)} PO, "
            f"{self.gate_count()} gates, {len(self.dffs())} DFF)"
        )
