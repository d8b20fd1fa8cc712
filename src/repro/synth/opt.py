"""Gate-level netlist optimization.

This is the "synthesis with the appropriate flags" of the paper: constant
propagation collapses logic tied to hard-coded values (the very constraints
FACTOR extracts), structural hashing merges duplicated cones, and dead-code
elimination deletes everything outside the cone of influence of the outputs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Set, Tuple

from repro.synth.netlist import (
    CONST0,
    CONST1,
    GateType,
    Netlist,
    Row,
    SYMMETRIC_TYPES,
    topological_rows,
)

# A pass maps ``(netlist, rows, pos)`` to ``(rows, alias)``: ``netlist``
# supplies the PIs and net names, which no pass changes; ``rows`` are the
# current gates and ``pos`` the current PO nets; ``alias`` sends each net
# the pass deleted to the net that now carries its value.  Alias targets
# are final (a source, a floating net or a kept gate's output), so one
# lookup resolves a net.
RowPass = Callable[[Netlist, List[Row], Sequence[int]],
                   Tuple[List[Row], Dict[int, int]]]


def _rows(netlist: Netlist) -> List[Row]:
    return [(g.type, g.output, g.inputs) for g in netlist.gates]


def _dff_rows(rows: List[Row], alias: Dict[int, int]) -> List[Row]:
    """The flip-flops of ``rows`` in row order, D nets resolved."""
    return [(GateType.DFF, output, (alias.get(inputs[0], inputs[0]),))
            for gtype, output, inputs in rows if gtype is GateType.DFF]


def _build(netlist: Netlist, rows: List[Row],
           po_pairs: Sequence[Tuple[int, str]]) -> Netlist:
    """A netlist over ``netlist``'s nets, names, PIs and regions with
    ``rows`` as its gates and ``po_pairs`` as its POs.  Gates go in through
    ``add_gate_to``, which checks them."""
    out = Netlist(netlist.name)
    out._names = list(netlist._names)
    out.pis = list(netlist.pis)
    regions = getattr(netlist, "regions", {})
    out.regions = dict(regions)  # type: ignore[attr-defined]
    for gtype, output, inputs in rows:
        out.add_gate_to(gtype, output, inputs)
    for net, name in po_pairs:
        out.add_po(net, name)
    return out


def _run(row_pass: RowPass, netlist: Netlist) -> Netlist:
    rows, alias = row_pass(netlist, _rows(netlist), netlist.pos)
    return _build(netlist, rows, [(alias.get(net, net), name)
                                  for net, name in netlist.po_pairs])


def _propagate_rows(netlist: Netlist, rows: List[Row],
                    pos: Sequence[int]) -> Tuple[List[Row], Dict[int, int]]:
    alias: Dict[int, int] = {}
    keep: List[Row] = []
    not_input_of: Dict[int, int] = {}  # NOT output net -> its input net

    for gtype, output, inputs in topological_rows(rows, netlist.pis, pos,
                                                  netlist.net_name):
        result = _fold_gate(gtype, [alias.get(i, i) for i in inputs])
        if not isinstance(result, int) and result[0] is GateType.NOT:
            # Collapse inverter chains: NOT(NOT(x)) == x.
            inner = not_input_of.get(result[1][0])
            if inner is not None:
                result = inner
        if isinstance(result, int):
            alias[output] = result
        else:
            gtype, new_inputs = result
            if gtype is GateType.NOT:
                not_input_of[output] = new_inputs[0]
            keep.append((gtype, output, tuple(new_inputs)))

    keep.extend(_dff_rows(rows, alias))
    return keep, alias


def constant_propagate(netlist: Netlist) -> Netlist:
    """Fold constants through the netlist; collapse buffers.

    Aliases BUF outputs to their inputs, evaluates gates whose controlling
    or total inputs are constant, and strips constant inputs from
    AND/OR-family gates.
    """
    return _run(_propagate_rows, netlist)


def _fold_gate(gtype: GateType, inputs: List[int]):
    """Fold one gate.  Returns an alias net (int) or ``(type, inputs)``."""
    if gtype is GateType.BUF:
        return inputs[0]
    if gtype is GateType.NOT:
        if inputs[0] == CONST0:
            return CONST1
        if inputs[0] == CONST1:
            return CONST0
        return (GateType.NOT, inputs)
    if gtype is GateType.DFF:
        return (GateType.DFF, inputs)

    if gtype in (GateType.AND, GateType.NAND):
        dominant, neutral = CONST0, CONST1
    elif gtype in (GateType.OR, GateType.NOR):
        dominant, neutral = CONST1, CONST0
    else:
        dominant = neutral = None

    if dominant is not None:
        inverted = gtype in (GateType.NAND, GateType.NOR)
        if dominant in inputs:
            value = dominant == CONST1
            return CONST1 if (value != inverted) else CONST0
        filtered: List[int] = []
        seen: Set[int] = set()
        for net in inputs:
            if net == neutral or net in seen:
                continue
            seen.add(net)
            filtered.append(net)
        if not filtered:
            value = neutral == CONST1
            return CONST1 if (value != inverted) else CONST0
        if len(filtered) == 1:
            if inverted:
                return (GateType.NOT, filtered)
            return filtered[0]
        return (gtype, filtered)

    # XOR / XNOR: drop paired duplicates, fold constants into parity.
    parity = gtype is GateType.XNOR
    counts: Dict[int, int] = {}
    for net in inputs:
        if net == CONST1:
            parity = not parity
        elif net != CONST0:
            counts[net] = counts.get(net, 0) + 1
    remaining = [net for net, cnt in counts.items() if cnt % 2 == 1]
    if not remaining:
        return CONST1 if parity else CONST0
    if len(remaining) == 1:
        if parity:
            return (GateType.NOT, remaining)
        return remaining[0]
    return (GateType.XNOR if parity else GateType.XOR, remaining)


def _strash_rows(netlist: Netlist, rows: List[Row],
                 pos: Sequence[int]) -> Tuple[List[Row], Dict[int, int]]:
    alias: Dict[int, int] = {}
    table: Dict[Tuple, int] = {}
    keep: List[Row] = []

    for gtype, output, inputs in topological_rows(rows, netlist.pis, pos,
                                                  netlist.net_name):
        inputs = tuple([alias.get(i, i) for i in inputs])
        if gtype in SYMMETRIC_TYPES:
            key = (gtype, tuple(sorted(inputs)))
        else:
            key = (gtype, inputs)
        existing = table.get(key)
        if existing is not None:
            alias[output] = existing
        else:
            table[key] = output
            keep.append((gtype, output, inputs))

    keep.extend(_dff_rows(rows, alias))
    return keep, alias


def strash(netlist: Netlist) -> Netlist:
    """Structural hashing: merge gates computing identical functions."""
    return _run(_strash_rows, netlist)


def _live_rows(netlist: Netlist, rows: List[Row],
               pos: Sequence[int]) -> Tuple[List[Row], Dict[int, int]]:
    driver = {output: inputs for _, output, inputs in rows}
    live: Set[int] = set()
    stack = list(pos)
    while stack:
        net = stack.pop()
        if net in live:
            continue
        live.add(net)
        inputs = driver.get(net)
        if inputs is not None:
            stack.extend(inputs)

    return [row for row in rows if row[1] in live], {}


def remove_dead(netlist: Netlist) -> Netlist:
    """Delete gates outside the cone of influence of the primary outputs.

    Flip-flops are kept only when reachable (transitively, through their D
    cones) from some primary output.
    """
    return _run(_live_rows, netlist)


def optimize(netlist: Netlist, max_rounds: int = 8) -> Netlist:
    """Run constant propagation, hashing and DCE to a fixpoint.

    The passes work on gate rows; one netlist is built, after the last
    round.
    """
    from repro.obs import histogram, span

    gates_before = len(netlist.gates)
    with span("synth.opt", gates_before=gates_before) as sp:
        rows = _rows(netlist)
        po_pairs = list(netlist.po_pairs)
        previous_size = None
        rounds = 0
        for _ in range(max_rounds):
            rounds += 1
            for row_pass in (_propagate_rows, _strash_rows, _live_rows):
                rows, alias = row_pass(netlist, rows,
                                       [net for net, _ in po_pairs])
                po_pairs = [(alias.get(net, net), name)
                            for net, name in po_pairs]
            # No pass adds nets, so the gate count alone measures progress.
            size = len(rows)
            if size == previous_size:
                break
            previous_size = size
        result = _build(netlist, rows, po_pairs) if rounds else netlist
        sp.set("gates_after", len(result.gates))
        sp.set("rounds", rounds)
    histogram("synth.opt.gates_removed").observe(
        gates_before - len(result.gates)
    )
    return result
