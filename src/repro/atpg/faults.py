"""Single stuck-at fault model with structural equivalence collapsing.

Fault sites are nets (gate outputs and primary inputs).  Collapsing applies
the classical structural equivalences along fanout-free connections:

- ``BUF``/``NOT``: input faults are equivalent to (possibly inverted) output
  faults — the input-side fault is dropped when the input net has a single
  fanout,
- ``AND``/``NAND``: an input stuck-at-0 is equivalent to the output
  stuck-at-0 (stuck-at-1 for NAND),
- ``OR``/``NOR``: dually for input stuck-at-1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Union

from repro.synth.netlist import CONST1, GateType, Netlist

#: Fault-model selector values accepted by the engine, the job protocol
#: and the campaign layer: permanent stuck-at faults, transient SEU
#: bit-flips, or the union of both populations.
FAULT_MODELS = ("stuck", "transient", "both")


@dataclass(frozen=True, order=True)
class Fault:
    """Net ``net`` stuck at ``value`` (0 or 1)."""

    net: int
    value: int

    def describe(self, netlist: Netlist) -> str:
        return f"{netlist.net_name(self.net)} stuck-at-{self.value}"


@dataclass(frozen=True, order=True)
class TransientFault:
    """SEU model: net ``net`` forced to ``value`` during cycle ``cycle``.

    Unlike a stuck-at fault the upset is active for exactly one clock
    cycle; before and after it the machine follows the good circuit, so
    the fault is only observable if the one-cycle disturbance propagates
    to an observe point (possibly through state) before it dies out.
    """

    net: int
    value: int
    cycle: int

    def describe(self, netlist: Netlist) -> str:
        return (f"{netlist.net_name(self.net)} flipped-to-{self.value} "
                f"@cycle {self.cycle}")


#: Either model the fault simulators grade; one call may mix both.
AnyFault = Union[Fault, TransientFault]


def all_fault_sites(netlist: Netlist) -> List[int]:
    """Nets that carry signal: PIs, gate outputs and flop outputs."""
    sites = list(netlist.pis)
    sites.extend(g.output for g in netlist.gates)
    return sites


def build_fault_list(netlist: Netlist, region: Optional[str] = None,
                     collapse: bool = True) -> List[Fault]:
    """Collapsed stuck-at fault list.

    ``region`` restricts faults to nets whose hierarchical creation region
    starts with the given instance prefix — this is how faults "in the MUT"
    are targeted while the surrounding logic stays fault-free, mirroring the
    paper's flow of giving the whole design to the ATPG tool but targeting
    only the embedded module's faults.
    """
    sites = all_fault_sites(netlist)
    if region is not None:
        regions = getattr(netlist, "regions", {})
        sites = [n for n in sites if regions.get(n, "").startswith(region)]

    faults: Set[Fault] = set()
    for net in sites:
        faults.add(Fault(net, 0))
        faults.add(Fault(net, 1))

    if collapse:
        fanout_count: Dict[int, int] = {}
        for gate in netlist.gates:
            for inp in gate.inputs:
                fanout_count[inp] = fanout_count.get(inp, 0) + 1
        for po in netlist.pos:
            fanout_count[po] = fanout_count.get(po, 0) + 1

        net_regions = getattr(netlist, "regions", {})
        for gate in netlist.gates:
            gtype = gate.type
            if gtype is GateType.DFF:
                continue
            out_region = net_regions.get(gate.output, "")
            for inp in gate.inputs:
                if inp <= CONST1 or fanout_count.get(inp, 0) != 1:
                    continue
                if net_regions.get(inp, "") != out_region:
                    # Never collapse across hierarchical region boundaries:
                    # the representative must stay inside its module so that
                    # per-MUT fault targeting keeps the right population.
                    continue
                if gtype in (GateType.BUF, GateType.NOT):
                    faults.discard(Fault(inp, 0))
                    faults.discard(Fault(inp, 1))
                elif gtype in (GateType.AND, GateType.NAND):
                    faults.discard(Fault(inp, 0))
                elif gtype in (GateType.OR, GateType.NOR):
                    faults.discard(Fault(inp, 1))

    return sorted(faults)


def build_transient_fault_list(netlist: Netlist, num_cycles: int,
                               region: Optional[str] = None,
                               sample: Optional[int] = None,
                               seed: int = 2002) -> List[TransientFault]:
    """Deterministic SEU fault population over a ``num_cycles`` window.

    The full universe is ``sites x {0,1} x cycles``; when ``sample`` is
    given, a seeded uniform sample (without replacement) of that many
    upsets is drawn so campaign trials with the same seed always inject
    the exact same flips.  The returned list is sorted, which together
    with the seeded draw makes the schedule reproducible byte-for-byte.
    """
    if num_cycles <= 0:
        return []
    sites = all_fault_sites(netlist)
    if region is not None:
        regions = getattr(netlist, "regions", {})
        sites = [n for n in sites if regions.get(n, "").startswith(region)]

    universe = len(sites) * 2 * num_cycles
    if sample is None or sample >= universe:
        return sorted(TransientFault(net, value, cycle)
                      for net in sites
                      for value in (0, 1)
                      for cycle in range(num_cycles))

    # Index the universe as site-major/value/cycle and sample indices so
    # huge universes never materialize: index = (site_i * 2 + value) *
    # num_cycles + cycle.
    rng = random.Random(seed)
    picked = rng.sample(range(universe), sample)
    out = []
    for idx in picked:
        cycle = idx % num_cycles
        rest = idx // num_cycles
        value = rest % 2
        out.append(TransientFault(sites[rest // 2], value, cycle))
    return sorted(out)

