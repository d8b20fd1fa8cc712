"""Transition (gross-delay) fault model — an at-speed extension.

The paper's motivation is that at-speed *functional* tests catch the defects
that matter (crosstalk, opens, delays); this module extends the fault
substrate accordingly with the standard transition fault model:

- a **slow-to-rise** fault on a net behaves as stuck-at-0 in any cycle whose
  *previous* faulty-machine value of the net was 0 (the rising edge does not
  complete within the cycle) — and dually for **slow-to-fall**,
- detection therefore needs a two-vector pattern: initialise the net to the
  off value, then launch the transition and propagate the resulting
  stuck-at effect to an output.

Sequential functional test sets exercise launch/capture pairs naturally
(consecutive at-speed cycles), so transition coverage of a stuck-at test set
is a meaningful at-speed quality metric — exactly the argument of the
Maxwell/Aitken reference the paper cites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.atpg.fault_sim import Injection, flat_gates, simulate_lanes
from repro.atpg.faults import all_fault_sites
from repro.synth.netlist import Netlist

Vector = Mapping[int, int]

# Transition simulation tracks per-site previous values, so it runs narrower
# blocks than the stuck-at simulator's DEFAULT_LANES.
DEFAULT_TRANSITION_LANES = 256


@dataclass(frozen=True, order=True)
class TransitionFault:
    """Net ``net`` slow-to-rise (``rising=True``) or slow-to-fall."""

    net: int
    rising: bool

    def describe(self, netlist: Netlist) -> str:
        kind = "slow-to-rise" if self.rising else "slow-to-fall"
        return f"{netlist.net_name(self.net)} {kind}"


def build_transition_fault_list(netlist: Netlist,
                                region: Optional[str] = None
                                ) -> List[TransitionFault]:
    """Both transition polarities on every signal-carrying net."""
    sites = all_fault_sites(netlist)
    if region is not None:
        regions = getattr(netlist, "regions", {})
        sites = [n for n in sites if regions.get(n, "").startswith(region)]
    out: List[TransitionFault] = []
    for net in sites:
        out.append(TransitionFault(net, True))
        out.append(TransitionFault(net, False))
    return sorted(out)


def _slow_edges(chunk: Sequence[TransitionFault]) -> Injection:
    """Injection holding the previous value on lanes whose slow edge
    fires (lane 0 is the good machine)."""
    # Lanes grouped by fault site for the dynamic injection step.
    lanes_at: Dict[int, List[Tuple[int, TransitionFault]]] = {}
    for lane, fault in enumerate(chunk, start=1):
        lanes_at.setdefault(fault.net, []).append((lane, fault))

    # Previous faulty value per fault site: (ones, zeros) masks over the
    # site's own lanes.  Starts X (no transition can be inferred yet).
    prev: Dict[int, Tuple[int, int]] = {net: (0, 0) for net in lanes_at}

    def inject(net: int, ones: int, zeros: int) -> Tuple[int, int]:
        entry = lanes_at.get(net)
        if entry is None:
            return ones, zeros
        p1, p0 = prev[net]
        for lane, fault in entry:
            bit = 1 << lane
            if fault.rising:
                # Slow-to-rise: a 0->1 change is held at 0.
                if (p0 & bit) and (ones & bit):
                    ones &= ~bit
                    zeros |= bit
            else:
                if (p1 & bit) and (zeros & bit):
                    zeros &= ~bit
                    ones |= bit
        # Record this cycle's (post-injection) faulty value: the next
        # cycle's transition check compares against what the faulty
        # machine actually carried.
        prev[net] = (ones, zeros)
        return ones, zeros

    return inject


class TransitionFaultSimulator:
    """Lane-parallel gross-delay transition fault simulation.

    Lane 0 is the good machine.  Each faulty lane tracks its own previous
    value of the fault site; when the site would transition in the slow
    direction, the lane holds the old value instead (the gross-delay
    assumption: the transition takes longer than one at-speed cycle).
    A fault is detected when a primary output differs binary-vs-binary
    from the good machine.  The hold rule is an injection schedule over
    the fault simulator's interpreted lane loop
    (:func:`~repro.atpg.fault_sim.simulate_lanes`), live on every cycle.
    """

    def __init__(self, netlist: Netlist,
                 lanes: int = DEFAULT_TRANSITION_LANES):
        if lanes < 2:
            raise ValueError("need at least two lanes")
        self.netlist = netlist
        self.lanes = lanes
        self._flat = flat_gates(netlist)

    def detected_faults(self, vectors: Sequence[Vector],
                        faults: Sequence[TransitionFault],
                        initial_state: Optional[Mapping[int, int]] = None,
                        extra_observables: Optional[Sequence[int]] = None,
                        ) -> Set[TransitionFault]:
        detected: Set[TransitionFault] = set()
        block = self.lanes - 1
        for start in range(0, len(faults), block):
            chunk = faults[start:start + block]
            hold = _slow_edges(chunk)
            detected |= simulate_lanes(self.netlist, self._flat, vectors,
                                       chunk, lambda cycle: hold,
                                       initial_state, extra_observables)
        return detected


def transition_coverage(netlist: Netlist,
                        vector_sequences: Sequence[Sequence[Vector]],
                        region: Optional[str] = None,
                        initial_states: Optional[Sequence[Optional[
                            Mapping[int, int]]]] = None,
                        lanes: int = DEFAULT_TRANSITION_LANES,
                        ) -> Tuple[float, List[TransitionFault]]:
    """Transition coverage of a collection of vector sequences.

    Returns ``(coverage_percent, undetected_faults)``.
    """
    faults = build_transition_fault_list(netlist, region=region)
    if not faults:
        return 100.0, []
    sim = TransitionFaultSimulator(netlist, lanes=lanes)
    remaining: Set[TransitionFault] = set(faults)
    inits = initial_states or [None] * len(vector_sequences)
    for vectors, init in zip(vector_sequences, inits):
        if not remaining:
            break
        remaining -= sim.detected_faults(vectors, sorted(remaining),
                                         initial_state=init)
    coverage = 100.0 * (len(faults) - len(remaining)) / len(faults)
    return coverage, sorted(remaining)
