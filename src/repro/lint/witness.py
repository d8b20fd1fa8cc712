"""Wit-HW-style witness vectors for root-cause traces.

A root-cause trace (:mod:`repro.lint.rootcause`) is a *static* claim:
"this signal cannot propagate to / be justified from the chip interface".
This module makes the claim demonstrable:

- **Vector-pair witness** — two input vectors that differ *only* in the
  blocked signal (propagation) or that sweep the whole interface
  (justification), simulated on the interpreted simulator.  The observed
  primary outputs are identical across the pair: toggling the blocked
  signal provably changes nothing, with every controlling side-input
  pinned at the masking value the trace identified.
- **ATPG-redundancy witness** — when the endpoint is buried in the
  hierarchy and cannot be toggled from the interface, PODEM is asked for
  a test on the stuck-at fault at the corresponding net; an
  ``untestable`` proof is recorded together with the *implied
  assignments*: every net the constant cone forces to a definite value
  even under an all-X stimulus.

Witnesses are plain dicts (JSON-able, store-friendly); the
:func:`replay_witness` helper re-simulates a vector-pair witness on any
backend and checks that the claimed blockage is still exhibited — the
seeded differential test replays every emitted witness on both the
interpreted and arena simulators.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.atpg.simulator import LogicSimulator
from repro.lint.rootcause import RootCauseTrace
from repro.synth.netlist import Netlist, NetlistError

#: Witness kinds.
VECTOR_PAIR = "vector_pair"
ATPG_REDUNDANT = "atpg_redundant"

#: Cap on recorded implied assignments (redundancy witnesses).
MAX_IMPLICATIONS = 24


def _seeded_bit(name: str, seed: int) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return digest[0] & 1


def _pi_groups(netlist: Netlist) -> Dict[str, List[int]]:
    """Primary inputs grouped by base signal name (``a[2]`` -> ``a``)."""
    groups: Dict[str, List[int]] = {}
    for pi in netlist.pis:
        name = netlist.net_name(pi)
        base = name.split("[", 1)[0]
        groups.setdefault(base, []).append(pi)
    return groups


def _po_names(netlist: Netlist, base: Optional[str] = None) -> List[str]:
    names = [name for _, name in netlist.po_pairs]
    if base is None:
        return names
    return [n for n in names if n == base or n.startswith(base + "[")]


def _name_to_net(netlist: Netlist) -> Dict[str, int]:
    return {netlist.net_name(net): net
            for net in range(2, netlist.num_nets)}


def _net_bit(values, net: int) -> Optional[int]:
    ones, zeros = values.get(net, (0, 0))
    if ones & 1:
        return 1
    if zeros & 1:
        return 0
    return None


def _simulate(netlist: Netlist, pi_bits: Dict[str, int], backend: str,
              cycles: int = 1):
    """Fresh-state simulation of one vector held for ``cycles`` steps."""
    sim = LogicSimulator(netlist, width=1, backend=backend)
    by_name = {netlist.net_name(pi): pi for pi in netlist.pis}
    vec = {}
    for name, bit in pi_bits.items():
        net = by_name.get(name)
        if net is not None:
            vec[net] = (1, 0) if bit else (0, 1)
    values = None
    for _ in range(max(1, cycles)):
        values = sim.step(vec)
    observed = {name: _net_bit(values, po)
                for po, name in netlist.po_pairs}
    return values, observed


def generate_vector_pair_witness(
    netlist: Netlist, signal: str, direction: str,
    pinned: Optional[Dict[str, int]] = None,
    seed: int = 2002, cycles: int = 1,
    backend: str = "interpreted",
) -> Optional[Dict[str, object]]:
    """Two-vector demonstration that ``signal`` is disconnected.

    ``direction`` is ``"propagation"`` (signal is a primary input whose
    toggle must not reach any output) or ``"justification"`` (signal is a
    primary output that stays unresponsive while every input sweeps).
    Returns None when the signal is not at the chip interface of this
    netlist — the ATPG-redundancy fallback covers those endpoints.
    """
    groups = _pi_groups(netlist)
    if direction == "propagation":
        targets = groups.get(signal)
        if not targets:
            return None
        base = {
            netlist.net_name(pi): _seeded_bit(netlist.net_name(pi), seed)
            for pis in groups.values() for pi in pis
        }
        v0 = dict(base)
        v1 = dict(base)
        for pi in targets:
            name = netlist.net_name(pi)
            v0[name] = 0
            v1[name] = 1
        watch = _po_names(netlist)
    elif direction == "justification":
        watch = _po_names(netlist, signal)
        if not watch:
            return None
        all_pis = [netlist.net_name(pi) for pi in netlist.pis]
        v0 = {name: 0 for name in all_pis}
        v1 = {name: 1 for name in all_pis}
    else:
        raise ValueError(f"bad witness direction {direction!r}")

    try:
        values0, observed0 = _simulate(netlist, v0, backend, cycles)
        _, observed1 = _simulate(netlist, v1, backend, cycles)
    except (NetlistError, ValueError, RecursionError):
        return None  # combinational loop etc.: the netlist won't simulate
    obs0 = {name: observed0.get(name) for name in watch}
    obs1 = {name: observed1.get(name) for name in watch}
    verified = obs0 == obs1

    pinned_values: Dict[str, Optional[int]] = {}
    if pinned:
        by_name = _name_to_net(netlist)
        for name, claimed in sorted(pinned.items()):
            candidates = [n for n in (name, f"{name}[0]") if n in by_name]
            simulated = _net_bit(values0, by_name[candidates[0]]) \
                if candidates else None
            pinned_values[name] = simulated if simulated is not None \
                else claimed

    return {
        "kind": VECTOR_PAIR,
        "direction": direction,
        "signal": signal,
        "vectors": [v0, v1],
        "observed": [
            {k: obs0[k] for k in sorted(obs0)},
            {k: obs1[k] for k in sorted(obs1)},
        ],
        "watch": sorted(watch),
        "pinned": pinned_values,
        "verified": verified,
        "backend": backend,
        "cycles": max(1, cycles),
        "seed": seed,
    }


def replay_witness(netlist: Netlist, witness: Dict[str, object],
                   backend: str) -> bool:
    """Re-simulate a vector-pair witness; True iff the blockage holds.

    The claim is exhibited when every watched primary output observes the
    same value (including X) under both vectors of the pair.
    """
    if witness.get("kind") != VECTOR_PAIR:
        raise ValueError("only vector_pair witnesses replay on a simulator")
    vectors = witness["vectors"]
    watch = witness.get("watch") or _po_names(netlist)
    cycles = int(witness.get("cycles", 1))
    observations = []
    for vec in vectors:
        _, observed = _simulate(netlist, dict(vec), backend, cycles)
        observations.append({name: observed.get(name) for name in watch})
    return all(obs == observations[0] for obs in observations[1:])


def implied_assignments(netlist: Netlist,
                        around: Optional[int] = None,
                        limit: int = MAX_IMPLICATIONS) -> Dict[str, int]:
    """Nets forced to a definite value under an all-X stimulus.

    Three-valued simulation with every primary input X leaves exactly the
    constant-driven cone at definite values — these are the implied
    assignments a redundancy proof rests on.  ``around`` restricts the
    report to the transitive fan-in of that net.
    """
    sim = LogicSimulator(netlist, width=1, backend="interpreted")
    values = sim.step({})
    keep: Optional[set] = None
    if around is not None:
        keep = set()
        stack = [around]
        while stack:
            net = stack.pop()
            if net in keep:
                continue
            keep.add(net)
            gate = netlist.driver(net)
            if gate is not None:
                stack.extend(gate.inputs)
    out: Dict[str, int] = {}
    for net in range(2, netlist.num_nets):
        if keep is not None and net not in keep:
            continue
        bit = _net_bit(values, net)
        if bit is None:
            continue
        out[netlist.net_name(net)] = bit
        if len(out) >= limit:
            break
    return out


def _candidate_nets(netlist: Netlist, signal: str) -> List[int]:
    """Netlist nets a module-scoped signal name may elaborate to."""
    suffixes = (signal, f"{signal}[0]")
    out = []
    for net in range(2, netlist.num_nets):
        name = netlist.net_name(net)
        if name in suffixes or any(
                name.endswith("." + suf) for suf in suffixes):
            out.append(net)
    return out


def atpg_redundancy_witness(
    netlist: Netlist, signal: str,
    frames: int = 2, backtrack_limit: int = 200,
) -> Optional[Dict[str, object]]:
    """PODEM redundancy proof as a witness for a buried endpoint.

    Tries both stuck-at polarities on the first net matching ``signal``;
    an ``untestable`` outcome proves no test exists, and the implied
    assignments (nets pinned even under all-X stimulus, restricted to the
    fault's fan-in cone) are recorded as the witness body.
    """
    from repro.atpg.faults import Fault
    from repro.atpg.podem import Podem
    from repro.atpg.sequential import UnrolledModel

    nets = _candidate_nets(netlist, signal)
    if not nets:
        return None
    try:
        model = UnrolledModel(netlist, frames)
    except (NetlistError, ValueError, RecursionError):
        return None  # combinational loop etc.: no unrolled view
    for net in nets[:4]:
        for value in (0, 1):
            fault = Fault(net, value)
            result = Podem(model, fault,
                           backtrack_limit=backtrack_limit).run()
            if result.status == "untestable":
                return {
                    "kind": ATPG_REDUNDANT,
                    "signal": signal,
                    "fault": fault.describe(netlist),
                    "frames": frames,
                    "backtracks": result.backtracks,
                    "implications": implied_assignments(netlist,
                                                        around=net),
                    "verified": True,
                    "backend": "podem",
                }
    return None


def witness_for_trace(
    netlist: Netlist, trace: RootCauseTrace, top: str,
    seed: int = 2002, backend: str = "interpreted",
    allow_atpg: bool = True,
) -> Optional[Dict[str, object]]:
    """Best witness for one root-cause trace, or None.

    Endpoints at the chip interface of ``top`` get a simulator-verified
    vector pair; buried endpoints fall back to an ATPG redundancy proof
    when ``allow_atpg``.
    """
    if not trace.blocked:
        return None
    direction = "propagation" if trace.kind == "propagation" \
        else "justification"
    if trace.endpoint_module == top:
        witness = generate_vector_pair_witness(
            netlist, trace.endpoint_signal, direction,
            pinned=trace.pinned, seed=seed, backend=backend)
        if witness is not None:
            return witness
    if allow_atpg:
        return atpg_redundancy_witness(netlist, trace.endpoint_signal)
    return None
