"""Seeded netlist and vector generators shared by the differential
simulation suites (arena vs interpreted)."""

import random

from repro.hierarchy import Design
from repro.synth import synthesize
from repro.synth.netlist import CONST0, CONST1, GateType, Netlist
from repro.verilog.parser import parse_source

_COMB = [GateType.AND, GateType.OR, GateType.XOR, GateType.NAND,
         GateType.NOR, GateType.XNOR, GateType.NOT, GateType.BUF]


def netlist_of(src, top=None):
    return synthesize(Design(parse_source(src), top=top))


def random_netlist(seed, num_pis=5, num_dffs=3, num_gates=25):
    """Seeded random sequential netlist with n-ary gates and Q-net POs."""
    rng = random.Random(seed)
    nl = Netlist(f"rand{seed}")
    nets = [CONST0, CONST1]
    nets += [nl.add_pi(f"i{k}") for k in range(num_pis)]
    qs = [nl.new_net(f"q{k}") for k in range(num_dffs)]
    nets += qs  # Q nets are usable before their DFF is declared.
    for k in range(num_gates):
        gtype = rng.choice(_COMB)
        if gtype in (GateType.NOT, GateType.BUF):
            ins = [rng.choice(nets)]
        else:
            ins = [rng.choice(nets)
                   for _ in range(rng.choice((2, 2, 2, 3, 4)))]
        nets.append(nl.add_gate(gtype, ins, name=f"g{k}"))
    for k, q in enumerate(qs):
        nl.add_gate_to(GateType.DFF, q, [rng.choice(nets)])
    # Observe a mix of gate outputs and DFF outputs (Q-net POs are a
    # classic source of backend disagreement).
    for k in range(4):
        nl.add_po(rng.choice(nets[2:]), f"o{k}")
    nl.add_po(rng.choice(qs), "oq")
    nl.validate()
    return nl


def random_mask_vectors(nl, cycles, width, seed):
    """Random (ones, zeros) PI masks, including X and partially-X lanes."""
    rng = random.Random(seed)
    full = (1 << width) - 1
    out = []
    for _ in range(cycles):
        vec = {}
        for pi in nl.pis:
            ones = rng.randint(0, full)
            zeros = rng.randint(0, full) & ~ones
            vec[pi] = (ones, zeros)
        out.append(vec)
    return out


def random_bit_vectors(nl, cycles, seed, x_rate=0.2):
    """Random scalar vectors; some PIs are left unassigned (X)."""
    rng = random.Random(seed)
    out = []
    for _ in range(cycles):
        out.append({pi: rng.randint(0, 1) for pi in nl.pis
                    if rng.random() >= x_rate})
    return out
