"""Optimizer tests: size reductions and functional equivalence.

The key property: optimization must never change circuit behaviour.  We
check it by simulating random vectors through the raw and optimized netlists
of several designs (including sequential ones, cycle by cycle).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.simulator import LogicSimulator
from repro.core.extractor import ExtractionMode
from repro.core.factor import Factor
from repro.designs import (ARM2_MUTS, arm2_source, filterchip_design,
                           small_designs)
from repro.hierarchy import Design
from repro.store import netlist_fingerprint
from repro.synth.elaborate import Elaborator, synthesize
from repro.synth.netlist import CONST0, CONST1, GateType, Netlist, NetlistError
from repro.synth.opt import constant_propagate, optimize, remove_dead, strash
from repro.verilog.parser import parse_source


def raw_netlist(src, top=None):
    return Elaborator(Design(parse_source(src), top=top)).synthesize()


def simulate_sequence(netlist, vectors):
    """Run a vector sequence; returns per-cycle (po_name -> tri-state bit)."""
    sim = LogicSimulator(netlist)
    results = []
    for vec in vectors:
        values = sim.step({
            pi: ((1, 0) if vec.get(netlist.net_name(pi), 0) else (0, 1))
            for pi in netlist.pis
        })
        row = {}
        for po, name in netlist.po_pairs:
            ones, zeros = values.get(po, (0, 0))
            row[name] = 1 if ones else (0 if zeros else None)
        results.append(row)
    return results


def assert_equivalent(raw, opt, cycles=24, seed=7):
    rng = random.Random(seed)
    names = [raw.net_name(pi) for pi in raw.pis]
    vectors = [
        {name: rng.randint(0, 1) for name in names} for _ in range(cycles)
    ]
    assert simulate_sequence(raw, vectors) == simulate_sequence(opt, vectors)


class TestEquivalence:
    @pytest.mark.parametrize("name", sorted(small_designs()))
    def test_small_designs_equivalent(self, name):
        raw = raw_netlist(small_designs()[name])
        opt = optimize(raw)
        assert_equivalent(raw, opt)
        assert opt.gate_count(include_buffers=True) <= raw.gate_count(
            include_buffers=True
        )

    def test_arm2_equivalent_sampled(self):
        raw = raw_netlist(arm2_source(), top="arm")
        opt = optimize(raw)
        assert_equivalent(raw, opt, cycles=12)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_random_expression_circuits(self, seed):
        rng = random.Random(seed)
        ops = ["+", "-", "&", "|", "^"]
        expr = "a"
        for _ in range(rng.randint(1, 4)):
            expr = f"({expr} {rng.choice(ops)} {rng.choice(['a', 'b', 'c'])})"
        src = f"""
        module m(input [3:0] a, input [3:0] b, input [3:0] c,
                 output [3:0] y);
          assign y = {expr};
        endmodule
        """
        raw = raw_netlist(src)
        opt = optimize(raw)
        assert_equivalent(raw, opt, cycles=16, seed=seed)


class TestConstantPropagation:
    def test_tied_inputs_fold_away(self):
        src = """
        module m(input a, output y);
          wire t;
          assign t = a & 1'b0;
          assign y = t | a;
        endmodule
        """
        opt = optimize(raw_netlist(src))
        # y == a: everything folds to a wire.
        assert opt.gate_count(include_buffers=True) == 0
        assert opt.pos[0] == opt.pis[0]

    def test_constant_output(self):
        src = """
        module m(input a, output y);
          assign y = a ^ a;
        endmodule
        """
        opt = optimize(raw_netlist(src))
        assert opt.pos[0] == CONST0

    def test_nand_nor_folding(self):
        nl = Netlist()
        a = nl.add_pi("a")
        n1 = nl.add_gate(GateType.NAND, (a, CONST1))
        n2 = nl.add_gate(GateType.NOR, (n1, CONST0))
        nl.add_po(n2, "y")
        opt = optimize(nl)
        # NAND(a,1) = ~a; NOR(~a,0) = a.
        assert opt.pos[0] == a

    def test_xor_parity_folding(self):
        nl = Netlist()
        a = nl.add_pi("a")
        x = nl.add_gate(GateType.XOR, (a, a, CONST1))
        nl.add_po(x, "y")
        opt = constant_propagate(nl)
        # a^a^1 = 1.
        assert opt.pos[0] == CONST1


class TestStrash:
    def test_duplicate_gates_merged(self):
        nl = Netlist()
        a = nl.add_pi("a")
        b = nl.add_pi("b")
        g1 = nl.add_gate(GateType.AND, (a, b))
        g2 = nl.add_gate(GateType.AND, (b, a))  # commuted duplicate
        y = nl.add_gate(GateType.XOR, (g1, g2))
        nl.add_po(y, "y")
        opt = optimize(nl)
        # XOR(x, x) == 0 after merging.
        assert opt.pos[0] == CONST0

    def test_noncommutative_not_merged_blindly(self):
        nl = Netlist()
        a = nl.add_pi("a")
        b = nl.add_pi("b")
        g1 = nl.add_gate(GateType.AND, (a, b))
        g2 = nl.add_gate(GateType.OR, (a, b))
        y = nl.add_gate(GateType.XOR, (g1, g2))
        nl.add_po(y, "y")
        opt = strash(nl)
        assert len(opt.gates) == 3


class TestFlopInputs:
    """A flop's D input follows the net that replaced a deleted gate."""

    def test_buffered_d_input_folds(self):
        nl = Netlist()
        a = nl.add_pi("a")
        q = nl.new_net("q")
        d = nl.add_gate(GateType.BUF, (a,))
        nl.add_gate_to(GateType.DFF, q, (d,))
        nl.add_po(q, "q")
        opt = constant_propagate(nl)
        opt.validate()
        assert [g.inputs for g in opt.dffs()] == [(a,)]

    def test_merged_d_input_follows_survivor(self):
        nl = Netlist()
        a = nl.add_pi("a")
        b = nl.add_pi("b")
        q = nl.new_net("q")
        kept = nl.add_gate(GateType.AND, (a, b))
        merged = nl.add_gate(GateType.AND, (b, a))
        nl.add_gate_to(GateType.DFF, q, (merged,))
        nl.add_po(kept, "y")
        nl.add_po(q, "q")
        opt = strash(nl)
        opt.validate()
        assert [g.inputs for g in opt.dffs()] == [(kept,)]


class TestDeadCodeRemoval:
    def test_unreachable_logic_deleted(self):
        nl = Netlist()
        a = nl.add_pi("a")
        b = nl.add_pi("b")
        keep = nl.add_gate(GateType.AND, (a, b))
        nl.add_gate(GateType.OR, (a, b))  # dead
        nl.add_po(keep, "y")
        opt = remove_dead(nl)
        assert len(opt.gates) == 1

    def test_unobserved_flop_deleted(self):
        src = """
        module m(input clk, input d, output q);
          reg live;
          reg dead;
          always @(posedge clk) live <= d;
          always @(posedge clk) dead <= ~d;
          assign q = live;
        endmodule
        """
        opt = optimize(raw_netlist(src))
        assert len(opt.dffs()) == 1

    def test_feedback_flop_kept_when_observed(self):
        src = """
        module m(input clk, input rst, output [1:0] q);
          reg [1:0] cnt;
          always @(posedge clk)
            if (rst) cnt <= 2'd0;
            else cnt <= cnt + 2'd1;
          assign q = cnt;
        endmodule
        """
        opt = optimize(raw_netlist(src))
        assert len(opt.dffs()) == 2


class TestRegionsPreserved:
    def test_regions_survive_optimization(self):
        src = """
        module leaf(input i, output o);
          assign o = ~i;
        endmodule
        module top(input a, output y);
          wire t;
          leaf u1(.i(a), .o(t));
          assign y = t;
        endmodule
        """
        design = Design(parse_source(src))
        raw = Elaborator(design).synthesize()
        opt = optimize(raw)
        regions = getattr(opt, "regions", {})
        assert any(r.startswith("u1.") for r in regions.values())


class TestCombinationalCycles:
    def test_cycle_rejected(self):
        nl = Netlist()
        a = nl.add_pi("a")
        x = nl.new_net("x")
        y = nl.add_gate(GateType.AND, (a, x))
        nl.add_gate_to(GateType.OR, x, (y, a))
        nl.add_po(x, "x")
        with pytest.raises(NetlistError, match="combinational cycle"):
            optimize(nl)


class TestDeepPaths:
    def test_5000_gate_chain(self):
        """The ordering walk keeps its own stack, so a path far deeper than
        the interpreter's recursion limit levelizes, optimizes and
        simulates."""
        nl = Netlist("chain")
        a, b, c = (nl.add_pi(name) for name in "abc")
        net = a
        for i in range(5000):
            net = nl.add_gate(GateType.XOR, (net, (b, c)[i % 2]))
        nl.add_po(net, "y")

        order = nl.levelized_order()
        assert order == nl.gates
        assert [nl.levels()[g.output] for g in order] == list(range(1, 5001))
        opt = optimize(nl)
        assert opt.gates == nl.gates  # nothing to fold, merge or drop
        # b and c each feed 2500 gates, so y == a.
        assert simulate_sequence(opt, [{"a": 1, "b": 1, "c": 0},
                                       {"a": 0, "b": 1, "c": 1}]) == [
            {"y": 1}, {"y": 0}]


# netlist_fingerprint (gates in order, net names, PIs, PO pairs, regions)
# and gate count, DFFs included, of optimized netlists, recorded before the
# optimizer moved onto gate rows: optimize must return exactly what it did.
_COMPOSE_U_DP = (
    "8e2ace8138cd5dec4f0d760a669e04c98c8ba57276cb10a5e626bd63249d0f6e", 3369)
_COMPOSE_EXC = (
    "d2649b63aa3212ee5878a0be44d9aef63d7548b41738be8d7decf2e441d5708b", 3131)
_CONVENTIONAL = (
    "2cad1bff7999cee18597ab79432bb7a282ae5ddb2e8d9628fe668c759fd07e96", 4445)
ARM2_PINS = {
    ("compose", "arm_alu"): _COMPOSE_U_DP,
    ("compose", "regfile_struct"): _COMPOSE_U_DP,
    ("compose", "forward"): _COMPOSE_U_DP,
    ("compose", "exc"): _COMPOSE_EXC,
    ("conventional", "arm_alu"): _CONVENTIONAL,
    ("conventional", "regfile_struct"): _CONVENTIONAL,
    ("conventional", "forward"): _CONVENTIONAL,
    ("conventional", "exc"): _CONVENTIONAL,
}
SMALL_PINS = {
    "adder": (
        "4baaf5a3235448f30dbef302f1858e4db7db59ab8c7d0416a6079d60a56108a7",
        26),
    "counter": (
        "7c33c1478ec5f0f22e7f1d1a8290e10eb5bc23158ba2c46764820045aa2541c9",
        29),
    "fsm": (
        "d0e37e48f67f28d3f36216e9b22cdd377a266600bf3d49a26866f1a349bcc2c3",
        25),
    "mux_tree": (
        "06f747a30e3b7bc22dbcaacedc293b1d0a5397c46064e13bca9c2d77f8d1405c",
        11),
    "parity": (
        "e1abb120b0317b1e0a8c95512969ca948a8b138d52f047d6b5d05e4bd3f30e60",
        8),
    "shifter": (
        "248844fee409c2d0004684e2d67209627038980e8d6d5f445d657a5851170ebd",
        130),
}
FILTERCHIP_PIN = (
    "875ab7cf0ed4c18260090748838a4c0cfaac0f898c3105965672bf72093f8173", 2403)


def pin_of(netlist):
    return netlist_fingerprint(netlist), len(netlist.gates)


@pytest.fixture(scope="module")
def arm2_transformed():
    """Transformed netlists of every arm2 MUT in both extraction modes,
    by ``(mode, MUT)``, synthesized with the artifact store off."""
    netlists = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_NO_CACHE", "1")
        for mode in ("compose", "conventional"):
            factor = Factor.from_verilog(arm2_source(), top="arm",
                                         mode=ExtractionMode(mode))
            for mut in ARM2_MUTS:
                spec = factor.mut_spec(mut.name, mut.path)
                netlists[(mode, mut.name)] = \
                    factor.composer.transform(spec).netlist
    return netlists


class TestPinnedOutput:
    @pytest.mark.parametrize("mode, mut", sorted(ARM2_PINS))
    def test_arm2_transformed(self, arm2_transformed, mode, mut):
        assert pin_of(arm2_transformed[(mode, mut)]) == ARM2_PINS[(mode, mut)]

    def test_every_arm2_mut_pinned(self, arm2_transformed):
        assert sorted(arm2_transformed) == sorted(ARM2_PINS)

    def test_every_small_design_pinned(self):
        assert sorted(small_designs()) == sorted(SMALL_PINS)

    @pytest.mark.parametrize("name", sorted(SMALL_PINS))
    def test_small_design(self, name):
        netlist = synthesize(Design(parse_source(small_designs()[name])))
        assert pin_of(netlist) == SMALL_PINS[name]

    def test_filterchip(self):
        assert pin_of(synthesize(filterchip_design())) == FILTERCHIP_PIN
