"""Tests for the stuck-at fault model and equivalence collapsing."""


from repro.atpg.faults import Fault, build_fault_list
from repro.designs import arm2_design
from repro.hierarchy import Design
from repro.synth import synthesize
from repro.synth.netlist import GateType, Netlist
from repro.verilog.parser import parse_source


class TestFaultList:
    def test_two_faults_per_site_uncollapsed(self):
        nl = Netlist()
        a = nl.add_pi("a")
        b = nl.add_pi("b")
        y = nl.add_gate(GateType.XOR, (a, b))
        nl.add_po(y, "y")
        faults = build_fault_list(nl, collapse=False)
        assert len(faults) == 6  # 3 sites x 2 polarities

    def test_fault_ordering_deterministic(self):
        nl = Netlist()
        a = nl.add_pi("a")
        y = nl.add_gate(GateType.NOT, (a,))
        nl.add_po(y, "y")
        assert build_fault_list(nl) == build_fault_list(nl)

    def test_describe(self):
        nl = Netlist()
        a = nl.add_pi("a")
        nl.add_po(a, "y")
        assert Fault(a, 1).describe(nl) == "a stuck-at-1"


class TestCollapsing:
    def test_not_gate_input_faults_dropped(self):
        nl = Netlist()
        a = nl.add_pi("a")
        y = nl.add_gate(GateType.NOT, (a,))
        nl.add_po(y, "y")
        faults = build_fault_list(nl)
        # a-sa0 == y-sa1 and a-sa1 == y-sa0: only the output pair remains.
        assert set(faults) == {Fault(y, 0), Fault(y, 1)}

    def test_and_gate_input_sa0_dropped(self):
        nl = Netlist()
        a = nl.add_pi("a")
        b = nl.add_pi("b")
        y = nl.add_gate(GateType.AND, (a, b))
        nl.add_po(y, "y")
        faults = set(build_fault_list(nl))
        assert Fault(a, 0) not in faults
        assert Fault(b, 0) not in faults
        assert Fault(a, 1) in faults
        assert Fault(b, 1) in faults
        assert Fault(y, 0) in faults

    def test_or_gate_input_sa1_dropped(self):
        nl = Netlist()
        a = nl.add_pi("a")
        b = nl.add_pi("b")
        y = nl.add_gate(GateType.OR, (a, b))
        nl.add_po(y, "y")
        faults = set(build_fault_list(nl))
        assert Fault(a, 1) not in faults
        assert Fault(a, 0) in faults

    def test_fanout_blocks_collapsing(self):
        nl = Netlist()
        a = nl.add_pi("a")
        y1 = nl.add_gate(GateType.AND, (a, a))
        y2 = nl.add_gate(GateType.NOT, (a,))
        nl.add_po(y1, "y1")
        nl.add_po(y2, "y2")
        faults = set(build_fault_list(nl))
        # 'a' fans out: its faults must be kept.
        assert Fault(a, 0) in faults
        assert Fault(a, 1) in faults

    def test_xor_inputs_never_collapsed(self):
        nl = Netlist()
        a = nl.add_pi("a")
        b = nl.add_pi("b")
        y = nl.add_gate(GateType.XOR, (a, b))
        nl.add_po(y, "y")
        faults = set(build_fault_list(nl))
        assert {Fault(a, 0), Fault(a, 1), Fault(b, 0), Fault(b, 1)} <= faults

    def test_collapsed_is_subset(self):
        design = arm2_design()
        nl = synthesize(design, root="arm_alu")
        collapsed = set(build_fault_list(nl, collapse=True))
        full = set(build_fault_list(nl, collapse=False))
        assert collapsed < full


class TestRegions:
    SRC = """
    module leaf(input i, output o);
      assign o = ~i;
    endmodule
    module top(input a, output y, output z);
      wire t;
      leaf u1(.i(a), .o(t));
      assign y = t;
      assign z = a & t;
    endmodule
    """

    def test_region_filter(self):
        nl = synthesize(Design(parse_source(self.SRC)), do_optimize=False)
        all_faults = build_fault_list(nl)
        leaf_faults = build_fault_list(nl, region="u1.")
        assert leaf_faults
        assert set(leaf_faults) < set(all_faults)
        regions = nl.regions
        for fault in leaf_faults:
            assert regions.get(fault.net, "").startswith("u1.")

    def test_arm2_mut_regions_nonempty(self):
        nl = synthesize(arm2_design())
        for region in ("u_core.u_dp.u_alu.", "u_core.u_exc.",
                       "u_core.u_dp.u_fwd.", "u_core.u_dp.u_rb.u_rf."):
            assert build_fault_list(nl, region=region), region
