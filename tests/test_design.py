"""Unit tests for the hierarchy design database."""

import pytest

from repro.designs import arm2_design, mux_tree_source
from repro.hierarchy import Design, DesignError
from repro.verilog.parser import parse_source


NESTED = """
module leaf(input i, output o);
  assign o = ~i;
endmodule
module mid(input i, output o);
  wire t;
  leaf u_a(.i(i), .o(t));
  leaf u_b(.i(t), .o(o));
endmodule
module top(input i, output o);
  mid u_mid(.i(i), .o(o));
endmodule
"""


class TestTopInference:
    def test_infers_unique_top(self):
        design = Design(parse_source(NESTED))
        assert design.top == "top"

    def test_explicit_top(self):
        design = Design(parse_source(NESTED), top="mid")
        assert design.top == "mid"

    def test_ambiguous_top_rejected(self):
        src = "module a(); endmodule\nmodule b(); endmodule"
        with pytest.raises(DesignError):
            Design(parse_source(src))

    def test_missing_top_rejected(self):
        with pytest.raises(DesignError):
            Design(parse_source(NESTED), top="nope")

    def test_all_instantiated_rejected(self):
        src = """
        module a(); b u(); endmodule
        module b(); a u(); endmodule
        """
        with pytest.raises(DesignError):
            Design(parse_source(src))


class TestValidation:
    def test_unknown_child_module(self):
        src = "module top(); ghost u1(); endmodule"
        with pytest.raises(DesignError):
            Design(parse_source(src))

    def test_cycle_detection(self):
        src = """
        module a(); b u(); endmodule
        module b(); a u(); endmodule
        module top(); a u(); endmodule
        """
        with pytest.raises(DesignError):
            Design(parse_source(src), top="top")

    def test_duplicate_modules(self):
        src = "module m(); endmodule\nmodule m(); endmodule"
        with pytest.raises(DesignError):
            Design(parse_source(src))


class TestHierarchyQueries:
    def setup_method(self):
        self.design = Design(parse_source(NESTED))

    def test_children(self):
        assert self.design.children("top") == [("u_mid", "mid")]
        assert self.design.children("mid") == [
            ("u_a", "leaf"), ("u_b", "leaf")
        ]

    def test_parents(self):
        assert self.design.parents("leaf") == [
            ("mid", "u_a"), ("mid", "u_b")
        ]
        assert self.design.parents("top") == []

    def test_depth(self):
        assert self.design.depth("top") == 0
        assert self.design.depth("mid") == 1
        assert self.design.depth("leaf") == 2

    def test_paths_to_multiple_instances(self):
        paths = self.design.paths_to("leaf")
        assert {str(p) for p in paths} == {"top.u_mid.u_a", "top.u_mid.u_b"}
        for path in paths:
            assert path.leaf_module == "leaf"
            assert path.depth == 2
            assert path.parent().leaf_module == "mid"

    def test_modules_under(self):
        assert self.design.modules_under("mid") == {"mid", "leaf"}
        assert self.design.modules_under("top") == {"top", "mid", "leaf"}

    def test_instance_in(self):
        inst = self.design.instance_in("mid", "u_a")
        assert inst.module_name == "leaf"
        with pytest.raises(DesignError):
            self.design.instance_in("mid", "nope")

    def test_unreachable_module_depth(self):
        src = NESTED + "\nmodule orphan(); endmodule"
        with pytest.raises(DesignError):
            Design(parse_source(src), top="top").depth("orphan")


class TestArm2Hierarchy:
    def setup_method(self):
        self.design = arm2_design()

    def test_top(self):
        assert self.design.top == "arm"

    def test_mut_depths_match_table1(self):
        assert self.design.depth("arm_alu") == 3
        assert self.design.depth("regfile_struct") == 4
        assert self.design.depth("exc") == 2
        assert self.design.depth("forward") == 3

    def test_reg_cells_deepest(self):
        assert self.design.depth("reg16") == 5

    def test_mux_tree(self):
        design = Design(parse_source(mux_tree_source()))
        assert design.top == "mux4"
        assert len(design.paths_to("mux2")) == 3
