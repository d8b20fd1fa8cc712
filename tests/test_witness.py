"""Witness vectors: generation, ATPG redundancy fallback, and the seeded
replay of every witness on the interpreted simulator."""

import os

import pytest

from repro.hierarchy.design import Design
from repro.lint import run_lint
from repro.lint.witness import (
    atpg_redundancy_witness,
    generate_vector_pair_witness,
    implied_assignments,
    replay_witness,
    witness_for_trace,
)
from repro.synth.elaborate import synthesize
from repro.verilog.parser import parse_source

CONN_DEMO = os.path.join(os.path.dirname(__file__), os.pardir,
                         "examples", "conn_demo.v")


def netlist_for(src, top=None):
    design = Design(parse_source(src), top=top)
    return design, synthesize(design, do_optimize=False)


DEAD_INPUT = """
module m(input a, input dead, output y);
  assign y = ~a;
endmodule
"""


class TestVectorPair:
    def test_propagation_witness_verifies(self):
        _, netlist = netlist_for(DEAD_INPUT)
        w = generate_vector_pair_witness(netlist, "dead", "propagation")
        assert w is not None
        assert w["kind"] == "vector_pair"
        assert w["verified"] is True
        v0, v1 = w["vectors"]
        assert v0["dead"] == 0 and v1["dead"] == 1
        # Only the target toggles between the two vectors.
        assert {k: v for k, v in v0.items() if k != "dead"} \
            == {k: v for k, v in v1.items() if k != "dead"}

    def test_justification_witness_on_undriven_output(self):
        _, netlist = netlist_for("""
module m(input a, output y, output orphan);
  assign y = a;
endmodule
""")
        w = generate_vector_pair_witness(netlist, "orphan", "justification")
        assert w is not None and w["verified"] is True
        assert w["watch"] == ["orphan"]

    def test_live_signal_is_not_verified(self):
        _, netlist = netlist_for(DEAD_INPUT)
        w = generate_vector_pair_witness(netlist, "a", "propagation")
        assert w is not None
        assert w["verified"] is False  # toggling a visibly flips y

    def test_missing_signal_returns_none(self):
        _, netlist = netlist_for(DEAD_INPUT)
        assert generate_vector_pair_witness(
            netlist, "nope", "propagation") is None

    def test_unsimulatable_netlist_returns_none(self):
        design = Design(parse_source("""
module m(input a, input dead, output y);
  wire looped;
  and g0(looped, looped, a);
  assign y = looped;
endmodule
"""))
        netlist = synthesize(design, do_optimize=False)
        assert generate_vector_pair_witness(
            netlist, "dead", "propagation") is None


class TestAtpgRedundancy:
    def test_dead_branch_register_is_redundant(self):
        _, netlist = netlist_for("""
module m(input clk, input d, output y);
  reg r;
  always @(posedge clk) begin
    if (1'b0)
      r <= d;
  end
  assign y = r;
endmodule
""")
        w = atpg_redundancy_witness(netlist, "r")
        assert w is not None
        assert w["kind"] == "atpg_redundant"
        assert w["verified"] is True

    def test_testable_signal_yields_no_proof(self):
        _, netlist = netlist_for(DEAD_INPUT)
        assert atpg_redundancy_witness(netlist, "a") is None

    def test_implied_assignments_report_constant_cone(self):
        _, netlist = netlist_for("""
module m(input a, output y);
  wire k;
  assign k = 1'b1;
  assign y = a & k;
endmodule
""")
        implied = implied_assignments(netlist)
        assert implied.get("k") == 1


class TestSeededDifferentialReplay:
    """Every emitted witness replays on the interpreted simulator."""

    def _witnesses(self):
        with open(CONN_DEMO, "r", encoding="utf-8") as handle:
            src = handle.read()
        design = Design(parse_source(src), top="conn_demo")
        result = run_lint(design)
        netlist = synthesize(design, do_optimize=False)
        pairs = [d.witness for d in result.diagnostics
                 if d.witness is not None
                 and d.witness.get("kind") == "vector_pair"]
        return netlist, pairs

    def test_replay_on_both_backends(self):
        netlist, pairs = self._witnesses()
        assert pairs  # conn_demo must yield vector-pair witnesses
        for witness in pairs:
            assert witness["backend"] == "interpreted"
            assert replay_witness(netlist, witness)

    def test_witnesses_are_seed_deterministic(self):
        _, first = self._witnesses()
        _, second = self._witnesses()
        assert first == second

    def test_replay_rejects_atpg_witness(self):
        _, netlist = netlist_for(DEAD_INPUT)
        with pytest.raises(ValueError, match="vector_pair"):
            replay_witness(netlist, {"kind": "atpg_redundant"})


class TestWitnessForTrace:
    def test_buried_endpoint_falls_back_to_atpg(self):
        src = """
module sink(input dead_end);
endmodule
module m(input a, output y);
  sink u0(.dead_end(a));
  assign y = a;
endmodule
"""
        design, netlist = netlist_for(src, top="m")
        from repro.lint.rootcause import RootCauseAnalyzer

        trace = RootCauseAnalyzer(design).explain_propagation(
            "sink", "dead_end")
        assert trace.blocked
        w = witness_for_trace(netlist, trace, "m")
        assert w is not None
        assert w["kind"] == "atpg_redundant"

    def test_unblocked_trace_gets_no_witness(self):
        design, netlist = netlist_for(DEAD_INPUT)
        from repro.lint.rootcause import RootCauseAnalyzer

        trace = RootCauseAnalyzer(design).explain_propagation("m", "a")
        assert not trace.blocked
        assert witness_for_trace(netlist, trace, "m") is None
