"""Transformed-module tests: pruning, emission, synthesis and behaviour.

The strongest check: the transformed module must behave identically to the
full design on the kept interface — for any input sequence, the kept outputs
must match, because FACTOR's environment S' preserves everything visible to
the MUT (and the ATPG-relevant observation paths).
"""

import random

import pytest

from repro.atpg.simulator import LogicSimulator
from repro.core.composer import ConstraintComposer
from repro.core.extractor import ExtractionMode, MutSpec
from repro.core.factor import Factor
from repro.designs import arm2_source, ARM2_MUTS
from repro.hierarchy import Design
from repro.obs import get_registry, get_tracer
from repro.store import netlist_fingerprint
from repro.synth import synthesize
from repro.verilog.parser import parse_source


SRC = """
module mut(input [3:0] m_in, output [3:0] m_out);
  assign m_out = ~m_in;
endmodule

module other(input [3:0] i, output [3:0] o);
  assign o = i + 4'd1;
endmodule

module top(input [3:0] a, input [3:0] b, output [3:0] y, output [3:0] w);
  wire [3:0] pre;
  wire [3:0] post;
  assign pre = a & b;
  mut u_mut(.m_in(pre), .m_out(post));
  assign y = post | b;
  other u_other(.i(b), .o(w));
endmodule
"""


def transformed(src, module, path, mode=ExtractionMode.COMPOSE, top=None):
    design = Design(parse_source(src), top=top)
    composer = ConstraintComposer(design, mode)
    return composer.transform(MutSpec(module=module, path=path)), design


class TestPrunedStructure:
    def test_emitted_verilog_reparses(self):
        tr, _ = transformed(SRC, "mut", "u_mut.")
        reparsed = parse_source(tr.verilog)
        assert "mut" in reparsed.module_names()
        assert "top" in reparsed.module_names()
        assert "other" not in reparsed.module_names()

    def test_pruned_ports(self):
        tr, _ = transformed(SRC, "mut", "u_mut.")
        top = tr.source.module("top")
        names = top.port_names()
        assert "a" in names and "b" in names and "y" in names
        assert "w" not in names

    def test_netlist_sizes(self):
        tr, design = transformed(SRC, "mut", "u_mut.")
        full = synthesize(design)
        assert 0 < tr.total_gates < full.gate_count()
        assert tr.mut_gates > 0
        assert tr.surrounding_gates == tr.total_gates - tr.mut_gates
        assert tr.num_pis == len(tr.netlist.pis)
        assert tr.num_pos == len(tr.netlist.pos)

    def test_mut_region_set(self):
        tr, _ = transformed(SRC, "mut", "u_mut.")
        assert tr.mut_region == "u_mut."
        regions = tr.netlist.regions
        assert any(r.startswith("u_mut.") for r in regions.values())


class TestBehaviouralEquivalence:
    def _check_outputs_match(self, src, module, path, cycles=20, top=None,
                             mode=ExtractionMode.COMPOSE, seed=1):
        tr, design = transformed(src, module, path, mode=mode, top=top)
        full = synthesize(design)
        small = tr.netlist
        sim_full = LogicSimulator(full)
        sim_small = LogicSimulator(small)
        full_pis = {full.net_name(pi): pi for pi in full.pis}
        small_pis = {small.net_name(pi): pi for pi in small.pis}
        assert set(small_pis) <= set(full_pis)
        small_pos = {name for _, name in small.po_pairs}
        rng = random.Random(seed)
        for _ in range(cycles):
            bits = {name: rng.randint(0, 1) for name in full_pis}
            out_full = sim_full.step_scalar(bits)
            out_small = sim_small.step_scalar(
                {k: v for k, v in bits.items() if k in small_pis}
            )
            for name in small_pos:
                assert out_small[name] == out_full[name], name

    def test_small_design_equivalent_compose(self):
        self._check_outputs_match(SRC, "mut", "u_mut.")

    def test_small_design_equivalent_conventional(self):
        self._check_outputs_match(SRC, "mut", "u_mut.",
                                  mode=ExtractionMode.CONVENTIONAL)

    def test_sequential_design_equivalent(self):
        src = """
        module mut(input i, output o);
          assign o = ~i;
        endmodule
        module top(input clk, input rst, input d, output y, output dbg);
          reg r;
          wire t;
          always @(posedge clk)
            if (rst) r <= 1'b0;
            else r <= d;
          mut u_mut(.i(r), .o(t));
          assign y = t;
          assign dbg = d ^ clk;
        endmodule
        """
        self._check_outputs_match(src, "mut", "u_mut.", cycles=30)

    @pytest.mark.parametrize("mut", ARM2_MUTS, ids=lambda m: m.name)
    def test_arm2_transformed_equivalent(self, mut):
        self._check_outputs_match(arm2_source(), mut.name, mut.path,
                                  cycles=8, top="arm")


class TestArm2Transforms:
    @pytest.fixture(scope="class")
    def composers(self):
        design = Design(parse_source(arm2_source()), top="arm")
        return (
            design,
            ConstraintComposer(design, ExtractionMode.COMPOSE),
            ConstraintComposer(design, ExtractionMode.CONVENTIONAL),
        )

    @pytest.mark.parametrize("mut", ARM2_MUTS, ids=lambda m: m.name)
    def test_surrounding_drastically_reduced(self, composers, mut):
        design, comp, _ = composers
        tr = comp.transform(MutSpec(module=mut.name, path=mut.path))
        full = synthesize(design)
        full_surr = full.gate_count() - tr.mut_gates
        reduction = 1 - tr.surrounding_gates / full_surr
        assert reduction > 0.5, f"{mut.name}: only {reduction:.0%} reduced"

    @pytest.mark.parametrize("mut", ARM2_MUTS, ids=lambda m: m.name)
    def test_compose_env_not_larger_than_conventional(self, composers, mut):
        _, comp, conv = composers
        spec = MutSpec(module=mut.name, path=mut.path)
        tr_comp = comp.transform(spec)
        tr_conv = conv.transform(spec)
        assert tr_comp.surrounding_gates <= tr_conv.surrounding_gates

    def test_transformed_verilog_resynthesizes(self, composers):
        design, comp, _ = composers
        mut = ARM2_MUTS[0]
        tr = comp.transform(MutSpec(module=mut.name, path=mut.path))
        # The emitted constraint files can be read back and synthesized.
        re_design = Design(parse_source(tr.verilog), top="arm")
        re_netlist = synthesize(re_design)
        assert re_netlist.gate_count() == tr.total_gates


# The compose-mode MUTs inside u_dp whose S' + M coincide (ARM2_PINS in
# tests/test_opt.py); in conventional mode all four MUTs share one S' + M.
U_DP_MUTS = ("arm_alu", "regfile_struct", "forward")
PATHS = {mut.name: mut.path for mut in ARM2_MUTS}


@pytest.fixture(scope="module")
def arm2_factors():
    """Every arm2 MUT transformed through one Factor per mode, with the
    artifact store off: per mode, the Factor, its transformed modules by
    MUT, the ``synth.elaborations`` they took and their ``compose`` span
    attributes by MUT path."""
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_NO_CACHE", "1")
        for mode in ("compose", "conventional"):
            get_registry().reset()
            factor = Factor.from_verilog(arm2_source(), top="arm",
                                         mode=ExtractionMode(mode))
            with get_tracer().span("arm2_factor") as root:
                transformed = {
                    mut.name: factor.composer.transform(
                        factor.mut_spec(mut.name, mut.path))
                    for mut in ARM2_MUTS
                }
            elaborations = get_registry().snapshot(
                "synth.elaborations")["synth.elaborations"]["value"]
            spans = {s.attrs["mut"]: s.attrs for s in root.walk()
                     if s.name == "compose"}
            runs[mode] = (factor, transformed, elaborations, spans)
    return runs


class TestSharedSynthesis:
    """One synthesis per distinct S' + M within one composer."""

    def test_equal_environments_emit_equal_verilog(self, arm2_factors):
        factor, transformed, _, _ = arm2_factors["compose"]
        assert len({transformed[name].verilog for name in U_DP_MUTS}) == 1
        for tr in transformed.values():
            kept = [module.name for module in tr.source.modules]
            assert kept == [name for name in factor.design.module_names()
                            if name in kept]

    def test_one_elaboration_per_distinct_netlist(self, arm2_factors):
        assert arm2_factors["compose"][2] == 2
        assert arm2_factors["conventional"][2] == 1

    @pytest.mark.parametrize("mode, shared", [
        ("compose", U_DP_MUTS),
        ("conventional", tuple(mut.name for mut in ARM2_MUTS)),
    ])
    def test_reused_netlist_is_a_named_view(self, arm2_factors, monkeypatch,
                                            mode, shared):
        transformed = arm2_factors[mode][1]
        first = transformed[shared[0]]
        assert first.netlist.name == f"{shared[0]}_transformed"
        for name in shared[1:]:
            view = transformed[name]
            assert view.netlist is not first.netlist
            assert view.netlist.name == f"{name}_transformed"
            assert view.netlist.gates is first.netlist.gates
            assert view.netlist.regions is first.netlist.regions
            assert view.synthesis_seconds == first.synthesis_seconds
            assert view.mut_region == PATHS[name]
        # The last view equals what a fresh Factor synthesizes for its MUT.
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        fresh = Factor.from_verilog(arm2_source(), top="arm",
                                    mode=ExtractionMode(mode))
        tr = fresh.composer.transform(fresh.mut_spec(name, PATHS[name]))
        assert tr.netlist.gates is not view.netlist.gates
        assert netlist_fingerprint(view.netlist) == \
            netlist_fingerprint(tr.netlist)
        assert (view.total_gates, view.mut_gates) == \
            (tr.total_gates, tr.mut_gates)

    def test_compose_span_names_the_reused_synthesis(self, arm2_factors):
        spans = arm2_factors["compose"][3]
        key = "synthesis_reused_from"
        assert key not in spans[PATHS["arm_alu"]]
        assert key not in spans[PATHS["exc"]]
        for name in U_DP_MUTS[1:]:
            assert spans[PATHS[name]][key] == PATHS["arm_alu"]
