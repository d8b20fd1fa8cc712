"""Miscellaneous core-API behaviours."""

import pytest

from repro import Factor, MutSpec
from repro.core.composer import ConstraintComposer, ReuseStats
from repro.designs import arm2_source, mux_tree_source
from repro.hierarchy import Design
from repro.store import netlist_fingerprint
from repro.verilog.parser import parse_source


class TestMutSpec:
    def test_inst_chain(self):
        spec = MutSpec(module="arm_alu", path="u_core.u_dp.u_alu.")
        assert spec.inst_chain == ["u_core", "u_dp", "u_alu"]
        assert spec.inst_name == "u_alu"

    def test_trailing_dot_optional(self):
        spec = MutSpec(module="m", path="u_a.u_b")
        assert spec.inst_chain == ["u_a", "u_b"]


class TestReuseStats:
    def test_fraction(self):
        stats = ReuseStats(extractions=2, tasks_run=30, tasks_reused=10)
        assert stats.reuse_fraction == pytest.approx(0.25)

    def test_empty(self):
        assert ReuseStats().reuse_fraction == 0.0


class TestAnalyzeWithoutPiers:
    def test_no_pier_nets(self):
        factor = Factor.from_verilog(arm2_source(), top="arm")
        result = factor.analyze("forward", path="u_core.u_dp.u_fwd.",
                                use_piers=False)
        assert result.pier_nets == set()
        assert result.piers == []


class TestComposerCaching:
    def test_extraction_cached_by_path(self):
        design = Design(parse_source(mux_tree_source()))
        composer = ConstraintComposer(design)
        a = composer.extract(MutSpec(module="mux2", path="u_lo."))
        b = composer.extract(MutSpec(module="mux2", path="u_lo."))
        assert a is b
        # A different instance of the same module is a different extraction.
        c = composer.extract(MutSpec(module="mux2", path="u_hi."))
        assert c is not a
        assert composer.stats.extractions == 2

    def test_transform_cached_per_do_optimize(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        design = Design(parse_source(mux_tree_source()))
        composer = ConstraintComposer(design)
        spec = MutSpec(module="mux2", path="u_lo.")
        optimized = composer.transform(spec)
        raw = composer.transform(spec, do_optimize=False)
        assert raw.netlist is not optimized.netlist
        assert (raw.netlist.gate_count(include_buffers=True)
                > optimized.netlist.gate_count(include_buffers=True))
        fresh = ConstraintComposer(design).transform(spec, do_optimize=False)
        assert netlist_fingerprint(raw.netlist) == \
            netlist_fingerprint(fresh.netlist)
        assert composer.transform(spec) is optimized
        assert composer.transform(spec, do_optimize=False) is raw

    def test_transform_do_optimize_false(self):
        design = Design(parse_source(mux_tree_source()))
        composer = ConstraintComposer(design)
        tr = composer.transform(MutSpec(module="mux2", path="u_lo."),
                                do_optimize=False)
        assert tr.total_gates >= 0


class TestExtractionResultHelpers:
    def test_kept_modules_sorted_and_nonempty(self):
        factor = Factor.from_verilog(arm2_source(), top="arm")
        result = factor.analyze("exc", path="u_core.u_exc.")
        kept = result.extraction.kept_modules()
        assert kept == sorted(kept)
        assert "exc" in kept
        assert "mac32" not in kept  # independent peripheral

    def test_total_statements_counts(self):
        factor = Factor.from_verilog(arm2_source(), top="arm")
        result = factor.analyze("exc", path="u_core.u_exc.")
        assert result.extraction.total_statements() > 0
