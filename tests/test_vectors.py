"""Test-set replay and chip-level translation tests."""

import pytest

from repro.atpg.engine import AtpgEngine, AtpgOptions
from repro.atpg.vectors import Test, TestSet
from repro.designs import adder_source, counter_source
from repro.designs.arm2_translation import (
    load_register_program,
    to_chip_vectors,
    translate_test,
)
from repro.hierarchy import Design
from repro.synth import synthesize
from repro.verilog.parser import parse_source


def netlist_of(src, top=None):
    return synthesize(Design(parse_source(src), top=top))


@pytest.fixture
def adder_testset():
    nl = netlist_of(adder_source())
    engine = AtpgEngine(nl, AtpgOptions(max_frames=1))
    report = engine.run()
    return nl, TestSet.from_engine(engine, nl), report


class TestRoundTrip:
    def test_replay_reproduces_coverage(self, adder_testset):
        nl, ts, report = adder_testset
        coverage = ts.measure_coverage(nl)
        assert coverage == pytest.approx(report.coverage_percent, abs=0.01)

    def test_replay_with_initial_state(self, tmp_path):
        nl = netlist_of(counter_source())
        ts = TestSet(nl.name)
        # One crafted test: load all-ones, observe wrap.
        state = {nl.net_name(d.output): 1 for d in nl.dffs()}
        ts.add(Test(vectors=[{"clk": 0, "rst": 0, "en": 0}],
                    initial_state=state))
        cov = ts.measure_coverage(nl)
        assert cov > 0


class TestRegisterLoadPrograms:
    def test_small_value_single_movi(self):
        prog = load_register_program(3, 0x5A)
        assert len(prog) == 1

    def test_full_width_value(self):
        prog = load_register_program(2, 0xBEEF)
        assert len(prog) == 5

    @pytest.mark.parametrize("value", [0, 1, 0xFF, 0x100, 0xABCD, 0xFFFF])
    def test_programs_execute_correctly(self, value):
        """Run the generated program on the real processor and check the
        register holds the value (via a store)."""
        import sys
        sys.path.insert(0, "tests")
        from test_arm2_design import ArmRunner, NOP, st_rb

        cpu = ArmRunner()
        cpu.reset()
        for word in load_register_program(2, value):
            cpu.cycle(word)
        cpu.cycle(NOP)
        cpu.cycle(st_rb(2, 0, 0))
        assert cpu.word("mem_wdata") == value


class TestChipTranslation:
    def test_translate_pier_state(self):
        test = Test(
            vectors=[{"inst[0]": 1}],
            initial_state={
                "u_core.u_dp.u_rb.u_rf.u_r3.r[0]": 1,
                "u_core.u_dp.u_rb.u_rf.u_r3.r[8]": 1,
                "u_core.u_dp.wb_we": 1,  # not an rf cell: untranslatable
            },
        )
        translated = translate_test(test)
        assert translated.loaded_registers == {3: 0x101}
        assert "u_core.u_dp.wb_we" in translated.untranslated_state
        assert translated.prologue
        assert len(translated.epilogue) == 1

    def test_chip_vectors_shape(self):
        from repro.designs import arm2_design

        nl = synthesize(arm2_design())
        pi_names = [nl.net_name(pi) for pi in nl.pis]
        test = Test(vectors=[{"inst[0]": 1, "mem_rdata[3]": 1}],
                    initial_state={"u_core.u_dp.u_rb.u_rf.u_r1.r[2]": 1})
        translated = translate_test(test)
        vectors = to_chip_vectors(translated, pi_names)
        # reset + prologue + body + epilogue + drain
        assert len(vectors) == 1 + len(translated.prologue) + 1 + 1 + 1
        assert vectors[0]["rst"] == 1
        assert all(v["rst"] == 0 for v in vectors[1:])
        assert vectors[-3]["mem_rdata[3]"] == 1
