"""CLI tests (driven in-process through cli.main)."""

import pytest

from repro.cli import main
from repro.designs import arm2_source


@pytest.fixture(scope="module")
def design_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "arm2.v"
    path.write_text(arm2_source())
    return str(path)


class TestAnalyze:
    def test_analyze_prints_summary(self, design_file, capsys):
        rc = main(["analyze", design_file, "--top", "arm",
                   "--mut", "forward"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "transformed:" in out
        assert "MUT forward" in out

    def test_analyze_writes_constraints(self, design_file, tmp_path,
                                        capsys):
        out_dir = str(tmp_path / "constraints")
        rc = main(["analyze", design_file, "--top", "arm",
                   "--mut", "exc", "--out", out_dir])
        assert rc == 0
        import os

        assert os.path.isdir(out_dir)
        assert any(f.endswith(".v") for f in os.listdir(out_dir))

    def test_conventional_mode(self, design_file, capsys):
        rc = main(["analyze", design_file, "--top", "arm",
                   "--mut", "exc", "--mode", "conventional"])
        assert rc == 0

    def test_missing_file_errors(self, capsys):
        rc = main(["analyze", "/nonexistent.v", "--mut", "x"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestTestability:
    def test_reports_hard_coded(self, design_file, capsys):
        rc = main(["testability", design_file, "--top", "arm",
                   "--mut", "arm_alu", "--path", "u_core.u_dp.u_alu."])
        assert rc == 0
        out = capsys.readouterr().out
        assert "13 of 15" in out


class TestAtpg:
    def test_atpg_on_small_mut(self, design_file, capsys):
        rc = main(["atpg", design_file, "--top", "arm", "--mut", "forward",
                   "--frames", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ATPG report for forward" in out
        assert "detected" in out

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("flag", ["--random-length",
                                      "--transient-sample"])
    @pytest.mark.parametrize("command", ["atpg", "profile", "submit"])
    def test_seu_sizes_must_be_positive(self, command, flag, value,
                                        tmp_path, capsys):
        # The job protocol requires both sizes >= 1; the CLI must refuse
        # them while parsing (exit 2), before any pipeline work or
        # server round trip.
        design = tmp_path / "d.v"
        design.write_text("module m(input a, output y); assign y = a; "
                          "endmodule\n")
        with pytest.raises(SystemExit) as exc:
            main([command, str(design), "--mut", "m", flag, value])
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["profile", "submit"])
    def test_single_run_commands_take_no_jobs(self, command, tmp_path,
                                              capsys):
        # One ATPG run is serial; only multi-MUT `repro atpg` has --jobs.
        design = tmp_path / "d.v"
        design.write_text("module m(input a, output y); assign y = a; "
                          "endmodule\n")
        with pytest.raises(SystemExit) as exc:
            main([command, str(design), "--mut", "m", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestStatsAndPiers:
    def test_stats_full_design(self, design_file, capsys):
        rc = main(["stats", design_file, "--top", "arm"])
        assert rc == 0
        assert "Netlist statistics: arm" in capsys.readouterr().out

    def test_stats_single_module(self, design_file, capsys):
        rc = main(["stats", design_file, "--top", "arm",
                   "--module", "arm_alu"])
        assert rc == 0
        assert "arm_alu" in capsys.readouterr().out

    def test_piers_lists_registers(self, design_file, capsys):
        rc = main(["piers", design_file, "--top", "arm"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reg16" in out
        assert "PIER" in out


CLEAN = """
module clean(input clk, input d, output reg q);
  always @(posedge clk)
    q <= d;
endmodule
"""

WARN_ONLY = """
module warny(input clk, input d, output reg q);
  wire dead;
  assign dead = d;
  always @(posedge clk)
    q <= d;
endmodule
"""

ERRORS = """
module buggy(input a, output y, output z);
  assign y = a;
endmodule
"""


@pytest.fixture()
def lint_file(tmp_path):
    def write(source, name="design.v"):
        path = tmp_path / name
        path.write_text(source)
        return str(path)
    return write


class TestLint:
    def test_clean_design_exits_zero(self, lint_file, capsys):
        rc = main(["lint", lint_file(CLEAN)])
        assert rc == 0
        assert "0 errors" in capsys.readouterr().out

    def test_warnings_exit_zero_by_default(self, lint_file, capsys):
        rc = main(["lint", lint_file(WARN_ONLY)])
        assert rc == 0

    def test_strict_turns_warnings_into_exit_one(self, lint_file, capsys):
        rc = main(["lint", lint_file(WARN_ONLY), "--strict"])
        assert rc == 1

    def test_errors_exit_two(self, lint_file, capsys):
        rc = main(["lint", lint_file(ERRORS)])
        assert rc == 2
        assert "W101" in capsys.readouterr().out

    def test_interrupt_exits_130(self, lint_file, capsys, monkeypatch):
        import repro.cli as cli

        def boom(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "lint", boom)
        rc = main(["lint", lint_file(CLEAN)])
        assert rc == 130
        assert "interrupted" in capsys.readouterr().err

    def test_no_files_errors(self, capsys):
        rc = main(["lint"])
        assert rc == 1
        assert "no Verilog source" in capsys.readouterr().err

    def test_unknown_rule_errors(self, lint_file, capsys):
        rc = main(["lint", lint_file(CLEAN), "--disable", "W999"])
        assert rc == 1
        assert "unknown lint rule" in capsys.readouterr().err

    def test_parse_error_exits_one(self, lint_file, capsys):
        rc = main(["lint", lint_file("module broken(input a;")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        rc = main(["lint", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "W001" in out and "W202" in out

    def test_disable_suppresses_rule(self, lint_file, capsys):
        rc = main(["lint", lint_file(WARN_ONLY), "--strict",
                   "--disable", "W003"])
        assert rc == 0

    def test_severity_override_escalates(self, lint_file, capsys):
        rc = main(["lint", lint_file(WARN_ONLY),
                   "--severity", "W003=error"])
        assert rc == 2

    def test_waive_suppresses_finding(self, lint_file, capsys):
        rc = main(["lint", lint_file(WARN_ONLY), "--strict",
                   "--waive", "W003:warny:dead"])
        assert rc == 0
        assert "1 waived" in capsys.readouterr().out

    def test_out_writes_sarif_file(self, lint_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "report.sarif"
        rc = main(["lint", lint_file(ERRORS), "--format", "sarif",
                   "--out", str(out_path)])
        assert rc == 2
        log = json.loads(out_path.read_text())
        assert log["version"] == "2.1.0"
        assert "wrote sarif report" in capsys.readouterr().out


class TestExplain:
    def test_text_trace_for_blocked_signal(self, lint_file, capsys):
        rc = main(["explain", lint_file(ERRORS), "y"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "not blocked" in out

    def test_json_payload_for_undriven_output(self, lint_file, capsys):
        import json

        rc = main(["explain", lint_file(ERRORS), "z", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["blocked"] is True
        assert payload["root_cause"] == "no_definition"
        assert len(payload["trace"]["hops"]) >= 2
        assert payload["witness"]["kind"] == "vector_pair"

    def test_no_witness_flag_skips_witness(self, lint_file, capsys):
        import json

        rc = main(["explain", lint_file(ERRORS), "z", "--json",
                   "--no-witness"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["witness"] is None

    def test_unknown_target_exits_one(self, lint_file, capsys):
        rc = main(["explain", lint_file(ERRORS), "nope"])
        assert rc == 1
        assert "no signal" in capsys.readouterr().err

    def test_module_scoped_target(self, lint_file, capsys):
        path = lint_file(CLEAN + ERRORS)
        rc = main(["explain", path, "--top", "clean", "buggy.z"])
        assert rc == 0
        assert "no_definition" in capsys.readouterr().out


class TestWaiverExpiry:
    def test_expired_waiver_resurfaces(self, lint_file, capsys):
        rc = main(["lint", lint_file(WARN_ONLY), "--strict",
                   "--waive", "W003:warny:dead@2000-01-01"])
        assert rc == 1  # resurfaced as a warning under --strict
        out = capsys.readouterr().out
        assert "[waiver expired 2000-01-01]" in out

    def test_future_waiver_still_suppresses(self, lint_file, capsys):
        rc = main(["lint", lint_file(WARN_ONLY), "--strict",
                   "--waive", "W003:warny:dead@2999-12-31"])
        assert rc == 0
        assert "1 waived" in capsys.readouterr().out

    def test_bad_expiry_exits_one(self, lint_file, capsys):
        rc = main(["lint", lint_file(WARN_ONLY),
                   "--waive", "W003@soon"])
        assert rc == 1
        assert "expiry" in capsys.readouterr().err


class TestLintGate:
    def test_analyze_gate_off_by_default(self, tmp_path, capsys):
        # An error-level lint finding in an unused module does not stop
        # analyze unless --lint is given.
        source = arm2_source() + ERRORS
        path = tmp_path / "gated.v"
        path.write_text(source)
        rc = main(["analyze", str(path), "--top", "arm",
                   "--mut", "forward"])
        assert rc == 0

    def test_analyze_gate_aborts_on_errors(self, tmp_path, capsys):
        source = arm2_source() + ERRORS
        path = tmp_path / "gated.v"
        path.write_text(source)
        rc = main(["analyze", str(path), "--top", "arm",
                   "--mut", "forward", "--lint"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "lint gate failed" in err
        assert "W101" in err
        # Gate output carries the root-cause hops, not just the one-liner.
        assert "justification endpoint" in err

    def test_atpg_gate_passes_clean_design(self, design_file, capsys):
        rc = main(["atpg", design_file, "--top", "arm", "--mut", "forward",
                   "--frames", "3", "--lint"])
        assert rc == 0
        assert "ATPG report" in capsys.readouterr().out


class TestPreprocessorFlags:
    def test_define_and_include(self, tmp_path, capsys):
        inc = tmp_path / "inc"
        inc.mkdir()
        (inc / "w.vh").write_text("`define W 4\n")
        design = tmp_path / "chip.v"
        design.write_text("""
`include "w.vh"
module chip(input [`W-1:0] a, output [`W-1:0] y);
`ifdef INVERT
  assign y = ~a;
`else
  assign y = a;
`endif
endmodule
""")
        rc = main(["stats", str(design), "--top", "chip",
                   "-I", str(inc), "-D", "INVERT"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chip" in out

    def test_define_with_value(self, tmp_path, capsys):
        design = tmp_path / "chip.v"
        design.write_text("""
module chip(input [`WIDTH-1:0] a, output y);
  assign y = ^a;
endmodule
""")
        rc = main(["stats", str(design), "--top", "chip",
                   "--define", "WIDTH=8"])
        assert rc == 0
