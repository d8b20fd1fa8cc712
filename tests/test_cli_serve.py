"""CLI surfaces of the serving stack: submit/jobs commands and atpg --jobs.

Driven in-process through ``cli.main`` against a ``ServerThread`` so no
subprocess management is needed; the serve bench suite and the jobs-helper
tests cover the real ``repro serve`` subprocess path.
"""

import json

import pytest

from repro.cli import main
from repro.obs import get_registry
from repro.serve import ServeConfig, ServerThread

TWO_MUTS = """
module and2(input a, input b, output y);
  assign y = a & b;
endmodule
module or2(input a, input b, output y);
  assign y = a | b;
endmodule
module topm(input a, input b, input c, output y);
  wire t, u;
  and2 g0(.a(a), .b(b), .y(t));
  or2  g1(.a(t), .b(c), .y(u));
  assign y = ~u;
endmodule
"""

# Wide gates: short random sequences miss their all-ones/all-zeros tests,
# so PODEM runs and books implications.
WIDE_MUTS = """
module and8(input [7:0] a, output y);
  assign y = &a;
endmodule
module or8(input [7:0] a, output y);
  assign y = |a;
endmodule
module topw(input [7:0] a, input [7:0] b, output y);
  wire t, u;
  and8 g0(.a(a), .y(t));
  or8  g1(.a(b), .y(u));
  assign y = t ^ u;
endmodule
"""


@pytest.fixture()
def design_file(tmp_path):
    path = tmp_path / "two_muts.v"
    path.write_text(TWO_MUTS)
    return str(path)


@pytest.fixture()
def server(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    thread = ServerThread(ServeConfig(port=0, worker_mode="thread",
                                      jobs=1))
    address = thread.start()
    monkeypatch.setenv("REPRO_SERVER", address)
    yield address
    thread.stop()


class TestAtpgJobs:
    def test_multi_mut_serial(self, design_file, capsys):
        rc = main(["atpg", design_file, "--top", "topm",
                   "--mut", "and2", "--mut", "or2",
                   "--frames", "1", "--backtrack-limit", "10",
                   "--jobs", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ATPG reports for 2 MUTs (jobs=1)" in out
        assert "and2_transformed" in out
        assert "or2_transformed" in out
        assert "across 2 MUTs" in out

    def test_multi_mut_parallel_pool(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")  # both runs execute
        design = tmp_path / "wide.v"
        design.write_text(WIDE_MUTS)
        effort = {}
        for jobs in ("1", "2"):
            get_registry().reset()
            metrics_path = str(tmp_path / f"metrics-{jobs}.json")
            rc = main(["atpg", str(design), "--top", "topw",
                       "--mut", "and8", "--mut", "or8", "--frames", "1",
                       "--backtrack-limit", "10", "--random-length", "2",
                       "--jobs", jobs, "--metrics-out", metrics_path])
            assert rc == 0
            assert f"jobs={jobs}" in capsys.readouterr().out
            snapshot = json.loads(open(metrics_path).read())
            effort[jobs] = [snapshot[name]["value"] for name in
                            ("atpg.implications", "atpg.backtracks")]
        # Worker metrics were merged back into the parent registry.
        assert effort["1"][0] > 0
        assert effort["2"] == effort["1"]

    def test_multi_mut_shares_one_factor(self, design_file, tmp_path,
                                         capsys, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")  # nothing warm-starts
        get_registry().reset()
        metrics_path = str(tmp_path / "metrics.json")
        rc = main(["atpg", design_file, "--top", "topm",
                   "--mut", "and2", "--mut", "or2", "--frames", "1",
                   "--backtrack-limit", "10", "--jobs", "1", "--lint",
                   "--metrics-out", metrics_path])
        assert rc == 0
        assert "and2_transformed" in capsys.readouterr().out
        snapshot = json.loads(open(metrics_path).read())
        # One parse serves the lint gate and both MUTs, and the second
        # extraction reuses tasks of the first.
        assert snapshot["verilog.parses"]["value"] == 1
        assert snapshot["extract.tasks_reused"]["value"] > 0

    def test_single_mut_ignores_repro_jobs(self, design_file, capsys,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        rc = main(["atpg", design_file, "--top", "topm", "--mut", "and2",
                   "--frames", "1", "--backtrack-limit", "10"])
        assert rc == 0
        assert "ATPG report for and2" in capsys.readouterr().out

    def test_duplicate_muts_rejected(self, design_file, capsys):
        rc = main(["atpg", design_file, "--top", "topm",
                   "--mut", "and2", "--mut", "and2"])
        assert rc == 1
        assert "duplicate" in capsys.readouterr().err

    def test_path_incompatible_with_multi_mut(self, design_file, capsys):
        rc = main(["atpg", design_file, "--top", "topm",
                   "--mut", "and2", "--mut", "or2", "--path", "g0."])
        assert rc == 1
        assert "--path" in capsys.readouterr().err


class TestSubmit:
    def test_submit_files_waits_and_prints_report(self, design_file,
                                                  server, capsys):
        rc = main(["submit", design_file, "--op", "atpg", "--top", "topm",
                   "--mut", "and2", "--frames", "1",
                   "--backtrack-limit", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "job job-" in out
        assert "and2" in out

    def test_submit_json_output(self, design_file, server, capsys):
        rc = main(["submit", design_file, "--op", "lint", "--top", "topm",
                   "--json"])
        assert rc == 0
        job = json.loads(capsys.readouterr().out)
        assert job["status"] == "done"
        assert job["result"]["clean"] is True

    def test_identical_resubmission_is_store_served(self, design_file,
                                                    server, capsys):
        args = ["submit", design_file, "--op", "lint", "--top", "topm",
                "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["served_from"] == "pipeline"
        assert second["served_from"] == "store"

    def test_lint_strict_unclean_exits_2(self, tmp_path, server, capsys):
        # An undriven output is a lint warning; --strict fails the job.
        path = tmp_path / "warny.v"
        path.write_text("module w(input a, output y);\nendmodule\n")
        rc = main(["submit", str(path), "--op", "lint", "--top", "w",
                   "--strict"])
        assert rc == 2

    def test_needs_files_or_design(self, server, capsys):
        rc = main(["submit", "--op", "lint"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_unreachable_server_is_clean_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SERVER", "http://127.0.0.1:1")
        rc = main(["submit", "--op", "lint", "--design", "arm2"])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestJobsCommand:
    def test_lists_submitted_jobs(self, design_file, server, capsys):
        assert main(["submit", design_file, "--op", "lint",
                     "--top", "topm"]) == 0
        capsys.readouterr()
        rc = main(["jobs"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "job-" in out
        assert "lint" in out
        assert "done" in out

    def test_status_filter(self, design_file, server, capsys):
        assert main(["submit", design_file, "--op", "lint",
                     "--top", "topm"]) == 0
        capsys.readouterr()
        rc = main(["jobs", "--status", "failed"])
        assert rc == 0
        assert "job-" not in capsys.readouterr().out
