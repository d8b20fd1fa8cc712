"""The serve worker's warm Factor: one per thread, reused by every job on
the same design, mode and artifact store, and dropped when a job fails."""

import threading

from repro.atpg import arena
from repro.obs import get_registry
from repro.serve import worker
from repro.serve.protocol import JobSpec
from repro.serve.worker import drop_warm_factor, execute_job

TINY = """
module leaf(input a, input b, output y);
  assign y = a & b;
endmodule
module topm(input a, input b, input c, output y);
  wire t;
  leaf u0(.a(a), .b(b), .y(t));
  assign y = t | c;
endmodule
"""

#: Result fields that time the run rather than describe it.
TIMING = ("tgen_s", "total_s", "cpu_seconds")


def seu_spec(mut):
    return {"op": "atpg", "design": "arm2", "top": "arm", "mut": mut,
            "frames": 1, "fault_model": "transient", "random_length": 8}


def untimed(outcome):
    assert outcome["ok"], outcome["error"]
    return {k: v for k, v in outcome["result"].items() if k not in TIMING}


def counter_value(name):
    data = get_registry().snapshot(name).get(name)
    return data["value"] if data else 0


def factor_for(**fields):
    spec = dict({"op": "analyze", "source": TINY, "top": "topm",
                 "mut": "leaf"}, **fields)
    return worker._factor(JobSpec.from_dict(spec).validate())


def test_jobs_on_one_design_share_synthesis_and_simulator(monkeypatch):
    """arm_alu and regfile_struct share one compose-mode transformed
    module: in one thread it is synthesized once and simulated by one
    ArenaFaultSim, and each report equals a cold run's."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")  # every job executes
    built = []

    class CountingSim(arena.ArenaFaultSim):
        def __init__(self, netlist):
            built.append(netlist.name)
            super().__init__(netlist)

    monkeypatch.setattr(arena, "ArenaFaultSim", CountingSim)
    muts = ("arm_alu", "regfile_struct")
    before = counter_value("synth.elaborations")
    warm = [untimed(execute_job(seu_spec(mut), fresh_registry=False))
            for mut in muts]
    assert counter_value("synth.elaborations") - before == 1
    assert built == ["arm_alu_transformed"]

    for mut, result in zip(muts, warm):
        drop_warm_factor()
        cold = untimed(execute_job(seu_spec(mut), fresh_registry=False))
        assert result == cold
    assert warm[0]["transient_total"] and warm[1]["transient_total"]


def test_factor_key_thread_and_failure(tmp_path, monkeypatch):
    first = factor_for()
    assert factor_for() is first
    assert factor_for(op="testability") is first  # every Factor op
    # Another thread builds its own and leaves this thread's in place.
    other = []
    thread = threading.Thread(target=lambda: other.append(factor_for()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert other[0] is not first
    assert factor_for() is first

    # A changed key replaces the Factor; a thread keeps only the last.
    renamed = factor_for(source=TINY.replace("wire t;", "wire t;  "))
    assert renamed is not first
    assert factor_for() is not first
    second = factor_for()
    assert factor_for(mode="conventional") is not second
    third = factor_for()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "other-store"))
    assert factor_for() is not third
    fourth = factor_for()
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert factor_for() is not fourth

    # A job that raises leaves no warm Factor behind.
    outcome = execute_job({"op": "analyze", "source": TINY, "top": "topm",
                           "mut": "no_such_module"}, fresh_registry=False)
    assert not outcome["ok"] and "no_such_module" in outcome["error"]
    assert worker._WARM.factor is None
