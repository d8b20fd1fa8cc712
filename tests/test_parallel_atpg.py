"""Fault-parallel PODEM: equivalence, gating, and crash recovery.

The contract under test is the one docs/performance.md promises: at any
worker count the parallel engine produces *bit-identical* detected /
untestable / aborted sets, coverage, and tests to a serial run, because
workers only speculate and the parent commits in serial fault order.
These tests force the fork pool past its small-design and single-core
gates (the CI box may have one core) via the ``REPRO_PARALLEL_MIN_*``
environment knobs, which are themselves under test here.
"""

import os
import signal

import pytest

import repro.atpg.parallel as parallel_mod
from repro.atpg.engine import AtpgEngine, AtpgOptions
from repro.atpg.fault_sim import available_cores, should_parallelize
from repro.designs import counter_source
from repro.hierarchy import Design
from repro.obs import get_registry
from repro.synth import synthesize
from repro.verilog.parser import parse_source

from tests.sim_helpers import random_netlist

#: Deterministic across processes: the high per-fault time limit means the
#: backtrack limit always binds first (a CPU-time bound could classify a
#: borderline fault differently between two runs, even two serial ones).
_OPTS = dict(max_frames=2, frame_schedule=(1, 2), backtrack_limit=30,
             fault_time_limit=10.0, random_sequences=2,
             random_sequence_length=8, seed=2002)


@pytest.fixture
def force_parallel(monkeypatch):
    """Lower every pool gate so small workloads fork even on one core."""
    monkeypatch.setenv("REPRO_PARALLEL_MIN_FAULTS", "1")
    monkeypatch.setenv("REPRO_PARALLEL_MIN_GATES", "1")
    monkeypatch.setenv("REPRO_PARALLEL_MIN_CORES", "1")


def _run(netlist, jobs, **overrides):
    opts = dict(_OPTS, **overrides)
    engine = AtpgEngine(netlist, AtpgOptions(jobs=jobs, **opts))
    report = engine.run()
    return engine, report


def _assert_identical(serial, parallel):
    s_eng, s_rep = serial
    p_eng, p_rep = parallel
    assert p_eng.detected_faults == s_eng.detected_faults
    assert p_eng.untestable_faults == s_eng.untestable_faults
    assert p_eng.aborted_faults == s_eng.aborted_faults
    assert p_eng.tests == s_eng.tests
    assert p_rep.coverage_percent == s_rep.coverage_percent
    assert p_rep.efficiency_percent == s_rep.efficiency_percent
    assert p_rep.num_vectors == s_rep.num_vectors
    assert p_rep.detected == s_rep.detected


class TestShouldParallelize:
    def test_one_worker_never_forks(self):
        assert not should_parallelize(1, 10**6, 10**6)
        assert not should_parallelize(0, 10**6, 10**6)

    def test_small_workloads_stay_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MIN_CORES", "1")
        assert not should_parallelize(4, 100, 10**6)
        assert not should_parallelize(4, 10**6, 100)

    def test_single_core_hosts_stay_serial(self, monkeypatch):
        import repro.atpg.fault_sim as fs

        monkeypatch.setattr(fs, "available_cores", lambda: 1)
        assert not should_parallelize(4, 10**6, 10**6)
        monkeypatch.setattr(fs, "available_cores", lambda: 8)
        assert should_parallelize(4, 10**6, 10**6)

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MIN_CORES", "1")
        monkeypatch.setenv("REPRO_PARALLEL_MIN_FAULTS", "10")
        monkeypatch.setenv("REPRO_PARALLEL_MIN_GATES", "10")
        assert should_parallelize(2, 10, 10)
        monkeypatch.setenv("REPRO_PARALLEL_MIN_FAULTS", "11")
        assert not should_parallelize(2, 10, 10)
        # Garbage values fall back to the defaults instead of raising.
        monkeypatch.setenv("REPRO_PARALLEL_MIN_FAULTS", "lots")
        assert not should_parallelize(2, 10, 10)

    def test_available_cores_positive(self):
        assert available_cores() >= 1


class TestEngineGating:
    def test_small_design_stays_serial_despite_jobs(self):
        """The arm_alu 0.61x regression, as a unit test: designs under
        the thresholds must ignore --jobs and run the serial loop."""
        nl = synthesize(Design(parse_source(counter_source())))
        engine, report = _run(nl, jobs=4)
        assert engine.parallel_workers == 0
        assert report.total_faults > 0

    def test_total_time_limit_forces_serial(self, force_parallel):
        nl = random_netlist(7, num_gates=60)
        engine, _ = _run(nl, jobs=2, total_time_limit=300.0)
        assert engine.parallel_workers == 0

    def test_forced_pool_reports_workers(self, force_parallel):
        nl = random_netlist(7, num_gates=60)
        engine, _ = _run(nl, jobs=2)
        assert engine.parallel_workers == 2


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("seed", [11, 23])
    def test_random_netlists(self, force_parallel, seed):
        nl = random_netlist(seed, num_pis=6, num_dffs=4, num_gates=80)
        serial = _run(nl, jobs=1)
        par = _run(nl, jobs=2)
        assert par[0].parallel_workers == 2
        _assert_identical(serial, par)

    def test_three_workers_more_than_shards_ok(self, force_parallel):
        # More workers than shards: the surplus workers retire at their
        # first dispatch without ever receiving a shard.
        nl = random_netlist(5, num_gates=30)
        serial = _run(nl, jobs=1)
        par = _run(nl, jobs=3)
        _assert_identical(serial, par)

    def test_counters_booked(self, force_parallel):
        nl = random_netlist(13, num_gates=80)
        get_registry().reset()
        engine, _ = _run(nl, jobs=2)
        assert engine.parallel_workers == 2
        snap = get_registry().snapshot()
        assert snap["atpg.parallel.runs"]["value"] == 1
        assert snap["atpg.parallel.shards"]["value"] >= 1
        assert snap["atpg.parallel.worker_faults"]["value"] >= 1
        assert snap["atpg.parallel.workers"]["value"] == 2


class TestCrashRecovery:
    def test_killed_worker_shard_is_recovered(self, force_parallel,
                                              monkeypatch):
        """SIGKILL one of two workers at startup: its shard must be
        re-queued (or re-generated in the parent), never lost, and the
        run must still match serial bit-for-bit."""
        nl = random_netlist(31, num_pis=6, num_dffs=4, num_gates=100)
        serial = _run(nl, jobs=1)

        def kill_first(procs):
            os.kill(procs[0].pid, signal.SIGKILL)
            procs[0].join(timeout=10.0)

        monkeypatch.setattr(parallel_mod, "_TEST_ON_WORKERS_STARTED",
                            kill_first)
        get_registry().reset()
        par = _run(nl, jobs=2)
        _assert_identical(serial, par)
        snap = get_registry().snapshot()
        assert snap["atpg.parallel.shards_requeued"]["value"] >= 1

    def test_all_workers_killed_drains_in_parent(self, force_parallel,
                                                 monkeypatch):
        nl = random_netlist(37, num_gates=60)
        serial = _run(nl, jobs=1)

        def kill_all(procs):
            for proc in procs:
                os.kill(proc.pid, signal.SIGKILL)
            for proc in procs:
                proc.join(timeout=10.0)

        monkeypatch.setattr(parallel_mod, "_TEST_ON_WORKERS_STARTED",
                            kill_all)
        par = _run(nl, jobs=2)
        _assert_identical(serial, par)

