"""Shared execution knobs: SIGTERM handling and the jobs helper module."""

import os
import signal
import subprocess
import sys
import textwrap
import threading

import pytest

import repro.jobs
from repro.cli import main
from repro.jobs import (
    SIGTERM_EXIT_CODE,
    Terminated,
    install_sigterm_handler,
    map_runs,
    resolve_jobs,
)
from repro.obs import counter, get_registry, histogram

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def test_sigterm_exit_code_is_conventional():
    assert SIGTERM_EXIT_CODE == 128 + signal.SIGTERM


def test_terminated_records_signal_number():
    exc = Terminated(signal.SIGTERM)
    assert exc.signum == signal.SIGTERM
    assert "15" in str(exc)


def test_install_raises_terminated_in_main_thread():
    previous = signal.getsignal(signal.SIGTERM)
    try:
        assert install_sigterm_handler() is True
        with pytest.raises(Terminated):
            os.kill(os.getpid(), signal.SIGTERM)
    finally:
        signal.signal(signal.SIGTERM, previous)


def test_install_refuses_off_main_thread():
    import threading

    results = []
    thread = threading.Thread(
        target=lambda: results.append(install_sigterm_handler()))
    thread.start()
    thread.join()
    assert results == [False]


def test_cli_sigterm_exits_143_with_metrics_flushed(tmp_path):
    """SIGTERM mid-command -> exit 143, `terminated` on stderr, metrics
    still written.  The long-running command is simulated by hijacking a
    command handler in a subprocess, so the test is timing-independent."""
    metrics_path = tmp_path / "partial-metrics.json"
    script = textwrap.dedent(f"""
        import sys, time
        sys.path.insert(0, {SRC!r})
        import repro.cli as cli
        from repro.obs import counter

        def hang(args):
            counter("test.partial_work").inc(3)
            print("ready", flush=True)
            time.sleep(60)
            return 0

        cli._COMMANDS["bench"] = hang
        sys.exit(cli.main(["bench", "--quick",
                           "--metrics-out", {str(metrics_path)!r}]))
    """)
    proc = subprocess.Popen([sys.executable, "-c", script], text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().strip() == "ready"
    proc.send_signal(signal.SIGTERM)
    _out, err = proc.communicate(timeout=30)
    assert proc.returncode == SIGTERM_EXIT_CODE
    assert "terminated" in err
    import json
    snapshot = json.loads(metrics_path.read_text())
    assert snapshot["test.partial_work"]["value"] == 3


def test_resolve_jobs_rejects_garbage_env(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("REPRO_JOBS", "abc")
    with pytest.raises(ValueError,
                       match="REPRO_JOBS must be an integer, got 'abc'"):
        resolve_jobs()
    # The bench resolves its worker count before it starts anything.
    assert main(["bench", "--quick", "--suite", "serve",
                 "--out", str(tmp_path)]) == 1
    assert "error: REPRO_JOBS must be an integer, got 'abc'" in \
        capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# -- map_runs ------------------------------------------------------------------


def _square_and_count(x):
    counter("test.map_runs.items").inc()
    counter("test.map_runs.total").inc(x)
    histogram("test.map_runs.value").observe(x)
    return x * x


def test_map_runs_keeps_item_order():
    items = [5, 3, 8, 1, 9, 2, 7]
    assert map_runs(_square_and_count, items, jobs=3) == \
        [x * x for x in items]


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_map_runs_metrics_equal_the_serial_run(jobs):
    items = list(range(1, 8))
    registry = get_registry()
    registry.reset()
    expected = [_square_and_count(x) for x in items]
    serial = registry.snapshot("test.map_runs.")
    registry.reset()
    assert map_runs(_square_and_count, items, jobs=jobs) == expected
    assert registry.snapshot("test.map_runs.") == serial


def test_map_runs_forks_closures_over_unpicklable_state():
    lock = threading.Lock()  # a pickled closure over this would fail
    fns = [lambda: "a", lambda: "b", lambda: "c"]

    def call(fn):
        with lock:
            return fn()

    assert map_runs(call, fns, jobs=2) == ["a", "b", "c"]


def _fail_on_two(x):
    if x == 2:
        raise ValueError(f"bad item {x}")
    return x


def test_map_runs_propagates_worker_exceptions():
    with pytest.raises(ValueError, match="bad item 2"):
        map_runs(_fail_on_two, [1, 2, 3], jobs=2)


def test_map_runs_reads_repro_jobs_only_to_fan_out(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "abc")
    assert map_runs(_square_and_count, [4]) == [16]
    with pytest.raises(ValueError,
                       match="REPRO_JOBS must be an integer, got 'abc'"):
        map_runs(_square_and_count, [4, 5])


def test_map_runs_runs_items_in_child_processes():
    pids = map_runs(lambda _x: os.getpid(), range(4), jobs=2)
    assert os.getpid() not in pids
    assert map_runs(lambda _x: os.getpid(), range(4), jobs=1) == \
        [os.getpid()] * 4


def test_map_runs_restores_the_work_global():
    sentinel = (len, ["outer"])
    repro.jobs._WORK = sentinel
    try:
        assert map_runs(len, ["ab", "cde"], jobs=2) == [2, 3]
        assert repro.jobs._WORK is sentinel
        with pytest.raises(ValueError):
            map_runs(_fail_on_two, [1, 2], jobs=2)
        assert repro.jobs._WORK is sentinel
    finally:
        repro.jobs._WORK = None
