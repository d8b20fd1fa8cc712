"""Benchmark suite for the job server: ``repro bench --suite serve``.

Measures the latencies the serving layer exists to improve, against a real
server subprocess with a fresh artifact store:

- **cold**    — first submission of an ATPG job: full pipeline execution,
- **warm**    — identical re-submissions answered from the artifact store
  (p50/p95 of repeated round trips; the <100 ms p50 target lives here),
- **coalesced** — N concurrent identical submissions while the job is in
  flight: all clients share one pipeline execution,
- **throughput** — sustained distinct-job traffic from concurrent
  clients, in jobs/second,
- **progress_overhead** — the CPU seconds an installed live progress
  reporter spends in its own ``emit`` calls during ATPG runs
  (in-process, store disabled); guards the promise that observability
  costs under 2%.

Every row records a ``match`` verdict (the run's correctness condition —
e.g. warm rows must actually be store-served) and carries its own
RunRecord, so trajectories can be diffed across PRs like the other
``BENCH_*.json`` payloads.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import CallbackProgressReporter, CpuTimer, RunRecord, \
    get_logger, reporting, span
from repro.serve.client import ServeClient

_LOG = get_logger("bench.serve")

#: Concurrent identical submissions for the coalescing row.
COALESCE_CLIENTS = 8


def _src_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))


class _ServerProcess:
    """A ``repro serve`` subprocess bound to an ephemeral port."""

    def __init__(self, work: str, jobs: int = 0):
        env = dict(os.environ, REPRO_CACHE_DIR=os.path.join(work, "store"))
        env.pop("REPRO_NO_CACHE", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [_src_root()] + ([env["PYTHONPATH"]]
                             if env.get("PYTHONPATH") else []))
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--journal", os.path.join(work, "journal.jsonl")]
        if jobs:
            cmd += ["--jobs", str(jobs)]
        self.proc = subprocess.Popen(cmd, env=env, text=True,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            raise RuntimeError(
                f"server failed to start: {line!r} "
                f"{self.proc.stderr.read()[-1000:]}")
        self.base_url = line.split()[-1].strip()
        self.client = ServeClient(self.base_url, timeout=60.0)
        self.client.wait_until_up()

    def stop(self) -> int:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:  # pragma: no cover
            self.proc.kill()
            self.proc.wait()
        return self.proc.returncode


def _atpg_spec(quick: bool, seed: int) -> Dict[str, object]:
    frames, backtracks = (1, 10) if quick else (2, 50)
    return {
        "op": "atpg",
        "design": "arm2",
        "top": "arm",
        "mut": "arm_alu",
        "frames": frames,
        "backtrack_limit": backtracks,
        "seed": seed,
    }


def _percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _row(mode: str, **fields) -> Dict[str, object]:
    row = {
        "mode": mode,
        "design": "arm2/arm_alu",
        "n": 1,
        "wall_s": 0.0,
        "p50_ms": "-",
        "p95_ms": "-",
        "jobs_per_s": "-",
        "served": "-",
        "match": False,
    }
    row.update(fields)
    row["record"] = RunRecord.capture(f"bench.serve.{mode}").as_dict()
    return row


def serve_rows(quick: bool = False, seed: int = 2002,
               jobs: Optional[int] = None) -> List[Dict[str, object]]:
    """Run the four serving scenarios against a fresh server + store."""
    work = tempfile.mkdtemp(prefix="repro-serve-bench-")
    rows: List[Dict[str, object]] = []
    server = None
    try:
        server = _ServerProcess(work, jobs or 0)
        client = server.client
        rows.append(_cold_row(client, quick, seed))
        rows.append(_warm_row(client, quick, seed))
        rows.append(_coalesced_row(client, quick, seed))
        rows.append(_throughput_row(client, quick, seed))
        rows.append(_progress_overhead_row(quick, seed))
        code = server.stop()
        server = None
        if code != 0:
            _LOG.error("serve_bench.bad_exit", returncode=code)
            for row in rows:
                row["match"] = False
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
    return rows


def _cold_row(client: ServeClient, quick: bool,
              seed: int) -> Dict[str, object]:
    with span("bench.serve", mode="cold") as sp:
        response = client.submit(_atpg_spec(quick, seed))
        job = client.wait(response["job"]["id"], timeout=600)
    served = job.get("served_from")
    return _row("cold", wall_s=round(sp.wall_seconds, 3), served=served,
                match=job["status"] == "done" and served == "pipeline")


def _warm_row(client: ServeClient, quick: bool,
              seed: int) -> Dict[str, object]:
    repeats = 5 if quick else 20
    latencies: List[float] = []
    served_ok = True
    with span("bench.serve", mode="warm", repeats=repeats) as sp:
        for _ in range(repeats):
            with span("bench.serve.warm_submit") as each:
                response = client.submit(_atpg_spec(quick, seed))
            job = response["job"]
            if job["status"] != "done" \
                    or job.get("served_from") != "store":
                served_ok = False
            latencies.append(each.wall_seconds * 1000.0)
    return _row("warm", n=repeats, wall_s=round(sp.wall_seconds, 3),
                p50_ms=round(_percentile(latencies, 0.5), 2),
                p95_ms=round(_percentile(latencies, 0.95), 2),
                served="store", match=served_ok)


def _coalesced_row(client: ServeClient, quick: bool,
                   seed: int) -> Dict[str, object]:
    spec = _atpg_spec(quick, seed + 1)  # unseen by the cold/warm rows
    executed_before = client.metric_value("serve_executed_total") or 0
    job_ids: List[str] = []
    errors: List[str] = []
    lock = threading.Lock()

    def one_client() -> None:
        try:
            local = ServeClient(f"http://{client.host}:{client.port}",
                                timeout=600.0)
            response = local.submit(spec)
            job = local.wait(response["job"]["id"], timeout=600)
            with lock:
                job_ids.append(job["id"])
                if job["status"] != "done":
                    errors.append(job.get("error") or "job failed")
        except Exception as exc:  # collected, fails the row
            with lock:
                errors.append(str(exc))

    threads = [threading.Thread(target=one_client)
               for _ in range(COALESCE_CLIENTS)]
    with span("bench.serve", mode="coalesced",
              clients=COALESCE_CLIENTS) as sp:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    executed_after = client.metric_value("serve_executed_total") or 0
    executions = executed_after - executed_before
    match = (not errors and len(set(job_ids)) >= 1
             and len(job_ids) == COALESCE_CLIENTS and executions <= 1)
    if errors:
        _LOG.error("serve_bench.coalesce_errors", errors=errors[:3])
    return _row("coalesced", n=COALESCE_CLIENTS,
                wall_s=round(sp.wall_seconds, 3),
                served=f"executions={int(executions)}", match=match)


class _TimedReporter(CallbackProgressReporter):
    """A callback reporter that pools the CPU seconds of its own emits."""

    def __init__(self, callback: Callable[[Dict[str, Any]], None]):
        super().__init__(callback)
        self.timer = CpuTimer()

    def emit(self, phase: str, force: bool = False, **fields: Any) -> None:
        with self.timer:
            super().emit(phase, force=force, **fields)


def progress_overhead(run: Callable[[], Any], repeats: int,
                      callback: Callable[[Dict[str, Any]], None]
                      ) -> Tuple[bool, str]:
    """Gate the live progress reporter's cost on ``run``, an ATPG run.

    Returns ``(match, text)``.  ``match`` holds the <2% promise from
    docs/observability.md: the reporter's own CPU seconds, summed around
    every ``emit``, stay under 2% of the reported runs' CPU seconds.  It
    also requires delivered events, so a silently disconnected hook
    cannot pass as zero-cost, and the same PODEM effort with and without
    the reporter.  Timing the reporter itself keeps load that lands
    between two separately timed blocks of runs out of the verdict; the
    best-of-``repeats`` CPU seconds without and with it are kept as text.
    """
    def timed(reporter: Optional[_TimedReporter]) -> Tuple[float, tuple]:
        timer = CpuTimer()
        with timer:
            if reporter is None:
                report = run()
            else:
                with reporting(reporter):
                    report = run()
        return timer.elapsed, (report.implications, report.backtracks)

    plain = [timed(None) for _ in range(repeats)]
    reporters = [_TimedReporter(callback) for _ in range(repeats)]
    reported = [timed(reporter) for reporter in reporters]
    emit_s = sum(reporter.timer.elapsed for reporter in reporters)
    share_pct = 100.0 * emit_s / max(sum(cpu for cpu, _ in reported), 1e-9)
    match = (share_pct < 2.0
             and sum(reporter.seq for reporter in reporters) > 0
             and len({effort for _cpu, effort in plain + reported}) == 1)
    text = (f"cpu {min(cpu for cpu, _ in plain):.3f}s -> "
            f"{min(cpu for cpu, _ in reported):.3f}s, reporter "
            f"{emit_s / repeats * 1000.0:.1f} ms/run ({share_pct:.2f}%)")
    return match, text


def _progress_overhead_row(quick: bool, seed: int) -> Dict[str, object]:
    """:func:`progress_overhead` on an in-process arm2/arm_alu ATPG run.

    Runs without a server and with the artifact store disabled, so every
    run executes the full engine loop.
    """
    from repro.atpg.engine import AtpgOptions
    from repro.core.factor import Factor
    from repro.designs import arm2_source

    frames, backtracks = (1, 10) if quick else (2, 50)
    repeats = 3 if quick else 5
    saved_no_cache = os.environ.get("REPRO_NO_CACHE")
    os.environ["REPRO_NO_CACHE"] = "1"
    events: List[Dict[str, object]] = []
    try:
        factor = Factor.from_verilog(arm2_source(), top="arm")
        analyzed = factor.analyze("arm_alu")
        options = AtpgOptions(max_frames=frames,
                              backtrack_limit=backtracks, seed=seed)
        with span("bench.serve", mode="progress_overhead",
                  repeats=repeats) as sp:
            match, text = progress_overhead(
                lambda: factor.generate_tests(analyzed, options), repeats,
                events.append)
    finally:
        if saved_no_cache is None:
            os.environ.pop("REPRO_NO_CACHE", None)
        else:
            os.environ["REPRO_NO_CACHE"] = saved_no_cache
    return _row("progress_overhead", n=repeats,
                wall_s=round(sp.wall_seconds, 3), served=text, match=match)


def _throughput_row(client: ServeClient, quick: bool,
                    seed: int) -> Dict[str, object]:
    clients, per_client = (2, 4) if quick else (4, 6)
    errors: List[str] = []
    lock = threading.Lock()

    def one_client(index: int) -> None:
        local = ServeClient(f"http://{client.host}:{client.port}",
                            timeout=600.0)
        for i in range(per_client):
            # Distinct seeds -> distinct fingerprints -> no reuse: this
            # row measures sustained pipeline throughput, not caching.
            spec = _atpg_spec(quick, seed + 100 + index * per_client + i)
            try:
                response = local.submit(spec)
                job = local.wait(response["job"]["id"], timeout=600)
                if job["status"] != "done":
                    with lock:
                        errors.append(job.get("error") or "job failed")
            except Exception as exc:
                with lock:
                    errors.append(str(exc))

    threads = [threading.Thread(target=one_client, args=(index,))
               for index in range(clients)]
    with span("bench.serve", mode="throughput", clients=clients) as sp:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    total = clients * per_client
    if errors:
        _LOG.error("serve_bench.throughput_errors", errors=errors[:3])
    return _row("throughput", n=total, wall_s=round(sp.wall_seconds, 3),
                jobs_per_s=round(total / max(sp.wall_seconds, 1e-9), 2),
                served="pipeline", match=not errors)
