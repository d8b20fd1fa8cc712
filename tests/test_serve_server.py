"""End-to-end job server tests: an in-thread server with real clients.

The servers here run with ``worker_mode="thread"`` so job execution can be
intercepted (for deterministic coalescing/queue-full/drain scenarios) or
run the real pipeline on a tiny design (for round-trip coverage), all
inside one process.
"""

import json
import threading

import pytest

import repro.serve.server as server_mod
from repro.serve import ServeClient, ServeConfig, ServeError, ServerThread
from repro.serve.protocol import JobSpec

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


@pytest.fixture()
def fresh_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    return tmp_path


def start_server(**overrides):
    config = ServeConfig(port=0, worker_mode="thread", jobs=1,
                         drain_timeout=60.0, **overrides)
    thread = ServerThread(config)
    client = ServeClient(thread.start(), timeout=30.0)
    return thread, client


DEAD_NET = """
module m(input a, input dead, output y);
  assign y = ~a;
endmodule
"""


def lint_spec(**overrides):
    spec = {"op": "lint", "source": TINY, "top": "topm"}
    spec.update(overrides)
    return spec


class BlockingWorker:
    """Replaces ``execute_job``: holds jobs until released, echoes specs."""

    def __init__(self):
        self.started = threading.Semaphore(0)
        self.release = threading.Event()
        self.calls = []
        self._lock = threading.Lock()

    def __call__(self, spec_dict, fresh_registry=True, **kwargs):
        with self._lock:
            self.calls.append(spec_dict)
        self.started.release()
        assert self.release.wait(timeout=60), "test never released worker"
        return {"ok": True, "result": {"echo": spec_dict["op"]},
                "error": None, "wall_s": 0.01, "cpu_s": 0.01, "metrics": {},
                "spans": []}


class TestEndpoints:
    def test_health_metrics_and_errors(self, fresh_store):
        thread, client = start_server()
        try:
            health = client.health()
            assert health["status"] == "ok"
            assert health["workers"] == 1
            assert health["worker_mode"] == "thread"

            text = client.metrics_text()
            assert "serve_http_requests_total" in text
            assert "# TYPE serve_workers gauge" in text

            with pytest.raises(ServeError) as exc:
                client.job("job-999-nope")
            assert exc.value.status == 404
            status, _headers, _body = client.request("DELETE", "/v1/jobs")
            assert status == 405
            status, _headers, _body = client.request("GET", "/nope")
            assert status == 404
        finally:
            thread.stop()

    def test_submit_validation_maps_to_400(self, fresh_store):
        thread, client = start_server()
        try:
            for bad in ({"op": "explode", "source": TINY},
                        {"op": "lint"},
                        {"op": "atpg", "source": TINY},   # missing mut
                        {"op": "lint", "source": TINY, "bogus": 1}):
                with pytest.raises(ServeError) as exc:
                    client.submit(bad)
                assert exc.value.status == 400
            status, _headers, body = client.request(
                "POST", "/v1/jobs", payload=None)
            assert status == 400  # no body at all
            assert "error" in body
        finally:
            thread.stop()


class TestPipelineRoundTrip:
    def test_lint_then_store_served_resubmit(self, fresh_store):
        thread, client = start_server()
        try:
            base_store = client.metric_value("serve_store_served_total") or 0
            response = client.submit(lint_spec())
            job = client.wait(response["job"]["id"], timeout=60)
            assert job["status"] == "done"
            assert job["served_from"] == "pipeline"
            assert job["result"]["clean"] is True

            again = client.submit(lint_spec())
            assert again["job"]["status"] == "done"
            assert again["job"]["served_from"] == "store"
            assert again["job"]["result"] == job["result"]
            assert again["job"]["id"] != job["id"]
            served = client.metric_value("serve_store_served_total")
            assert served == base_store + 1
        finally:
            thread.stop()

    def test_atpg_and_analyze_on_tiny_design(self, fresh_store):
        thread, client = start_server()
        try:
            response = client.submit({
                "op": "atpg", "source": TINY, "top": "topm", "mut": "leaf",
                "frames": 1, "backtrack_limit": 10})
            job = client.wait(response["job"]["id"], timeout=120)
            assert job["status"] == "done", job["error"]
            assert job["result"]["coverage_percent"] == 100.0
            # PODEM effort counters ride along (CI gates them on arm2).
            assert {"implications", "backtracks"} <= set(job["result"])

            response = client.submit({
                "op": "analyze", "source": TINY, "top": "topm",
                "mut": "leaf"})
            job = client.wait(response["job"]["id"], timeout=120)
            assert job["status"] == "done", job["error"]
            assert job["result"]["mut_gates"] >= 1
        finally:
            thread.stop()

    def test_explain_then_store_served_resubmit(self, fresh_store):
        spec = {"op": "explain", "source": DEAD_NET, "top": "m",
                "target": "dead"}
        thread, client = start_server()
        try:
            response = client.submit(spec)
            job = client.wait(response["job"]["id"], timeout=60)
            assert job["status"] == "done", job["error"]
            result = job["result"]
            assert result["blocked"] is True
            assert result["root_cause"] == "unused"
            assert len(result["trace"]["hops"]) >= 2
            assert result["witness"]["kind"] == "vector_pair"
            assert result["witness"]["verified"] is True

            again = client.submit(spec)
            assert again["job"]["status"] == "done"
            assert again["job"]["served_from"] == "store"
            assert again["job"]["result"] == result

            # A different target is a different fingerprint: no warm hit.
            other = client.submit(dict(spec, target="a"))
            fresh = client.wait(other["job"]["id"], timeout=60)
            assert fresh["served_from"] == "pipeline"
            assert fresh["result"]["blocked"] is False
        finally:
            thread.stop()

    def test_pipeline_failure_becomes_failed_job(self, fresh_store):
        thread, client = start_server()
        try:
            response = client.submit(lint_spec(top="no_such_module"))
            job = client.wait(response["job"]["id"], timeout=60)
            assert job["status"] == "failed"
            assert job["error"]
        finally:
            thread.stop()

    def test_store_round_trip_survives_restart(self, fresh_store):
        thread, client = start_server()
        try:
            first = client.submit(lint_spec())
            client.wait(first["job"]["id"], timeout=60)
        finally:
            thread.stop()
        # A brand-new server over the same store answers instantly.
        thread, client = start_server()
        try:
            again = client.submit(lint_spec())
            assert again["job"]["served_from"] == "store"
        finally:
            thread.stop()


class TestCoalescing:
    def test_eight_concurrent_identical_submissions_execute_once(
            self, fresh_store, monkeypatch):
        """The acceptance scenario: 8 concurrent identical submissions,
        exactly one pipeline execution, 7 absorbed."""
        worker = BlockingWorker()
        monkeypatch.setattr(server_mod, "execute_job", worker)
        thread, client = start_server()
        try:
            executed_0 = client.metric_value("serve_executed_total") or 0
            coalesced_0 = client.metric_value("serve_coalesced_total") or 0
            spec = lint_spec(seed=77)
            responses = [None] * 8

            def submit(index):
                local = ServeClient(thread.address, timeout=30.0)
                responses[index] = local.submit(spec)

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            worker.release.set()

            assert all(response is not None for response in responses)
            ids = {response["job"]["id"] for response in responses}
            assert len(ids) == 1  # every client shares the one job
            assert sum(response["coalesced"]
                       for response in responses) == 7
            job = client.wait(ids.pop(), timeout=60)
            assert job["status"] == "done"
            assert job["coalesced_count"] == 7
            assert len(worker.calls) == 1
            executed = client.metric_value("serve_executed_total")
            coalesced = client.metric_value("serve_coalesced_total")
            assert executed - executed_0 == 1
            assert coalesced - coalesced_0 == 7
        finally:
            worker.release.set()
            thread.stop()

    def test_distinct_specs_do_not_coalesce(self, fresh_store, monkeypatch):
        worker = BlockingWorker()
        monkeypatch.setattr(server_mod, "execute_job", worker)
        thread, client = start_server()
        try:
            first = client.submit(lint_spec(seed=1))
            second = client.submit(lint_spec(seed=2))
            assert first["job"]["id"] != second["job"]["id"]
            assert not first["coalesced"] and not second["coalesced"]
            worker.release.set()
            assert client.wait(first["job"]["id"])["status"] == "done"
            assert client.wait(second["job"]["id"])["status"] == "done"
            assert len(worker.calls) == 2
        finally:
            worker.release.set()
            thread.stop()


class TestAdmission:
    def test_queue_full_answers_429_with_retry_after(
            self, fresh_store, monkeypatch):
        worker = BlockingWorker()
        monkeypatch.setattr(server_mod, "execute_job", worker)
        thread, client = start_server(queue_depth=2)
        try:
            client.submit(lint_spec(seed=1))
            worker.started.acquire(timeout=30)  # seed=1 is on the worker
            client.submit(lint_spec(seed=2))
            client.submit(lint_spec(seed=3))    # queue now at depth 2
            with pytest.raises(ServeError) as exc:
                client.submit(lint_spec(seed=4))
            assert exc.value.status == 429
            assert exc.value.retry_after >= 1
            assert "retry" in exc.value.message.lower()
        finally:
            worker.release.set()
            thread.stop()

    def test_queued_deadline_expires_to_failed(
            self, fresh_store, monkeypatch):
        worker = BlockingWorker()
        monkeypatch.setattr(server_mod, "execute_job", worker)
        thread, client = start_server()
        try:
            blocker = client.submit(lint_spec(seed=1))
            worker.started.acquire(timeout=30)
            doomed = client.submit(lint_spec(seed=2, deadline_s=0.05))
            import time
            time.sleep(0.2)  # let the queue budget lapse
            worker.release.set()
            job = client.wait(doomed["job"]["id"], timeout=30)
            assert job["status"] == "failed"
            assert "deadline" in job["error"]
            assert client.wait(blocker["job"]["id"])["status"] == "done"
            assert len(worker.calls) == 1  # the doomed job never ran
        finally:
            worker.release.set()
            thread.stop()

    def test_job_timeout_fails_overrunning_job(
            self, fresh_store, monkeypatch):
        worker = BlockingWorker()
        monkeypatch.setattr(server_mod, "execute_job", worker)
        thread, client = start_server(job_timeout=0.2)
        try:
            response = client.submit(lint_spec(seed=9))
            job = client.wait(response["job"]["id"], timeout=30)
            assert job["status"] == "failed"
            assert "budget" in job["error"]
        finally:
            worker.release.set()
            thread.stop()


class TestDrainAndResume:
    def test_drain_persists_backlog_and_restart_resumes_it(
            self, fresh_store, monkeypatch):
        """SIGTERM-equivalent drain under load loses zero jobs: the
        running job finishes, the queued backlog survives in the journal,
        and a restarted server resumes and completes it."""
        journal = str(fresh_store / "journal.jsonl")
        worker = BlockingWorker()
        with monkeypatch.context() as patch:
            patch.setattr(server_mod, "execute_job", worker)
            thread, client = start_server(journal_path=journal)
            running = client.submit(lint_spec(seed=1))
            worker.started.acquire(timeout=30)
            queued = [client.submit(lint_spec(seed=seed))
                      for seed in (2, 3)]
            # Drain while one job runs and two sit queued; only release
            # the worker once admission has observably closed, so the
            # backlog cannot sneak onto the worker first.
            thread._loop.call_soon_threadsafe(
                thread._server.request_drain)
            import time
            for _ in range(200):
                if client.health()["status"] == "draining":
                    break
                time.sleep(0.01)
            assert client.health()["status"] == "draining"
            worker.release.set()
            thread.stop()

        events = [json.loads(line) for line in open(journal)]
        # Compared on restart: the journal still holds the queued
        # submissions; the running job completed during the drain.
        done_ids = {e["id"] for e in events if e["event"] == "done"}
        assert running["job"]["id"] in done_ids

        thread, client = start_server(journal_path=journal)
        try:
            resumed_ids = {response["job"]["id"] for response in queued}
            for job_id in resumed_ids:
                job = client.wait(job_id, timeout=120)
                assert job["status"] == "done", job["error"]
                assert job["served_from"] == "pipeline"
        finally:
            thread.stop()
        # Nothing left to resume: the journal compacted to empty.
        thread, client = start_server(journal_path=journal)
        try:
            assert client.jobs()["jobs"] == []
        finally:
            thread.stop()

    def test_restart_resumes_job_journaled_with_retired_jobs_field(
            self, fresh_store):
        """Older servers journaled ``"jobs"`` in every spec; a job they
        queued still runs to completion after the upgrade."""
        spec = {"op": "atpg", "source": TINY, "top": "topm", "mut": "leaf",
                "frames": 1, "backtrack_limit": 10}
        journaled = dict(JobSpec.from_dict(spec).as_dict(), jobs=2)
        journal = fresh_store / "journal.jsonl"
        journal.write_text(json.dumps({
            "event": "submitted", "id": "job-1-0a1b2c3d",
            "fingerprint": "0a1b2c3d", "spec": journaled}) + "\n")
        thread, client = start_server(journal_path=str(journal))
        try:
            job = client.wait("job-1-0a1b2c3d", timeout=120)
            assert job["status"] == "done", job["error"]
            assert job["served_from"] == "pipeline"
            assert job["result"]["coverage_percent"] == 100.0
        finally:
            thread.stop()

    def test_draining_server_rejects_new_submissions(
            self, fresh_store, monkeypatch):
        worker = BlockingWorker()
        monkeypatch.setattr(server_mod, "execute_job", worker)
        thread, client = start_server()
        try:
            client.submit(lint_spec(seed=1))
            worker.started.acquire(timeout=30)
            thread._loop.call_soon_threadsafe(
                thread._server.request_drain)
            health = client.wait_until_up()
            assert health["status"] == "draining"
            with pytest.raises(ServeError) as exc:
                client.submit(lint_spec(seed=2))
            assert exc.value.status == 503
        finally:
            worker.release.set()
            thread.stop()


class TestListing:
    def test_list_and_status_filter(self, fresh_store):
        thread, client = start_server()
        try:
            done = client.submit(lint_spec())
            client.wait(done["job"]["id"], timeout=60)
            failed = client.submit(lint_spec(top="missing"))
            client.wait(failed["job"]["id"], timeout=60)

            listing = client.jobs()
            assert {job["id"] for job in listing["jobs"]} \
                == {done["job"]["id"], failed["job"]["id"]}
            assert "result" not in listing["jobs"][0]
            only_failed = client.jobs(status="failed")
            assert [job["id"] for job in only_failed["jobs"]] \
                == [failed["job"]["id"]]
        finally:
            thread.stop()
