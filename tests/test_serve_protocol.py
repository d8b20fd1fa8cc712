"""Job model: spec validation, fingerprints, and wire round-trips."""

import pytest

from repro.serve.protocol import (
    BUNDLED_DESIGNS,
    OPERATIONS,
    Job,
    JobSpec,
    ProtocolError,
    bundled_source,
)

TINY = "module t(input a, output y); assign y = ~a; endmodule\n"


def _spec(**overrides) -> JobSpec:
    fields = {"op": "lint", "source": TINY}
    fields.update(overrides)
    return JobSpec(**fields).validate()


class TestValidate:
    def test_accepts_every_operation(self):
        for op in OPERATIONS:
            spec = _spec(op=op, mut="t", target="y")
            assert spec.op == op

    def test_explain_requires_target(self):
        with pytest.raises(ProtocolError, match="target"):
            _spec(op="explain")
        spec = _spec(op="explain", target="y")
        assert spec.target == "y"

    def test_target_enters_fingerprint(self):
        base = _spec(op="explain", target="y")
        other = _spec(op="explain", target="a")
        assert base.fingerprint() != other.fingerprint()

    def test_rejects_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            _spec(op="synthesize")

    def test_needs_source_or_design(self):
        with pytest.raises(ProtocolError, match="source"):
            JobSpec(op="lint").validate()

    def test_source_and_design_are_exclusive(self):
        with pytest.raises(ProtocolError, match="exclusive"):
            JobSpec(op="lint", source=TINY, design="arm2").validate()

    def test_bundled_design_resolves_to_source(self):
        spec = JobSpec(op="lint", design="arm2").validate()
        assert spec.design is None
        assert spec.source == bundled_source("arm2")
        assert "module" in spec.source

    def test_unknown_bundled_design(self):
        with pytest.raises(ProtocolError, match="unknown bundled design"):
            JobSpec(op="lint", design="nonesuch").validate()
        assert "arm2" in BUNDLED_DESIGNS

    def test_analysis_ops_require_mut(self):
        for op in ("analyze", "testability", "atpg"):
            with pytest.raises(ProtocolError, match="requires 'mut'"):
                _spec(op=op)

    def test_rejects_bad_mode_backend_and_ints(self):
        with pytest.raises(ProtocolError, match="bad mode"):
            _spec(mode="fast")
        with pytest.raises(ProtocolError, match="bad backend"):
            _spec(backend="gpu")
        with pytest.raises(ProtocolError, match="must be an integer"):
            _spec(frames="4")
        with pytest.raises(ProtocolError, match="must be an integer"):
            _spec(seed=True)
        with pytest.raises(ProtocolError, match=">= 1"):
            _spec(frames=0)
        with pytest.raises(ProtocolError, match="deadline_s"):
            _spec(deadline_s=-1)


class TestFingerprint:
    def test_stable_and_hex(self):
        a, b = _spec(), _spec()
        assert a.fingerprint() == b.fingerprint()
        int(a.fingerprint(), 16)

    def test_uploaded_source_equals_bundled_name(self):
        by_name = JobSpec(op="lint", design="arm2").validate()
        by_text = JobSpec(op="lint",
                          source=bundled_source("arm2")).validate()
        assert by_name.fingerprint() == by_text.fingerprint()

    def test_semantic_fields_change_it(self):
        base = _spec().fingerprint()
        assert _spec(seed=7).fingerprint() != base
        assert _spec(strict=True).fingerprint() != base
        assert _spec(source=TINY + "\n// changed\n").fingerprint() != base

    def test_admission_knobs_do_not_change_it(self):
        assert _spec(deadline_s=5.0).fingerprint() == _spec().fingerprint()


class TestWireFormat:
    def test_round_trip(self):
        spec = _spec(op="atpg", mut="t", frames=2, seed=17)
        clone = JobSpec.from_dict(spec.as_dict()).validate()
        assert clone.fingerprint() == spec.fingerprint()

    def test_rejects_unknown_fields(self):
        with pytest.raises(ProtocolError, match="unknown request fields"):
            JobSpec.from_dict({"op": "lint", "source": TINY, "prio": 9})

    def test_journal_replay_drops_retired_jobs_field(self):
        # Older servers journaled ``jobs`` (a PODEM fork-pool size) in
        # every spec; replay accepts those records, the wire does not.
        journaled = dict(_spec(op="atpg", mut="t").as_dict(), jobs=2)
        with pytest.raises(ProtocolError, match="unknown request fields"):
            JobSpec.from_dict(dict(journaled))
        spec = JobSpec.from_journal(journaled).validate()
        assert spec.fingerprint() == _spec(op="atpg", mut="t").fingerprint()
        assert "jobs" not in spec.as_dict()

    def test_rejects_non_object_and_missing_op(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            JobSpec.from_dict(["lint"])
        with pytest.raises(ProtocolError, match="'op'"):
            JobSpec.from_dict({"source": TINY})


class TestJob:
    def test_summary_omits_result_body(self):
        spec = _spec(op="atpg", mut="t")
        job = Job(job_id="job-1-abc", spec=spec,
                  fingerprint=spec.fingerprint(),
                  result={"coverage_percent": 92.0})
        summary = job.summary()
        assert "result" not in summary
        assert summary["id"] == "job-1-abc"
        assert summary["op"] == "atpg"
        assert job.as_dict()["result"] == {"coverage_percent": 92.0}
