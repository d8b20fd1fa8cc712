"""The persistent artifact store: fingerprints, robustness, equivalence.

The store must be invisible except for speed: every test here checks
either that a warm read reproduces the cold computation exactly, or that
a damaged/disabled store degrades to a recompute instead of an error.
"""

import os
import pickle
import threading

import pytest

import repro
from repro.cli import main
from repro.core.factor import Factor
from repro.store import (
    MISS,
    STORE_SCHEMA,
    ArtifactStore,
    atpg_options_fingerprint,
    fingerprint_obj,
    fingerprint_text,
    get_store,
    store_disabled,
)

SMALL_CHIP = """
module leaf(
  input [3:0] a,
  input [1:0] sel,
  output reg [3:0] y
);
  always @(*)
    case (sel)
      2'b00: y = a;
      2'b01: y = a >> 1;
      default: y = 4'd0;
    endcase
endmodule

module chip(
  input clk,
  input [3:0] data,
  input [1:0] ctl,
  output [3:0] out
);
  reg [1:0] ctl_q;
  always @(posedge clk)
    ctl_q <= (ctl == 2'b11) ? 2'b00 : ctl;
  leaf u_leaf(.a(data), .sel(ctl_q), .y(out));
endmodule
"""


@pytest.fixture
def store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    return get_store()


class TestFingerprints:
    def test_text_fingerprint_stable_and_distinct(self):
        assert fingerprint_text("abc") == fingerprint_text("abc")
        assert fingerprint_text("abc") != fingerprint_text("abd")

    def test_canonical_obj_fingerprint_ignores_dict_order(self):
        assert (fingerprint_obj({"a": 1, "b": [2, 3]})
                == fingerprint_obj({"b": [2, 3], "a": 1}))

    def test_design_fingerprint_tracks_source_text(self):
        fp1 = Factor.from_verilog(SMALL_CHIP, top="chip").design.fingerprint
        fp2 = Factor.from_verilog(SMALL_CHIP, top="chip").design.fingerprint
        changed = SMALL_CHIP.replace("2'b11", "2'b10")
        fp3 = Factor.from_verilog(changed, top="chip").design.fingerprint
        assert fp1 == fp2
        assert fp1 != fp3

    def test_atpg_options_fingerprint_tracks_options(self):
        from repro.atpg.engine import AtpgOptions

        base = atpg_options_fingerprint(AtpgOptions())
        assert base == atpg_options_fingerprint(AtpgOptions())
        assert base != atpg_options_fingerprint(
            AtpgOptions(backtrack_limit=7))
        assert base != atpg_options_fingerprint(
            AtpgOptions(fault_sim_backend="interpreted"))

    def test_key_fingerprint_separates_stages_and_keys(self, store):
        key = {"design": "d", "module": "m"}
        assert (store.key_fingerprint("extract", key)
                != store.key_fingerprint("transform", key))
        assert (store.key_fingerprint("extract", key)
                != store.key_fingerprint("extract", {**key, "module": "x"}))


class TestRoundTrip:
    def test_miss_then_hit(self, store):
        key = {"k": 1}
        assert store.get("ast", key) is MISS
        assert store.put("ast", key, {"payload": [1, 2, None]})
        assert store.get("ast", key) == {"payload": [1, 2, None]}

    def test_none_payload_is_storable(self, store):
        store.put("ast", {"k": "none"}, None)
        assert store.get("ast", {"k": "none"}) is None

    def test_entry_layout(self, store):
        store.put("extract", {"k": 2}, "x")
        path = store.entry_path("extract", {"k": 2})
        assert os.path.exists(path)
        rel = os.path.relpath(path, store.root)
        parts = rel.split(os.sep)
        assert parts[0] == f"v{STORE_SCHEMA}"
        assert parts[1] == "extract"
        assert parts[2] == parts[3][:2]
        assert parts[3].endswith(".pkl")


class TestRobustness:
    def test_corrupt_entry_degrades_to_miss_and_unlinks(self, store):
        key = {"k": "corrupt"}
        store.put("synth", key, [1, 2, 3])
        path = store.entry_path("synth", key)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle at all")
        assert store.get("synth", key) is MISS
        assert not os.path.exists(path)

    def test_truncated_entry_degrades_to_miss(self, store):
        key = {"k": "trunc"}
        store.put("synth", key, list(range(1000)))
        path = store.entry_path("synth", key)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        assert store.get("synth", key) is MISS

    def test_version_skew_degrades_to_miss(self, store):
        key = {"k": "skew"}
        store.put("synth", key, "payload")
        path = store.entry_path("synth", key)
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
        envelope["repro"] = "0.0.0-other"
        with open(path, "wb") as handle:
            pickle.dump(envelope, handle)
        assert store.get("synth", key) is MISS

    def test_schema_skew_degrades_to_miss(self, store):
        key = {"k": "schema"}
        store.put("synth", key, "payload")
        path = store.entry_path("synth", key)
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
        envelope["schema"] = STORE_SCHEMA + 1
        with open(path, "wb") as handle:
            pickle.dump(envelope, handle)
        assert store.get("synth", key) is MISS

    def test_unwritable_root_latches_and_never_raises(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        store = ArtifactStore(root=str(blocked / "sub"))
        assert not store.put("ast", {"k": 1}, "x")
        assert store._broken
        assert not store.put("ast", {"k": 2}, "y")
        assert store.get("ast", {"k": 1}) is MISS

    def test_unpicklable_payload_is_skipped(self, store):
        assert not store.put("ast", {"k": "gen"}, (i for i in range(3)))
        assert store.get("ast", {"k": "gen"}) is MISS

    def test_concurrent_writers_and_readers(self, store):
        key = {"k": "race"}
        payload = {"data": list(range(200))}
        errors = []

        def writer():
            try:
                for _ in range(50):
                    store.put("codegen", key, payload)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def reader():
            try:
                for _ in range(50):
                    got = store.get("codegen", key)
                    assert got is MISS or got == payload
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.get("codegen", key) == payload


class TestEnvironmentKnobs:
    def test_no_cache_disables_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert store_disabled()
        store = get_store()
        assert not store.enabled
        assert not store.put("ast", {"k": 1}, "x")
        assert store.get("ast", {"k": 1}) is MISS
        assert not (tmp_path / "cache").exists()

    def test_no_cache_zero_means_enabled(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_NO_CACHE", "0")
        assert not store_disabled()
        assert get_store().enabled

    def test_pipeline_with_no_cache_writes_nothing(self, tmp_path,
                                                   monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        factor = Factor.from_verilog(SMALL_CHIP, top="chip")
        factor.analyze("leaf")
        assert not cache.exists()


class TestMaintenance:
    def test_stats_clear(self, store):
        store.put("ast", {"k": 1}, "a" * 100)
        store.put("extract", {"k": 2}, "b" * 100)
        stats = store.stats()
        assert stats["ast"]["entries"] == 1
        assert stats["extract"]["entries"] == 1
        assert stats["total"]["entries"] == 2
        assert stats["total"]["bytes"] > 0
        assert store.clear() == 2
        assert store.stats()["total"]["entries"] == 0

    def test_gc_evicts_oldest_down_to_cap(self, store):
        for i in range(5):
            store.put("ast", {"k": i}, "x" * 1000)
            path = store.entry_path("ast", {"k": i})
            os.utime(path, (i, i))  # deterministic mtime order
        sizes = [size for _s, _p, size, _m in store._entries()]
        cap = sum(sizes) - 1  # forces at least one eviction
        removed, remaining = store.gc(cap)
        assert removed >= 1
        assert remaining <= cap
        # Oldest entries went first: the newest key must survive.
        assert store.get("ast", {"k": 4}) is not MISS
        assert store.get("ast", {"k": 0}) is MISS

    def test_gc_noop_when_under_cap(self, store):
        store.put("ast", {"k": 1}, "x")
        removed, remaining = store.gc(10 ** 9)
        assert removed == 0
        assert store.get("ast", {"k": 1}) == "x"


class TestCacheCli:
    def test_stats_clear_gc(self, store, capsys):
        store.put("ast", {"k": 1}, "x" * 500)
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "ast" in out and "total" in out
        assert main(["cache", "gc", "--max-size", "1K"]) == 0
        assert "evicted" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert store.stats()["total"]["entries"] == 0

    def test_stats_disabled(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert main(["cache", "stats"]) == 0
        assert "disabled" in capsys.readouterr().out

    def test_bad_size_rejected(self, store):
        from repro.cli import _parse_size

        assert _parse_size("512M") == 512 * 1024 ** 2
        assert _parse_size("2G") == 2 * 1024 ** 3
        assert _parse_size("100KiB") == 100 * 1024
        assert _parse_size("123") == 123
        with pytest.raises(ValueError):
            _parse_size("many bytes")


def _atpg_options():
    from repro.atpg.engine import AtpgOptions

    return AtpgOptions(max_frames=2, random_sequences=2,
                       random_sequence_length=8)


def _run_pipeline():
    factor = Factor.from_verilog(SMALL_CHIP, top="chip")
    result = factor.analyze("leaf")
    report = factor.generate_tests(result, _atpg_options())
    return result, report


_DETERMINISTIC_FIELDS = ("total_faults", "detected", "untestable", "aborted",
                         "num_tests", "num_vectors")


class TestDifferential:
    """Warm runs must be bit-identical to cold; cold must equal uncached."""

    def test_cached_equals_uncached(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        _result_u, report_u = _run_pipeline()
        monkeypatch.delenv("REPRO_NO_CACHE")
        result_c, report_c = _run_pipeline()    # cold: publishes
        result_w, report_w = _run_pipeline()    # warm: loads

        for field in _DETERMINISTIC_FIELDS:
            assert getattr(report_u, field) == getattr(report_c, field)
        assert report_u.coverage_percent == report_c.coverage_percent
        assert report_u.efficiency_percent == report_c.efficiency_percent
        assert report_u.abort_reasons == report_c.abort_reasons

        # Warm is the stored cold artifact: identical including timings.
        assert report_w.as_row() == report_c.as_row()
        assert report_w.record is not None
        assert (len(result_w.transformed.netlist.gates)
                == len(result_c.transformed.netlist.gates))
        assert (result_w.extraction.tasks_run
                == result_c.extraction.tasks_run)

    def test_warm_run_hits_every_stage(self, tmp_path, monkeypatch):
        from repro.obs import get_registry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        _run_pipeline()
        registry = get_registry()
        registry.reset()
        _run_pipeline()
        snapshot = registry.snapshot()
        for stage in ("ast", "extract", "transform", "atpg"):
            assert snapshot[f"store.{stage}.hits"]["value"] >= 1, stage
            assert f"store.{stage}.misses" not in snapshot

    def test_cold_run_writes_only_pipeline_stages(self, tmp_path,
                                                  monkeypatch):
        """A cold analysis plus ATPG publishes the parse, extract,
        transform, codegen and report stages and nothing else: the fault
        simulator's kernel rows are built in process, never stored."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        _run_pipeline()
        stages = set(get_store().stats()) - {"total"}
        assert stages == {"ast", "atpg", "codegen", "extract", "transform"}

    def test_corrupt_store_still_produces_report(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        _, report_cold = _run_pipeline()
        # Vandalize every entry in the store.
        for dirpath, _dirs, files in os.walk(str(tmp_path / "cache")):
            for name in files:
                with open(os.path.join(dirpath, name), "wb") as handle:
                    handle.write(b"\x80garbage")
        _, report_again = _run_pipeline()
        for field in _DETERMINISTIC_FIELDS:
            assert (getattr(report_again, field)
                    == getattr(report_cold, field))


class TestVersionInKeys:
    def test_version_bump_changes_addresses(self, store, monkeypatch):
        fp_now = store.key_fingerprint("ast", {"k": 1})
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert store.key_fingerprint("ast", {"k": 1}) != fp_now
