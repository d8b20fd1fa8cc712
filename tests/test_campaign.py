"""Campaign subsystem: spec, DOE, evolutionary search, model, runner.

The statistical properties the report depends on are asserted directly:
every two-level fraction is balanced and pairwise-orthogonal (so main
effects are unconfounded), the evolutionary best-so-far history is
monotone under elitism, and the least-squares fit recovers planted
effects from synthetic trials.  The runner tests execute real (tiny)
ATPG trials through the serve worker entry point and check fingerprint
coalescing and store warm-serving end to end.
"""

import json
import os
import random
import sys

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    CampaignSpecError,
    EvolutionaryDSE,
    TrialDB,
    build_design,
    campaign_dir,
    fit_report,
    two_level_fraction,
)
from repro.campaign.design import code_level, design_matrix
from repro.campaign.model import solve_least_squares, trial_fitness, \
    trial_score
from repro.obs import get_registry

SRC = (
    "module leaf(input a, input b, input c, output y, output z);\n"
    "  wire t;\n"
    "  assign t = a & b;\n"
    "  assign y = t ^ c;\n"
    "  assign z = t | a;\n"
    "endmodule\n"
    "module top(input a, input b, input c, output y, output z);\n"
    "  leaf u0(.a(a), .b(b), .c(c), .y(y), .z(z));\n"
    "endmodule\n"
)

TOML_SPEC = ('name = "t1"\ndesign = "arm2"\nmut = "arm_alu"\n'
             "[factors]\nframes = [1, 2]\n")


def tiny_spec(**overrides):
    fields = {
        "name": "unit",
        "source": SRC,
        "top": "top",
        "mut": "leaf",
        "factors": {"backtrack_limit": [5, 10],
                    "fault_model": ["stuck", "transient"]},
        "base": {"frames": 1, "random_length": 4, "transient_sample": 8},
        "max_trials": 4,
    }
    fields.update(overrides)
    return CampaignSpec.from_dict(fields)


# -- spec --------------------------------------------------------------------


class TestSpec:
    def test_load_toml_and_json(self, tmp_path):
        as_json = tmp_path / "c.json"
        as_json.write_text(json.dumps({
            "name": "t2", "design": "arm2", "mut": "arm_alu",
            "factors": {"frames": [1, 2]}}))
        assert CampaignSpec.load(str(as_json)).name == "t2"

        if sys.version_info < (3, 11):
            pytest.skip("TOML specs need tomllib (Python 3.11+)")
        toml = tmp_path / "c.toml"
        toml.write_text(TOML_SPEC)
        spec = CampaignSpec.load(str(toml))
        assert spec.name == "t1" and spec.factors == {"frames": [1, 2]}

    def test_toml_without_tomllib_is_a_spec_error(self, tmp_path,
                                                  monkeypatch):
        toml = tmp_path / "c.toml"
        toml.write_text(TOML_SPEC)
        monkeypatch.setitem(sys.modules, "tomllib", None)
        with pytest.raises(CampaignSpecError, match="Python 3.11"):
            CampaignSpec.load(str(toml))

    def test_source_file_is_inlined(self, tmp_path):
        src = tmp_path / "d.v"
        src.write_text(SRC)
        spec = CampaignSpec.from_dict({
            "name": "t", "source_file": str(src), "mut": "leaf",
            "factors": {"frames": [1, 2]}})
        assert spec.source == SRC

    @pytest.mark.parametrize("mutation, message", [
        ({"name": ""}, "name"),
        ({"name": "a/b"}, "separators"),
        ({"design": "arm2"}, "exactly one"),
        ({"mode": "nope"}, "mode"),
        ({"factors": {}}, "factors"),
        ({"factors": {"bogus": [1, 2]}}, "unknown factor"),
        ({"factors": {"frames": [1]}}, ">= 2 levels"),
        ({"factors": {"frames": [1, 1]}}, "duplicate"),
        ({"mut": None}, "mut"),
        ({"replicates": 0}, "replicates"),
        ({"population": 1}, "population"),
        ({"mutation_rate": 1.5}, "mutation_rate"),
        ({"elite": 8}, "elite"),
        ({"max_trials": 0}, "max_trials"),
        ({"base": {"backtrack_limit": 7}}, "both fixed"),
        ({"unknown_knob": 3}, "unknown campaign fields"),
    ])
    def test_validation_errors(self, mutation, message):
        fields = {
            "name": "ok", "source": SRC, "mut": "leaf",
            "factors": {"backtrack_limit": [5, 10]},
        }
        fields.update(mutation)
        with pytest.raises(CampaignSpecError, match=message):
            CampaignSpec.from_dict(fields)

    def test_ordered_factors_is_declaration_independent(self):
        a = tiny_spec(base={}, factors={"frames": [1, 2],
                                        "backtrack_limit": [5, 10]})
        b = tiny_spec(base={}, factors={"backtrack_limit": [5, 10],
                                        "frames": [1, 2]})
        assert list(a.ordered_factors()) == list(b.ordered_factors())


# -- factorial design --------------------------------------------------------


class TestDesign:
    @pytest.mark.parametrize("k, runs", [
        (3, 8), (4, 8), (5, 8), (7, 8), (4, 16), (6, 16), (3, 4),
    ])
    def test_fraction_balance_and_orthogonality(self, k, runs):
        rows = two_level_fraction(k, runs)
        assert len(rows) == runs
        assert len(set(rows)) == runs  # distinct runs
        cols = list(zip(*rows))
        for col in cols:
            assert sum(col) == 0, "column not balanced"
        for i in range(k):
            for j in range(i + 1, k):
                dot = sum(a * b for a, b in zip(cols[i], cols[j]))
                assert dot == 0, f"columns {i},{j} not orthogonal"

    def test_fraction_rejects_bad_runs(self):
        with pytest.raises(ValueError, match="power of two"):
            two_level_fraction(3, 6)
        with pytest.raises(ValueError, match="full factorial"):
            two_level_fraction(2, 8)
        with pytest.raises(ValueError, match="alias"):
            two_level_fraction(8, 4)  # 4 runs cannot host 8 factors

    def test_build_design_two_level_respects_cap(self):
        factors = {f"f{i}": [0, 1] for i in range(5)}
        # 2^5 = 32 full; cap 8 -> a 2^(5-2) fraction.
        design = build_design({"backtrack_limit": [1, 2],
                               "frames": [1, 2],
                               "random_length": [4, 8],
                               "transient_sample": [8, 16],
                               "use_piers": [False, True]}, 8)
        assert len(design) == 8
        del factors
        coded = design_matrix(design, {
            "backtrack_limit": [1, 2], "frames": [1, 2],
            "random_length": [4, 8], "transient_sample": [8, 16],
            "use_piers": [False, True]})
        for col in zip(*coded):
            assert sum(col) == 0

    def test_build_design_full_when_it_fits(self):
        design = build_design({"frames": [1, 2],
                               "backtrack_limit": [5, 10]}, 16)
        assert len(design) == 4
        assert len({tuple(sorted(d.items())) for d in design}) == 4

    def test_build_design_mixed_level_subsample_is_seeded(self):
        factors = {"frames": [1, 2, 3], "backtrack_limit": [5, 10]}
        full = build_design(factors, None)
        assert len(full) == 6
        a = build_design(factors, 4, seed=1)
        b = build_design(factors, 4, seed=1)
        assert a == b and len(a) == 4
        as_keys = {tuple(sorted(d.items())) for d in full}
        assert {tuple(sorted(d.items())) for d in a} <= as_keys

    def test_code_level_spacing(self):
        assert code_level(1, [1, 2]) == -1.0
        assert code_level(2, [1, 2]) == 1.0
        assert code_level(2, [1, 2, 3]) == 0.0


# -- evolutionary search -----------------------------------------------------


def toy_space():
    return {"a": [0, 1, 2, 3], "b": [0, 1, 2, 3], "c": [0, 1]}


def toy_fitness(configs):
    # Peak at a=3, b=0, c=1; deterministic, no noise.
    return [cfg["a"] - cfg["b"] + 10 * cfg["c"] for cfg in configs]


class TestEvolve:
    def test_history_is_monotone_with_elitism(self):
        calls = []

        def evaluate(configs):
            calls.append(len(configs))
            return toy_fitness(configs)

        dse = EvolutionaryDSE(toy_space(), evaluate, population=6,
                              generations=8, elite=1, seed=5)
        result = dse.run()
        assert len(result.history) == 8
        assert all(b >= a for a, b in zip(result.history,
                                          result.history[1:]))
        assert result.best_fitness == max(result.history)
        # Batched evaluation: one evaluate_many call per generation at
        # most, and never more genomes than the population.
        assert len(calls) <= 8
        assert all(n <= 6 for n in calls)
        assert result.evaluations == sum(calls)

    def test_finds_the_optimum_on_the_toy_space(self):
        dse = EvolutionaryDSE(toy_space(), toy_fitness, population=8,
                              generations=12, elite=2, seed=3)
        result = dse.run()
        assert result.best_fitness == 13  # a=3, b=0, c=1
        assert result.best_config == {"a": 3, "b": 0, "c": 1}

    def test_same_seed_same_trajectory(self):
        runs = [EvolutionaryDSE(toy_space(), toy_fitness, population=6,
                                generations=5, seed=11).run()
                for _ in range(2)]
        assert runs[0].history == runs[1].history
        assert runs[0].best_config == runs[1].best_config

    def test_cache_prevents_reevaluation(self):
        seen = []

        def evaluate(configs):
            seen.extend(tuple(sorted(c.items())) for c in configs)
            return toy_fitness(configs)

        EvolutionaryDSE(toy_space(), evaluate, population=6,
                        generations=10, seed=2).run()
        assert len(seen) == len(set(seen))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="population"):
            EvolutionaryDSE(toy_space(), toy_fitness, population=1)
        with pytest.raises(ValueError, match="elite"):
            EvolutionaryDSE(toy_space(), toy_fitness, population=4,
                            elite=4)
        with pytest.raises(RuntimeError, match="fitnesses"):
            EvolutionaryDSE(toy_space(), lambda cfgs: [1.0],
                            population=4, generations=1, seed=0).run()


# -- regression model --------------------------------------------------------


class TestModel:
    def test_solver_exact_system(self):
        rows = [[1.0, -1.0], [1.0, 1.0]]
        beta = solve_least_squares(rows, [1.0, 5.0])
        assert beta == pytest.approx([3.0, 2.0])

    def test_solver_zero_pivot_degrades(self):
        # Second column constant-zero: its coefficient must be 0.
        rows = [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
        beta = solve_least_squares(rows, [2.0, 2.0, 2.0])
        assert beta == pytest.approx([2.0, 0.0])

    def test_trial_score_by_fault_model(self):
        assert trial_score({"coverage": 80.0, "config": {}}) == 80.0
        assert trial_score({"seu_coverage": 30.0,
                            "config": {"fault_model": "transient"}}) == 30.0
        assert trial_score({"coverage": 80.0, "seu_coverage": 40.0,
                            "config": {"fault_model": "both"}}) == 60.0
        assert trial_score({"coverage": 80.0, "error": "boom",
                            "config": {}}) is None
        assert trial_fitness({"coverage": 50.0, "cost_s": 2.0,
                              "config": {}}) == 25.0
        assert trial_fitness({"error": "x", "config": {}}) == 0.0

    def test_fit_recovers_planted_effects(self):
        factors = {"backtrack_limit": [10, 100], "frames": [1, 2]}
        design = build_design(factors, None)
        rows = []
        for cfg in design * 3:  # replicated full factorial
            x1 = code_level(cfg["backtrack_limit"],
                            factors["backtrack_limit"])
            x2 = code_level(cfg["frames"], factors["frames"])
            rows.append({
                "config": dict(cfg),
                "coverage": 50.0 + 8.0 * x1 + 2.0 * x2,
                "cost_s": 4.0 + 1.5 * x1,
                "error": None,
            })
        report = fit_report(rows, factors)
        assert report.trials == len(rows)
        by_name = {e["factor"]: e for e in report.effects}
        assert by_name["backtrack_limit"]["coverage_effect"] == \
            pytest.approx(8.0)
        assert by_name["backtrack_limit"]["cost_effect"] == \
            pytest.approx(1.5)
        assert by_name["frames"]["coverage_effect"] == pytest.approx(2.0)
        # Ranked by |coverage effect|.
        assert report.effects[0]["factor"] == "backtrack_limit"
        assert report.r2_coverage == pytest.approx(1.0)
        assert report.recommended is not None

    def test_fit_skips_errored_and_off_design_rows(self):
        factors = {"frames": [1, 2]}
        rows = [
            {"config": {"frames": 1}, "coverage": 10.0, "error": None},
            {"config": {"frames": 2}, "coverage": 20.0, "error": None},
            {"config": {"frames": 9}, "coverage": 99.0, "error": None},
            {"config": {"frames": 1}, "coverage": None, "error": "boom"},
        ]
        report = fit_report(rows, factors)
        assert report.trials == 2

    def test_fit_empty(self):
        report = fit_report([], {"frames": [1, 2]})
        assert report.trials == 0 and report.effects == []


# -- trial DB ----------------------------------------------------------------


class TestTrialDB:
    def test_round_trip_and_torn_tail(self, tmp_path):
        db = TrialDB(str(tmp_path / "trials.jsonl"))
        db.append({"phase": "factorial", "config": {"frames": 1}})
        db.append({"phase": "evolutionary", "error": "boom",
                   "served_from": "coalesced"})
        with open(db.path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')  # crashed writer
        rows = db.rows()
        assert len(rows) == 2
        assert all("ts" in row for row in rows)
        summary = db.summary()
        assert summary["trials"] == 2
        assert summary["failed"] == 1
        assert summary["coalesced"] == 1
        assert summary["phases"] == {"factorial": 1, "evolutionary": 1}

    def test_missing_file_is_empty(self, tmp_path):
        db = TrialDB(str(tmp_path / "absent.jsonl"))
        assert db.rows() == []
        assert db.summary()["trials"] == 0

    def test_campaign_dir_is_under_the_cache(self):
        assert campaign_dir("x").endswith(os.path.join("campaigns", "x"))


# -- runner ------------------------------------------------------------------


class TestRunner:
    def test_schedule_is_deterministic(self):
        spec = tiny_spec()
        factors = spec.ordered_factors()
        schedules = [
            [CampaignRunner(s, local=True).job_spec_dict(cfg)
             for cfg in build_design(factors, s.max_trials, s.seed)]
            for s in (tiny_spec(), tiny_spec())
        ]
        assert schedules[0] == schedules[1]
        # every trial inherits the campaign seed
        assert all(d["seed"] == spec.seed for d in schedules[0])

    def test_local_end_to_end_with_coalescing(self):
        get_registry().reset()
        spec = tiny_spec(replicates=2)
        runner = CampaignRunner(spec, local=True)
        summary = runner.run()
        assert summary["factorial"]["points"] == 4
        assert summary["factorial"]["trials"] == 8
        assert summary["factorial"]["failed"] == 0
        rows = runner.db.rows()
        assert len(rows) == 8
        # The replicate of each point coalesces onto the first execution.
        served = [row["served_from"] for row in rows]
        assert served.count("pipeline") == 4
        assert served.count("coalesced") == 4
        snap = get_registry().snapshot()
        assert snap["campaign.trials_run"]["value"] == 8
        assert snap["campaign.trials_coalesced"]["value"] == 4
        assert snap["campaign.seu_injections"]["value"] > 0
        # Report fits both factors and recommends an observed config.
        report = summary["report"]
        assert len(report["effects"]) == 2
        assert report["recommended"] is not None

    def test_local_trials_are_charged_their_report_cpu(self, monkeypatch):
        """As served trials are: a trial costs its ATPG report's CPU
        seconds, not the whole worker span, which also parsed, extracted
        and synthesized for it (or not, on a warm worker)."""
        import repro.serve.worker as worker_module

        execute = worker_module.execute_job
        outcomes = []

        def recording(spec, **kwargs):
            outcomes.append(execute(spec, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(worker_module, "execute_job", recording)
        runner = CampaignRunner(tiny_spec(), local=True)
        runner.run()
        assert len(outcomes) == 4
        assert [row["cost_s"] for row in runner.db.rows()] == [
            round(outcome["result"]["cpu_seconds"], 6)
            for outcome in outcomes]

    def test_second_run_is_store_warmed(self):
        spec = tiny_spec()
        CampaignRunner(spec, local=True).run()
        runner = CampaignRunner(spec, local=True)
        runner.run()
        fresh = [row for row in runner.db.rows()[4:]
                 if row["served_from"] == "pipeline"]
        assert fresh == []  # every trial warm-served from the store

    def test_evolutionary_phase_records_trials(self):
        spec = tiny_spec(mode="evolutionary", population=3, generations=2,
                         seed=9)
        runner = CampaignRunner(spec, local=True)
        summary = runner.run()
        evo = summary["evolutionary"]
        assert evo["generations"] == 2
        assert len(evo["history"]) == 2
        assert evo["history"][0] <= evo["history"][1] or \
            evo["history"][0] == pytest.approx(evo["history"][1])
        assert all(row["phase"] == "evolutionary"
                   for row in runner.db.rows())
        assert set(evo["best_config"]) == set(spec.factors)

    def test_pool_trials_keep_their_metrics(self, monkeypatch):
        """Trials run in a worker pool fold their counters back into this
        process's registry, where in-process trials count directly;
        ``jobs=0`` means all cores, as every other ``--jobs`` does."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")  # every run executes
        names = ("fault_sim.calls", "fault_sim.sequences",
                 "atpg.transient.injections")
        counts = {}
        for jobs in (1, 2, 0):
            get_registry().reset()
            CampaignRunner(tiny_spec(), local=True, jobs=jobs).run()
            snap = get_registry().snapshot()
            counts[jobs] = [snap[name]["value"] if name in snap else 0
                            for name in names]
        assert all(counts[1]), counts
        assert counts[2] == counts[1]
        assert counts[0] == counts[1]

    def test_invalid_trial_spec_records_error(self):
        spec = tiny_spec(base={},
                         factors={"frames": [0, -1],
                                  "backtrack_limit": [5, 10]})
        runner = CampaignRunner(spec, local=True)
        rows = runner.run_trials(build_design(spec.ordered_factors(),
                                              None), "factorial")
        assert all(row["error"] for row in rows)
        assert all(row["served_from"] == "error" for row in rows)
        assert all(row["fitness"] == 0.0 for row in rows)


# -- client retry ------------------------------------------------------------


class TestSubmitRetry:
    def _client(self, outcomes):
        from repro.serve.client import ServeClient

        client = ServeClient("http://127.0.0.1:1")
        calls = {"n": 0}

        def fake_submit(spec, traceparent=None):
            outcome = outcomes[min(calls["n"], len(outcomes) - 1)]
            calls["n"] += 1
            if isinstance(outcome, Exception):
                raise outcome
            return outcome
        client.submit = fake_submit
        return client, calls

    def test_retries_429_until_success(self):
        from repro.serve.client import ServeError

        ok = {"job": {"id": "j1"}}
        client, calls = self._client(
            [ServeError(429, "busy", retry_after=1),
             ServeError(429, "busy"), ok])
        sleeps = []
        result = client.submit_with_retry(
            {}, rng=random.Random(0), sleep=sleeps.append)
        assert result is ok
        assert calls["n"] == 3
        assert len(sleeps) == 2
        # Retry-After floors the first delay; everything stays capped.
        assert sleeps[0] >= 1.0
        assert all(s <= 10.0 for s in sleeps)

    def test_backoff_grows_and_is_capped(self):
        from repro.serve.client import ServeError

        client, _calls = self._client(
            [ServeError(429, "busy")] * 8 + [{"job": {"id": "j"}}])
        sleeps = []
        client.submit_with_retry({}, rng=random.Random(1),
                                 sleep=sleeps.append, base_delay=1.0,
                                 max_delay=4.0)
        assert len(sleeps) == 8
        assert all(s <= 4.0 for s in sleeps)
        assert max(sleeps) > sleeps[0]  # exponential growth before cap

    def test_gives_up_after_max_retries(self):
        from repro.serve.client import ServeError

        client, calls = self._client([ServeError(429, "busy")])
        with pytest.raises(ServeError):
            client.submit_with_retry({}, max_retries=3,
                                     rng=random.Random(0),
                                     sleep=lambda _s: None)
        assert calls["n"] == 4  # initial attempt + 3 retries

    def test_non_429_raises_immediately(self):
        from repro.serve.client import ServeError

        client, calls = self._client([ServeError(400, "bad spec")])
        with pytest.raises(ServeError, match="400"):
            client.submit_with_retry({}, rng=random.Random(0),
                                     sleep=lambda _s: None)
        assert calls["n"] == 1


# -- CLI ---------------------------------------------------------------------


class TestCampaignCli:
    def test_run_status_report(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "unit.json"
        spec_path.write_text(json.dumps({
            "name": "cli-unit",
            "source_file": None,
            "source": SRC,
            "top": "top",
            "mut": "leaf",
            "max_trials": 4,
            "factors": {"backtrack_limit": [5, 10],
                        "fault_model": ["stuck", "transient"]},
            "base": {"frames": 1, "random_length": 4,
                     "transient_sample": 8},
        }))
        assert main(["campaign", "run", str(spec_path), "--local"]) == 0
        out = capsys.readouterr().out
        assert "campaign cli-unit" in out
        assert "Factor effects" in out
        assert "recommended config" in out

        assert main(["campaign", "status", "cli-unit"]) == 0
        out = capsys.readouterr().out
        assert "4 trials" in out

        # report works from the bare name via the saved resolved spec.
        assert main(["campaign", "report", "cli-unit", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trials"] == 4
        assert len(report["effects"]) == 2

    def test_profile_surfaces_campaign_counters(self):
        from repro.cli import _PROFILE_METRIC_PREFIXES

        assert "campaign." in _PROFILE_METRIC_PREFIXES
