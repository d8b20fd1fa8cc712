"""Campaign execution: factor configs -> batched trials -> trial DB.

Every trial is one ``atpg`` job spec.  With a server URL the runner
submits whole batches through :class:`~repro.serve.client.ServeClient`
(admission 429s are absorbed by capped backoff, and identical trials —
replicates, evolutionary re-visits — coalesce onto one in-flight
execution server-side, or warm-serve from the store).  Without a server
the local fallback executes through the same worker entry point the
server uses, deduplicating by request fingerprint in-run and memoizing
finished trials in the artifact store (stage ``campaign``), optionally
fanned out over forked workers by :func:`repro.jobs.map_runs`.

Every obtained trial — fresh, coalesced or warm — appends one row to
the campaign's append-only :class:`~repro.campaign.db.TrialDB`, which
``repro campaign status``/``report`` read back.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign.db import TrialDB
from repro.campaign.design import build_design
from repro.campaign.evolve import EvolutionaryDSE
from repro.campaign.model import fit_report, trial_fitness
from repro.campaign.spec import CampaignSpec
from repro.jobs import map_runs

#: served_from values that did not cost a fresh pipeline execution.
_DEDUPED = ("coalesced", "store", "cache")


class CampaignRunner:
    """Runs one campaign spec end to end."""

    def __init__(self, spec: CampaignSpec, server: Optional[str] = None,
                 local: bool = False, jobs: int = 1,
                 trial_timeout: float = 600.0):
        self.spec = spec
        self.server = None if local else (server or spec.server)
        self.jobs = jobs
        self.trial_timeout = trial_timeout
        self.db = TrialDB.for_campaign(spec.name)
        self._client = None
        self._local_seen: Dict[str, Dict[str, Any]] = {}

    # -- trial construction ------------------------------------------------

    def job_spec_dict(self, config: Dict[str, Any]) -> Dict[str, Any]:
        """The job-spec dict one factor configuration resolves to."""
        s = self.spec
        spec: Dict[str, Any] = {"op": "atpg", "seed": s.seed}
        if s.design is not None:
            spec["design"] = s.design
        else:
            spec["source"] = s.source
        if s.top is not None:
            spec["top"] = s.top
        spec["mut"] = config.get("mut", s.mut)
        spec.update(s.base)
        for name, value in config.items():
            if name != "mut":
                spec[name] = value
        return spec

    def _fingerprint(self, spec_dict: Dict[str, Any]) -> str:
        from repro.serve.protocol import JobSpec

        return JobSpec.from_dict(dict(spec_dict)).validate().fingerprint()

    # -- execution ---------------------------------------------------------

    def run_trials(self, configs: Sequence[Dict[str, Any]],
                   phase: str) -> List[Dict[str, Any]]:
        """Execute one batch of trial configs; returns aligned DB rows."""
        from repro.obs import counter, progress

        if not configs:
            return []
        if self.server:
            outcomes = self._run_batch_server(configs)
        else:
            outcomes = self._run_batch_local(configs)
        rows = []
        for config, (result, served_from, error) in zip(configs, outcomes):
            row: Dict[str, Any] = {
                "campaign": self.spec.name,
                "phase": phase,
                "config": dict(config),
                "served_from": served_from,
                "error": error,
            }
            if result is not None:
                row["coverage"] = result.get("coverage_percent")
                row["seu_injections"] = result.get("transient_total", 0)
                row["seu_coverage"] = (
                    result.get("transient_coverage_percent")
                    if result.get("transient_total") else None)
                # Every trial is charged its ATPG report's CPU seconds,
                # served or local, fresh or reused: not the parse,
                # extraction and synthesis a worker may have done for it.
                row["cost_s"] = round(
                    float(result.get("cpu_seconds") or 0.0), 6)
            row["fitness"] = round(trial_fitness(row), 6)
            self.db.append(row)
            counter("campaign.trials_run").inc()
            if served_from in _DEDUPED:
                counter("campaign.trials_coalesced").inc()
            counter("campaign.seu_injections").inc(
                row.get("seu_injections") or 0)
            rows.append(row)
        progress("campaign.trials", stage=phase, batch=len(rows),
                 total=len(self.db.rows()))
        return rows

    # outcome tuple: (result row | None, served_from, error)
    Outcome = Tuple[Optional[Dict[str, Any]], str, Optional[str]]

    def _run_batch_server(self, configs) -> List["CampaignRunner.Outcome"]:
        from repro.serve.client import ServeClient, ServeError

        if self._client is None:
            self._client = ServeClient(self.server,
                                       timeout=self.trial_timeout)
        client = self._client
        # Submit everything before waiting on anything: identical specs
        # coalesce in flight on the server (this is deliberate — the
        # runner does NOT dedupe locally in server mode, so replicates
        # genuinely exercise single-flight coalescing).
        submitted: List[Tuple[Optional[str], bool, Optional[str]]] = []
        for config in configs:
            spec = self.job_spec_dict(config)
            try:
                sub = client.submit_with_retry(spec)
                submitted.append((sub["job"]["id"],
                                  bool(sub.get("coalesced")), None))
            except (ServeError, OSError) as exc:
                submitted.append((None, False,
                                  f"{type(exc).__name__}: {exc}"))
        outcomes: List[CampaignRunner.Outcome] = []
        for job_id, coalesced, error in submitted:
            if job_id is None:
                outcomes.append((None, "error", error))
                continue
            try:
                job = client.wait(job_id, timeout=self.trial_timeout)
            except (ServeError, OSError, TimeoutError) as exc:
                outcomes.append((None, "error",
                                 f"{type(exc).__name__}: {exc}"))
                continue
            if job.get("status") != "done":
                outcomes.append((None, "error",
                                 job.get("error") or "job failed"))
                continue
            result = job.get("result") or {}
            # A coalesced submission shares another trial's job, whose
            # own served_from says how *that* trial was served — this
            # one cost nothing, record it as coalesced.
            if coalesced:
                served = "coalesced"
            else:
                served = job.get("served_from") or "pipeline"
            outcomes.append((result, served, None))
        return outcomes

    def _run_batch_local(self, configs) -> List["CampaignRunner.Outcome"]:
        """No-server fallback: the server's own worker entry point,
        in-process or across a fork pool, with fingerprint dedup in-run
        and store memoization (stage ``campaign``) across runs."""
        from repro.serve.protocol import ProtocolError
        from repro.store import MISS, get_store

        store = get_store()
        prepared = []  # (fingerprint | None, spec_dict | None, error)
        for config in configs:
            spec = self.job_spec_dict(config)
            try:
                prepared.append((self._fingerprint(spec), spec, None))
            except ProtocolError as exc:
                prepared.append((None, None, f"ProtocolError: {exc}"))

        # First occurrence of each fingerprint executes (unless the store
        # already has it); the rest coalesce onto its outcome.
        fresh: List[Tuple[str, Dict[str, Any]]] = []
        for fp, spec, error in prepared:
            if fp is None or fp in self._local_seen:
                continue
            payload = store.get("campaign", {"spec": fp})
            if payload is not MISS:
                self._local_seen[fp] = {
                    "result": payload[0], "served_from": "cache",
                    "error": None}
            else:
                self._local_seen[fp] = {}  # placeholder: executes below
                fresh.append((fp, spec))

        for fp, outcome in zip((fp for fp, _s in fresh),
                               self._execute_specs([s for _f, s in fresh])):
            ok = outcome.get("ok")
            result = outcome.get("result") if ok else None
            self._local_seen[fp] = {
                "result": result, "served_from": "pipeline",
                "error": None if ok else outcome.get("error")}
            if ok:
                # (result, cost) is the entry format; the cost is the
                # report's CPU seconds, which run_trials charges.
                store.put("campaign", {"spec": fp},
                          (result, float(result.get("cpu_seconds") or 0.0)))

        outcomes: List[CampaignRunner.Outcome] = []
        served = set()
        for fp, _spec, error in prepared:
            if fp is None:
                outcomes.append((None, "error", error))
                continue
            hit = self._local_seen[fp]
            served_from = hit["served_from"]
            if fp in served and served_from == "pipeline":
                served_from = "coalesced"  # in-run duplicate
            served.add(fp)
            outcomes.append((hit["result"], served_from, hit["error"]))
        return outcomes

    def _execute_specs(self, specs: List[Dict[str, Any]]
                       ) -> List[Dict[str, Any]]:
        """Run fresh trials through the serve worker entry point, over
        :func:`~repro.jobs.map_runs` (``self.jobs`` workers); every
        trial's pipeline counters land in this process's registry, where
        ``repro profile`` reads them."""
        # Imported per call: traced perfbench runs wrap this attribute.
        from repro.serve.worker import execute_job

        return map_runs(lambda spec: execute_job(spec, fresh_registry=False),
                        specs, self.jobs)

    # -- the campaign ------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        """Execute the campaign per its mode; returns the summary dict."""
        from repro.obs import progress, span

        spec = self.spec
        summary: Dict[str, Any] = {
            "campaign": spec.name,
            "mode": spec.mode,
            "server": self.server,
            "db": self.db.path,
        }
        with span("campaign.run", campaign=spec.name, mode=spec.mode) as sp:
            factors = spec.ordered_factors()
            if spec.mode in ("factorial", "both"):
                with span("campaign.factorial") as sp_f:
                    points = build_design(factors, spec.max_trials,
                                          spec.seed)
                    schedule = [cfg for cfg in points
                                for _ in range(spec.replicates)]
                    progress("campaign.factorial", force=True,
                             points=len(points), trials=len(schedule))
                    rows = self.run_trials(schedule, "factorial")
                    sp_f.set("trials", len(rows))
                summary["factorial"] = {
                    "points": len(points),
                    "trials": len(rows),
                    "failed": sum(1 for r in rows if r.get("error")),
                }
            if spec.mode in ("evolutionary", "both"):
                with span("campaign.evolve") as sp_e:
                    dse = EvolutionaryDSE(
                        factors, self._evaluate_fitness,
                        population=spec.population,
                        generations=spec.generations,
                        tournament=spec.tournament,
                        mutation_rate=spec.mutation_rate,
                        elite=spec.elite, seed=spec.seed)
                    result = dse.run()
                    sp_e.set("generations", result.generations)
                    sp_e.set("evaluations", result.evaluations)
                summary["evolutionary"] = {
                    "best_config": result.best_config,
                    "best_fitness": round(result.best_fitness, 4),
                    "history": [round(h, 4) for h in result.history],
                    "generations": result.generations,
                    "evaluations": result.evaluations,
                }
            report = fit_report(self.db.rows(), factors)
            sp.set("trials", report.trials)
        summary["trials"] = len(self.db.rows())
        summary["report"] = report.as_dict()
        return summary

    def _evaluate_fitness(self, configs: List[Dict[str, Any]]
                          ) -> List[float]:
        rows = self.run_trials(configs, "evolutionary")
        return [row.get("fitness", 0.0) for row in rows]
