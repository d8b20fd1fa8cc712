"""Fault-injection campaign engine and design-space exploration.

A *campaign* sweeps the ATPG pipeline across a declared factor space —
backtrack limits, random-phase length, fault model (stuck-at vs
transient SEU), PIER usage, the MUT set — and fits a
coverage-vs-cost model over the results.  Three layers:

- :mod:`repro.campaign.spec` — the declarative ``CampaignSpec`` (TOML or
  JSON) naming the design, the factors and the exploration mode,
- :mod:`repro.campaign.design` / :mod:`repro.campaign.evolve` — the
  trial schedulers: a balanced two-level fractional-factorial builder
  and a seeded evolutionary search (tournament selection over
  coverage-per-CPU-second fitness),
- :mod:`repro.campaign.runner` / :mod:`repro.campaign.db` /
  :mod:`repro.campaign.model` — execution through the job server (batch
  submission with 429 backoff; request-fingerprint coalescing and the
  warm store deduplicate overlapping trials) or a local fallback, the
  append-only trial database under the cache dir, and the pure-python
  least-squares factor-effect model behind ``repro campaign report``.

Everything is seeded: the same campaign seed reproduces the same trial
schedule, the same SEU flip sites/cycles and bit-identical detected
sets on every backend.
"""

from repro.campaign.db import TrialDB, campaign_dir
from repro.campaign.design import build_design, two_level_fraction
from repro.campaign.evolve import EvolutionaryDSE
from repro.campaign.model import RegressionReport, fit_report
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, CampaignSpecError

__all__ = [
    "CampaignRunner",
    "CampaignSpec",
    "CampaignSpecError",
    "EvolutionaryDSE",
    "RegressionReport",
    "TrialDB",
    "build_design",
    "campaign_dir",
    "fit_report",
    "two_level_fraction",
]
