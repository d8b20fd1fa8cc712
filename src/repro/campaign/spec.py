"""Declarative campaign specification (TOML or JSON).

A spec names one design, one or more modules under test, a factor space
and how to explore it.  Example (TOML)::

    name = "arm2-sweep"
    design = "arm2"          # bundled design (or source_file = "x.v")
    mut = "alu"
    mode = "both"            # factorial | evolutionary | both
    seed = 7
    max_trials = 8           # factorial fraction cap
    replicates = 2           # resubmissions per factorial point

    [factors]
    backtrack_limit = [50, 300]
    random_length = [16, 48]
    fault_model = ["stuck", "both"]

    [base]                   # fixed JobSpec overrides for every trial
    frames = 2

    [evolve]                 # evolutionary-phase knobs
    population = 6
    generations = 3

Factor names map one-to-one onto job-spec fields; ``mut`` may itself be
a factor (the MUT set).  Every trial inherits the campaign ``seed``, so
a campaign's schedule — including the seeded SEU flip sites and cycles
of transient trials — is a pure function of the spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Factor names a spec may sweep, and the job-spec field each drives.
FACTOR_FIELDS = (
    "mut",
    "frames",
    "backtrack_limit",
    "random_length",
    "fault_model",
    "transient_sample",
    "use_piers",
    "mode",
)

MODES = ("factorial", "evolutionary", "both")


class CampaignSpecError(ValueError):
    """A malformed campaign spec (presentable to the user)."""


@dataclass
class CampaignSpec:
    """One parsed, validated campaign description."""

    name: str
    factors: Dict[str, List[Any]]
    design: Optional[str] = None
    source: Optional[str] = None
    top: Optional[str] = None
    mut: Optional[str] = None
    mode: str = "factorial"
    seed: int = 2002
    max_trials: Optional[int] = None
    replicates: int = 1
    base: Dict[str, Any] = field(default_factory=dict)
    # evolutionary-phase knobs
    population: int = 8
    generations: int = 4
    tournament: int = 2
    mutation_rate: float = 0.25
    elite: int = 1
    server: Optional[str] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CampaignSpec":
        if not isinstance(payload, dict):
            raise CampaignSpecError("campaign spec must be a table/object")
        data = dict(payload)
        evolve = data.pop("evolve", {})
        if not isinstance(evolve, dict):
            raise CampaignSpecError("'evolve' must be a table/object")
        source_file = data.pop("source_file", None)
        unknown = (set(data) | set(evolve)) - set(cls.__dataclass_fields__)
        if unknown:
            raise CampaignSpecError(
                f"unknown campaign fields: {', '.join(sorted(unknown))}")
        data.update(evolve)
        if source_file is not None:
            with open(source_file, "r", encoding="utf-8") as handle:
                data["source"] = handle.read()
        try:
            spec = cls(**data)
        except TypeError as exc:
            raise CampaignSpecError(str(exc)) from None
        return spec.validate()

    @classmethod
    def load(cls, path: str) -> "CampaignSpec":
        """Parse a ``.toml`` or ``.json`` spec file."""
        if path.endswith(".toml"):
            try:
                import tomllib
            except ImportError:
                raise CampaignSpecError(
                    "TOML campaign specs need Python 3.11+ (tomllib); "
                    "use a .json spec") from None
            with open(path, "rb") as handle:
                try:
                    payload = tomllib.load(handle)
                except tomllib.TOMLDecodeError as exc:
                    raise CampaignSpecError(f"{path}: {exc}") from None
        else:
            with open(path, "r", encoding="utf-8") as handle:
                try:
                    payload = json.load(handle)
                except ValueError as exc:
                    raise CampaignSpecError(f"{path}: {exc}") from None
        return cls.from_dict(payload)

    # -- validation --------------------------------------------------------

    def validate(self) -> "CampaignSpec":
        if not self.name or not isinstance(self.name, str):
            raise CampaignSpecError("campaign needs a non-empty 'name'")
        if any(c in self.name for c in "/\\\0"):
            raise CampaignSpecError("'name' must not contain path "
                                    "separators")
        if (self.design is None) == (self.source is None):
            raise CampaignSpecError(
                "campaign needs exactly one of 'design' (bundled name) or "
                "'source'/'source_file' (Verilog)")
        if self.mode not in MODES:
            raise CampaignSpecError(
                f"bad mode {self.mode!r}; expected {'|'.join(MODES)}")
        if not isinstance(self.factors, dict) or not self.factors:
            raise CampaignSpecError("campaign needs a non-empty [factors] "
                                    "table")
        for name, levels in self.factors.items():
            if name not in FACTOR_FIELDS:
                raise CampaignSpecError(
                    f"unknown factor {name!r}; expected one of "
                    f"{', '.join(FACTOR_FIELDS)}")
            if not isinstance(levels, list) or len(levels) < 2:
                raise CampaignSpecError(
                    f"factor {name!r} needs a list of >= 2 levels")
            if len(set(map(repr, levels))) != len(levels):
                raise CampaignSpecError(
                    f"factor {name!r} has duplicate levels")
        if self.mut is None and "mut" not in self.factors:
            raise CampaignSpecError(
                "campaign needs a 'mut' (or a 'mut' factor)")
        for name, lo in (("replicates", 1), ("population", 2),
                         ("generations", 1), ("tournament", 1),
                         ("elite", 0), ("seed", None)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or \
                    (lo is not None and value < lo):
                bound = f" >= {lo}" if lo is not None else ""
                raise CampaignSpecError(f"{name!r} must be an integer{bound}")
        if self.max_trials is not None and (
                not isinstance(self.max_trials, int) or self.max_trials < 1):
            raise CampaignSpecError("'max_trials' must be a positive "
                                    "integer")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise CampaignSpecError("'mutation_rate' must be in [0, 1]")
        if self.elite >= self.population:
            raise CampaignSpecError("'elite' must be < 'population'")
        if not isinstance(self.base, dict):
            raise CampaignSpecError("'base' must be a table/object")
        overlap = set(self.base) & set(self.factors)
        if overlap:
            raise CampaignSpecError(
                f"fields cannot be both fixed in [base] and swept as "
                f"factors: {', '.join(sorted(overlap))}")
        return self

    # -- derived -----------------------------------------------------------

    def ordered_factors(self) -> Dict[str, List[Any]]:
        """Factors in canonical (declaration-independent) order, so the
        design matrix and the fitted model columns line up regardless of
        spec-file key order."""
        return {name: list(self.factors[name])
                for name in sorted(self.factors)}
