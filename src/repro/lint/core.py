"""Lint engine: diagnostics, rule registry and the ``run_lint`` driver.

A *rule* is a callable ``check(ctx) -> Iterable[Diagnostic]`` registered
under a stable id (``W001``); the registry is populated by the ``@rule``
decorator when the ``rules_*`` modules are imported.  ``run_lint`` builds a
:class:`LintContext` (lazy chain database, lazy elaborated netlist) once and
runs every enabled rule over it, applying config-driven severity overrides
and waivers before returning a :class:`LintResult`.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.hierarchy.chains import ChainDB
from repro.hierarchy.design import Design
from repro.obs import counter, get_logger, span
from repro.verilog import ast

_log = get_logger("lint")


class LintError(ValueError):
    """Raised for lint configuration problems (unknown rules, bad ids).

    Subclasses ValueError so the CLI's generic error handling maps it to
    exit code 1.
    """


# Severity levels, ordered least to most severe.
SEVERITIES = ("info", "warning", "error")
Severity = str


@dataclass(frozen=True)
class TraceStep:
    """One hop of a diagnostic's supporting du/ud or root-cause trace.

    ``construct`` names the RTL construct the hop crosses (``cont_assign``,
    ``if``, ``instance``, ``ternary``, ``dff``, …) and ``reason`` says why
    the walk passed through or stopped here; both are empty on legacy
    trail-style hops, where ``note`` carries the annotation instead.
    """

    module: str
    signal: str
    line: int = 0
    note: str = ""
    construct: str = ""
    reason: str = ""

    def text(self) -> str:
        """The hop's annotation, preferring the root-cause reason."""
        return self.reason or self.note or f"{self.module}.{self.signal}"

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "module": self.module, "signal": self.signal, "line": self.line,
        }
        if self.note:
            out["note"] = self.note
        if self.construct:
            out["construct"] = self.construct
        if self.reason:
            out["reason"] = self.reason
        return out


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule id plus where it fired and why."""

    rule_id: str
    severity: Severity
    category: str
    message: str
    module: str = ""
    signal: str = ""
    line: int = 0
    file: str = ""
    trace: Tuple[TraceStep, ...] = ()
    #: Reason code of the trace's breaking hop (see rootcause.REASONS).
    root_cause: str = ""
    #: Witness demonstrating the blockage (see :mod:`repro.lint.witness`):
    #: a simulator-verified vector pair or an ATPG redundancy proof.
    witness: Optional[Dict[str, object]] = None

    def location(self) -> str:
        parts = []
        if self.file:
            parts.append(self.file)
        if self.module:
            parts.append(self.module)
        loc = ":".join(parts) if parts else "<design>"
        if self.line:
            loc += f":{self.line}"
        return loc

    def render(self) -> str:
        """One-line human-readable form (the text format)."""
        subject = f" [{self.signal}]" if self.signal else ""
        return (f"{self.location()}: {self.severity}: "
                f"{self.rule_id}{subject} {self.message}")

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rule": self.rule_id,
            "severity": self.severity,
            "category": self.category,
            "message": self.message,
            "module": self.module,
            "signal": self.signal,
            "line": self.line,
            "file": self.file,
        }
        if self.trace:
            out["trace"] = [step.as_dict() for step in self.trace]
        if self.root_cause:
            out["root_cause"] = self.root_cause
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class Waiver:
    """Suppress matching diagnostics; ``None`` fields match anything.

    ``expires`` (``YYYY-MM-DD``) puts a shelf life on the suppression:
    past that date the waiver stops hiding findings and they re-surface
    as warnings, so stale waivers cannot silence real regressions forever.
    """

    rule_id: str
    module: Optional[str] = None
    signal: Optional[str] = None
    reason: str = ""
    expires: Optional[str] = None

    def __post_init__(self) -> None:
        if self.expires is not None:
            try:
                datetime.date.fromisoformat(self.expires)
            except ValueError:
                raise LintError(
                    f"bad waiver expiry {self.expires!r}; "
                    "expected YYYY-MM-DD") from None

    def matches(self, diag: Diagnostic) -> bool:
        if self.rule_id != diag.rule_id:
            return False
        if self.module is not None and self.module != diag.module:
            return False
        if self.signal is not None and self.signal != diag.signal:
            return False
        return True

    def is_expired(self, today: Optional[datetime.date] = None) -> bool:
        if self.expires is None:
            return False
        now = today if today is not None else datetime.date.today()
        return now > datetime.date.fromisoformat(self.expires)


@dataclass
class LintConfig:
    """Which rules run and at what severity.

    ``disabled``/``enabled`` select rules (``enabled`` non-empty means
    *only* those ids run); ``severity_overrides`` remaps a rule's severity;
    ``waivers`` drop individual findings (they still count in
    ``LintResult.waived``).
    """

    disabled: Set[str] = field(default_factory=set)
    enabled: Set[str] = field(default_factory=set)
    severity_overrides: Dict[str, Severity] = field(default_factory=dict)
    waivers: List[Waiver] = field(default_factory=list)

    def __post_init__(self) -> None:
        for sev in self.severity_overrides.values():
            if sev not in SEVERITIES:
                raise LintError(
                    f"bad severity {sev!r}; expected one of {SEVERITIES}"
                )

    def is_enabled(self, rule_id: str) -> bool:
        if rule_id in self.disabled:
            return False
        if self.enabled:
            return rule_id in self.enabled
        return True

    def severity_for(self, rule_: "Rule") -> Severity:
        return self.severity_overrides.get(rule_.rule_id, rule_.severity)

    def waiver_for(self, diag: Diagnostic) -> Optional[Waiver]:
        for waiver in self.waivers:
            if waiver.matches(diag):
                return waiver
        return None


@dataclass(frozen=True)
class Rule:
    """A registered check."""

    rule_id: str
    severity: Severity
    category: str
    title: str
    check: Callable[["LintContext"], Iterable[Diagnostic]]
    description: str = ""

    def run(self, ctx: "LintContext") -> List[Diagnostic]:
        return list(self.check(ctx))


class RuleRegistry:
    """Id-keyed rule store; registration of a duplicate id is an error."""

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}

    def register(self, rule_: Rule) -> None:
        if rule_.rule_id in self._rules:
            raise LintError(f"duplicate lint rule id {rule_.rule_id!r}")
        if rule_.severity not in SEVERITIES:
            raise LintError(
                f"rule {rule_.rule_id}: bad severity {rule_.severity!r}"
            )
        self._rules[rule_.rule_id] = rule_

    def get(self, rule_id: str) -> Rule:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise LintError(f"no lint rule {rule_id!r}") from None

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def rules(self) -> List[Rule]:
        return [self._rules[key] for key in sorted(self._rules)]

    def ids(self) -> List[str]:
        return sorted(self._rules)


_DEFAULT_REGISTRY = RuleRegistry()


def default_registry() -> RuleRegistry:
    """The process-wide registry holding every shipped rule."""
    return _DEFAULT_REGISTRY


def rule(rule_id: str, severity: Severity, category: str, title: str,
         registry: Optional[RuleRegistry] = None
         ) -> Callable[[Callable[["LintContext"], Iterable[Diagnostic]]],
                       Callable[["LintContext"], Iterable[Diagnostic]]]:
    """Decorator registering ``check(ctx)`` as a lint rule.

    The wrapped function's docstring becomes the rule description.
    """

    def decorate(check: Callable[["LintContext"], Iterable[Diagnostic]]
                 ) -> Callable[["LintContext"], Iterable[Diagnostic]]:
        target = registry if registry is not None else _DEFAULT_REGISTRY
        target.register(Rule(
            rule_id=rule_id,
            severity=severity,
            category=category,
            title=title,
            check=check,
            description=(check.__doc__ or "").strip(),
        ))
        return check

    return decorate


class LintContext:
    """Everything a rule may inspect, built once per ``run_lint``.

    Chain database and elaborated netlist are lazy: AST-only runs never pay
    for elaboration, and an elaboration failure is surfaced exactly once
    (``netlist()`` returns None afterwards; ``netlist_error`` holds the
    exception).
    """

    def __init__(self, design: Design,
                 files: Optional[Mapping[str, str]] = None) -> None:
        self.design = design
        self.modules: Dict[str, ast.Module] = {
            name: design.module(name) for name in design.module_names()
        }
        self._files: Dict[str, str] = dict(files or {})
        self._chaindb: Optional[ChainDB] = None
        self._netlist: object = None
        self._netlist_built = False
        self._rootcause: object = None
        self.netlist_error: Optional[Exception] = None

    def file_of(self, module_name: str) -> str:
        return self._files.get(module_name, "")

    @property
    def chaindb(self) -> ChainDB:
        if self._chaindb is None:
            # Shared with the extractor/PIER analysis: a --lint pre-flight
            # gate and the extraction after it build the chains only once.
            self._chaindb = self.design.chaindb()
        return self._chaindb

    def netlist(self):
        """The elaborated top-level netlist, or None if elaboration fails."""
        if not self._netlist_built:
            self._netlist_built = True
            from repro.synth.elaborate import SynthesisError, synthesize
            from repro.synth.netlist import NetlistError

            try:
                # No optimization: cleanup would hide floating nets and its
                # topological sort would raise on the very loops rule W201
                # wants to report.
                self._netlist = synthesize(self.design, do_optimize=False)
            except (SynthesisError, NetlistError, ValueError,
                    RecursionError) as err:
                self.netlist_error = err
                self._netlist = None
        return self._netlist

    def rootcause(self):
        """Shared :class:`repro.lint.rootcause.RootCauseAnalyzer`.

        Lazy and chain-level only — building it never triggers
        elaboration, so chain-rule-only runs stay elaboration-free.
        """
        if self._rootcause is None:
            from repro.lint.rootcause import RootCauseAnalyzer

            self._rootcause = RootCauseAnalyzer(
                self.design, self.chaindb, self.modules)
        return self._rootcause

    def const_env(self, module: ast.Module) -> Dict[str, int]:
        """Module parameters that evaluate to integer constants."""
        from repro.lint.width import const_eval

        env: Dict[str, int] = {}
        for param in module.params:
            value = const_eval(param.value, env)
            if value is not None:
                env[param.name] = value
        return env


@dataclass
class LintResult:
    """Outcome of one lint run."""

    diagnostics: List[Diagnostic]
    waived: List[Tuple[Diagnostic, Waiver]] = field(default_factory=list)
    rules_run: int = 0

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "info"]

    def counts(self) -> Dict[str, int]:
        return {
            "error": len(self.errors),
            "warning": len(self.warnings),
            "info": len(self.infos),
            "waived": len(self.waived),
        }

    def by_rule(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for diag in self.diagnostics:
            out[diag.rule_id] = out.get(diag.rule_id, 0) + 1
        return out

    def summary(self) -> str:
        c = self.counts()
        return (f"{len(self.diagnostics)} findings "
                f"({c['error']} errors, {c['warning']} warnings, "
                f"{c['info']} info, {c['waived']} waived)")


def _sort_key(diag: Diagnostic) -> Tuple:
    return (diag.file, diag.module, diag.line, diag.rule_id, diag.signal)


#: Rules whose findings get root-cause/witness enrichment, mapped to the
#: walk direction their blockage corresponds to.
_ROOTCAUSE_RULES = {"W101": "justification", "W102": "propagation"}

#: Witness ATPG fallback is skipped above this gate count: a redundancy
#: proof on a large design is real ATPG work, not a lint-time side note.
_WITNESS_ATPG_GATE_LIMIT = 4000


def _attach_witnesses(ctx: LintContext, cfg: LintConfig, reg: RuleRegistry,
                      kept: List[Diagnostic]) -> List[Diagnostic]:
    """Attach simulator/ATPG witnesses to blocked-connectivity findings.

    Elaboration stays category-gated: the netlist is only (lazily) built
    when at least one ``synth``-category rule is enabled, so a
    chain-rules-only run (``--enable W101``) never pays for synthesis —
    its findings carry traces but no witnesses.
    """
    candidates = [d for d in kept if d.rule_id in _ROOTCAUSE_RULES
                  and d.root_cause]
    if not candidates:
        return kept
    if not any(rule_.category == "synth" and cfg.is_enabled(rule_.rule_id)
               for rule_ in reg.rules()):
        return kept
    netlist = ctx.netlist()
    if netlist is None:
        return kept
    from repro.lint.witness import witness_for_trace

    analyzer = ctx.rootcause()
    allow_atpg = len(netlist.gates) <= _WITNESS_ATPG_GATE_LIMIT
    out: List[Diagnostic] = []
    for diag in kept:
        direction = _ROOTCAUSE_RULES.get(diag.rule_id)
        if direction is None or not diag.root_cause:
            out.append(diag)
            continue
        if direction == "justification":
            trace = analyzer.explain_justification(diag.module, diag.signal)
        else:
            trace = analyzer.explain_propagation(diag.module, diag.signal)
        witness = witness_for_trace(netlist, trace, ctx.design.top,
                                    allow_atpg=allow_atpg)
        if witness is not None:
            diag = replace(diag, witness=witness)
            counter("lint.witnesses").inc()
        out.append(diag)
    return out


def run_lint(design: Design, config: Optional[LintConfig] = None,
             registry: Optional[RuleRegistry] = None,
             files: Optional[Mapping[str, str]] = None,
             today: Optional["datetime.date"] = None) -> LintResult:
    """Run every enabled rule over ``design`` and collect diagnostics.

    ``files`` maps module name -> source file path for location reporting;
    ``today`` overrides the waiver-expiry clock (tests).
    """
    cfg = config or LintConfig()
    reg = registry if registry is not None else _DEFAULT_REGISTRY
    for rule_id in set(cfg.disabled) | set(cfg.enabled) \
            | set(cfg.severity_overrides):
        if rule_id not in reg:
            raise LintError(f"unknown lint rule {rule_id!r}")

    ctx = LintContext(design, files=files)
    kept: List[Diagnostic] = []
    waived: List[Tuple[Diagnostic, Waiver]] = []
    rules_run = 0
    expired_waivers = 0
    with span("lint", modules=len(ctx.modules)) as sp:
        for rule_ in reg.rules():
            if not cfg.is_enabled(rule_.rule_id):
                continue
            rules_run += 1
            severity = cfg.severity_for(rule_)
            for diag in rule_.run(ctx):
                diag = replace(
                    diag,
                    rule_id=rule_.rule_id,
                    category=diag.category or rule_.category,
                    severity=severity,
                    file=diag.file or ctx.file_of(diag.module),
                )
                waiver = cfg.waiver_for(diag)
                if waiver is not None and waiver.is_expired(today):
                    # Expired suppression: the finding re-surfaces as (at
                    # least) a warning so it cannot silently rot away.
                    expired_waivers += 1
                    resurfaced = "warning" if diag.severity == "info" \
                        else diag.severity
                    diag = replace(
                        diag, severity=resurfaced,
                        message=(f"{diag.message} "
                                 f"[waiver expired {waiver.expires}]"),
                    )
                    kept.append(diag)
                elif waiver is not None:
                    waived.append((diag, waiver))
                else:
                    kept.append(diag)
        kept = _attach_witnesses(ctx, cfg, reg, kept)
        kept.sort(key=_sort_key)
        sp.set("findings", len(kept))
        sp.set("rules", rules_run)

    result = LintResult(diagnostics=kept, waived=waived, rules_run=rules_run)
    counts = result.counts()
    counter("lint.runs").inc()
    counter("lint.findings").inc(len(kept))
    counter("lint.errors").inc(counts["error"])
    counter("lint.warnings").inc(counts["warning"])
    counter("lint.infos").inc(counts["info"])
    counter("lint.waived").inc(counts["waived"])
    if expired_waivers:
        counter("lint.waivers_expired").inc(expired_waivers)
    for rule_id, n in result.by_rule().items():
        counter(f"lint.rule.{rule_id}").inc(n)
    _log.info("lint_done", findings=len(kept), **counts)
    return result
