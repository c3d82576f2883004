"""The model doctor: cross-descriptor static analysis (paper Sec. V).

Energy-model repositories go stale silently: a descriptor is renamed but a
``mb=`` reference keeps the old spelling, a power-state machine gains a
state without transition costs, a hand-written ``effective_bandwidth``
stops matching what the Sec. V downgrading analysis derives.  None of that
is a *schema* violation — each descriptor is well-formed on its own — so
per-descriptor validation cannot catch it.  The doctor runs a catalog of
**cross-descriptor rules** over the whole repository index and over each
composed system and reports findings with stable rule identifiers.

Architecture:

* :class:`DoctorRule` — one registered rule (stable id ``XPDL07xx``, slug
  name, default severity, scope, summary) wrapping a check function;
* :class:`RuleContext` — what a check sees: the repository view or the
  composed system, plus :meth:`RuleContext.report` for emitting findings;
* :class:`Finding` — one plain-data result (picklable, so doctor reports
  participate in the persistent stage cache);
* :class:`DoctorReport` — the merged outcome with severity totals and a
  stable ``to_dict`` form for ``xpdl doctor --format json``.

Every finding is also emitted through the :class:`DiagnosticSink` (tagged
with the rule id as diagnostic code) and counted on the observer under
``doctor.rule.<name>``, so ``xpdl stats`` and ``--trace`` see doctor
activity for free.  Rules are suppressed by id or name via ``suppress``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..diagnostics import (
    DiagnosticSink,
    Severity,
    SourceSpan,
    UnitError,
    XpdlError,
)
from ..model import (
    Channel,
    Group,
    Interconnect,
    ModelElement,
    PowerState,
    PowerStateMachine,
    Transition,
)
from ..obs import get_observer
from ..units import (
    BANDWIDTH,
    DEFAULT_REGISTRY,
    ENERGY,
    FREQUENCY,
    INFORMATION,
    POWER,
    TIME,
    VOLTAGE,
    Dimension,
    Quantity,
    is_placeholder,
    is_unit_attribute,
    metric_for_unit_attribute,
    read_metric,
)
from .bandwidth import derive_bandwidths

#: Identifier under which the repository-wide doctor pass is requested
#: from the toolchain session (it is not a descriptor identifier).
REPOSITORY_SCOPE = "*"

#: Expected root tag of the descriptor each navigational reference names.
_REFERENCE_ROOT_TAGS: dict[str, str] = {
    "mb": "microbenchmarks",
    "instruction_set": "instructions",
    "power_domain": "power_domains",
}

#: Expected dimension of well-known quantity metrics (doctor's unit rule).
_METRIC_DIMENSIONS: dict[str, Dimension] = {
    "frequency": FREQUENCY,
    "power": POWER,
    "static_power": POWER,
    "energy": ENERGY,
    "time": TIME,
    "latency": TIME,
    "bandwidth": BANDWIDTH,
    "max_bandwidth": BANDWIDTH,
    "effective_bandwidth": BANDWIDTH,
    "size": INFORMATION,
    "voltage": VOLTAGE,
}

_SEVERITY_NAMES = {
    Severity.NOTE: "note",
    Severity.WARNING: "warning",
    Severity.ERROR: "error",
    Severity.FATAL: "error",
}


# ---------------------------------------------------------------------------
# result data model (plain data: picklable, JSON-ready)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Finding:
    """One doctor finding, as plain data.

    ``rule`` is the stable rule id (``XPDL0712``), ``name`` its slug
    (``psm-monotone-levels``); ``subject`` names the descriptor or system
    the finding concerns and ``location`` the source position.
    """

    rule: str
    name: str
    severity: str
    message: str
    subject: str
    location: str

    def is_error(self) -> bool:
        return self.severity == "error"

    def to_dict(self) -> dict[str, str]:
        return {
            "rule": self.rule,
            "name": self.name,
            "severity": self.severity,
            "message": self.message,
            "subject": self.subject,
            "location": self.location,
        }


@dataclass
class DoctorReport:
    """Findings of one doctor pass plus what was checked."""

    findings: list[Finding] = field(default_factory=list)
    checked: tuple[str, ...] = ()
    rules_run: tuple[str, ...] = ()
    suppressed: tuple[str, ...] = ()

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity == "warning")

    @property
    def notes(self) -> int:
        return sum(1 for f in self.findings if f.severity == "note")

    def ok(self) -> bool:
        """True when no error-severity finding was reported."""
        return self.errors == 0

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return counts

    def merge(self, other: "DoctorReport") -> "DoctorReport":
        """Fold ``other`` into this report (CLI merges repo + systems)."""
        self.findings.extend(other.findings)
        self.checked = tuple(dict.fromkeys(self.checked + other.checked))
        self.rules_run = tuple(dict.fromkeys(self.rules_run + other.rules_run))
        self.suppressed = tuple(
            dict.fromkeys(self.suppressed + other.suppressed)
        )
        return self

    def to_dict(self) -> dict:
        """Stable machine-readable form (``xpdl doctor --format json``)."""
        return {
            "findings": [
                f.to_dict()
                for f in sorted(
                    self.findings,
                    key=lambda f: (f.rule, f.subject, f.location, f.message),
                )
            ],
            "summary": {
                "errors": self.errors,
                "warnings": self.warnings,
                "notes": self.notes,
                "ok": self.ok(),
            },
            "checked": list(self.checked),
            "rules_run": list(self.rules_run),
            "suppressed": list(self.suppressed),
        }


# ---------------------------------------------------------------------------
# rule registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoctorRule:
    """One registered doctor rule."""

    rule_id: str
    name: str
    severity: Severity
    scope: str  # "repository" | "system"
    summary: str
    check: Callable[["RuleContext"], None]

    def matches(self, key: str) -> bool:
        return key in (self.rule_id, self.name)


#: The rule catalog, in registration (= documentation) order.
RULE_CATALOG: dict[str, DoctorRule] = {}


def rule(
    rule_id: str,
    name: str,
    *,
    severity: Severity,
    scope: str,
    summary: str,
) -> Callable[[Callable[["RuleContext"], None]], Callable]:
    """Register a doctor rule; used as a decorator on the check function."""

    def decorate(fn: Callable[["RuleContext"], None]) -> Callable:
        if rule_id in RULE_CATALOG:
            raise ValueError(f"duplicate doctor rule id {rule_id}")
        if scope not in ("repository", "system"):
            raise ValueError(f"unknown doctor rule scope {scope!r}")
        RULE_CATALOG[rule_id] = DoctorRule(
            rule_id, name, severity, scope, summary, fn
        )
        return fn

    return decorate


def rules_for_scope(scope: str) -> list[DoctorRule]:
    return [r for r in RULE_CATALOG.values() if r.scope == scope]


def rule_catalog() -> list[dict[str, str]]:
    """The catalog as plain data (``xpdl doctor --list-rules`` / docs)."""
    return [
        {
            "rule": r.rule_id,
            "name": r.name,
            "severity": _SEVERITY_NAMES[r.severity],
            "scope": r.scope,
            "summary": r.summary,
        }
        for r in RULE_CATALOG.values()
    ]


def _resolve_suppressions(suppress: Iterable[str]) -> tuple[set[str], set[str]]:
    """Split suppression keys into (matched rule ids, unknown keys)."""
    suppressed: set[str] = set()
    unknown: set[str] = set()
    for key in suppress:
        hits = [r.rule_id for r in RULE_CATALOG.values() if r.matches(key)]
        if hits:
            suppressed.update(hits)
        else:
            unknown.add(key)
    return suppressed, unknown


# ---------------------------------------------------------------------------
# the rule context
# ---------------------------------------------------------------------------


class RepositoryView:
    """Lazily computed cross-descriptor facts shared by repository rules."""

    def __init__(self, repository) -> None:
        self.repository = repository
        self._loaded: dict[str, ModelElement] | None = None
        self._reachable: set[str] | None = None
        self._power_domain_names: set[str] | None = None

    @property
    def index(self) -> dict:
        return self.repository.index()

    def models(self) -> dict[str, ModelElement]:
        """Every parseable descriptor, by identifier.

        Parse/schema diagnostics are deliberately routed to a throwaway
        sink: reporting them is the ``validate`` stage's job, not the
        doctor's.
        """
        if self._loaded is None:
            scratch = DiagnosticSink(max_errors=100_000)
            loaded: dict[str, ModelElement] = {}
            for ident in sorted(self.index):
                try:
                    loaded[ident] = self.repository.load(ident, scratch).model
                except XpdlError:
                    continue  # unparseable; validate reports it
            self._loaded = loaded
        return self._loaded

    def reachable(self) -> set[str]:
        """Identifiers reachable from any ``<system>`` closure."""
        if self._reachable is None:
            scratch = DiagnosticSink(max_errors=100_000)
            reach: set[str] = set()
            for system in self.repository.systems():
                reach.add(system)
                reach.update(self.repository.load_closure(system, scratch))
            self._reachable = reach
        return self._reachable

    def power_domain_names(self) -> set[str]:
        """Every ``power_domain`` element name/id declared anywhere."""
        if self._power_domain_names is None:
            names: set[str] = set()
            for model in self.models().values():
                for elem in model.walk():
                    if elem.kind == "power_domain":
                        for ident in (elem.name, elem.ident):
                            if ident:
                                names.add(ident)
            self._power_domain_names = names
        return self._power_domain_names


@dataclass
class RuleContext:
    """What one rule invocation sees."""

    repository: object
    sink: DiagnosticSink
    findings: list[Finding]
    #: Repository-wide facts (always available).
    repo: RepositoryView
    #: System under check and its composed root; ``None`` in repository scope.
    identifier: str | None = None
    root: ModelElement | None = None
    #: The rule currently running (set by the engine).
    current: DoctorRule | None = None

    def report(
        self,
        message: str,
        *,
        subject: str,
        span: SourceSpan | None = None,
        severity: Severity | None = None,
        hint: str | None = None,
    ) -> Finding:
        """Record one finding and mirror it into the diagnostic sink."""
        assert self.current is not None
        sev = severity if severity is not None else self.current.severity
        span = span if span is not None else SourceSpan.unknown(subject)
        finding = Finding(
            rule=self.current.rule_id,
            name=self.current.name,
            severity=_SEVERITY_NAMES[sev],
            message=message,
            subject=subject,
            location=str(span),
        )
        self.findings.append(finding)
        hints = (hint,) if hint else ()
        self.sink.emit_severity(sev, self.current.rule_id, message, span, *hints)
        obs = get_observer()
        if obs.enabled:
            obs.count("doctor.findings")
            obs.count(f"doctor.rule.{self.current.name}")
        return finding


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def _run_rules(ctx: RuleContext, scope: str, suppress: Iterable[str]) -> DoctorReport:
    suppressed, unknown = _resolve_suppressions(suppress)
    obs = get_observer()
    ran: list[str] = []
    for spec in rules_for_scope(scope):
        if spec.rule_id in suppressed:
            continue
        ctx.current = spec
        if obs.enabled:
            obs.count("doctor.rules.runs")
        spec.check(ctx)
        ran.append(spec.rule_id)
    ctx.current = None
    report = DoctorReport(
        findings=ctx.findings,
        checked=(ctx.identifier,) if ctx.identifier else (REPOSITORY_SCOPE,),
        rules_run=tuple(ran),
        suppressed=tuple(sorted(suppressed | unknown)),
    )
    return report


def check_repository(
    repository,
    sink: DiagnosticSink | None = None,
    *,
    suppress: Iterable[str] = (),
) -> DoctorReport:
    """Run every repository-scope rule over the whole index."""
    sink = sink if sink is not None else DiagnosticSink()
    ctx = RuleContext(
        repository=repository,
        sink=sink,
        findings=[],
        repo=RepositoryView(repository),
    )
    return _run_rules(ctx, "repository", suppress)


def check_system(
    identifier: str,
    root: ModelElement,
    repository,
    sink: DiagnosticSink | None = None,
    *,
    suppress: Iterable[str] = (),
) -> DoctorReport:
    """Run every system-scope rule over one composed model tree."""
    sink = sink if sink is not None else DiagnosticSink()
    ctx = RuleContext(
        repository=repository,
        sink=sink,
        findings=[],
        repo=RepositoryView(repository),
        identifier=identifier,
        root=root,
    )
    return _run_rules(ctx, "system", suppress)


# ---------------------------------------------------------------------------
# repository-scope rules
# ---------------------------------------------------------------------------


@rule(
    "XPDL0700",
    "dangling-reference",
    severity=Severity.ERROR,
    scope="repository",
    summary="suite-level mb= and instruction_set= references must resolve "
    "to a repository descriptor",
)
def _check_dangling_references(ctx: RuleContext) -> None:
    index = ctx.repo.index
    for ident, model in ctx.repo.models().items():
        for elem in model.walk():
            refs: list[tuple[str, str]] = []
            isa = elem.attrs.get("instruction_set")
            if isa:
                refs.append(("instruction_set", isa))
            # inst-level mb= names a microbenchmark *within* a suite (the
            # lint's XPDL0630 checks those); only suite-level mb= refs the
            # repository.
            mb = elem.attrs.get("mb")
            if mb and elem.kind == "instructions":
                refs.append(("mb", mb))
            for attr, value in refs:
                if value.strip() not in index:
                    ctx.report(
                        f"{elem.kind} {elem.label()} references "
                        f"{attr}={value!r}, which no repository descriptor "
                        "defines",
                        subject=ident,
                        span=elem.span,
                        hint="renamed or missing descriptor? "
                        "check `xpdl list`",
                    )


@rule(
    "XPDL0701",
    "reference-kind",
    severity=Severity.ERROR,
    scope="repository",
    summary="resolved references must name a descriptor of the expected "
    "kind (mb -> microbenchmarks, instruction_set -> instructions, "
    "type -> a descriptor with the referring element's root tag)",
)
def _check_reference_kinds(ctx: RuleContext) -> None:
    index = ctx.repo.index
    for ident, model in ctx.repo.models().items():
        for elem in model.walk():
            for attr, expected in _REFERENCE_ROOT_TAGS.items():
                value = (elem.attrs.get(attr) or "").strip()
                if attr == "mb" and elem.kind != "instructions":
                    continue
                entry = index.get(value) if value else None
                if entry is not None and entry.root_tag != expected:
                    ctx.report(
                        f"{elem.kind} {elem.label()}: {attr}={value!r} "
                        f"resolves to a <{entry.root_tag}> descriptor, "
                        f"expected <{expected}>",
                        subject=ident,
                        span=elem.span,
                    )
            type_ref = (elem.attrs.get("type") or "").strip()
            entry = index.get(type_ref) if type_ref else None
            if entry is not None and entry.root_tag != elem.kind:
                ctx.report(
                    f"{elem.kind} {elem.label()}: type={type_ref!r} "
                    f"resolves to a <{entry.root_tag}> descriptor; "
                    f"composing it under <{elem.kind}> mixes element "
                    "kinds",
                    subject=ident,
                    span=elem.span,
                    hint="a renamed descriptor may have captured an "
                    "unrelated category tag",
                )


@rule(
    "XPDL0702",
    "dangling-power-domain",
    severity=Severity.WARNING,
    scope="repository",
    summary="power_domain= must name a declared power_domain element "
    "(or power_domains descriptor) somewhere in the repository",
)
def _check_power_domain_refs(ctx: RuleContext) -> None:
    declared = ctx.repo.power_domain_names()
    index = ctx.repo.index
    for ident, model in ctx.repo.models().items():
        for elem in model.walk():
            value = (elem.attrs.get("power_domain") or "").strip()
            if not value:
                continue
            if value in declared:
                continue
            entry = index.get(value)
            if entry is not None and entry.root_tag in (
                "power_domains",
                "power_domain",
            ):
                continue
            ctx.report(
                f"{elem.kind} {elem.label()}: power_domain={value!r} "
                "matches no declared power domain in the repository",
                subject=ident,
                span=elem.span,
            )


@rule(
    "XPDL0703",
    "unused-descriptor",
    severity=Severity.NOTE,
    scope="repository",
    summary="descriptor is reachable from no <system> closure "
    "(candidate for archiving)",
)
def _check_unused_descriptors(ctx: RuleContext) -> None:
    reachable = ctx.repo.reachable()
    for ident, entry in sorted(ctx.repo.index.items()):
        if ident in reachable:
            continue
        ctx.report(
            f"descriptor {ident!r} (<{entry.root_tag}> in "
            f"{entry.store.url}{entry.path}) is referenced by no system",
            subject=ident,
        )


@rule(
    "XPDL0704",
    "unit-consistency",
    severity=Severity.ERROR,
    scope="repository",
    summary="quantity attributes must carry known units of the metric's "
    "expected dimension and parse as numbers",
)
def _check_unit_consistency(ctx: RuleContext) -> None:
    registry = DEFAULT_REGISTRY
    for ident, model in ctx.repo.models().items():
        for elem in model.walk():
            for attr, value in elem.attrs.items():
                if not is_unit_attribute(attr):
                    continue
                if value not in registry:
                    ctx.report(
                        f"{elem.kind} {elem.label()}: unit attribute "
                        f"{attr}={value!r} names no unit known to the "
                        "registry",
                        subject=ident,
                        span=elem.span,
                    )
                    continue
                metric = metric_for_unit_attribute(attr)
                raw = elem.attrs.get(metric)
                if raw is None or is_placeholder(raw):
                    # The bare `unit` attr doubles as the fallback unit
                    # for param/const values (Listing 8); presence without
                    # a size= metric is legitimate.
                    continue
                if raw.strip().isidentifier():
                    continue  # param reference, bound at composition time
                try:
                    read_metric(
                        elem.attrs,
                        metric,
                        registry=registry,
                        expect=_METRIC_DIMENSIONS.get(metric),
                    )
                except UnitError as exc:
                    ctx.report(
                        f"{elem.kind} {elem.label()}: {exc}",
                        subject=ident,
                        span=elem.span,
                    )


# ---------------------------------------------------------------------------
# system-scope rules
# ---------------------------------------------------------------------------


def _psm_states(psm: PowerStateMachine) -> list[PowerState]:
    return [s for s in psm.find_all(PowerState) if s.name]


@rule(
    "XPDL0710",
    "psm-unreachable-state",
    severity=Severity.WARNING,
    scope="system",
    summary="every power state must be reachable from the first declared "
    "state via modeled transitions",
)
def _check_psm_reachability(ctx: RuleContext) -> None:
    assert ctx.root is not None
    for psm in ctx.root.find_all(PowerStateMachine):
        states = [s.name for s in _psm_states(psm)]
        if not states:
            continue
        present = {
            (t.attrs.get("head"), t.attrs.get("tail"))
            for t in psm.find_all(Transition)
        }
        if not present:
            continue  # no transitions at all: lint XPDL0612 reports that
        reachable = {states[0]}
        frontier = [states[0]]
        while frontier:
            cur = frontier.pop()
            for head, tail in present:
                if head == cur and tail is not None and tail not in reachable:
                    reachable.add(tail)
                    frontier.append(tail)
        for lost in sorted(set(states) - reachable):
            ctx.report(
                f"power state {lost!r} of {psm.label()} is unreachable "
                f"from the initial state {states[0]!r}",
                subject=ctx.identifier or psm.label(),
                span=psm.span,
            )


@rule(
    "XPDL0711",
    "psm-transition-cost",
    severity=Severity.ERROR,
    scope="system",
    summary="transition time/energy costs must be present (or '?') and "
    "non-negative",
)
def _check_psm_transition_costs(ctx: RuleContext) -> None:
    assert ctx.root is not None
    for psm in ctx.root.find_all(PowerStateMachine):
        for t in psm.find_all(Transition):
            arc = f"{t.attrs.get('head')}->{t.attrs.get('tail')}"
            for metric, dim in (("time", TIME), ("energy", ENERGY)):
                raw = t.attrs.get(metric)
                if raw is None:
                    ctx.report(
                        f"transition {arc} of {psm.label()} declares no "
                        f"{metric} cost",
                        subject=ctx.identifier or psm.label(),
                        span=t.span,
                        severity=Severity.WARNING,
                        hint="use '?' to mark a cost that awaits "
                        "microbenchmarking",
                    )
                    continue
                if is_placeholder(raw):
                    continue  # to be filled by deployment-time bootstrap
                try:
                    q = t.quantity(metric, dim)
                except UnitError as exc:
                    ctx.report(
                        f"transition {arc} of {psm.label()}: {exc}",
                        subject=ctx.identifier or psm.label(),
                        span=t.span,
                    )
                    continue
                if q is not None and q.magnitude < 0:
                    ctx.report(
                        f"transition {arc} of {psm.label()} has negative "
                        f"{metric} cost {q}",
                        subject=ctx.identifier or psm.label(),
                        span=t.span,
                    )


@rule(
    "XPDL0712",
    "psm-monotone-levels",
    severity=Severity.WARNING,
    scope="system",
    summary="power of DVFS states must be non-decreasing with frequency",
)
def _check_psm_monotone_levels(ctx: RuleContext) -> None:
    assert ctx.root is not None
    for psm in ctx.root.find_all(PowerStateMachine):
        levels = []
        for st in _psm_states(psm):
            try:
                freq = st.quantity("frequency", FREQUENCY)
                power = st.quantity("power", POWER)
            except UnitError:
                continue  # unit-consistency reports malformed values
            if freq is not None and power is not None:
                levels.append((st.name, freq, power))
        levels.sort(key=lambda lv: lv[1].magnitude)
        for lo, hi in zip(levels, levels[1:]):
            if hi[2] < lo[2]:
                ctx.report(
                    f"power state machine {psm.label()}: state {hi[0]!r} "
                    f"({hi[1]}, {hi[2]}) draws less power than the slower "
                    f"state {lo[0]!r} ({lo[1]}, {lo[2]})",
                    subject=ctx.identifier or psm.label(),
                    span=psm.span,
                    hint="stale DVFS table? higher frequency at lower "
                    "power makes the slower state useless for "
                    "energy optimization",
                )


@rule(
    "XPDL0713",
    "interconnect-endpoints",
    severity=Severity.ERROR,
    scope="system",
    summary="interconnect head=/tail= endpoints must resolve to element "
    "ids in the composed system",
)
def _check_interconnect_endpoints(ctx: RuleContext) -> None:
    assert ctx.root is not None
    ids = {e.ident for e in ctx.root.walk() if e.ident}
    groups = {
        g.attrs["prefix"]: int(g.attrs.get("member_count", "0"))
        for g in ctx.root.find_all(Group)
        if g.attrs.get("expanded") == "true" and g.attrs.get("prefix")
    }
    for ic in ctx.root.find_all(Interconnect):
        head, tail = ic.attrs.get("head"), ic.attrs.get("tail")
        if head is None and tail is None:
            continue  # technology meta-model, not a link instance
        for end_name, ref in (("head", head), ("tail", tail)):
            if ref is None or ref in ids:
                continue
            hint = None
            m = re.fullmatch(r"(?P<prefix>.*?)(?P<rank>\d+)", ref)
            if m and m.group("prefix") in groups:
                count = groups[m.group("prefix")]
                hint = (
                    f"group {m.group('prefix')!r} expands to {count} "
                    f"member(s), ranks 0..{count - 1}; endpoint rank "
                    f"{int(m.group('rank'))} is out of cardinality"
                )
            ctx.report(
                f"interconnect {ic.label()}: {end_name}={ref!r} matches "
                "no element id in the composed system",
                subject=ctx.identifier or ic.label(),
                span=ic.span,
                hint=hint,
            )


@rule(
    "XPDL0714",
    "group-cardinality",
    severity=Severity.ERROR,
    scope="system",
    summary="expanded groups must materialize exactly member_count "
    "members matching the declared quantity",
)
def _check_group_cardinality(ctx: RuleContext) -> None:
    assert ctx.root is not None
    for group in ctx.root.find_all(Group):
        if group.attrs.get("expanded") != "true":
            continue
        declared = group.attrs.get("member_count")
        if declared is None:
            continue
        count = int(declared)
        actual = len(group.children)
        if actual != count:
            ctx.report(
                f"group {group.label()} declares member_count={count} but "
                f"materialized {actual} member(s)",
                subject=ctx.identifier or group.label(),
                span=group.span,
            )


def _as_recorded(value: Quantity) -> Quantity:
    """``value`` as the downgrading pass writes it into the model and a
    reader reads it back (canonical unit, 12 significant digits)."""
    probe = Interconnect()
    probe.effective_bandwidth = value
    return probe.effective_bandwidth


@rule(
    "XPDL0715",
    "bandwidth-downgrade",
    severity=Severity.ERROR,
    scope="system",
    summary="declared effective_bandwidth must match the Sec. V "
    "downgrading analysis (min of nominal and endpoint capabilities)",
)
def _check_bandwidth_consistency(ctx: RuleContext) -> None:
    assert ctx.root is not None
    # Derive without writing: the shared composed tree stays untouched.
    derived_of = {
        id(link.interconnect): _as_recorded(link.effective)
        for link in derive_bandwidths(ctx.root)
        if link.effective is not None
    }
    for ic in ctx.root.find_all(Interconnect):
        try:
            declared = ic.effective_bandwidth
            nominal = ic.max_bandwidth
        except UnitError:
            continue  # unit-consistency reports malformed values
        if declared is None:
            continue  # nothing hand-written; analyze derives it
        subject = ctx.identifier or ic.label()
        if nominal is not None and declared > nominal:
            ctx.report(
                f"interconnect {ic.label()}: declared effective_bandwidth "
                f"{declared} exceeds the nominal max_bandwidth {nominal}",
                subject=subject,
                span=ic.span,
            )
            continue
        derived = derived_of.get(id(ic))
        if derived is not None and not declared.close_to(derived, rel=1e-6):
            ctx.report(
                f"interconnect {ic.label()}: declared effective_bandwidth "
                f"{declared} contradicts the downgrading analysis "
                f"({derived})",
                subject=subject,
                span=ic.span,
                hint="stale hand-written value? re-run `xpdl compose` "
                "and let the analysis derive it",
            )
        for ch in ic.find_all(Channel):
            try:
                ch_max = ch.max_bandwidth
            except UnitError:
                continue
            if ch_max is not None and nominal is not None and ch_max > nominal:
                ctx.report(
                    f"channel {ch.label()} of {ic.label()} claims "
                    f"{ch_max}, more than its link's nominal {nominal}",
                    subject=subject,
                    span=ch.span,
                    severity=Severity.WARNING,
                )
