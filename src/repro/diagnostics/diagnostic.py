"""Structured diagnostics and the exception hierarchy of the toolchain."""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

from .span import SourceSpan, SourceText


class Severity(enum.IntEnum):
    """Diagnostic severity; ordering is by increasing gravity."""

    NOTE = 0
    WARNING = 1
    ERROR = 2
    FATAL = 3

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One problem found in a user artifact.

    ``code`` is a stable machine-readable identifier (e.g. ``XPDL0102``);
    ``message`` is the human text; ``span`` points at the offending text.
    ``hints`` carry optional fix-it style advice.  ``stage`` records which
    toolchain stage emitted the diagnostic (set automatically inside a
    :meth:`DiagnosticSink.stage` scope).
    """

    severity: Severity
    code: str
    message: str
    span: SourceSpan
    hints: tuple[str, ...] = ()
    stage: str | None = None

    def is_error(self) -> bool:
        return self.severity >= Severity.ERROR

    def __str__(self) -> str:
        text = f"{self.span}: {self.severity}: {self.message} [{self.code}]"
        if self.stage:
            text += f" (stage: {self.stage})"
        return text


class XpdlError(Exception):
    """Base class for all toolchain errors.

    Carries the diagnostics that motivated the failure so callers can render
    them uniformly.
    """

    def __init__(self, message: str, diagnostics: Iterable[Diagnostic] = ()):
        super().__init__(message)
        self.diagnostics: tuple[Diagnostic, ...] = tuple(diagnostics)

    def __str__(self) -> str:
        base = super().__str__()
        if not self.diagnostics:
            return base
        return base + "\n" + "\n".join(str(d) for d in self.diagnostics)


class ParseError(XpdlError):
    """Malformed XML / XPDL surface syntax."""


class SchemaError(XpdlError):
    """Artifact violates the XPDL core schema."""


class ResolutionError(XpdlError):
    """A referenced model name/id could not be resolved in the repository.

    Permanent by definition: the repository was reachable and answered
    "no such descriptor".  Retrying cannot help; contrast
    :class:`TransientFetchError`.
    """


class TransientFetchError(XpdlError):
    """A descriptor fetch failed for a retryable, non-semantic reason.

    Models the network half of the paper's distributed repository: a
    manufacturer download site timing out or refusing a connection says
    nothing about whether the descriptor exists.  Resilient stores
    (:class:`~repro.repository.RetryingStore` and friends) retry or degrade
    on this type only; a :class:`ResolutionError` (permanent not-found)
    propagates immediately.
    """


class CompositionError(XpdlError):
    """Composing the concrete model tree failed (bad refs, merge conflicts)."""


class ConstraintError(XpdlError):
    """A declared constraint is violated or unsatisfiable."""


class UnitError(XpdlError):
    """Bad unit spelling or dimension mismatch."""


class QueryError(XpdlError):
    """Runtime query API misuse (bad path, unknown attribute)."""


class DiagnosticSink:
    """Collects diagnostics during a toolchain pass.

    A sink may be configured with ``max_errors`` after which an
    :class:`XpdlError` is raised to abort the pass, and with
    ``warnings_as_errors`` to harden CI runs.
    """

    def __init__(
        self,
        *,
        max_errors: int = 100,
        warnings_as_errors: bool = False,
        sources: dict[str, SourceText] | None = None,
    ) -> None:
        self._diags: list[Diagnostic] = []
        self._errors = 0
        self.max_errors = max_errors
        self.warnings_as_errors = warnings_as_errors
        self.sources: dict[str, SourceText] = dict(sources or {})
        self._stage: str | None = None

    # -- stage provenance --------------------------------------------------
    @property
    def current_stage(self) -> str | None:
        return self._stage

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Tag every diagnostic emitted in this scope with ``name``.

        Scopes nest; the innermost stage wins (a parse problem surfacing
        during composition is attributed to the pass that hit it).
        """
        prev, self._stage = self._stage, name
        try:
            yield
        finally:
            self._stage = prev

    # -- registration -----------------------------------------------------
    def add_source(self, source: SourceText) -> None:
        self.sources[source.name] = source

    def emit(self, diag: Diagnostic) -> None:
        if self.warnings_as_errors and diag.severity == Severity.WARNING:
            diag = replace(diag, severity=Severity.ERROR)
        if self._stage is not None and diag.stage is None:
            diag = replace(diag, stage=self._stage)
        self._diags.append(diag)
        if diag.is_error():
            self._errors += 1
            if self._errors > self.max_errors:
                raise XpdlError(
                    f"too many errors (> {self.max_errors}); aborting", self._diags
                )

    def emit_severity(
        self,
        severity: Severity,
        code: str,
        message: str,
        span: SourceSpan,
        *hints: str,
    ) -> None:
        """Emit with a runtime-chosen severity (doctor rules, lint knobs)."""
        self.emit(Diagnostic(severity, code, message, span, tuple(hints)))

    def note(self, code: str, message: str, span: SourceSpan, *hints: str) -> None:
        self.emit(Diagnostic(Severity.NOTE, code, message, span, hints))

    def warning(self, code: str, message: str, span: SourceSpan, *hints: str) -> None:
        self.emit(Diagnostic(Severity.WARNING, code, message, span, hints))

    def error(self, code: str, message: str, span: SourceSpan, *hints: str) -> None:
        self.emit(Diagnostic(Severity.ERROR, code, message, span, hints))

    def fatal(self, code: str, message: str, span: SourceSpan, *hints: str) -> None:
        self.emit(Diagnostic(Severity.FATAL, code, message, span, hints))

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        for d in diags:
            self.emit(d)

    # -- inspection --------------------------------------------------------
    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self._diags)

    def __len__(self) -> int:
        return len(self._diags)

    @property
    def diagnostics(self) -> tuple[Diagnostic, ...]:
        return tuple(self._diags)

    @property
    def error_count(self) -> int:
        return self._errors

    @property
    def warning_count(self) -> int:
        return sum(1 for d in self._diags if d.severity == Severity.WARNING)

    def has_errors(self) -> bool:
        return self.error_count > 0

    def errors(self) -> list[Diagnostic]:
        return [d for d in self._diags if d.is_error()]

    def raise_if_errors(self, exc_type: type[XpdlError] = XpdlError) -> None:
        """Raise ``exc_type`` when at least one error was collected."""
        if self.has_errors():
            n = self.error_count
            raise exc_type(f"{n} error{'s' if n != 1 else ''} reported", self._diags)

    def render(self, *, with_snippets: bool = True, dedupe: bool = False) -> str:
        return render_diagnostics(
            self._diags,
            sources=self.sources if with_snippets else None,
            dedupe=dedupe,
        )


def render_diagnostic(
    diag: Diagnostic, *, source: SourceText | None = None
) -> str:
    """Render one diagnostic, optionally with a source snippet."""
    parts = [str(diag)]
    if source is not None and source.name == diag.span.source:
        parts.append(source.snippet(diag.span))
    for hint in diag.hints:
        parts.append(f"  hint: {hint}")
    return "\n".join(parts)


def render_diagnostics(
    diags: Iterable[Diagnostic],
    *,
    sources: dict[str, SourceText] | None = None,
    dedupe: bool = False,
) -> str:
    """Render many diagnostics, sorted by file then position.

    With ``dedupe`` an identical diagnostic (same severity, code, message,
    span and stage) is rendered once per call, however many pipeline passes
    re-emitted it — a shared ``.xpdl`` descriptor referenced by several
    systems produces its notes once per CLI invocation, not once per
    system or repeat round.
    """
    ordered = sorted(
        diags, key=lambda d: (d.span.source, d.span.start.offset, -int(d.severity))
    )
    if dedupe:
        unique: list[Diagnostic] = []
        seen: set[Diagnostic] = set()
        for d in ordered:
            if d not in seen:
                seen.add(d)
                unique.append(d)
        ordered = unique
    blocks = []
    for d in ordered:
        src = sources.get(d.span.source) if sources else None
        blocks.append(render_diagnostic(d, source=src))
    return "\n".join(blocks)
