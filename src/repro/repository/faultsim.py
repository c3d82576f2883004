"""Deterministic fault injection for simulated remote stores.

The paper's distributed repository (Sec. II) downloads descriptors from
manufacturer sites; exercising the toolchain's resilience needs *scripted*
failures, not flaky ones.  A :class:`FaultPlan` maps descriptor paths (exact
or fnmatch patterns) to :class:`FaultSchedule`\\ s and replays them
deterministically: the n-th request for a given path always produces the
same :class:`FaultOutcome`, so a failing test reproduces bit-for-bit.

Schedules cover the canonical failure shapes:

* :class:`FailKTimes` — fail the first ``k`` requests per path, then
  succeed (a recovering outage; a ``k < attempts`` retry policy absorbs it);
* :class:`AlwaysFail` — a dead remote (only an offline mirror helps);
* :class:`SlowThenFail` — degrade latency for a while, then go dark (the
  classic brown-out that should trip a circuit breaker);
* :class:`FailEvery` — every ``k``-th request over the whole store fails
  (``--fault every:K``).

Plans are plain picklable data, so a repository carrying one survives the
``xpdl build`` process-pool boundary (each worker replays its own copy).
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field

from ..diagnostics import XpdlError

#: Pseudo-path under which a store's *listing* request is scheduled; a plan
#: whose schedule fails this path makes ``list_paths()`` fail too (a dead
#: remote cannot even be enumerated).
LISTING_PATH = "<list>"


@dataclass(frozen=True, slots=True)
class FaultOutcome:
    """What the fault injector decided for one request."""

    fail: bool = False
    #: Multiplier on the store's base latency (slow brown-outs).
    latency_factor: float = 1.0
    reason: str = ""


#: The common case: no fault, nominal latency.
OK_OUTCOME = FaultOutcome()


class FaultSchedule:
    """Deterministic per-path failure policy.

    ``outcome(path, n_path, n_total)`` is a pure function of the request
    ordinals — ``n_path`` counts requests for this path (1-based),
    ``n_total`` counts requests across the whole plan — so replaying the
    same request sequence replays the same faults.
    """

    def outcome(self, path: str, n_path: int, n_total: int) -> FaultOutcome:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True, slots=True)
class NoFaults(FaultSchedule):
    """Always succeed (the default schedule)."""

    def outcome(self, path: str, n_path: int, n_total: int) -> FaultOutcome:
        return OK_OUTCOME

    def describe(self) -> str:
        return "none"


@dataclass(frozen=True, slots=True)
class FailKTimes(FaultSchedule):
    """Fail the first ``k`` requests for each path, then succeed."""

    k: int

    def outcome(self, path: str, n_path: int, n_total: int) -> FaultOutcome:
        if n_path <= self.k:
            return FaultOutcome(
                fail=True, reason=f"scripted failure {n_path}/{self.k}"
            )
        return OK_OUTCOME

    def describe(self) -> str:
        return f"fail:{self.k}"


@dataclass(frozen=True, slots=True)
class AlwaysFail(FaultSchedule):
    """A permanently dead remote."""

    def outcome(self, path: str, n_path: int, n_total: int) -> FaultOutcome:
        return FaultOutcome(fail=True, reason="remote permanently down")

    def describe(self) -> str:
        return "dead"


@dataclass(frozen=True, slots=True)
class SlowThenFail(FaultSchedule):
    """Serve the first ``slow_requests`` per path slowly, then go dark."""

    slow_requests: int
    latency_factor: float = 4.0

    def outcome(self, path: str, n_path: int, n_total: int) -> FaultOutcome:
        if n_path <= self.slow_requests:
            return FaultOutcome(
                latency_factor=self.latency_factor,
                reason=f"brown-out {n_path}/{self.slow_requests}",
            )
        return FaultOutcome(fail=True, reason="remote down after brown-out")

    def describe(self) -> str:
        return f"slow-fail:{self.slow_requests}:{self.latency_factor:g}"


@dataclass(frozen=True, slots=True)
class FailEvery(FaultSchedule):
    """Every ``k``-th request across the whole plan fails (store-wide)."""

    k: int

    def outcome(self, path: str, n_path: int, n_total: int) -> FaultOutcome:
        if self.k and n_total % self.k == 0:
            return FaultOutcome(fail=True, reason=f"every-{self.k} failure")
        return OK_OUTCOME

    def describe(self) -> str:
        return f"every:{self.k}"


@dataclass
class FaultPlan:
    """Scripted failure schedules per descriptor path.

    Rules pair an fnmatch pattern with a schedule; the first matching rule
    wins, ``default`` covers the rest.  The plan owns the request counters,
    so one plan instance must not be shared between stores that should
    fault independently.
    """

    default: FaultSchedule = field(default_factory=NoFaults)
    rules: list[tuple[str, FaultSchedule]] = field(default_factory=list)
    _path_counts: dict[str, int] = field(default_factory=dict, repr=False)
    _total: int = field(default=0, repr=False)

    def add(self, pattern: str, schedule: FaultSchedule) -> "FaultPlan":
        self.rules.append((pattern, schedule))
        return self

    def schedule_for(self, path: str) -> FaultSchedule:
        for pattern, schedule in self.rules:
            if path == pattern or fnmatch.fnmatch(path, pattern):
                return schedule
        return self.default

    def outcome_for(self, path: str) -> FaultOutcome:
        """Advance the counters and script the next outcome for ``path``."""
        self._total += 1
        n = self._path_counts.get(path, 0) + 1
        self._path_counts[path] = n
        return self.schedule_for(path).outcome(path, n, self._total)

    def reset(self) -> None:
        """Rewind every counter; the plan replays from the beginning."""
        self._path_counts.clear()
        self._total = 0

    @property
    def requests(self) -> int:
        return self._total

    def describe(self) -> str:
        parts = [self.default.describe()]
        parts.extend(f"{pat}={s.describe()}" for pat, s in self.rules)
        return ";".join(parts)

    # -- the CLI spec grammar ----------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a compact spec string.

        ``spec`` is ``;``-separated rules of ``[PATTERN=]SCHEDULE`` where a
        bare schedule sets the default; a rule with ``=`` and an empty
        pattern is an error, not the default.  Schedules::

            none                  no faults
            fail:K                fail the first K requests per path
            dead                  always fail
            every:K               every K-th request (store-wide) fails
            slow-fail:N[:FACTOR]  N slow requests per path, then dead
        """
        plan = cls()
        for raw in spec.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            pattern, sep, sched_spec = raw.partition("=")
            if not sep:
                plan.default = _parse_schedule(raw)
            elif pattern.strip():
                plan.add(pattern.strip(), _parse_schedule(sched_spec.strip()))
            else:
                raise XpdlError(f"bad fault rule {raw!r}: empty path pattern before '='")
        return plan


def _positive(raw: str, spec: str) -> int:
    value = int(raw)
    if value < 1:
        raise XpdlError(f"bad fault schedule {spec!r}: count must be >= 1")
    return value


def _parse_schedule(spec: str) -> FaultSchedule:
    name, _, rest = spec.partition(":")
    args = [a for a in rest.split(":") if a] if rest else []
    try:
        if name == "none" and not args:
            return NoFaults()
        if name == "dead" and not args:
            return AlwaysFail()
        if name == "fail" and len(args) == 1:
            return FailKTimes(_positive(args[0], spec))
        if name == "every" and len(args) == 1:
            return FailEvery(_positive(args[0], spec))
        if name == "slow-fail" and len(args) in (1, 2):
            factor = float(args[1]) if len(args) == 2 else 4.0
            return SlowThenFail(_positive(args[0], spec), factor)
    except ValueError as exc:
        raise XpdlError(f"bad fault schedule {spec!r}: {exc}") from None
    raise XpdlError(
        f"bad fault schedule {spec!r} (expected none, dead, fail:K, "
        "every:K or slow-fail:N[:FACTOR])"
    )
