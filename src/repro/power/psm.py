"""Executable power state machines.

Lifts the declarative ``<power_state_machine>`` descriptor (Listing 13) into
an executable FSM: states with frequency/power levels, transitions with
time/energy overheads, validation, and switching-path search (when a direct
transition is missing, the cheapest multi-hop switching sequence is used —
with a diagnostic, since the paper requires complete transition tables).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..diagnostics import UnitError, XpdlError
from ..model import (
    ModelElement,
    PowerState,
    PowerStateMachine,
    Transition,
)
from ..units import (
    ENERGY,
    FREQUENCY,
    POWER,
    TIME,
    Dimension,
    Quantity,
    dimension_name,
)


@dataclass(frozen=True, slots=True)
class PowerStateDef:
    """One P/C state."""

    name: str
    frequency: Quantity  # 0 Hz for sleep/off states
    power: Quantity

    def is_off(self) -> bool:
        return self.frequency.magnitude == 0.0


@dataclass(frozen=True, slots=True)
class TransitionDef:
    """A directed switching with overhead costs."""

    head: str
    tail: str
    time: Quantity
    energy: Quantity


@dataclass
class SwitchPlan:
    """The cost of getting from one state to another, possibly multi-hop."""

    path: tuple[str, ...]
    time: Quantity
    energy: Quantity
    direct: bool

    @property
    def hops(self) -> int:
        return len(self.path) - 1


def _require_dimension(
    psm: str, what: str, value: Quantity, expected: Dimension
) -> None:
    if value.dimension != expected:
        raise UnitError(
            f"PSM {psm!r}: {what} is {dimension_name(value.dimension)}, "
            f"expected {dimension_name(expected)}"
        )


class PowerStateMachineModel:
    """Executable FSM over declared power states.

    Construction rejects, with a :class:`UnitError`, a state frequency or
    power, or a transition time or energy, of the wrong dimension.
    """

    def __init__(
        self,
        name: str,
        states: list[PowerStateDef],
        transitions: list[TransitionDef],
        *,
        power_domain: str | None = None,
    ) -> None:
        if not states:
            raise XpdlError(f"power state machine {name!r} has no states")
        # Dimensions are checked here, once, so that the DVFS evaluation
        # can compute in plain float magnitudes.
        for s in states:
            what = f"state {s.name!r}"
            _require_dimension(name, f"{what} frequency", s.frequency, FREQUENCY)
            _require_dimension(name, f"{what} power", s.power, POWER)
        self.name = name
        self.power_domain = power_domain
        self.states = {s.name: s for s in states}
        self.order = [s.name for s in states]
        # States never change after construction: rank them once.
        self._by_frequency = tuple(
            sorted(self.states.values(), key=lambda s: s.frequency.magnitude)
        )
        self._idle = min(self.states.values(), key=lambda s: s.power.magnitude)
        self.transitions: dict[tuple[str, str], TransitionDef] = {}
        for t in transitions:
            if t.head not in self.states or t.tail not in self.states:
                raise XpdlError(
                    f"transition {t.head}->{t.tail} of PSM {name!r} names "
                    "an undeclared state"
                )
            arc = f"transition {t.head}->{t.tail}"
            _require_dimension(name, f"{arc} time", t.time, TIME)
            _require_dimension(name, f"{arc} energy", t.energy, ENERGY)
            self.transitions[(t.head, t.tail)] = t
        self._plan_cache: dict[tuple[str, str, str], SwitchPlan] = {}

    # -- construction from model elements ----------------------------------
    @staticmethod
    def from_element(psm: ModelElement) -> "PowerStateMachineModel":
        if not isinstance(psm, PowerStateMachine):
            raise XpdlError(
                f"expected a power_state_machine element, got <{psm.kind}>"
            )
        states = []
        for s in psm.find_all(PowerState):
            f = s.frequency or Quantity(0.0, FREQUENCY)
            p = s.power or Quantity(0.0, POWER)
            states.append(PowerStateDef(s.name or f"S{len(states)}", f, p))
        transitions = []
        for t in psm.find_all(Transition):
            transitions.append(
                TransitionDef(
                    t.attrs.get("head", ""),
                    t.attrs.get("tail", ""),
                    t.time or Quantity(0.0, TIME),
                    t.energy or Quantity(0.0, ENERGY),
                )
            )
        return PowerStateMachineModel(
            psm.name or psm.ident or "psm",
            states,
            transitions,
            power_domain=psm.attrs.get("power_domain"),
        )

    # -- queries ---------------------------------------------------------------
    def state(self, name: str) -> PowerStateDef:
        try:
            return self.states[name]
        except KeyError:
            raise XpdlError(
                f"PSM {self.name!r} has no state {name!r}; "
                f"states: {', '.join(self.order)}"
            ) from None

    def state_names(self) -> list[str]:
        return list(self.order)

    def by_frequency(self) -> tuple[PowerStateDef, ...]:
        """States sorted by ascending frequency (ties in declaration order)."""
        return self._by_frequency

    def fastest(self) -> PowerStateDef:
        return self.by_frequency()[-1]

    def slowest_running(self) -> PowerStateDef:
        running = [s for s in self.by_frequency() if not s.is_off()]
        if not running:
            raise XpdlError(f"PSM {self.name!r} has no running state")
        return running[0]

    def idle_state(self) -> PowerStateDef:
        """The lowest-power state (sleep state if one is modeled; the first
        declared of equal-power states)."""
        return self._idle

    def is_complete(self) -> bool:
        """True when every ordered state pair has a direct transition."""
        n = len(self.states)
        return len(self.transitions) >= n * (n - 1)

    def missing_transitions(self) -> list[tuple[str, str]]:
        return [
            (a, b)
            for a in self.order
            for b in self.order
            if a != b and (a, b) not in self.transitions
        ]

    # -- switching ------------------------------------------------------------------
    def switch_plan(
        self, src: str, dst: str, *, optimize: str = "time"
    ) -> SwitchPlan:
        """Cheapest switching sequence from ``src`` to ``dst``.

        ``optimize`` is ``"time"`` or ``"energy"``.  Uses the direct
        transition when declared; otherwise searches multi-hop sequences
        (Dijkstra over declared transitions).
        """
        if src == dst:
            return SwitchPlan((src,), Quantity(0.0, TIME), Quantity(0.0, ENERGY), True)
        self.state(src)
        self.state(dst)
        key = (src, dst, optimize)
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        # Dijkstra on the chosen cost metric; a declared direct transition
        # is still taken unless a multi-hop sequence is strictly cheaper.
        metric = (lambda t: t.time.magnitude) if optimize == "time" else (
            lambda t: t.energy.magnitude
        )
        dist: dict[str, float] = {src: 0.0}
        prev: dict[str, tuple[str, TransitionDef]] = {}
        heap: list[tuple[float, str]] = [(0.0, src)]
        while heap:
            d, cur = heapq.heappop(heap)
            if cur == dst:
                break
            if d > dist.get(cur, float("inf")):
                continue
            for (h, t), tr in self.transitions.items():
                if h != cur:
                    continue
                nd = d + metric(tr)
                if nd < dist.get(t, float("inf")):
                    dist[t] = nd
                    prev[t] = (cur, tr)
                    heapq.heappush(heap, (nd, t))
        if dst not in prev:
            raise XpdlError(
                f"PSM {self.name!r}: no switching path {src} -> {dst}"
            )
        path = [dst]
        total_t = Quantity(0.0, TIME)
        total_e = Quantity(0.0, ENERGY)
        cur = dst
        while cur != src:
            p, tr = prev[cur]
            total_t = total_t + tr.time
            total_e = total_e + tr.energy
            path.append(p)
            cur = p
        full_path = tuple(reversed(path))
        plan = SwitchPlan(
            full_path, total_t, total_e, direct=len(full_path) == 2
        )
        self._plan_cache[key] = plan
        return plan


@dataclass
class PsmCursor:
    """Tracks the current state of one PSM instance, accumulating costs."""

    psm: PowerStateMachineModel
    current: str
    switch_time: Quantity = field(
        default_factory=lambda: Quantity(0.0, TIME)
    )
    switch_energy: Quantity = field(
        default_factory=lambda: Quantity(0.0, ENERGY)
    )
    switches: int = 0

    def go(self, dst: str, *, optimize: str = "time") -> SwitchPlan:
        plan = self.psm.switch_plan(self.current, dst, optimize=optimize)
        self.switch_time = self.switch_time + plan.time
        self.switch_energy = self.switch_energy + plan.energy
        self.switches += plan.hops
        self.current = dst
        return plan

    @property
    def state(self) -> PowerStateDef:
        return self.psm.state(self.current)
