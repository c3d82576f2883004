"""DVFS governor policies for the fleet simulator.

A :class:`Governor` instance manages one machine's power state machine.
Once per interval the simulator calls :meth:`Governor.decide` with the
machine's current state, its utilization over the previous interval, the
fleet backlog, and a cycle-count prediction for the coming interval; the
governor returns the P-state name to run in.  The catalog mirrors the
Linux cpufreq family the paper's operation-time loop (TANGO, EXCESS)
targets:

``performance``
    Always the fastest running state.
``powersave``
    Always the slowest running state — a lower bound on power, usually at
    the cost of SLO.
``ondemand``
    Utilization-threshold governor with hysteresis: jumps to the fastest
    state on high utilization or backlog, steps one rung down only after
    several consecutive intervals in which the *projected* utilization at
    the lower state stays comfortably under the up-threshold.
``race-to-idle``
    Reuses :func:`repro.power.dvfs.best_state` to pick the
    energy-optimal state for the predicted work, then parks the machine
    in the PSM's lowest-power state for the slack
    (``wants_idle_parking``), paying all switch costs.
"""

from __future__ import annotations

from ..diagnostics import XpdlError
from ..power import PowerStateMachineModel
from ..power.dvfs import best_state
from ..units import Quantity


class Governor:
    """Per-machine P-state policy; subclasses implement :meth:`decide`."""

    name = "base"
    #: True when the simulator should park the machine in the PSM's
    #: lowest-power state during the idle tail of each interval.
    wants_idle_parking = False

    def __init__(self, psm: PowerStateMachineModel) -> None:
        self.psm = psm
        #: Running states, ascending frequency.
        self.ladder = [s.name for s in psm.by_frequency() if not s.is_off()]
        if not self.ladder:
            raise XpdlError(f"PSM {psm.name!r} has no running state to govern")
        #: State name -> frequency magnitude, hoisted out of the
        #: per-interval path (psm.state() is a dict lookup plus a Quantity
        #: attribute chain per call otherwise).
        self._freq = {
            name: psm.state(name).frequency.magnitude for name in self.ladder
        }

    def reset(self) -> None:
        """Forget per-run policy state (hysteresis counters etc.)."""

    def decide(
        self,
        current: str,
        util: float,
        backlog: int,
        pred_cycles: float,
        interval: Quantity,
    ) -> str:
        raise NotImplementedError


class PerformanceGovernor(Governor):
    name = "performance"

    def decide(self, current, util, backlog, pred_cycles, interval):
        return self.ladder[-1]


class PowersaveGovernor(Governor):
    name = "powersave"

    def decide(self, current, util, backlog, pred_cycles, interval):
        return self.ladder[0]


class OndemandGovernor(Governor):
    """Threshold governor with one-rung down-steps and hysteresis.

    Stepping down is deliberately conservative: the utilization the lower
    state *would* have seen (``util * f_cur / f_lower``) must stay under
    ``down_threshold`` for ``hysteresis`` consecutive intervals, so a
    rising diurnal flank never out-runs the ladder.  Stepping up is
    immediate and jumps straight to the fastest state, like cpufreq's
    ondemand.
    """

    name = "ondemand"
    up_threshold = 0.75
    down_threshold = 0.45
    hysteresis = 3

    def __init__(self, psm: PowerStateMachineModel) -> None:
        super().__init__(psm)
        self._low_streak = 0

    def reset(self) -> None:
        self._low_streak = 0

    def _frequency(self, state: str) -> float:
        return self._freq[state]

    def decide(self, current, util, backlog, pred_cycles, interval):
        if current not in self.ladder:
            # Parked or off: come back up to full speed first.
            self._low_streak = 0
            return self.ladder[-1]
        if backlog > 0 or util >= self.up_threshold:
            self._low_streak = 0
            return self.ladder[-1]
        idx = self.ladder.index(current)
        if idx == 0:
            self._low_streak = 0
            return current
        lower = self.ladder[idx - 1]
        projected = util * self._frequency(current) / self._frequency(lower)
        if projected <= self.down_threshold:
            self._low_streak += 1
            if self._low_streak >= self.hysteresis:
                self._low_streak = 0
                return lower
            return current
        self._low_streak = 0
        return current


class RaceToIdleGovernor(Governor):
    """Energy-optimal state for the predicted work, then park in idle.

    :func:`~repro.power.dvfs.best_state` evaluates every running state
    with full switch-plan accounting.  It computes in float magnitudes,
    yet a ranking still costs many times another governor's ladder
    lookup; a sweep therefore deals every policy's cells to every
    worker.  Its inputs here are discrete (the current state, and a predicted cycle
    count that is always ``n_requests * cycles_per_req`` for integer
    ``n``), so decisions are memoized on the exact
    ``(current, pred_cycles, interval)`` triple: a cache hit returns the
    identical decision the ranking would have produced.
    """

    name = "race-to-idle"
    wants_idle_parking = True
    #: Head-room multiplier on the last interval's observed work, so a
    #: rising load does not out-run the one-interval-lagged prediction.
    safety = 1.3

    def __init__(self, psm: PowerStateMachineModel) -> None:
        super().__init__(psm)
        self._memo: dict[tuple[str, float, float], str] = {}

    def reset(self) -> None:
        self._memo.clear()

    def decide(self, current, util, backlog, pred_cycles, interval):
        if backlog > 0:
            # Mirrors the unmemoized order of checks: with a backlog the
            # ranking result is discarded, so it need not be computed.
            return self.ladder[-1]
        key = (current, pred_cycles, interval.magnitude)
        target = self._memo.get(key)
        if target is None:
            cycles = max(pred_cycles, 1.0) * self.safety
            choice = best_state(self.psm, cycles, interval, start_state=current)
            target = self.ladder[-1] if choice is None else choice.state
            self._memo[key] = target
        return target


GOVERNORS: dict[str, type[Governor]] = {
    g.name: g
    for g in (
        PerformanceGovernor,
        PowersaveGovernor,
        OndemandGovernor,
        RaceToIdleGovernor,
    )
}


def make_governor(name: str, psm: PowerStateMachineModel) -> Governor:
    try:
        cls = GOVERNORS[name]
    except KeyError:
        raise XpdlError(
            f"unknown governor {name!r}; policies: {', '.join(GOVERNORS)}"
        ) from None
    return cls(psm)
