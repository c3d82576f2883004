"""DVFS optimization over a power state machine.

The classic deployment-time question the XPDL power model answers: *given a
workload of C cycles and a deadline D, which power state (or state schedule)
minimizes energy?*  Two regimes compete:

* **race-to-idle**: run at a high state, finish early, idle in the
  lowest-power state for the rest of the deadline;
* **pace**: run at the slowest state that still meets the deadline.

Which wins depends on the state power curve and the idle power — exactly
the data the PSM carries.  :func:`optimize_state` evaluates every state
(including switching overheads to enter it and to reach idle afterwards)
and returns the full ranking, which E5's bench sweeps across deadlines to
show the crossover.  The fleet's race-to-idle governor asks
:func:`best_state` once per memo miss, so :func:`evaluate_state`, the one
implementation all of them share, computes in float magnitudes: units
are checked where values enter (PSM construction, the deadline, the
dynamic-energy term), not on every operation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..diagnostics import UnitError, XpdlError
from ..units import ENERGY, TIME, Quantity, dimension_name
from .psm import PowerStateMachineModel


@dataclass
class StateChoice:
    """Evaluation of running the whole workload in one state."""

    state: str
    feasible: bool
    run_time: Quantity
    idle_time: Quantity
    energy: Quantity
    switch_energy: Quantity

    @property
    def total_energy(self) -> Quantity:
        return self.energy + self.switch_energy


def evaluate_state(
    psm: PowerStateMachineModel,
    state_name: str,
    cycles: float,
    deadline: Quantity,
    *,
    start_state: str | None = None,
    idle_state: str | None = None,
    dynamic_energy_per_cycle: Quantity | None = None,
) -> StateChoice:
    """Cost of running ``cycles`` in ``state_name`` within ``deadline``.

    The remaining deadline is spent in ``idle_state`` (default: the PSM's
    lowest-power state).  Switch costs from ``start_state`` into the run
    state and from the run state into idle are included.

    The body computes in float magnitudes: the PSM checked its states'
    and transitions' dimensions when it was built, and ``deadline`` and
    ``dynamic_energy_per_cycle`` are checked here, once, where the
    dimension-checked arithmetic would have first combined them.  The
    results are wrapped in :class:`Quantity` once, at the end.  Every
    term is the one ``Quantity`` arithmetic computes (the ``0.0 +``
    switch sums, ``float(cycles)``), so results are bit-identical to it.
    """
    state = psm.state(state_name)
    idle = psm.state(idle_state) if idle_state else psm.idle_state()
    start = start_state or state_name

    if state.is_off():
        return StateChoice(
            state_name,
            False,
            Quantity(float("inf"), TIME),
            Quantity(0.0, TIME),
            Quantity(float("inf"), ENERGY),
            Quantity(0.0, ENERGY),
        )
    power = state.power.magnitude
    run_time = cycles / state.frequency.magnitude
    switch_energy = 0.0
    switch_time = 0.0
    if start != state_name:
        plan = psm.switch_plan(start, state_name)
        switch_energy = 0.0 + plan.energy.magnitude
        switch_time = 0.0 + plan.time.magnitude
    if deadline.dimension != TIME:
        raise UnitError(
            f"cannot subtract {dimension_name(deadline.dimension)} and time"
        )
    idle_time = deadline.magnitude - (run_time + switch_time)
    feasible = idle_time >= 0.0
    energy = power * run_time
    if dynamic_energy_per_cycle is not None:
        if dynamic_energy_per_cycle.dimension != ENERGY:
            raise UnitError(
                "cannot add energy and "
                f"{dimension_name(dynamic_energy_per_cycle.dimension)}"
            )
        energy = energy + dynamic_energy_per_cycle.magnitude * float(cycles)
    if feasible and idle_time > 0.0 and idle.name != state_name:
        plan = psm.switch_plan(state_name, idle.name)
        # Entering idle only pays off if its overhead fits the slack.
        if plan.time.magnitude <= idle_time:
            switch_energy = switch_energy + plan.energy.magnitude
            idle_run = idle_time - plan.time.magnitude
            energy = energy + idle.power.magnitude * idle_run
        else:
            energy = energy + power * idle_time
    elif feasible and idle_time > 0.0:
        energy = energy + idle.power.magnitude * idle_time
    # max() keeps its first argument unless the second is greater, so a
    # -0.0 or NaN idle time is reported as is.
    return StateChoice(
        state_name,
        feasible,
        Quantity(run_time, TIME),
        Quantity(max(idle_time, 0.0), TIME),
        Quantity(energy, ENERGY),
        Quantity(switch_energy, ENERGY),
    )


def optimize_state(
    psm: PowerStateMachineModel,
    cycles: float,
    deadline: Quantity,
    *,
    start_state: str | None = None,
    dynamic_energy_per_cycle: Quantity | None = None,
) -> list[StateChoice]:
    """Rank all running states for the workload; best (feasible) first."""
    choices = [
        evaluate_state(
            psm,
            s.name,
            cycles,
            deadline,
            start_state=start_state,
            dynamic_energy_per_cycle=dynamic_energy_per_cycle,
        )
        for s in psm.by_frequency()
        if not s.is_off()
    ]
    # The sort key is ``total_energy``'s magnitude, summed without
    # building the Quantity.
    choices.sort(
        key=lambda c: (
            not c.feasible,
            c.energy.magnitude + c.switch_energy.magnitude,
        )
    )
    return choices


def best_state(
    psm: PowerStateMachineModel,
    cycles: float,
    deadline: Quantity,
    **kwargs,
) -> StateChoice | None:
    """The energy-optimal feasible state, or None if the deadline is
    unmeetable at every state."""
    ranked = optimize_state(psm, cycles, deadline, **kwargs)
    for choice in ranked:
        if choice.feasible:
            return choice
    return None


def energy_delay_product(choice: StateChoice) -> float:
    """EDP of a state choice — a common secondary metric."""
    return choice.total_energy.magnitude * choice.run_time.magnitude


def thermally_sustainable_states(
    psm: PowerStateMachineModel,
    node,
    *,
    dynamic_power_w: float = 0.0,
    margin_c: float = 0.0,
) -> list[str]:
    """Running states whose steady-state temperature stays under the limit.

    Combines the two data sets the descriptors carry — the PSM's per-state
    power and the component's thermal RC + ``max_temperature`` — into the
    feasible DVFS range for *sustained* operation.  ``dynamic_power_w`` is
    activity power at the fastest level, scaled by (f/f_top)^2 down the
    ladder.  States above the limit remain usable in bursts (the throttler
    governs those); this filter is for steady-state planning.
    """
    if node.max_temperature_c is None:
        raise XpdlError(
            f"thermal node {node.name!r} declares no max_temperature"
        )
    running = [s for s in psm.by_frequency() if not s.is_off()]
    if not running:
        return []
    f_top = running[-1].frequency.magnitude
    out = []
    for s in running:
        ratio = s.frequency.magnitude / f_top
        power = s.power.magnitude + dynamic_power_w * ratio * ratio
        if node.steady_state_c(power) <= node.max_temperature_c - margin_c:
            out.append(s.name)
    return out


def best_sustainable_state(
    psm: PowerStateMachineModel,
    node,
    cycles: float,
    deadline: Quantity,
    *,
    dynamic_power_w: float = 0.0,
    margin_c: float = 0.0,
    **kwargs,
) -> StateChoice | None:
    """Energy-optimal state that is both deadline- and thermally-feasible."""
    allowed = set(
        thermally_sustainable_states(
            psm, node, dynamic_power_w=dynamic_power_w, margin_c=margin_c
        )
    )
    ranked = optimize_state(psm, cycles, deadline, **kwargs)
    for choice in ranked:
        if choice.feasible and choice.state in allowed:
            return choice
    return None
