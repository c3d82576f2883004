"""The ``Quantity``-arithmetic DVFS evaluation, kept as a test oracle.

:func:`repro.power.dvfs.evaluate_state` computes in float magnitudes and
wraps its results in :class:`~repro.units.Quantity` once.  This module
keeps the earlier body, in which every term is a dimension-checked
``Quantity`` operation, so tests can hold the float body to it field for
field, bit for bit, and exception for exception.
"""

from __future__ import annotations

from repro.power.dvfs import StateChoice
from repro.power.psm import PowerStateMachineModel
from repro.units import ENERGY, TIME, Quantity


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
    run_time = Quantity(cycles / state.frequency.magnitude, TIME)
    switch_energy = Quantity(0.0, ENERGY)
    switch_time = Quantity(0.0, TIME)
    if start != state_name:
        plan = psm.switch_plan(start, state_name)
        switch_energy = switch_energy + plan.energy
        switch_time = switch_time + plan.time
    total_busy = run_time + switch_time
    idle_time = deadline - total_busy
    feasible = idle_time.magnitude >= 0.0
    energy = state.power * run_time
    if dynamic_energy_per_cycle is not None:
        energy = energy + dynamic_energy_per_cycle * cycles
    if feasible and idle_time.magnitude > 0.0 and idle.name != state_name:
        plan = psm.switch_plan(state_name, idle.name)
        if plan.time.magnitude <= idle_time.magnitude:
            switch_energy = switch_energy + plan.energy
            idle_run = idle_time - plan.time
            energy = energy + idle.power * idle_run
        else:
            energy = energy + state.power * idle_time
    elif feasible and idle_time.magnitude > 0.0:
        energy = energy + idle.power * idle_time
    return StateChoice(
        state_name,
        feasible,
        run_time,
        max(idle_time, Quantity(0.0, TIME), key=lambda q: q.magnitude),
        energy,
        switch_energy,
    )


def optimize_state(
    psm: PowerStateMachineModel,
    cycles: float,
    deadline: Quantity,
    *,
    start_state: str | None = None,
    dynamic_energy_per_cycle: Quantity | None = None,
) -> list[StateChoice]:
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
    choices.sort(key=lambda c: (not c.feasible, c.total_energy.magnitude))
    return choices
