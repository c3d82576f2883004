"""The cursor-walk fleet simulator: the oracle ``run_policy`` is held to.

:meth:`repro.fleet.FleetSimulator.run_policy` runs on memoized per-state
tables.  This module keeps the straightforward object-walking loop it
was derived from: a fresh :class:`~repro.power.PsmCursor` per machine
per policy, ``run_stream``/``run_idle`` on the live machines.  The
equivalence tests require the two to agree *bit for bit* — exact float
equality on every :class:`~repro.fleet.PolicyResult` field, identical
report JSON and digests, identical ``fleet.query.state_checks`` counts.

The walk re-seats the testbed machines' cursors, so give it a testbed
no other test shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from unittest import mock

from repro.diagnostics import XpdlError
from repro.fleet import FleetReport, FleetSimulator, PolicyResult, Trace
from repro.fleet import simulator as _simulator
from repro.fleet.governors import Governor, make_governor
from repro.obs import get_observer
from repro.power import PsmCursor
from repro.simhw import SimMachine
from repro.units import TIME, Quantity


@dataclass
class _MachineState:
    """Per-run bookkeeping for one machine."""

    machine: SimMachine
    governor: Governor | None
    mix: dict[str, int]
    req_cycles: float
    last_util: float
    pred_cycles: float


class CursorFleetSimulator(FleetSimulator):
    """A :class:`FleetSimulator` whose ``run_policy`` walks PSM cursors."""

    def _fresh_states(self, policy: str, interval_s: float) -> list[_MachineState]:
        states = []
        for name in sorted(self.testbed.machines):
            m = self.testbed.machines[name]
            if m.psm is not None:
                # Fresh cursor per policy run: byte-stable, no cross-policy
                # contamination of switch accounting.
                m.cursor = PsmCursor(m.psm, m.psm.fastest().name)
                governor: Governor | None = make_governor(policy, m.psm)
                governor.reset()
            else:
                governor = None
            states.append(
                _MachineState(
                    machine=m,
                    governor=governor,
                    mix=self._mixes[name],
                    req_cycles=self._cycles[name],
                    last_util=1.0,
                    pred_cycles=self._machine_peak(m, interval_s)
                    * self._cycles[name],
                )
            )
        return states

    def _checked_state(self, machine: str, state: str) -> str:
        catalog = self.state_catalog.get(machine)
        if catalog is not None:
            get_observer().count("fleet.query.state_checks")
            if state not in catalog:
                raise XpdlError(
                    f"governor chose state {state!r} for machine "
                    f"{machine!r}, absent from the compiled index catalog"
                )
        return state

    def run_policy(self, policy: str, trace: Trace) -> PolicyResult:
        obs = get_observer()
        interval_s = trace.interval_s
        interval_q = Quantity(interval_s, TIME)
        peak = self.peak_capacity(interval_s)
        states = self._fresh_states(policy, interval_s)

        backlog = 0
        offered_total = 0
        served_total = 0
        slo_met = 0
        busy_j = idle_j = switch_j = 0.0
        switches = 0

        for i in range(trace.intervals):
            offered = int(round(trace.offered[i] * peak))
            offered_total += offered
            demand = offered + backlog

            # Pass A: governor decisions + switches + capacities.
            plans: list[tuple[_MachineState, bool, float, float, int]] = []
            for st in states:
                m = st.machine
                down = trace.is_down(m.name, i)
                sw_t = sw_e = 0.0
                if down:
                    plans.append((st, True, 0.0, 0.0, 0))
                    continue
                if st.governor is not None and m.cursor is not None:
                    target = self._checked_state(
                        m.name,
                        st.governor.decide(
                            m.cursor.current,
                            st.last_util,
                            backlog,
                            st.pred_cycles,
                            interval_q,
                        ),
                    )
                    if target != m.cursor.current:
                        plan = m.cursor.go(target)
                        sw_t = plan.time.magnitude
                        sw_e = plan.energy.magnitude
                        switches += plan.hops
                req_t = st.req_cycles / m.frequency.magnitude
                capacity = max(0, int((interval_s - sw_t) / req_t))
                plans.append((st, False, sw_t, sw_e, capacity))

            # Pass B: greedy allocation, fastest machines first.
            order = sorted(
                range(len(plans)),
                key=lambda k: (
                    -plans[k][0].machine.frequency.magnitude,
                    plans[k][0].machine.name,
                ),
            )
            allocation = [0] * len(plans)
            remaining = demand
            for k in order:
                st, down, _sw_t, _sw_e, capacity = plans[k]
                if down or remaining <= 0:
                    continue
                n = min(capacity, remaining)
                allocation[k] = n
                remaining -= n
            served = demand - remaining
            backlog = remaining
            served_total += served
            if backlog == 0:
                slo_met += 1

            # Pass C: exact energy accounting.
            for k, (st, down, sw_t, sw_e, _capacity) in enumerate(plans):
                m = st.machine
                if down:
                    st.last_util = 0.0
                    st.pred_cycles = 0.0
                    continue
                n = allocation[k]
                switch_j += sw_e
                busy_t = 0.0
                if n > 0:
                    counts = {
                        name: count * n for name, count in st.mix.items()
                    }
                    run = m.run_stream(counts)
                    busy_j += run.energy.magnitude
                    busy_t = run.duration.magnitude
                idle_t = max(0.0, interval_s - sw_t - busy_t)
                if idle_t > 0.0:
                    if (
                        st.governor is not None
                        and st.governor.wants_idle_parking
                        and m.psm is not None
                        and m.cursor is not None
                    ):
                        park = m.psm.idle_state().name
                        if park != m.cursor.current:
                            plan = m.psm.switch_plan(m.cursor.current, park)
                            if plan.time.magnitude < idle_t:
                                plan = m.cursor.go(park)
                                switch_j += plan.energy.magnitude
                                switches += plan.hops
                                idle_t -= plan.time.magnitude
                    rest = m.run_idle(Quantity(idle_t, TIME))
                    idle_j += rest.energy.magnitude
                st.last_util = min(1.0, (busy_t + sw_t) / interval_s)
                st.pred_cycles = n * st.req_cycles
                obs.record("fleet.machine.util", st.last_util)

            obs.count("fleet.intervals")
            obs.gauge("fleet.backlog", float(backlog))

        obs.count("fleet.requests.offered", offered_total)
        obs.count("fleet.requests.served", served_total)
        obs.count("fleet.switches", switches)
        obs.mark(
            "fleet.policy",
            policy=policy,
            trace=trace.kind,
            seed=trace.seed,
            energy_j=round(busy_j + idle_j + switch_j, 6),
        )
        return PolicyResult(
            policy=policy,
            intervals=trace.intervals,
            offered=offered_total,
            served=served_total,
            final_backlog=backlog,
            slo_met_intervals=slo_met,
            busy_j=busy_j,
            idle_j=idle_j,
            switch_j=switch_j,
            switches=switches,
        )


def simulate_fleet_cursor(*args, **kwargs) -> FleetReport:
    """:func:`repro.fleet.simulate_fleet` with the cursor walk inside."""
    with mock.patch.object(_simulator, "FleetSimulator", CursorFleetSimulator):
        return _simulator.simulate_fleet(*args, **kwargs)
