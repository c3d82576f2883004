"""The discrete-interval fleet simulator.

Load model: a *request* is a fixed instruction mix (drawn from each
machine's ISA ground truth) of ``request_ops`` total instructions.  The
trace's offered fraction is scaled by the fleet's *peak capacity* — the
requests per interval the fleet serves with every machine pinned to its
fastest state — into an integer request count per interval.  Unserved
requests queue: the next interval's demand is ``offered + backlog``.

Per interval, for every machine:

1. its governor picks a P-state from the machine's PSM (validated
   against the compiled :class:`~repro.runtime.index.IRIndex` state
   catalog when one is supplied), and the machine switches along the
   PSM's switch plan — paying the declared transition time/energy,
   multi-hop if needed;
2. the fleet allocates demand greedily, fastest machines first; each
   machine serves up to ``floor((interval - switch_time) / request_time)``
   requests;
3. energy is accounted exactly: served requests through
   :meth:`~repro.simhw.machine.SimMachine.run_stream`, the idle tail
   through :meth:`~repro.simhw.machine.SimMachine.run_idle` (optionally
   parked in the PSM's lowest-power state for race-to-idle governors),
   switches through the switch plans' time/energy.

A machine inside a trace downtime window serves nothing and consumes
nothing (hard power-off).  Everything is deterministic given (testbed,
trace, policy): reports hash byte-identically across runs.

The interval loop runs on flat per-machine lookup tables keyed by
interned state index (:class:`_MachineTables`): switch plans, busy
power, per-state dynamic energy per mix entry, request times and
zero-switch capacities are each computed once per simulator and reused
across every interval, policy and trace.  The arithmetic replays
``run_stream``, ``run_idle`` and the PSM switch plans term-for-term
(same operand order, same association), so results are *bit* identical
to walking a live :class:`~repro.power.PsmCursor` over each machine;
the test suite keeps that walk as its oracle.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from ..diagnostics import XpdlError
from ..obs import get_observer
from ..simhw import SimMachine, SimTestbed
from ..units import TIME, Quantity
from .governors import Governor, make_governor
from .traces import Trace

#: Instructions per request; split evenly across the machine's ISA mix.
DEFAULT_REQUEST_OPS = 200_000


def _request_mix(machine: SimMachine, request_ops: int) -> dict[str, int]:
    names = sorted(machine.truth.names())
    if not names:
        raise XpdlError(
            f"machine {machine.name!r} has no instruction ground truth"
        )
    per = max(1, request_ops // len(names))
    return {name: per for name in names}


def _request_cycles(machine: SimMachine, mix: Mapping[str, int]) -> float:
    cycles = 0.0
    for name, count in mix.items():
        cycles += count * machine.truth.entry(name).cpi / machine.issue_width
    return cycles


@dataclass
class PolicyResult:
    """Energy/SLO outcome of one policy over one trace."""

    policy: str
    intervals: int
    offered: int
    served: int
    final_backlog: int
    slo_met_intervals: int
    busy_j: float
    idle_j: float
    switch_j: float
    switches: int

    @property
    def energy_j(self) -> float:
        return self.busy_j + self.idle_j + self.switch_j

    @property
    def slo_attainment(self) -> float:
        return self.slo_met_intervals / self.intervals if self.intervals else 1.0

    @property
    def service_level(self) -> float:
        return self.served / self.offered if self.offered else 1.0

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "intervals": self.intervals,
            "offered": self.offered,
            "served": self.served,
            "final_backlog": self.final_backlog,
            "slo_met_intervals": self.slo_met_intervals,
            "slo_attainment": round(self.slo_attainment, 6),
            "service_level": round(self.service_level, 6),
            "busy_j": round(self.busy_j, 6),
            "idle_j": round(self.idle_j, 6),
            "switch_j": round(self.switch_j, 6),
            "energy_j": round(self.energy_j, 6),
            "switches": self.switches,
        }


@dataclass
class FleetReport:
    """Per-policy comparison over one trace on one fleet."""

    model: str
    trace: str
    seed: int
    intervals: int
    interval_s: float
    machines: int
    peak_capacity: int
    results: list[PolicyResult] = field(default_factory=list)

    def result(self, policy: str) -> PolicyResult:
        for r in self.results:
            if r.policy == policy:
                return r
        raise XpdlError(
            f"report has no policy {policy!r}; "
            f"policies: {', '.join(r.policy for r in self.results)}"
        )

    def performance_baseline(self) -> PolicyResult | None:
        """The ``performance`` row used as the energy-delta baseline.

        ``None`` when the run did not include the performance policy (or
        its energy is zero), in which case deltas are not comparable and
        render as ``n/a`` rather than a misleading ``0.0%``.
        """
        for r in self.results:
            if r.policy == "performance" and r.energy_j > 0.0:
                return r
        return None

    def to_dict(self) -> dict:
        baseline = self.performance_baseline()
        out = {
            "model": self.model,
            "trace": self.trace,
            "seed": self.seed,
            "intervals": self.intervals,
            "interval_s": self.interval_s,
            "machines": self.machines,
            "peak_capacity": self.peak_capacity,
            "policies": [r.to_dict() for r in self.results],
        }
        if baseline is not None:
            out["energy_delta_vs_performance"] = {
                r.policy: round(
                    (r.energy_j - baseline.energy_j) / baseline.energy_j, 6
                )
                for r in self.results
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def render_table(self) -> str:
        baseline = self.performance_baseline()
        head = (
            f"fleet {self.model}: trace={self.trace} seed={self.seed} "
            f"intervals={self.intervals}x{self.interval_s:g}s "
            f"machines={self.machines} peak={self.peak_capacity} req/interval"
        )
        cols = (
            f"{'policy':<14} {'energy [kJ]':>12} {'vs perf':>8} "
            f"{'SLO':>7} {'service':>8} {'switches':>9}"
        )
        lines = [head, cols, "-" * len(cols)]
        for r in self.results:
            if baseline is not None:
                delta = (r.energy_j - baseline.energy_j) / baseline.energy_j
                delta_s = f"{delta:+8.1%}"
            else:
                delta_s = f"{'n/a':>8}"
            lines.append(
                f"{r.policy:<14} {r.energy_j / 1e3:>12.3f} {delta_s} "
                f"{r.slo_attainment:>7.1%} {r.service_level:>8.1%} "
                f"{r.switches:>9d}"
            )
        return "\n".join(lines)


def index_state_catalog(ctx, testbed: SimTestbed) -> dict[str, frozenset[str]]:
    """Per-machine P-state catalog read through the compiled query API.

    For each simulated machine, browse the runtime :class:`IRIndex` for
    the matching unit (by id) and collect its declared ``power_state``
    names; machines the index cannot pin down fall back to the model-wide
    state set.  The simulator uses the catalog to cross-check every
    governor decision against the *compiled* model — the query engine as
    the optimizer's inner loop.

    Building the catalog walks the whole index, so callers running many
    policies or sweep cells against one (ctx, testbed) pair must build it
    once and share it; the ``fleet.catalog_builds`` counter makes the
    once-per-cell-set discipline assertable.
    """
    obs = get_observer()
    obs.count("fleet.catalog_builds")
    all_states = frozenset(
        h.attr("name") or h.label() for h in ctx.find_all("power_state")
    )
    catalog: dict[str, frozenset[str]] = {}
    for name in testbed.machines:
        handle = ctx.by_id(name)
        obs.count("fleet.query.lookups")
        if handle is not None:
            states = frozenset(
                h.attr("name") or h.label()
                for h in handle.descendants("power_state")
            )
            if states:
                catalog[name] = states
                continue
        catalog[name] = all_states
    return catalog


class _MachineTables:
    """Flat per-machine lookup tables for the interval loop.

    States are interned to list indices once; everything the interval
    loop needs becomes an indexed load: ``freq[s]``, ``run_power[s]``
    (state + base power, the idle/busy static draw), ``req_t[s]``
    (seconds per request), lazily-filled switch-plan costs
    ``(time, energy, hops)`` per ``(src, dst)`` pair, per-state dynamic
    energy per mix entry, and memoized ``run_stream`` outcomes per
    ``(state, n_requests)``.  Every float here is produced by the exact
    expression ``run_stream``/``run_idle`` and the PSM switch plans
    evaluate, so downstream accumulation is bit-identical.
    """

    __slots__ = (
        "machine",
        "names",
        "index",
        "freq",
        "run_power",
        "req_t",
        "req_cycles",
        "mix_counts",
        "cpi",
        "iw",
        "fastest_idx",
        "idle_idx",
        "catalog",
        "_entries",
        "_dyn",
        "_plans",
        "_busy",
    )

    def __init__(
        self,
        machine: SimMachine,
        mix: Mapping[str, int],
        req_cycles: float,
        catalog: frozenset[str] | None,
    ) -> None:
        self.machine = machine
        self.req_cycles = req_cycles
        self.catalog = catalog
        self.iw = machine.issue_width
        # Mix entries in dict (= sorted-name) order: run_stream iterates
        # the counts dict in insertion order, and the memoized loop must
        # accumulate in the same order to keep float sums identical.
        self._entries = [machine.truth.entry(name) for name in mix]
        self.mix_counts = list(mix.values())
        self.cpi = [e.cpi for e in self._entries]
        psm = machine.psm
        if psm is not None:
            self.names = list(psm.order)
            self.index = {n: i for i, n in enumerate(self.names)}
            states = [psm.state(n) for n in self.names]
            self.freq = [s.frequency.magnitude for s in states]
            base = machine.base_power.magnitude
            self.run_power = [s.power.magnitude + base for s in states]
            self.fastest_idx = self.index[psm.fastest().name]
            self.idle_idx = self.index[psm.idle_state().name]
        else:
            self.names = ["<fixed>"]
            self.index = {"<fixed>": 0}
            self.freq = [machine.fixed_frequency.magnitude]
            self.run_power = [0.0 + machine.base_power.magnitude]
            self.fastest_idx = 0
            self.idle_idx = 0
        self.req_t = [
            req_cycles / f if f > 0.0 else 0.0 for f in self.freq
        ]
        self._dyn: list[list[float] | None] = [None] * len(self.names)
        self._plans: dict[tuple[int, int], tuple[float, float, int]] = {}
        self._busy: dict[tuple[int, int], tuple[float, float]] = {}

    def plan(self, src: int, dst: int) -> tuple[float, float, int]:
        """Switch cost ``(time_s, energy_j, hops)``; lazy so unreachable
        pairs only raise when actually demanded, like ``PsmCursor.go``."""
        hit = self._plans.get((src, dst))
        if hit is None:
            psm = self.machine.psm
            assert psm is not None
            p = psm.switch_plan(self.names[src], self.names[dst])
            hit = (p.time.magnitude, p.energy.magnitude, p.hops)
            self._plans[(src, dst)] = hit
        return hit

    def _dyn_at(self, s: int) -> list[float]:
        d = self._dyn[s]
        if d is None:
            f = self.freq[s]
            d = [e.energy_at(f) for e in self._entries]
            self._dyn[s] = d
        return d

    def busy(self, s: int, n: int) -> tuple[float, float]:
        """``(duration_s, energy_j)`` of ``n`` requests at state ``s``.

        Term-for-term mirror of ``run_stream`` on the scaled mix:
        ``cycles += (count*n) * cpi / issue_width`` and
        ``dyn += (count*n) * energy_at(f)`` per entry in mix order, then
        ``duration = cycles / f`` and
        ``energy = (state_power + base_power) * duration + dyn``.
        """
        hit = self._busy.get((s, n))
        if hit is None:
            dyn_e = self._dyn_at(s)
            iw = self.iw
            cycles = 0.0
            dyn = 0.0
            for count, cpi_k, e_k in zip(self.mix_counts, self.cpi, dyn_e):
                c = count * n
                cycles += c * cpi_k / iw
                dyn += c * e_k
            bt = cycles / self.freq[s]
            hit = (bt, self.run_power[s] * bt + dyn)
            self._busy[(s, n)] = hit
        return hit


class FleetSimulator:
    """Drives one testbed through traces under different governors."""

    def __init__(
        self,
        testbed: SimTestbed,
        *,
        state_catalog: Mapping[str, frozenset[str]] | None = None,
        request_ops: int = DEFAULT_REQUEST_OPS,
    ) -> None:
        if not testbed.machines:
            raise XpdlError(f"testbed {testbed.name!r} has no machines")
        self.testbed = testbed
        self.state_catalog = dict(state_catalog or {})
        self.request_ops = request_ops
        self._mixes = {
            name: _request_mix(m, request_ops)
            for name, m in testbed.machines.items()
        }
        self._cycles = {
            name: _request_cycles(m, self._mixes[name])
            for name, m in testbed.machines.items()
        }
        self._names = sorted(testbed.machines)
        self._tables = {
            name: _MachineTables(
                testbed.machines[name],
                self._mixes[name],
                self._cycles[name],
                self.state_catalog.get(name),
            )
            for name in self._names
        }
        #: Allocation order memo, shared across policies and traces: the
        #: greedy sort key depends only on the current-state vector.
        self._order_cache: dict[tuple[int, ...], list[int]] = {}
        #: Zero-switch capacities per machine per state, keyed interval_s.
        self._cap0_cache: dict[float, list[list[int]]] = {}
        self._peak_cache: dict[float, int] = {}

    # -- capacity ------------------------------------------------------------
    def _fastest_frequency(self, m: SimMachine) -> float:
        if m.psm is not None:
            return m.psm.fastest().frequency.magnitude
        return m.fixed_frequency.magnitude

    def _machine_peak(self, m: SimMachine, interval_s: float) -> int:
        req_t = self._cycles[m.name] / self._fastest_frequency(m)
        return int(interval_s / req_t)

    def peak_capacity(self, interval_s: float) -> int:
        """Requests/interval with every machine pinned to its fastest state."""
        peak = self._peak_cache.get(interval_s)
        if peak is None:
            peak = sum(
                self._machine_peak(m, interval_s)
                for m in self.testbed.machines.values()
            )
            self._peak_cache[interval_s] = peak
        return peak

    def _cap0_for(self, interval_s: float) -> list[list[int]]:
        caps = self._cap0_cache.get(interval_s)
        if caps is None:
            caps = [
                [
                    max(0, int(interval_s / rt)) if rt > 0.0 else 0
                    for rt in self._tables[name].req_t
                ]
                for name in self._names
            ]
            self._cap0_cache[interval_s] = caps
        return caps

    # -- policy run ----------------------------------------------------------
    def run_policy(self, policy: str, trace: Trace) -> PolicyResult:
        """Run one governor policy over ``trace``, every machine starting
        in its fastest state."""
        obs = get_observer()
        interval_s = trace.interval_s
        interval_q = Quantity(interval_s, TIME)
        peak = self.peak_capacity(interval_s)
        names = self._names
        nm = len(names)
        tables = [self._tables[name] for name in names]
        cap0 = self._cap0_for(interval_s)

        govs: list[Governor | None] = []
        parking: list[bool] = []
        cur: list[int] = []
        last_util = [1.0] * nm
        pred: list[float] = []
        for name, tbl in zip(names, tables):
            m = self.testbed.machines[name]
            if m.psm is not None:
                g: Governor | None = make_governor(policy, m.psm)
                assert g is not None
                g.reset()
            else:
                g = None
            govs.append(g)
            parking.append(g is not None and g.wants_idle_parking)
            cur.append(tbl.fastest_idx)
            pred.append(self._machine_peak(m, interval_s) * tbl.req_cycles)

        backlog = 0
        offered_total = 0
        served_total = 0
        slo_met = 0
        busy_j = idle_j = switch_j = 0.0
        switches = 0
        checks = 0

        sw_t_arr = [0.0] * nm
        sw_e_arr = [0.0] * nm
        caps = [0] * nm
        down_arr = [False] * nm
        order_cache = self._order_cache
        prev_alloc_key: tuple | None = None
        prev_alloc: list[int] = []
        prev_served = 0
        prev_remaining = 0

        try:
            for i in range(trace.intervals):
                offered = int(round(trace.offered[i] * peak))
                offered_total += offered
                demand = offered + backlog

                # Pass A: governor decisions + switches + capacities.
                for k in range(nm):
                    tbl = tables[k]
                    if trace.is_down(names[k], i):
                        down_arr[k] = True
                        sw_t_arr[k] = sw_e_arr[k] = 0.0
                        caps[k] = 0
                        continue
                    down_arr[k] = False
                    g = govs[k]
                    s = cur[k]
                    sw_t = sw_e = 0.0
                    if g is not None:
                        target = g.decide(
                            tbl.names[s],
                            last_util[k],
                            backlog,
                            pred[k],
                            interval_q,
                        )
                        if tbl.catalog is not None:
                            checks += 1
                            if target not in tbl.catalog:
                                raise XpdlError(
                                    f"governor chose state {target!r} for "
                                    f"machine {names[k]!r}, absent from the "
                                    "compiled index catalog"
                                )
                        t_idx = tbl.index[target]
                        if t_idx != s:
                            sw_t, sw_e, hops = tbl.plan(s, t_idx)
                            switches += hops
                            cur[k] = s = t_idx
                    if sw_t == 0.0:
                        # interval_s - 0.0 == interval_s: the precomputed
                        # zero-switch capacity is the exact same value.
                        caps[k] = cap0[k][s]
                    else:
                        caps[k] = max(
                            0, int((interval_s - sw_t) / tbl.req_t[s])
                        )
                    sw_t_arr[k] = sw_t
                    sw_e_arr[k] = sw_e

                # Pass B: greedy allocation, fastest machines first.  The
                # sort order depends only on the current-state vector and
                # the whole allocation only on (states, downs, capacities,
                # demand) — both memoized, so an interval in which every
                # governor holds its P-state under an unchanged backlog
                # shape reuses the previous allocation outright.
                cur_t = tuple(cur)
                alloc_key = (cur_t, tuple(down_arr), tuple(caps), demand)
                if alloc_key == prev_alloc_key:
                    allocation = prev_alloc
                    served = prev_served
                    remaining = prev_remaining
                else:
                    order = order_cache.get(cur_t)
                    if order is None:
                        order = sorted(
                            range(nm),
                            key=lambda k: (-tables[k].freq[cur[k]], names[k]),
                        )
                        order_cache[cur_t] = order
                    allocation = [0] * nm
                    remaining = demand
                    for k in order:
                        if down_arr[k] or remaining <= 0:
                            continue
                        n = min(caps[k], remaining)
                        allocation[k] = n
                        remaining -= n
                    served = demand - remaining
                    prev_alloc_key = alloc_key
                    prev_alloc = allocation
                    prev_served = served
                    prev_remaining = remaining
                backlog = remaining
                served_total += served
                if backlog == 0:
                    slo_met += 1

                # Pass C: exact energy accounting.
                for k in range(nm):
                    if down_arr[k]:
                        last_util[k] = 0.0
                        pred[k] = 0.0
                        continue
                    tbl = tables[k]
                    n = allocation[k]
                    sw_t = sw_t_arr[k]
                    switch_j += sw_e_arr[k]
                    s = cur[k]
                    busy_t = 0.0
                    if n > 0:
                        busy_t, be = tbl.busy(s, n)
                        busy_j += be
                    idle_t = max(0.0, interval_s - sw_t - busy_t)
                    if idle_t > 0.0:
                        if parking[k]:
                            park = tbl.idle_idx
                            if park != s:
                                p_t, p_e, p_h = tbl.plan(s, park)
                                if p_t < idle_t:
                                    switch_j += p_e
                                    switches += p_h
                                    idle_t -= p_t
                                    cur[k] = s = park
                        idle_j += tbl.run_power[s] * idle_t
                    u = min(1.0, (busy_t + sw_t) / interval_s)
                    last_util[k] = u
                    pred[k] = n * tbl.req_cycles
                    obs.record("fleet.machine.util", u)

                obs.gauge("fleet.backlog", float(backlog))
        finally:
            # Every check made is counted, the one that raised on a
            # catalog mismatch included.
            if checks:
                obs.count("fleet.query.state_checks", checks)

        obs.count("fleet.intervals", trace.intervals)
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


def simulate_fleet(
    testbed: SimTestbed,
    trace: Trace,
    policies: Iterable[str],
    *,
    state_catalog: Mapping[str, frozenset[str]] | None = None,
    request_ops: int = DEFAULT_REQUEST_OPS,
) -> FleetReport:
    """Run every policy over the trace and assemble the comparison report."""
    sim = FleetSimulator(
        testbed, state_catalog=state_catalog, request_ops=request_ops
    )
    report = FleetReport(
        model=testbed.name,
        trace=trace.kind,
        seed=trace.seed,
        intervals=trace.intervals,
        interval_s=trace.interval_s,
        machines=len(testbed.machines),
        peak_capacity=sim.peak_capacity(trace.interval_s),
    )
    seen = set()
    for policy in policies:
        if policy in seen:
            continue
        seen.add(policy)
        report.results.append(sim.run_policy(policy, trace))
    if not report.results:
        raise XpdlError("no policies requested for fleet simulation")
    return report
