"""Tests for the fleet simulator: traces, governors, energy/SLO reports."""

import json

import pytest

from repro.diagnostics import XpdlError
from repro.fleet import (
    GOVERNORS,
    TRACE_KINDS,
    FleetSimulator,
    Trace,
    index_state_catalog,
    make_governor,
    make_trace,
    simulate_fleet,
)
from repro.obs import Observer, use_observer
from repro.power import PowerStateDef, PowerStateMachineModel, TransitionDef
from repro.simhw import GroundTruth, SimMachine, SimTestbed, TruthEntry
from repro.units import ENERGY, FREQUENCY, POWER, TIME, Quantity

POLICIES = ("performance", "powersave", "ondemand", "race-to-idle")


def _toy_psm() -> PowerStateMachineModel:
    states = [
        PowerStateDef("sleep", Quantity(0.0, FREQUENCY), Quantity(0.2, POWER)),
        PowerStateDef("slow", Quantity(1.0e9, FREQUENCY), Quantity(2.0, POWER)),
        PowerStateDef("fast", Quantity(2.0e9, FREQUENCY), Quantity(6.0, POWER)),
    ]
    transitions = [
        TransitionDef(a.name, b.name, Quantity(1e-3, TIME), Quantity(1e-3, ENERGY))
        for a in states
        for b in states
        if a.name != b.name
    ]
    return PowerStateMachineModel("toy_psm", states, transitions)


def _toy_truth() -> GroundTruth:
    return GroundTruth(
        "toyisa", {"op": TruthEntry("op", 50e-12, 2.0e9, cpi=1.0)}
    )


def _toy_testbed(n: int = 2, psm: bool = True) -> SimTestbed:
    bed = SimTestbed("toy")
    for i in range(n):
        m = SimMachine(
            name=f"m{i}",
            truth=_toy_truth(),
            psm=_toy_psm() if psm else None,
            base_power=Quantity(1.0, POWER),
        )
        bed.machines[m.name] = m
    return bed


def _toy_trace(kind: str = "diurnal", seed: int = 5, intervals: int = 48) -> Trace:
    return make_trace(
        kind, seed=seed, intervals=intervals, interval_s=1.0, machines=["m0", "m1"]
    )


class TestTraces:
    def test_byte_stable(self):
        for kind in TRACE_KINDS:
            a = make_trace(kind, seed=3, intervals=30, machines=["m0", "m1"])
            b = make_trace(kind, seed=3, intervals=30, machines=["m0", "m1"])
            assert a == b

    def test_seed_changes_trace(self):
        a = make_trace("diurnal", seed=0, intervals=30)
        b = make_trace("diurnal", seed=1, intervals=30)
        assert a.offered != b.offered

    def test_shapes_and_bounds(self):
        for kind in TRACE_KINDS:
            t = make_trace(kind, seed=7, intervals=50, machines=["m0"])
            assert t.intervals == 50
            assert all(0.0 < x <= 1.5 for x in t.offered)

    def test_spike_overloads(self):
        t = make_trace("spike", seed=5, intervals=72)
        assert t.peak() > 1.0

    def test_step_steps(self):
        t = make_trace("step", seed=0, intervals=40)
        lo = sum(t.offered[:20]) / 20
        hi = sum(t.offered[20:]) / 20
        assert lo < 0.3 < 0.6 < hi

    def test_failures_have_downtime_windows(self):
        machines = [f"m{i}" for i in range(20)]
        t = make_trace("failures", seed=5, intervals=40, machines=machines)
        assert t.downtime  # 20 machines at p=0.25: some outage expected
        for machine, window in t.downtime.items():
            assert machine in machines
            assert all(0 <= i < 40 for i in window)
            assert t.is_down(machine, min(window))

    def test_unknown_kind_rejected(self):
        with pytest.raises(XpdlError):
            make_trace("tsunami", seed=0, intervals=10)

    def test_bad_geometry_rejected(self):
        with pytest.raises(XpdlError):
            make_trace("diurnal", seed=0, intervals=0)
        with pytest.raises(XpdlError):
            make_trace("diurnal", seed=0, intervals=10, interval_s=0.0)


class TestGovernors:
    def test_registry_complete(self):
        assert set(GOVERNORS) == set(POLICIES)

    def test_unknown_policy_rejected(self):
        with pytest.raises(XpdlError):
            make_governor("turbo", _toy_psm())

    def test_performance_always_fastest(self):
        g = make_governor("performance", _toy_psm())
        one_s = Quantity(1.0, TIME)
        assert g.decide("slow", 0.0, 0, 0.0, one_s) == "fast"

    def test_powersave_always_slowest_running(self):
        g = make_governor("powersave", _toy_psm())
        one_s = Quantity(1.0, TIME)
        assert g.decide("fast", 1.0, 10, 1e9, one_s) == "slow"

    def test_ondemand_steps_down_with_hysteresis(self):
        g = make_governor("ondemand", _toy_psm())
        one_s = Quantity(1.0, TIME)
        # Projected util at "slow" = 0.1 * 2GHz/1GHz = 0.2 <= 0.45, but the
        # down-step waits for `hysteresis` consecutive low intervals.
        assert g.decide("fast", 0.1, 0, 0.0, one_s) == "fast"
        assert g.decide("fast", 0.1, 0, 0.0, one_s) == "fast"
        assert g.decide("fast", 0.1, 0, 0.0, one_s) == "slow"

    def test_ondemand_jumps_up_on_pressure(self):
        g = make_governor("ondemand", _toy_psm())
        one_s = Quantity(1.0, TIME)
        assert g.decide("slow", 0.9, 0, 0.0, one_s) == "fast"
        assert g.decide("slow", 0.1, 7, 0.0, one_s) == "fast"  # backlog

    def test_ondemand_recovers_from_parked_state(self):
        g = make_governor("ondemand", _toy_psm())
        assert g.decide("sleep", 0.0, 0, 0.0, Quantity(1.0, TIME)) == "fast"

    def test_race_to_idle_parks_and_scales(self):
        g = make_governor("race-to-idle", _toy_psm())
        assert g.wants_idle_parking
        one_s = Quantity(1.0, TIME)
        # Tiny predicted work: any running state meets the deadline, the
        # cheapest (slow + park) wins.
        assert g.decide("fast", 0.0, 0, 1e6, one_s) == "slow"
        # Near-capacity work: only the fastest state is feasible.
        assert g.decide("fast", 0.9, 0, 1.8e9, one_s) == "fast"


class TestSimulator:
    def test_reports_are_byte_identical(self):
        t = _toy_trace()
        a = simulate_fleet(_toy_testbed(), t, POLICIES, request_ops=1000)
        b = simulate_fleet(_toy_testbed(), t, POLICIES, request_ops=1000)
        assert a.to_json() == b.to_json()
        assert a.digest() == b.digest()

    def test_powersave_no_worse_energy_than_performance(self):
        rep = simulate_fleet(
            _toy_testbed(),
            _toy_trace(),
            ("performance", "powersave"),
            request_ops=1000,
        )
        assert (
            rep.result("powersave").energy_j
            <= rep.result("performance").energy_j
        )

    def test_ondemand_beats_performance_at_equal_slo(self):
        rep = simulate_fleet(
            _toy_testbed(), _toy_trace(), ("performance", "ondemand"),
            request_ops=1000,
        )
        perf, od = rep.result("performance"), rep.result("ondemand")
        assert od.slo_attainment == perf.slo_attainment
        assert od.energy_j < perf.energy_j

    def test_performance_full_slo_on_diurnal(self):
        rep = simulate_fleet(
            _toy_testbed(), _toy_trace(), ("performance",), request_ops=1000
        )
        r = rep.result("performance")
        assert r.slo_attainment == 1.0
        assert r.service_level == 1.0
        assert r.switches == 0

    def test_spike_overload_queues_backlog(self):
        rep = simulate_fleet(
            _toy_testbed(),
            _toy_trace("spike", seed=5),
            ("performance",),
            request_ops=1000,
        )
        r = rep.result("performance")
        assert r.slo_met_intervals < r.intervals  # overload intervals missed
        assert r.served <= r.offered

    def test_downtime_serves_and_consumes_nothing(self):
        up = Trace("flat", 0, 1.0, (0.3,) * 20)
        down = Trace("flat", 0, 1.0, (0.3,) * 20, {"m0": frozenset(range(20))})
        bed = _toy_testbed()
        healthy = simulate_fleet(bed, up, ("performance",), request_ops=1000)
        degraded = simulate_fleet(bed, down, ("performance",), request_ops=1000)
        assert (
            degraded.result("performance").energy_j
            < healthy.result("performance").energy_j
        )

    def test_state_catalog_validates_choices(self):
        obs = Observer()
        catalog = {"m0": frozenset({"sleep", "slow", "fast"})}
        with use_observer(obs):
            simulate_fleet(
                _toy_testbed(),
                _toy_trace(intervals=10),
                ("performance",),
                state_catalog=catalog,
                request_ops=1000,
            )
        assert obs.counter("fleet.query.state_checks") > 0

    def test_state_catalog_mismatch_raises(self):
        catalog = {"m0": frozenset({"ghost"})}
        with pytest.raises(XpdlError):
            simulate_fleet(
                _toy_testbed(),
                _toy_trace(intervals=5),
                ("performance",),
                state_catalog=catalog,
                request_ops=1000,
            )

    def test_fixed_frequency_machines_simulate(self):
        rep = simulate_fleet(
            _toy_testbed(psm=False),
            _toy_trace(intervals=10),
            ("performance", "ondemand"),
            request_ops=1000,
        )
        # No PSM: both policies degenerate to the fixed state, same energy.
        assert rep.result("performance").energy_j == pytest.approx(
            rep.result("ondemand").energy_j
        )
        assert rep.result("performance").switches == 0

    def test_empty_testbed_rejected(self):
        with pytest.raises(XpdlError):
            FleetSimulator(SimTestbed("void"))

    def test_no_policies_rejected(self):
        with pytest.raises(XpdlError):
            simulate_fleet(_toy_testbed(), _toy_trace(intervals=5), ())

    def test_report_round_trip_and_table(self):
        rep = simulate_fleet(
            _toy_testbed(), _toy_trace(intervals=10), POLICIES, request_ops=1000
        )
        payload = json.loads(rep.to_json())
        assert [p["policy"] for p in payload["policies"]] == list(POLICIES)
        assert payload["energy_delta_vs_performance"]["performance"] == 0.0
        table = rep.render_table()
        for policy in POLICIES:
            assert policy in table
        with pytest.raises(XpdlError):
            rep.result("turbo")

    def test_obs_counters_flow(self):
        obs = Observer()
        with use_observer(obs):
            simulate_fleet(
                _toy_testbed(),
                _toy_trace(intervals=10),
                ("race-to-idle",),
                request_ops=1000,
            )
        assert obs.counter("fleet.intervals") == 10
        assert obs.counter("fleet.requests.offered") > 0
        assert obs.counter("fleet.switches") > 0


class TestIndexIntegration:
    def test_catalog_from_compiled_index(self, liu_ctx, liu_testbed):
        catalog = index_state_catalog(liu_ctx, liu_testbed)
        assert set(catalog) == set(liu_testbed.machines)
        for name, m in liu_testbed.machines.items():
            if m.psm is None:
                continue
            assert set(m.psm.state_names()) <= catalog[name]

    def test_simulation_over_paper_system(self, liu_ctx, liu_testbed):
        # The shared fixture is safe: run_policy reads the machines and
        # never moves their PSM cursors.
        bed = liu_testbed
        catalog = index_state_catalog(liu_ctx, bed)
        trace = make_trace(
            "diurnal",
            seed=2,
            intervals=24,
            interval_s=1.0,
            machines=sorted(bed.machines),
        )
        rep = simulate_fleet(
            bed,
            trace,
            ("performance", "ondemand"),
            state_catalog=catalog,
            request_ops=10_000,
        )
        perf, od = rep.result("performance"), rep.result("ondemand")
        assert od.energy_j <= perf.energy_j
        assert rep.digest() == simulate_fleet(
            bed,
            trace,
            ("performance", "ondemand"),
            state_catalog=catalog,
            request_ops=10_000,
        ).digest()


class TestGeneratedClusterReports:
    """``xpdl fleet`` on the generated benchmark cluster: every governor,
    one day of 24 intervals, trace seeds 0 and 3."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_reports_are_byte_stable_and_physical(
        self, fleet_cluster_dir, tmp_path, capsys, seed
    ):
        from repro.cli import main as cli_main

        reports = []
        for run in ("a", "b"):
            out = tmp_path / f"fleet-{seed}-{run}.json"
            argv = ["-I", fleet_cluster_dir, "fleet", "--model", "gen_sys0"]
            argv += ["--trace", "diurnal", "--seed", str(seed), "--intervals", "24"]
            for policy in POLICIES:
                argv += ["--policy", policy]
            assert cli_main(argv + ["--format", "json", "-o", str(out)]) == 0
            capsys.readouterr()
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        report = json.loads(reports[0])
        by = {p["policy"]: p for p in report["policies"]}
        perf, save, od = by["performance"], by["powersave"], by["ondemand"]
        # powersave can only trade service for energy, never both ways.
        assert save["energy_j"] <= perf["energy_j"]
        # ondemand saves energy without giving up SLO attainment.
        assert od["energy_j"] <= perf["energy_j"]
        assert od["slo_attainment"] >= perf["slo_attainment"]
        assert report["energy_delta_vs_performance"]["performance"] == 0.0
