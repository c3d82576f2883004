"""Tests for instruction energy models, accounting and DVFS optimization."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diagnostics import UnitError, XpdlError
from repro.model import Instructions, from_document
from repro.power import (
    EnergyAccountant,
    InstructionEnergyModel,
    Phase,
    PowerStateDef,
    PowerStateMachineModel,
    TransitionDef,
    best_state,
    evaluate_state,
    optimize_state,
)
from repro.units import ENERGY, FREQUENCY, POWER, TIME, Quantity
from repro.xpdlxml import parse_xml
from tests import dvfs_oracle


def q(v, u):
    return Quantity.of(v, u)


def model(text: str):
    from repro.model import from_document

    return from_document(parse_xml(text))


@pytest.fixture(scope="module")
def x86_model(repo) -> InstructionEnergyModel:
    instrs = repo.load_model("x86_base_isa")
    return InstructionEnergyModel.from_element(instrs)


class TestInstructionModel:
    def test_paper_divsd_table(self, x86_model):
        # Listing 14's printed rows.
        assert x86_model.energy("divsd", q(2.8, "GHz")).to("nJ") == pytest.approx(18.625)
        assert x86_model.energy("divsd", q(2.9, "GHz")).to("nJ") == pytest.approx(19.573)
        assert x86_model.energy("divsd", q(3.4, "GHz")).to("nJ") == pytest.approx(21.023)

    def test_interpolation_between_rows(self, x86_model):
        mid = x86_model.energy("divsd", q(2.85, "GHz")).to("nJ")
        assert 18.625 < mid < 19.573

    def test_clamping_outside_table(self, x86_model):
        low = x86_model.energy("divsd", q(1.0, "GHz")).to("nJ")
        assert low == pytest.approx(18.625)
        high = x86_model.energy("divsd", q(5.0, "GHz")).to("nJ")
        assert high == pytest.approx(21.023)

    def test_table_requires_frequency(self, x86_model):
        with pytest.raises(XpdlError):
            x86_model.energy("divsd")

    def test_unknown_entries_listed(self, x86_model):
        assert "fmul" in x86_model.unknown_instructions()
        assert "divsd" not in x86_model.unknown_instructions()

    def test_placeholder_energy_raises(self, x86_model):
        with pytest.raises(XpdlError):
            x86_model.energy("fmul", q(2.0, "GHz"))

    def test_set_energy_constant(self, x86_model):
        m = InstructionEnergyModel(
            "t", [e for e in ()]
        )
        m.set_energy("fadd", q(80, "pJ"))
        assert m.energy("fadd").to("pJ") == pytest.approx(80)

    def test_set_energy_builds_table(self):
        m = InstructionEnergyModel("t", [])
        m.set_energy("x", q(10, "nJ"), frequency=q(1, "GHz"))
        m.set_energy("x", q(20, "nJ"), frequency=q(2, "GHz"))
        assert m.energy("x", q(1.5, "GHz")).to("nJ") == pytest.approx(15)
        # Updating an existing row replaces it.
        m.set_energy("x", q(12, "nJ"), frequency=q(1, "GHz"))
        assert m.energy("x", q(1, "GHz")).to("nJ") == pytest.approx(12)

    def test_write_back_replaces_placeholders(self, repo):
        instrs = repo.load_model("x86_base_isa").clone()
        m = InstructionEnergyModel.from_element(instrs)
        m.set_energy("fmul", q(366, "pJ"))
        updated = m.write_back(instrs)
        assert updated == 1
        from repro.model import Inst

        fmul = next(i for i in instrs.find_all(Inst) if i.name == "fmul")
        assert fmul.energy.to("pJ") == pytest.approx(366)

    def test_unknown_instruction_raises(self, x86_model):
        with pytest.raises(XpdlError):
            x86_model.energy("vfmadd231pd")


def make_psm():
    states = [
        PowerStateDef("IDLE", q(0.8, "GHz"), q(5, "W")),
        PowerStateDef("P1", q(1.2, "GHz"), q(20, "W")),
        PowerStateDef("P3", q(2.0, "GHz"), q(34, "W")),
    ]
    transitions = [
        TransitionDef(a, b, q(10, "us"), q(50, "nJ"))
        for a in ("IDLE", "P1", "P3")
        for b in ("IDLE", "P1", "P3")
        if a != b
    ]
    return PowerStateMachineModel("psm", states, transitions)


def make_instructions():
    m = InstructionEnergyModel("isa", [])
    m.set_energy("fadd", q(100, "pJ"))
    m.set_energy("load", q(200, "pJ"))
    return m


class TestAccounting:
    def test_single_phase_breakdown(self):
        acct = EnergyAccountant(make_psm(), make_instructions(), initial_state="P3")
        phases = [Phase("work", {"fadd": 1_000_000, "load": 500_000})]
        breakdown = acct.run(phases)
        cost = breakdown.phases[0]
        # 1.5M instructions at 2 GHz, CPI 1.
        assert cost.time.to("ms") == pytest.approx(0.75)
        assert cost.static_energy.to("J") == pytest.approx(34 * 0.75e-3)
        assert cost.dynamic_energy.to("J") == pytest.approx(
            1e6 * 100e-12 + 0.5e6 * 200e-12
        )
        assert breakdown.total_energy.magnitude == pytest.approx(
            cost.total_energy.magnitude
        )

    def test_state_switch_charged(self):
        acct = EnergyAccountant(make_psm(), make_instructions(), initial_state="P3")
        phases = [
            Phase("a", {"fadd": 1000}, state="P1"),
            Phase("b", {"fadd": 1000}, state="P3"),
        ]
        breakdown = acct.run(phases)
        assert breakdown.switch_energy.to("nJ") == pytest.approx(100)
        assert breakdown.phases[0].state == "P1"
        assert breakdown.phases[1].state == "P3"

    def test_cpi_scales_time(self):
        acct = EnergyAccountant(make_psm(), make_instructions(), initial_state="P3")
        b1 = acct.run([Phase("x", {"fadd": 1000}, cycles_per_instruction=1.0)])
        acct2 = EnergyAccountant(make_psm(), make_instructions(), initial_state="P3")
        b4 = acct2.run([Phase("x", {"fadd": 1000}, cycles_per_instruction=4.0)])
        assert b4.time.magnitude == pytest.approx(4 * b1.time.magnitude)

    def test_base_power_added(self):
        acct = EnergyAccountant(
            make_psm(),
            make_instructions(),
            initial_state="P3",
            base_power=q(6, "W"),
        )
        b = acct.run([Phase("x", {"fadd": 2_000_000})])
        assert b.static_energy.to("J") == pytest.approx(40 * 1e-3)

    def test_average_power(self):
        acct = EnergyAccountant(make_psm(), make_instructions(), initial_state="P1")
        b = acct.run([Phase("x", {"fadd": 1_200_000})])
        # 1 ms at 20 W static + dynamic.
        assert b.average_power().to("W") == pytest.approx(
            20 + 1.2e6 * 100e-12 / 1e-3, rel=1e-6
        )


class TestDvfs:
    def test_infeasible_deadline(self):
        psm = make_psm()
        choice = best_state(psm, cycles=4e9, deadline=q(1, "s"))
        # 4G cycles at 2 GHz = 2 s > deadline at every state.
        assert choice is None

    def test_race_to_idle_wins_with_cheap_idle(self):
        psm = make_psm()
        # 1G cycles, 1 s deadline: P3 runs 0.5 s @34 W + idles 0.5 s @5 W
        # = 19.5 J; P1 runs 0.833 s @20 W + idles @5 W = 17.5 J -> P1 wins;
        # the optimizer must rank feasible states by energy.
        ranked = optimize_state(psm, cycles=1e9, deadline=q(1, "s"))
        feasible = [c for c in ranked if c.feasible]
        assert feasible[0].state == "P1"

    def test_pace_wins_when_idle_expensive(self):
        states = [
            PowerStateDef("LO", q(1.0, "GHz"), q(10, "W")),
            PowerStateDef("HI", q(2.0, "GHz"), q(40, "W")),
        ]
        transitions = [
            TransitionDef("LO", "HI", q(1, "us"), q(1, "nJ")),
            TransitionDef("HI", "LO", q(1, "us"), q(1, "nJ")),
        ]
        psm = PowerStateMachineModel("p", states, transitions)
        # Idle state == LO (10 W).  HI: 0.5s*40 + 0.5s*10 = 25 J;
        # LO: 1s*10 = 10 J -> pace wins.
        choice = best_state(psm, cycles=1e9, deadline=q(1, "s"))
        assert choice.state == "LO"
        assert choice.total_energy.to("J") == pytest.approx(10, rel=1e-3)

    def test_dynamic_energy_term(self):
        psm = make_psm()
        with_dyn = evaluate_state(
            psm,
            "P3",
            1e9,
            q(1, "s"),
            dynamic_energy_per_cycle=Quantity(1e-10, ENERGY),
        )
        without = evaluate_state(psm, "P3", 1e9, q(1, "s"))
        assert with_dyn.energy.magnitude - without.energy.magnitude == pytest.approx(0.1)

    def test_switch_cost_into_state_counted(self):
        psm = make_psm()
        c = evaluate_state(psm, "P1", 1e6, q(1, "s"), start_state="P3")
        assert c.switch_energy.magnitude > 0

    def test_crossover_over_deadline_sweep(self):
        """Tight deadlines force fast states; loose ones favor slow — the
        E5 bench's crossover must exist."""
        psm = make_psm()
        cycles = 1.5e9
        tight = best_state(psm, cycles, q(0.8, "s"))
        loose = best_state(psm, cycles, q(10, "s"))
        assert tight.state == "P3"
        assert loose.state in ("P1", "IDLE")
        assert tight.state != loose.state


# -- the float evaluation against the Quantity-arithmetic oracle ----------

#: Magnitudes that reach the corner cases: signed zeros, the smallest
#: subnormal (whose quotients overflow to inf), and ordinary values.
_EDGE = (0.0, -0.0, 5e-324, 1e-12, 1e-6, 1e-3, 0.5, 1.0, 2.0, 1e9, 3.6e9)


def _magnitudes(lo: float, hi: float):
    return st.one_of(
        st.sampled_from(_EDGE),
        st.floats(min_value=lo, max_value=hi, allow_nan=False),
    )


@st.composite
def _psms(draw):
    """PSMs with off states and missing transitions (so switches go
    multi-hop or fail as unreachable), with zero, tiny and ordinary
    frequencies, powers and switch costs."""
    names = [f"S{i}" for i in range(draw(st.integers(1, 5)))]
    states = []
    for name in names:
        off = draw(st.integers(0, 4)) == 0
        freq = 0.0 if off else draw(_magnitudes(1e8, 5e9).filter(bool))
        power = draw(_magnitudes(0.0, 50.0))
        states.append(PowerStateDef(name, Quantity(freq, FREQUENCY), Quantity(power, POWER)))
    # About one transition in four is missing.
    transitions = [
        TransitionDef(
            a,
            b,
            Quantity(draw(_magnitudes(0.0, 2.0)), TIME),
            Quantity(draw(_magnitudes(0.0, 1.0)), ENERGY),
        )
        for a in names
        for b in names
        if a != b and draw(st.integers(0, 3))
    ]
    return PowerStateMachineModel("h", states, transitions)


@st.composite
def _scenarios(draw):
    """One PSM plus every ``evaluate_state`` input: start and idle states
    (an undeclared start too), zero and tiny deadlines (and a non-time
    one), and a dynamic-energy term (and a non-energy one)."""
    psm = draw(_psms())
    names = psm.state_names()
    cycles = draw(
        st.one_of(
            st.sampled_from((0, 1, 10**6, 4 * 10**9, 0.0, -0.0, 1e9, 1.3e9)),
            st.floats(min_value=0.0, max_value=1e10, allow_nan=False),
        )
    )
    running = [s for s in psm.by_frequency() if not s.is_off()]
    if running and draw(st.booleans()):
        # Near one state's run time, so that the idle slack is about as
        # long as a switch and both idle branches are taken.
        ref = draw(st.sampled_from(running)).frequency.magnitude
        deadline = cycles / ref * draw(st.floats(min_value=0.5, max_value=3.0))
    else:
        deadline = draw(
            st.one_of(
                st.sampled_from((0.0, -0.0, 5e-324, 1e-9, 1e-3, 1.0, 300.0, math.inf)),
                st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
            )
        )
    return dict(
        psm=psm,
        cycles=cycles,
        deadline=Quantity(deadline, draw(st.sampled_from((TIME, TIME, TIME, ENERGY)))),
        start_state=draw(st.sampled_from([None, *names, "nowhere"])),
        idle_state=draw(st.sampled_from([None, *names])),
        dynamic_energy_per_cycle=draw(
            st.one_of(
                st.none(),
                _magnitudes(0.0, 1e-6).map(lambda m: Quantity(m, ENERGY)),
                st.just(Quantity(1e-9, POWER)),
            )
        ),
    )


def _same_float(a: float, b: float) -> bool:
    """Equal values (NaN matching NaN) with equal signs, so 0.0 != -0.0."""
    same = a == b or (math.isnan(a) and math.isnan(b))
    return same and math.copysign(1.0, a) == math.copysign(1.0, b)


def _assert_same_choice(got, want) -> None:
    assert got.state == want.state
    assert got.feasible is want.feasible
    for field in ("run_time", "idle_time", "energy", "switch_energy", "total_energy"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dimension == w.dimension, field
        assert _same_float(g.magnitude, w.magnitude), (field, g, w)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # compared by type and text below
        return None, (type(exc), str(exc))


class TestFloatEvaluationMatchesOracle:
    """``evaluate_state`` computes in floats; every field, ranking and
    error must equal the ``Quantity``-arithmetic body bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(scenario=_scenarios())
    def test_fields_ranking_and_errors_match(self, scenario):
        psm, cycles, deadline = (scenario.pop(k) for k in ("psm", "cycles", "deadline"))
        for name in psm.state_names():
            got, got_err = _outcome(evaluate_state, psm, name, cycles, deadline, **scenario)
            want, want_err = _outcome(
                dvfs_oracle.evaluate_state, psm, name, cycles, deadline, **scenario
            )
            assert got_err == want_err
            if want is not None:
                _assert_same_choice(got, want)
        del scenario["idle_state"]
        ranked, ranked_err = _outcome(optimize_state, psm, cycles, deadline, **scenario)
        want_ranked, want_err = _outcome(
            dvfs_oracle.optimize_state, psm, cycles, deadline, **scenario
        )
        assert ranked_err == want_err
        if want_ranked is not None:
            assert [c.state for c in ranked] == [c.state for c in want_ranked]
            for got, want in zip(ranked, want_ranked):
                _assert_same_choice(got, want)

    def test_signed_zero_idle_time_is_kept(self):
        # deadline -0.0 minus a zero busy time is -0.0: feasible, and the
        # clamp keeps the sign, as the Quantity body did.
        psm = make_psm()
        deadline = Quantity(-0.0, TIME)
        got = evaluate_state(psm, "P1", 0, deadline)
        want = dvfs_oracle.evaluate_state(psm, "P1", 0, deadline)
        assert got.feasible and want.feasible
        assert math.copysign(1.0, got.idle_time.magnitude) == -1.0
        _assert_same_choice(got, want)

    def test_non_time_deadline_keeps_the_message(self):
        psm = make_psm()
        for fn in (evaluate_state, dvfs_oracle.evaluate_state):
            with pytest.raises(UnitError) as exc:
                fn(psm, "P3", 1e9, q(1, "J"))
            assert str(exc.value) == "cannot subtract energy and time"

    def test_non_energy_dynamic_term_keeps_the_message(self):
        psm = make_psm()
        for fn in (evaluate_state, dvfs_oracle.evaluate_state):
            with pytest.raises(UnitError) as exc:
                fn(psm, "P3", 1e9, q(1, "s"), dynamic_energy_per_cycle=q(1, "W"))
            assert str(exc.value) == "cannot add energy and power"
