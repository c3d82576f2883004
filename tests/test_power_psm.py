"""Tests for executable power state machines."""

import pytest

from repro.diagnostics import UnitError, XpdlError
from repro.model import from_document
from repro.power import (
    PowerStateDef,
    PowerStateMachineModel,
    PsmCursor,
    TransitionDef,
)
from repro.units import Quantity
from repro.xpdlxml import parse_xml


def q(v, u):
    return Quantity.of(v, u)


def make_psm(complete: bool = True) -> PowerStateMachineModel:
    states = [
        PowerStateDef("P1", q(1.2, "GHz"), q(20, "W")),
        PowerStateDef("P2", q(1.6, "GHz"), q(26, "W")),
        PowerStateDef("P3", q(2.0, "GHz"), q(34, "W")),
    ]
    pairs = [
        ("P2", "P1", 1, 2),
        ("P3", "P2", 1, 2),
        ("P1", "P3", 3, 7),
    ]
    if complete:
        pairs += [("P1", "P2", 2, 4), ("P2", "P3", 2, 4), ("P3", "P1", 2, 3)]
    transitions = [
        TransitionDef(h, t, q(dt, "us"), q(de, "nJ")) for h, t, dt, de in pairs
    ]
    return PowerStateMachineModel("psm", states, transitions)


class TestConstruction:
    def test_from_element(self, repo):
        elem = repo.load_model("power_state_machine1")
        psm = PowerStateMachineModel.from_element(elem)
        assert psm.state_names() == ["P1", "P2", "P3"]
        assert psm.state("P1").frequency.to("GHz") == pytest.approx(1.2)
        assert psm.state("P1").power.to("W") == pytest.approx(20)
        assert psm.power_domain == "xyCPU_core_pd"
        assert not psm.is_complete()  # Listing 13 models 3 of 6 switchings

    def test_no_states_rejected(self):
        with pytest.raises(XpdlError):
            PowerStateMachineModel("x", [], [])

    def test_bad_transition_state_rejected(self):
        states = [PowerStateDef("P1", q(1, "GHz"), q(1, "W"))]
        bad = [TransitionDef("P1", "P9", q(1, "us"), q(1, "nJ"))]
        with pytest.raises(XpdlError):
            PowerStateMachineModel("x", states, bad)

    def test_joule_valued_state_power_rejected(self):
        # The float DVFS evaluation trusts these dimensions; unchecked, it
        # would report 25 J for a joule-valued power.
        states = [
            PowerStateDef("LO", q(1, "GHz"), q(10, "W")),
            PowerStateDef("HI", q(2, "GHz"), q(25, "J")),
        ]
        with pytest.raises(UnitError) as exc:
            PowerStateMachineModel("p", states, [])
        assert str(exc.value) == "PSM 'p': state 'HI' power is energy, expected power"

    def test_wrong_dimension_frequency_and_transition_costs_rejected(self):
        ok = PowerStateDef("A", q(1, "GHz"), q(1, "W"))
        with pytest.raises(UnitError, match="state 'B' frequency is power"):
            PowerStateMachineModel("p", [ok, PowerStateDef("B", q(1, "W"), q(1, "W"))], [])
        b = PowerStateDef("B", q(2, "GHz"), q(2, "W"))
        for bad, what in (
            (TransitionDef("A", "B", q(1, "nJ"), q(1, "nJ")), "A->B time is energy"),
            (TransitionDef("A", "B", q(1, "us"), q(1, "W")), "A->B energy is power"),
        ):
            with pytest.raises(UnitError, match=f"transition {what}, expected"):
                PowerStateMachineModel("p", [ok, b], [bad])

    def test_wrong_element_kind(self):
        m = from_document(parse_xml("<cpu name='x'/>"))
        with pytest.raises(XpdlError):
            PowerStateMachineModel.from_element(m)


class TestQueries:
    def test_ordering_helpers(self):
        psm = make_psm()
        assert psm.fastest().name == "P3"
        assert psm.slowest_running().name == "P1"
        assert psm.idle_state().name == "P1"

    def test_rankings_keep_declaration_order_on_ties(self):
        states = [
            PowerStateDef("A", q(2, "GHz"), q(5, "W")),
            PowerStateDef("B", q(1, "GHz"), q(3, "W")),
            PowerStateDef("C", q(2, "GHz"), q(3, "W")),
            PowerStateDef("D", q(1, "GHz"), q(4, "W")),
        ]
        psm = PowerStateMachineModel("ties", states, [])
        ranked = psm.by_frequency()
        assert [s.name for s in ranked] == ["B", "D", "A", "C"]
        assert psm.idle_state().name == "B"
        # The ranking is computed once, so callers cannot reorder it.
        with pytest.raises(TypeError):
            ranked[0] = ranked[-1]
        assert psm.by_frequency() == ranked
        assert psm.fastest().name == "C"

    def test_unknown_state_message(self):
        with pytest.raises(XpdlError) as exc:
            make_psm().state("P9")
        assert "P1" in str(exc.value)

    def test_missing_transitions(self):
        psm = make_psm(complete=False)
        assert ("P1", "P2") in psm.missing_transitions()
        assert make_psm(complete=True).missing_transitions() == []

    def test_off_state_detection(self):
        s = PowerStateDef("OFF", q(0, "GHz"), q(0.1, "W"))
        assert s.is_off()


class TestSwitching:
    def test_direct_plan(self):
        plan = make_psm().switch_plan("P3", "P2")
        assert plan.direct and plan.hops == 1
        assert plan.time.to("us") == pytest.approx(1)
        assert plan.energy.to("nJ") == pytest.approx(2)

    def test_identity_plan(self):
        plan = make_psm().switch_plan("P2", "P2")
        assert plan.hops == 0
        assert plan.time.magnitude == 0

    def test_multihop_plan(self):
        psm = make_psm(complete=False)
        # P2 -> P3 has no direct transition: must go P2 -> P1 -> P3.
        plan = psm.switch_plan("P2", "P3")
        assert not plan.direct
        assert plan.path == ("P2", "P1", "P3")
        assert plan.time.to("us") == pytest.approx(4)
        assert plan.energy.to("nJ") == pytest.approx(9)

    def test_unreachable_raises(self):
        states = [
            PowerStateDef("A", q(1, "GHz"), q(1, "W")),
            PowerStateDef("B", q(2, "GHz"), q(2, "W")),
        ]
        psm = PowerStateMachineModel(
            "x", states, [TransitionDef("B", "A", q(1, "us"), q(1, "nJ"))]
        )
        with pytest.raises(XpdlError):
            psm.switch_plan("A", "B")

    def test_energy_optimized_plan(self):
        states = [
            PowerStateDef("A", q(1, "GHz"), q(1, "W")),
            PowerStateDef("B", q(2, "GHz"), q(2, "W")),
            PowerStateDef("C", q(3, "GHz"), q(3, "W")),
        ]
        transitions = [
            TransitionDef("A", "C", q(1, "us"), q(100, "nJ")),  # fast, costly
            TransitionDef("A", "B", q(5, "us"), q(1, "nJ")),
            TransitionDef("B", "C", q(5, "us"), q(1, "nJ")),
        ]
        psm = PowerStateMachineModel("x", states, transitions)
        by_time = psm.switch_plan("A", "C", optimize="time")
        by_energy = psm.switch_plan("A", "C", optimize="energy")
        assert by_time.path == ("A", "C")
        assert by_energy.path == ("A", "B", "C")


class TestCursor:
    def test_accumulates_costs(self):
        psm = make_psm()
        cur = PsmCursor(psm, "P3")
        cur.go("P1")  # direct P3->P1: 2us 3nJ
        cur.go("P3")  # direct P1->P3: 3us 7nJ
        assert cur.current == "P3"
        assert cur.switches == 2
        assert cur.switch_time.to("us") == pytest.approx(5)
        assert cur.switch_energy.to("nJ") == pytest.approx(10)

    def test_state_property(self):
        cur = PsmCursor(make_psm(), "P2")
        assert cur.state.power.to("W") == pytest.approx(26)
