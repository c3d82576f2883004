"""The model doctor: rule engine, seeded violations, suppression, CLI."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    REPOSITORY_SCOPE,
    RULE_CATALOG,
    DoctorReport,
    check_repository,
    check_system,
    rule_catalog,
)
from repro.diagnostics import DiagnosticSink
from repro.modellib import standard_repository
from repro.obs import Observer
from repro.repository import MemoryStore, ModelRepository
from repro.toolchain import ToolchainSession

ALL_RULES = tuple(RULE_CATALOG)

# One violation per rule, seeded deliberately.  The base CPU keeps the
# system composable; every other file plants a specific defect.
SEEDED_FILES = {
    "cpu.xpdl": (
        "<cpu name='SeedCpu'>"
        "<group prefix='core' quantity='2'>"
        "<core frequency='2' frequency_unit='GHz'/>"
        "</group>"
        "</cpu>"
    ),
    # XPDL0700: suite-level mb= and instruction_set= that resolve nowhere.
    "isa_dangling.xpdl": (
        "<instructions id='seed_isa' mb='no_such_suite'>"
        "<inst name='add' energy='1' energy_unit='nJ'/>"
        "</instructions>"
    ),
    # XPDL0701: mb= resolving to a <cpu>, and type= crossing element kinds.
    "isa_wrong_kind.xpdl": (
        "<instructions id='seed_isa2' mb='SeedCpu'>"
        "<inst name='add' energy='1' energy_unit='nJ'/>"
        "</instructions>"
    ),
    "kind_mixup.xpdl": "<memory id='seed_mem_mixup' type='SeedCpu'/>",
    # XPDL0703 (+ XPDL0704): unreferenced descriptor with an unknown unit,
    # and a dimension mismatch (a frequency measured in bytes).
    "orphan.xpdl": "<memory name='OrphanMem' size='4' unit='parsec'/>",
    "bad_dimension.xpdl": (
        "<cache name='BadDimCache' frequency='2' frequency_unit='GB'/>"
    ),
    # XPDL0705: a descriptor that loads with an error (unknown entity).
    "bad_entity.xpdl": "<cpu name='BadChip'>&bogus;<core/></cpu>",
    # System with the remaining seeds: dangling instruction_set (0700),
    # ghost power domain (0702), PSM defects (0710-0712), interconnect
    # endpoint/cardinality/bandwidth defects (0713-0715).
    "sys.xpdl": (
        "<system id='seed_sys'><node>"
        "<cpu id='PE0' type='SeedCpu' instruction_set='ghost_isa'/>"
        "<memory id='mem0' size='4' unit='GB'/>"
        "<group expanded='true' member_count='3' prefix='pe'>"
        "<core id='pe0'/>"
        "</group>"
        "<interconnect id='ic0' head='core5' tail='mem0' "
        "max_bandwidth='10' max_bandwidth_unit='GB/s'/>"
        "<interconnect id='ic1' head='pe0' tail='mem0' "
        "max_bandwidth='10' max_bandwidth_unit='GB/s' "
        "effective_bandwidth='20' effective_bandwidth_unit='GB/s'>"
        "<channel name='up' max_bandwidth='99' max_bandwidth_unit='GB/s'/>"
        "</interconnect>"
        "<power_state_machine name='seed_psm' power_domain='ghost_pd'>"
        "<power_states>"
        "<power_state name='P1' frequency='1' frequency_unit='GHz' "
        "power='30' power_unit='W'/>"
        "<power_state name='P2' frequency='2' frequency_unit='GHz' "
        "power='10' power_unit='W'/>"
        "<power_state name='P9' frequency='3' frequency_unit='GHz' "
        "power='40' power_unit='W'/>"
        "</power_states>"
        "<transitions>"
        "<transition head='P1' tail='P2' time='-1' time_unit='us' "
        "energy='2' energy_unit='nJ'/>"
        "<transition head='P2' tail='P1'/>"
        "</transitions>"
        "</power_state_machine>"
        "</node></system>"
    ),
}


def seeded_session() -> ToolchainSession:
    return ToolchainSession(
        ModelRepository([MemoryStore(dict(SEEDED_FILES))]),
        sink=DiagnosticSink(max_errors=10_000),
        observer=Observer(),
    )


def full_report(session: ToolchainSession, **kw) -> DoctorReport:
    merged = DoctorReport()
    merged.merge(session.doctor(REPOSITORY_SCOPE, **kw))
    for ident in session.repository.systems():
        merged.merge(session.doctor(ident, **kw))
    return merged


@pytest.fixture(scope="module")
def seeded_report() -> DoctorReport:
    return full_report(seeded_session())


class TestRuleCatalog:
    def test_stable_ids_and_names(self):
        for rule_id, spec in RULE_CATALOG.items():
            assert rule_id == spec.rule_id
            assert rule_id.startswith("XPDL07")
            assert spec.name and spec.name == spec.name.lower()
            assert spec.scope in ("repository", "system")

    def test_catalog_as_plain_data(self):
        rows = rule_catalog()
        assert [r["rule"] for r in rows] == list(ALL_RULES)
        assert all(r["severity"] in ("note", "warning", "error") for r in rows)


class TestSeededCorpus:
    def test_every_rule_fires_at_least_once(self, seeded_report):
        fired = set(seeded_report.by_rule())
        assert fired == set(ALL_RULES), (
            f"rules that never fired: {sorted(set(ALL_RULES) - fired)}"
        )

    def test_report_not_ok_and_counts_consistent(self, seeded_report):
        assert not seeded_report.ok()
        assert seeded_report.errors > 0
        total = (
            seeded_report.errors
            + seeded_report.warnings
            + seeded_report.notes
        )
        assert total == len(seeded_report.findings)

    def test_findings_carry_declared_severities(self, seeded_report):
        # The rule's catalog severity is the default; rules may soften a
        # specific finding (e.g. a missing PSM cost) but never harden it.
        order = {"note": 0, "warning": 1, "error": 2}
        for f in seeded_report.findings:
            declared = RULE_CATALOG[f.rule].severity
            assert order[f.severity] <= int(declared)

    def test_json_form_is_stable_and_complete(self, seeded_report):
        data = seeded_report.to_dict()
        assert data["summary"]["ok"] is False
        assert len(data["findings"]) == len(seeded_report.findings)
        text = json.dumps(data, sort_keys=True)
        assert json.loads(text) == data
        keys = {"rule", "name", "severity", "message", "subject", "location"}
        assert all(set(f) == keys for f in data["findings"])

    def test_cardinality_hint_on_endpoint_finding(self):
        session = seeded_session()
        full_report(session)
        hints = [
            h
            for d in session.sink
            if d.code == "XPDL0713"
            for h in d.hints
        ]
        assert any("cardinality" in h for h in hints)

    def test_suppression_by_id_and_name(self):
        session = seeded_session()
        rep = full_report(session, suppress=("XPDL0703", "psm-monotone-levels"))
        fired = set(rep.by_rule())
        assert "XPDL0703" not in fired
        assert "XPDL0712" not in fired
        assert {"XPDL0703", "XPDL0712"} <= set(rep.suppressed)

    def test_direct_engine_entry_points(self):
        """check_repository/check_system work without a session."""
        repo = ModelRepository([MemoryStore(dict(SEEDED_FILES))])
        rep = check_repository(repo)
        assert "XPDL0700" in rep.by_rule()
        from repro.composer import compose_model

        sink = DiagnosticSink(max_errors=10_000)
        composed = compose_model(repo, "seed_sys", sink=sink)
        rep2 = check_system("seed_sys", composed.root, repo)
        assert "XPDL0713" in rep2.by_rule()
        assert rep2.checked == ("seed_sys",)


class TestAnalyzeLeavesCompositionAlone:
    """``analyze`` derives on a copy of the composition, so what the
    doctor sees does not depend on whether analyze ran first."""

    def test_doctor_same_with_and_without_emit_ir(self):
        fresh = seeded_session().doctor("seed_sys").to_dict()
        session = seeded_session()
        session.emit_ir("seed_sys")
        assert session.doctor("seed_sys").to_dict() == fresh
        assert any(
            f["rule"] == "XPDL0715"
            and f["severity"] == "error"
            and "ic1: declared effective_bandwidth" in f["message"]
            for f in fresh["findings"]
        )

    def test_analyze_leaves_compose_attributes_unchanged(self):
        session = seeded_session()
        composed = session.compose("seed_sys")
        before = [dict(e.attrs) for e in composed.root.walk()]
        analyzed = session.analyze("seed_sys").composed
        assert [dict(e.attrs) for e in composed.root.walk()] == before
        # The derived bandwidths live on the copy, and the IR carries them.
        ic1 = [e for e in analyzed.root.walk() if e.ident == "ic1"]
        original = [e for e in composed.root.walk() if e.ident == "ic1"]
        assert ic1[0].attrs["effective_bandwidth"] != (
            original[0].attrs["effective_bandwidth"]
        )
        emitted = session.emit_ir("seed_sys").ir.by_id("ic1")
        assert emitted.attrs["effective_bandwidth"] == (
            ic1[0].attrs["effective_bandwidth"]
        )
        assert session.compose("seed_sys") is composed
        assert [dict(e.attrs) for e in composed.root.walk()] == before


# Hand-written effective bandwidths against the derived ones: matching
# (in other units), contradicting, over the nominal, derived from the
# nominal alone, limited by a GiB/s endpoint, with nothing derived, and on
# a technology meta-model that is no link instance.
BANDWIDTH_SYSTEM = (
    "<system id='bw_sys'><node>"
    "<cpu id='cpu0'/>"
    "<memory id='mem8' bandwidth='8' bandwidth_unit='GB/s'/>"
    "<memory id='memg' bandwidth='1' bandwidth_unit='GiB/s'/>"
    "<interconnect id='ic_match' head='cpu0' tail='mem8' "
    "max_bandwidth='10' max_bandwidth_unit='GB/s' "
    "effective_bandwidth='8000' effective_bandwidth_unit='MB/s'>"
    "<channel name='down' max_bandwidth='12' max_bandwidth_unit='GB/s'/>"
    "<channel name='up' max_bandwidth='4' max_bandwidth_unit='GB/s'/>"
    "</interconnect>"
    "<interconnect id='ic_contra' head='cpu0' tail='mem8' "
    "max_bandwidth='10' max_bandwidth_unit='GB/s' "
    "effective_bandwidth='9' effective_bandwidth_unit='GB/s'/>"
    "<interconnect id='ic_over' head='cpu0' tail='mem8' "
    "max_bandwidth='10' max_bandwidth_unit='GB/s' "
    "effective_bandwidth='20' effective_bandwidth_unit='GB/s'>"
    "<channel name='up' max_bandwidth='99' max_bandwidth_unit='GB/s'/>"
    "</interconnect>"
    "<interconnect id='ic_nominal' head='cpu0' tail='nowhere' "
    "max_bandwidth='3' max_bandwidth_unit='GiB/s' "
    "effective_bandwidth='3' effective_bandwidth_unit='GB/s'/>"
    "<interconnect id='ic_gib' head='memg' tail='cpu0' "
    "max_bandwidth='7' max_bandwidth_unit='GB/s' "
    "effective_bandwidth='1' effective_bandwidth_unit='GB/s'/>"
    "<interconnect id='ic_free' head='cpu0' tail='nowhere' "
    "effective_bandwidth='4' effective_bandwidth_unit='GB/s'/>"
    "<interconnect id='ic_meta' "
    "max_bandwidth='10' max_bandwidth_unit='GB/s' "
    "effective_bandwidth='2' effective_bandwidth_unit='GB/s'/>"
    "</node></system>"
)


class TestBandwidthRule:
    """XPDL0715 reads the derivation without cloning the composition."""

    def test_findings_for_hand_written_values(self):
        session = ToolchainSession(
            ModelRepository([MemoryStore({"bw.xpdl": BANDWIDTH_SYSTEM})]),
            sink=DiagnosticSink(max_errors=10_000),
            observer=Observer(),
        )
        composed = session.compose("bw_sys")
        before = [dict(e.attrs) for e in composed.root.walk()]
        findings = [
            (f["severity"], f["location"], f["message"])
            for f in session.doctor("bw_sys").to_dict()["findings"]
            if f["rule"] == "XPDL0715"
        ]
        assert findings == [
            (
                "error",
                "mem:bw.xpdl:1:1003-1154",
                "interconnect ic_gib: declared effective_bandwidth 1e+09 B/s "
                "contradicts the downgrading analysis (1.07374e+09 B/s)",
            ),
            (
                "warning",
                "mem:bw.xpdl:1:310-377",
                "channel down of ic_match claims 1.2e+10 B/s, more than its "
                "link's nominal 1e+10 B/s",
            ),
            (
                "error",
                "mem:bw.xpdl:1:456-611",
                "interconnect ic_contra: declared effective_bandwidth 9e+09 B/s "
                "contradicts the downgrading analysis (8e+09 B/s)",
            ),
            (
                "error",
                "mem:bw.xpdl:1:611-844",
                "interconnect ic_over: declared effective_bandwidth 2e+10 B/s "
                "exceeds the nominal max_bandwidth 1e+10 B/s",
            ),
            (
                # An over-nominal link still has its channels checked.
                "warning",
                "mem:bw.xpdl:1:764-829",
                "channel up of ic_over claims 9.9e+10 B/s, more than its "
                "link's nominal 1e+10 B/s",
            ),
            (
                "error",
                "mem:bw.xpdl:1:844-1003",
                "interconnect ic_nominal: declared effective_bandwidth 3e+09 B/s "
                "contradicts the downgrading analysis (3.22123e+09 B/s)",
            ),
        ]
        assert [dict(e.attrs) for e in composed.root.walk()] == before


class TestCleanCorpus:
    def test_shipped_corpus_has_no_errors(self):
        session = ToolchainSession(standard_repository(), observer=Observer())
        rep = full_report(session)
        assert rep.ok(), [f.message for f in rep.findings if f.is_error()]
        # The two known advisories: Listing 13's deliberately dangling
        # power domain and the thereby-unreferenced PSM descriptor.
        assert set(rep.by_rule()) <= {"XPDL0702", "XPDL0703"}


class TestDoctorCli:
    def _seed_dir(self, tmp_path):
        d = tmp_path / "models"
        d.mkdir()
        for name, text in SEEDED_FILES.items():
            (d / name).write_text(text)
        return d

    def test_json_output_and_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "doctor.json"
        code = main(
            [
                "-I",
                str(self._seed_dir(tmp_path)),
                "doctor",
                "seed_sys",
                "--format",
                "json",
                "-o",
                str(out),
            ]
        )
        assert code == 1  # error findings gate the exit code
        data = json.loads(out.read_text())
        assert data["summary"]["errors"] > 0
        assert any(f["rule"] == "XPDL0700" for f in data["findings"])

    def test_unloadable_descriptor_fails_the_doctor(self, tmp_path, capsys):
        from repro.cli import main

        d = tmp_path / "models"
        d.mkdir()
        (d / "BadChip.xpdl").write_text("<cpu name='BadChip'>&bogus;<core/></cpu>")
        (d / "badsys.xpdl").write_text(
            "<system id='badsys'><cpu id='c0' type='BadChip'/></system>"
        )
        assert main(["-I", str(d), "validate", "BadChip"]) == 1
        capsys.readouterr()
        assert main(["-I", str(d), "doctor", "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        (finding,) = [f for f in data["findings"] if f["rule"] == "XPDL0705"]
        assert finding["subject"] == "BadChip"
        assert "XML0012" in finding["message"]
        assert finding["location"].endswith("BadChip.xpdl:1:21-28")

    def test_unloadable_descriptor_found_after_a_cached_load(self):
        # A session that already loaded the descriptor (to compose the
        # system) replays no diagnostics; the finding must not vanish.
        store = MemoryStore(
            {
                "chip.xpdl": "<cpu name='BadChip'>&bogus;<core/></cpu>",
                "sys.xpdl": "<system id='badsys'><cpu id='c0' type='BadChip'/></system>",
            }
        )
        session = ToolchainSession(
            ModelRepository([store]), sink=DiagnosticSink(max_errors=100)
        )
        session.compose("badsys")
        report = session.doctor(REPOSITORY_SCOPE)
        assert [f.subject for f in report.findings if f.rule == "XPDL0705"] == [
            "BadChip"
        ]

    def test_clean_run_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["doctor", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["ok"] is True

    def test_list_rules(self, capsys):
        from repro.cli import main

        assert main(["doctor", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULES:
            assert rule_id in out

    def test_unknown_identifier_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["doctor", "no_such_system"]) == 2
