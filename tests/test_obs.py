"""Observability: events, counters, --trace JSON-lines, xpdl stats."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.modellib import PAPER_LISTINGS
from repro.obs import (
    HISTOGRAM_BOUNDS,
    NULL_OBSERVER,
    Histogram,
    NullObserver,
    Observer,
    get_observer,
    use_observer,
)
from repro.toolchain import ToolchainSession


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestObserverCore:
    def test_default_is_null(self):
        assert get_observer() is NULL_OBSERVER
        assert not get_observer().enabled

    def test_use_observer_scopes(self):
        obs = Observer()
        with use_observer(obs):
            assert get_observer() is obs
            get_observer().count("x", 2)
        assert get_observer() is NULL_OBSERVER
        assert obs.counters["x"] == 2

    def test_null_observer_is_inert(self):
        null = NullObserver()
        null.count("x")
        null.mark("y")
        with null.stage("z"):
            pass
        assert null.counters == {} and null.events == []

    def test_stage_nesting_records_parent(self):
        obs = Observer()
        with obs.stage("outer"):
            with obs.stage("inner"):
                pass
        by_name = {e.name: e for e in obs.events}
        assert by_name["inner"].fields["parent"] == "outer"
        assert "parent" not in by_name["outer"].fields
        assert obs.stages["outer"].runs == 1

    def test_jsonl_roundtrips(self):
        obs = Observer()
        with obs.stage("s"):
            obs.count("c", 3)
        obs.mark("m", detail="x")
        lines = [json.loads(l) for l in obs.to_jsonl().splitlines()]
        assert {l["event"] for l in lines} == {"stage", "counter", "mark"}


class TestSnapshotMerge:
    """Cross-process aggregation used by the batch-build workers."""

    def _loaded_observer(self) -> Observer:
        obs = Observer()
        obs.count("c", 3)
        obs.count("d")
        with obs.stage("s"):
            pass
        return obs

    def test_snapshot_is_plain_data(self):
        snap = self._loaded_observer().snapshot()
        assert snap["counters"] == {"c": 3, "d": 1}
        assert snap["stages"]["s"]["runs"] == 1
        assert snap["stages"]["s"]["total_s"] >= 0
        json.dumps(snap)  # picklable AND json-able across processes

    def test_merge_accumulates(self):
        snap = self._loaded_observer().snapshot()
        merged = Observer()
        merged.merge(snap)
        merged.merge(snap)
        assert merged.counters == {"c": 6, "d": 2}
        assert merged.stages["s"].runs == 2
        assert merged.stages["s"].total_s >= 2 * snap["stages"]["s"]["total_s"]
        assert merged.stages["s"].mean_s() == pytest.approx(
            snap["stages"]["s"]["total_s"]
        )

    def test_merge_empty_snapshot_is_noop(self):
        obs = self._loaded_observer()
        before = obs.snapshot()
        obs.merge({})
        assert obs.snapshot() == before

    def test_null_observer_merge_stays_empty(self):
        null = NullObserver()
        null.merge(self._loaded_observer().snapshot())
        assert null.counters == {} and null.stages == {}


class TestHistograms:
    """Latency histograms of the model service's per-request metrics."""

    def test_record_tracks_count_mean_min_max(self):
        h = Histogram()
        for v in (0.001, 0.002, 0.004):
            h.record(v)
        assert h.count == 3
        assert h.mean() == pytest.approx(0.007 / 3)
        assert h.min == 0.001 and h.max == 0.004

    def test_quantile_bounded_by_one_doubling(self):
        h = Histogram()
        for _ in range(100):
            h.record(0.010)
        # the true value lies in (bound/2, bound]; p99 may overshoot by <2x
        assert 0.010 <= h.quantile(0.99) <= 0.020

    def test_quantile_capped_at_observed_max(self):
        h = Histogram()
        h.record(0.0005)
        assert h.quantile(0.99) <= 0.0005

    def test_empty_histogram_reads_zero(self):
        h = Histogram()
        assert h.mean() == 0.0 and h.quantile(0.5) == 0.0
        assert h.to_dict()["min"] == 0.0

    def test_merge_dict_adds_buckets(self):
        a, b = Histogram(), Histogram()
        a.record(0.001)
        b.record(0.100)
        b.record(0.200)
        a.merge_dict(b.to_dict())
        assert a.count == 3
        assert a.max == 0.200 and a.min == 0.001
        assert sum(a.counts) == 3

    def test_merge_refuses_foreign_bucket_layout(self):
        a = Histogram()
        a.record(0.001)
        a.merge_dict({"counts": [1, 2], "count": 3, "total": 9.0})
        assert a.count == 1  # untouched

    def test_bounds_cover_microseconds_to_minute(self):
        assert HISTOGRAM_BOUNDS[0] == pytest.approx(1e-6)
        assert HISTOGRAM_BOUNDS[-1] > 60.0

    def test_observer_record_and_snapshot_merge(self):
        obs = Observer()
        obs.record("service.latency.query", 0.002)
        obs.record("service.latency.query", 0.004)
        snap = obs.snapshot()
        json.dumps(snap)
        merged = Observer()
        merged.merge(snap)
        merged.merge(snap)
        hist = merged.histogram("service.latency.query")
        assert hist is not None and hist.count == 4
        assert hist.mean() == pytest.approx(0.003)

    def test_histogram_events_in_jsonl(self):
        obs = Observer()
        for _ in range(3):
            obs.record("h", 0.01)
        lines = [json.loads(l) for l in obs.to_jsonl().splitlines()]
        hist = [l for l in lines if l["event"] == "histogram"]
        assert len(hist) == 1
        assert hist[0]["name"] == "h" and hist[0]["count"] == 3

    def test_null_observer_record_is_inert(self):
        null = NullObserver()
        null.record("x", 1.0)
        assert null.histograms == {}


class TestGauges:
    def test_gauge_set_and_add(self):
        obs = Observer()
        obs.gauge("inflight", 2.0)
        assert obs.gauge_add("inflight", 1.0) == 3.0
        assert obs.gauge_add("inflight", -3.0) == 0.0
        assert obs.gauges["inflight"] == 0.0

    def test_gauges_sum_across_merge(self):
        """Levels add across workers: 2 in-flight here + 3 there = 5."""
        a, b = Observer(), Observer()
        a.gauge("inflight", 2.0)
        b.gauge("inflight", 3.0)
        a.merge(b.snapshot())
        assert a.gauges["inflight"] == 5.0

    def test_gauge_events_in_jsonl(self):
        obs = Observer()
        obs.gauge("g", 7.0)
        lines = [json.loads(l) for l in obs.to_jsonl().splitlines()]
        gauges = [l for l in lines if l["event"] == "gauge"]
        assert len(gauges) == 1
        assert gauges[0]["name"] == "g" and gauges[0]["value"] == 7.0

    def test_null_observer_gauges_inert(self):
        null = NullObserver()
        null.gauge("g", 1.0)
        assert null.gauge_add("g", 1.0) == 0.0
        assert null.gauges == {}


class TestCounterTotalsMatchModel:
    def test_compose_counters_match_composed_tree(self, repo):
        obs = Observer()
        session = ToolchainSession(repo, observer=obs)
        composed = session.compose("liu_gpu_server")
        root = composed.root
        assert obs.counters["compose.elements"] == sum(
            1 for _ in root.walk()
        )
        expanded = [
            e for e in root.walk() if e.attrs.get("expanded") == "true"
        ]
        assert obs.counters["compose.groups.expanded"] == len(expanded)
        assert obs.counters["compose.groups.members"] == sum(
            int(g.attrs.get("member_count", 0)) for g in expanded
        )
        assert obs.counters["compose.descriptors"] == len(composed.referenced)

    def test_expanded_core_count_matches_analysis(self, repo):
        obs = Observer()
        session = ToolchainSession(repo, observer=obs)
        analysis = session.analyze("liu_gpu_server")
        # 4 E5 cores + 2496 K20c CUDA cores
        assert analysis.cores == 2500
        assert obs.counters["analysis.cores"] == 2500

    def test_ir_counters_match_emitted_ir(self, repo):
        obs = Observer()
        session = ToolchainSession(repo, observer=obs)
        result = session.emit_ir("myriad_server")
        assert obs.counters["ir.nodes"] == len(result.ir)
        # Emitting serialized the IR once; reading its image back
        # serializes nothing more.
        with use_observer(obs):
            blob = result.ir.to_bytes()
        assert obs.counters["ir.emits"] == 1
        assert obs.counters["ir.bytes"] == len(blob)

    def test_parse_counters_accumulate(self, repo):
        obs = Observer()
        with use_observer(obs):
            from repro.xpdlxml import parse_xml

            parse_xml("<a><b/><c/></a>")
        assert obs.counters["parse.documents"] == 1
        assert obs.counters["parse.elements"] == 3


class TestTraceFlag:
    def test_trace_out_writes_wellformed_jsonl(self, capsys, tmp_path):
        trace = tmp_path / "events.jsonl"
        out_file = str(tmp_path / "m.xir")
        code, _out, _err = run_cli(
            capsys,
            "--trace-out",
            str(trace),
            "compose",
            "myriad_server",
            "-o",
            out_file,
        )
        assert code == 0
        lines = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if line.strip()
        ]
        assert lines, "trace file must not be empty"
        stages = [l for l in lines if l["event"] == "stage"]
        assert stages, "at least one stage event expected"
        for ev in stages:
            assert ev["duration_s"] >= 0
            assert ev["at_s"] >= 0
        names = {l["name"] for l in stages}
        assert "toolchain.compose" in names
        assert "toolchain.emit_ir" in names
        counters = {
            l["name"]: l["total"] for l in lines if l["event"] == "counter"
        }
        assert counters.get("compose.runs") == 1
        assert counters.get("parse.documents", 0) > 0

    def test_trace_to_stderr(self, capsys, tmp_path):
        out_file = str(tmp_path / "m.xir")
        code, _out, err = run_cli(
            capsys, "--trace", "compose", "ShaveL2", "-o", out_file
        )
        assert code == 0
        events = [
            json.loads(line)
            for line in err.splitlines()
            if line.startswith("{")
        ]
        assert any(e["event"] == "stage" for e in events)

    def test_no_trace_no_overhead_observer(self, capsys, tmp_path):
        out_file = str(tmp_path / "m.xir")
        code, _out, err = run_cli(capsys, "compose", "ShaveL2", "-o", out_file)
        assert code == 0
        assert not any(line.startswith("{") for line in err.splitlines())


class TestStatsCommand:
    def test_stats_default_systems(self, capsys):
        code, out, _err = run_cli(capsys, "stats")
        assert code == 0
        assert "toolchain.compose" in out
        assert "cache: hits=" in out

    def test_stats_second_round_hits(self, capsys):
        code, out, _err = run_cli(capsys, "stats", "myriad_server", "--repeat", "2")
        assert code == 0
        cache_line = next(l for l in out.splitlines() if l.startswith("cache:"))
        hits = int(cache_line.split("hits=")[1].split()[0])
        assert hits >= 1, cache_line
        # exactly one real composition despite two rounds
        assert "compose.runs" in out
        counters = {
            parts[0]: parts[1]
            for parts in (
                l.split() for l in out.splitlines() if l.startswith("  ")
            )
            if len(parts) == 2
        }
        assert counters["compose.runs"] == "1"

    def test_stats_listing_corpus_exits_zero(self, capsys):
        """`xpdl stats` over the Listing 1-11 corpus succeeds."""
        corpus = sorted(
            {
                ident
                for listing, idents in PAPER_LISTINGS.items()
                if int(listing.removeprefix("listing")) <= 11
                for ident in idents
            }
        )
        code, out, _err = run_cli(capsys, "stats", *corpus)
        assert code == 0
        assert "cache: hits=" in out

    def test_repeat_renders_each_diagnostic_once(self, capsys):
        """Regression: --repeat used to re-render diagnostics per round."""
        code, _out, err = run_cli(
            capsys, "stats", "liu_gpu_server", "--repeat", "3"
        )
        assert code == 0
        notes = [l for l in err.splitlines() if "[XPDL0211]" in l]
        assert notes, "expected unresolved-reference notes from liu_gpu_server"
        assert len(notes) == len(set(notes))

    def test_stats_unknown_identifier(self, capsys):
        code, _out, err = run_cli(capsys, "stats", "no_such_system")
        assert code == 2
        assert "no_such_system" in err
