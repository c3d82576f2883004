"""Batch compilation: discovery, sharding, parallel determinism, CLI."""

from __future__ import annotations

import copy
import json
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cli import main
from repro.diagnostics import DiagnosticSink, XpdlError
from repro.ir import format as ir_format
from repro.modellib import standard_repository
from repro.obs import Observer
from repro.toolchain import batch as batch_module
from repro.toolchain import discover_systems, plan_shards, run_batch


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDiscovery:
    def test_finds_every_system(self, repo):
        systems = discover_systems(repo)
        assert "liu_gpu_server" in systems
        assert "myriad_server" in systems
        assert "XScluster" in systems
        assert systems == sorted(systems)

    def test_explicit_list_restricts_the_build(self, repo):
        assert discover_systems(repo, ("Nvidia_K20c", "XScluster")) == [
            "Nvidia_K20c",
            "XScluster",
        ]

    def test_unknown_extra_rejected_up_front(self, repo):
        with pytest.raises(XpdlError):
            discover_systems(repo, ("ghost_system",))


class TestShardPlanning:
    def test_deterministic_and_covering(self, repo):
        targets = discover_systems(repo)
        p1 = plan_shards(repo, targets, jobs=2, sink=DiagnosticSink())
        p2 = plan_shards(repo, targets, jobs=2, sink=DiagnosticSink())
        assert p1.shards == p2.shards
        assert p1.fingerprints == p2.fingerprints
        flat = [ident for shard in p1.shards for ident in shard]
        assert sorted(flat) == sorted(targets)  # exact coverage, no dups
        assert len(p1.shards) <= 2

    def test_more_jobs_than_systems_gives_singletons(self, repo):
        targets = discover_systems(repo)
        plan = plan_shards(repo, targets, jobs=64, sink=DiagnosticSink())
        assert all(len(shard) == 1 for shard in plan.shards)
        assert len(plan.shards) == len(targets)

    def test_fingerprint_tracks_sources(self, repo):
        targets = discover_systems(repo)
        plan = plan_shards(repo, targets, jobs=1, sink=DiagnosticSink())
        for ident in targets:
            assert len(plan.fingerprints[ident]) == 64
            assert ident in plan.closures[ident] or plan.closures[ident]


class TestBatchBuild:
    def test_parallel_ir_identical_to_sequential(self):
        """Acceptance: --jobs N produces byte-identical IR (via SHA-256)."""
        seq = run_batch(standard_repository(), jobs=1, cache_dir=None)
        par = run_batch(standard_repository(), jobs=2, cache_dir=None)
        assert seq.ok and par.ok
        assert [b.identifier for b in seq.builds] == [
            b.identifier for b in par.builds
        ]
        assert [b.ir_sha256 for b in seq.builds] == [
            b.ir_sha256 for b in par.builds
        ]
        assert len(par.shards) >= 2

    def test_warm_persistent_cache_hit_rate(self, tmp_path):
        """Acceptance: a warm rebuild is >= 90% stage-cache hits."""
        cache_dir = str(tmp_path / "cache")
        cold = run_batch(standard_repository(), jobs=1, cache_dir=cache_dir)
        warm = run_batch(standard_repository(), jobs=1, cache_dir=cache_dir)
        assert cold.ok and warm.ok
        assert warm.cache["disk_hits"] > 0
        assert warm.hit_rate >= 0.9
        assert [b.ir_sha256 for b in warm.builds] == [
            b.ir_sha256 for b in cold.builds
        ]

    def test_ir_sha256_same_with_no_cold_and_warm_cache(
        self, tmp_path, monkeypatch
    ):
        """The SHA a build reports is its image's key, with or without a
        cache: each emitted IR is serialized once, a cached one never."""
        serialized = []
        build_image = ir_format.build_image

        def counting_build_image(records, meta, **kw):
            serialized.append(meta["system"])
            return build_image(records, meta, **kw)

        monkeypatch.setattr(ir_format, "build_image", counting_build_image)

        def build(cache_dir):
            serialized.clear()
            report = run_batch(standard_repository(), jobs=1, cache_dir=cache_dir)
            assert report.ok
            return [(b.identifier, b.ir_sha256) for b in report.builds]

        cache_dir = str(tmp_path / "cache")
        uncached = build(None)
        assert len(serialized) == len(uncached)
        cold = build(cache_dir)
        assert len(serialized) == len(cold)  # storing the record adds none
        warm = build(cache_dir)
        assert serialized == []  # every SHA is a cached image's key
        assert uncached == cold == warm

    def test_merged_counters_and_diagnostics(self):
        obs = Observer()
        sink = DiagnosticSink()
        report = run_batch(
            standard_repository(),
            jobs=1,
            cache_dir=None,
            observer=obs,
            sink=sink,
        )
        n = len(report.builds)
        assert n >= 3
        # one real composition per system, merged into the caller's observer
        assert obs.counters["compose.runs"] == n
        assert report.counters["compose.runs"] == n
        assert report.stage_timings["toolchain.compose"]["runs"] == n
        # worker diagnostics land in the caller's sink with provenance
        assert len(sink) > 0
        assert report.diagnostics == sink.diagnostics

    def test_out_dir_writes_artifacts(self, tmp_path):
        out_dir = str(tmp_path / "out")
        report = run_batch(
            standard_repository(),
            ("myriad_server",),
            jobs=1,
            cache_dir=None,
            out_dir=out_dir,
        )
        paths = [b.out_path for b in report.builds if b.out_path]
        assert os.path.join(out_dir, "myriad_server.xir") in paths
        for path in paths:
            assert os.path.getsize(path) > 0

    def test_report_to_dict_is_json_ready(self, tmp_path):
        report = run_batch(
            standard_repository(), jobs=1, cache_dir=str(tmp_path / "c")
        )
        data = json.loads(json.dumps(report.to_dict()))
        assert data["ok"] is True
        assert len(data["builds"]) == len(report.builds)
        assert data["hit_rate"] == round(report.hit_rate, 4)


def _exit_in_worker(task):
    """Stands in for ``_run_worker``: the pool worker running it dies
    (as an out-of-memory kill would); in the parent it refuses to run."""
    if str(os.getpid()) != os.environ["BATCH_TEST_PARENT_PID"]:
        os._exit(1)
    raise AssertionError(f"shard {task.shard_index} rebuilt in the parent")


class TestPoolFailures:
    def test_dead_worker_propagates_without_rebuild(self, monkeypatch):
        monkeypatch.setenv("BATCH_TEST_PARENT_PID", str(os.getpid()))
        monkeypatch.setattr(batch_module, "_run_worker", _exit_in_worker)
        sink = DiagnosticSink()
        with pytest.raises(BrokenProcessPool):
            run_batch(standard_repository(), jobs=2, cache_dir=None, sink=sink)
        assert not [d for d in sink if d.code == "XPDL0402"]

    def test_pool_creation_failure_builds_in_process(self, monkeypatch):
        def no_pool(max_workers):
            raise OSError("no semaphores here")

        monkeypatch.setattr(batch_module, "ProcessPoolExecutor", no_pool)
        sink = DiagnosticSink()
        report = run_batch(standard_repository(), jobs=2, cache_dir=None, sink=sink)
        assert report.ok and len(report.shards) == 2
        assert [d.code for d in sink if d.code == "XPDL0402"] == ["XPDL0402"]
        serial = run_batch(standard_repository(), jobs=1, cache_dir=None)
        assert [b.ir_sha256 for b in report.builds] == [
            b.ir_sha256 for b in serial.builds
        ]


class TestBuildCli:
    def test_build_writes_outputs_and_report(self, capsys, tmp_path):
        out_dir = str(tmp_path / "out")
        report = str(tmp_path / "report.json")
        code, out, _err = run_cli(
            capsys,
            "build",
            "--jobs",
            "1",
            "--cache-dir",
            str(tmp_path / "cache"),
            "-o",
            out_dir,
            "--json",
            report,
        )
        assert code == 0
        assert "built" in out and "systems" in out
        assert any(f.endswith(".xir") for f in os.listdir(out_dir))
        data = json.load(open(report))
        assert data["ok"] is True
        assert all(b["ir_sha256"] for b in data["builds"])

    def test_second_build_is_warm(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        report = str(tmp_path / "warm.json")
        run_cli(capsys, "build", "-j", "1", "--cache-dir", cache_dir)
        code, out, _ = run_cli(
            capsys, "build", "-j", "1", "--cache-dir", cache_dir,
            "--json", report,
        )
        assert code == 0
        data = json.load(open(report))
        assert data["hit_rate"] >= 0.9
        assert data["cache"]["disk_hits"] > 0
        assert "hit rate" in out

    def test_no_cache_flag(self, capsys, tmp_path):
        code, _out, _ = run_cli(
            capsys, "build", "-j", "1", "--no-cache",
            "--cache-dir", str(tmp_path / "never"),
        )
        assert code == 0
        assert not os.path.exists(str(tmp_path / "never"))

    def test_unwritable_cache_dir_warns_and_builds(self, capsys, tmp_path):
        """A cache path that is a regular file costs the reuse, never the
        build: one warning, and the IR of an uncached build."""
        blocker = tmp_path / "F"
        blocker.write_text("not a directory")
        shas = []
        for flags in (("--cache-dir", str(blocker)), ("--no-cache",)):
            report = str(tmp_path / "report.json")
            code, _out, err = run_cli(
                capsys, "build", "liu_gpu_server", "-j", "1", *flags,
                "--json", report,
            )
            assert code == 0, err
            shas.append(json.load(open(report))["builds"][0]["ir_sha256"])
            if flags[0] == "--cache-dir":
                assert err.count("[XPDL0403]") == 1
                assert str(blocker) in err
        assert shas[0] == shas[1]

    def test_summary_names_only_a_cache_that_was_used(self, capsys, tmp_path):
        """``; persistent cache at DIR`` closes the summary only when the
        directory took a write or served a hit."""
        blocker = tmp_path / "F"
        blocker.write_text("not a directory")
        cache_dir = str(tmp_path / "cache")
        outs = []
        for where in (str(blocker), cache_dir, cache_dir):
            code, out, err = run_cli(
                capsys, "build", "liu_gpu_server", "-j", "1", "--cache-dir", where
            )
            assert code == 0, err
            outs.append(out)
        assert "persistent cache at" not in outs[0]
        for out in outs[1:]:  # cold (stores), then warm (hits)
            assert f"; persistent cache at {os.path.abspath(cache_dir)}" in out

    def test_explicit_identifiers_only(self, capsys, tmp_path):
        report = str(tmp_path / "one.json")
        code, _out, _ = run_cli(
            capsys, "build", "myriad_server", "-j", "1",
            "--cache-dir", str(tmp_path / "c"), "--json", report,
        )
        assert code == 0
        data = json.load(open(report))
        idents = [b["identifier"] for b in data["builds"]]
        assert idents == ["myriad_server"]

    def test_unknown_identifier_fails(self, capsys, tmp_path):
        code, _out, err = run_cli(
            capsys, "build", "ghost_system",
            "--cache-dir", str(tmp_path / "c"),
        )
        assert code == 2
        assert "ghost_system" in err


class TestCacheCli:
    def _prime(self, capsys, cache_dir: str) -> None:
        run_cli(
            capsys, "build", "myriad_server", "-j", "1",
            "--cache-dir", cache_dir,
        )

    def test_stats_verify_clear_roundtrip(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._prime(capsys, cache_dir)

        code, out, _ = run_cli(capsys, "cache", "stats", "--cache-dir", cache_dir)
        assert code == 0
        assert "entries:" in out
        assert "emit_ir" in out

        code, out, _ = run_cli(capsys, "cache", "verify", "--cache-dir", cache_dir)
        assert code == 0
        assert "0 problem(s)" in out

        code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", cache_dir)
        assert code == 0
        assert "cleared" in out

        code, out, _ = run_cli(capsys, "cache", "stats", "--cache-dir", cache_dir)
        assert code == 0
        assert "entries:  0" in out

    def test_verify_flags_corruption(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._prime(capsys, cache_dir)
        stages = os.path.join(cache_dir, "stages")
        records = [
            os.path.join(root, name)
            for root, _dirs, names in os.walk(stages)
            for name in names
        ]
        assert records
        for path in records:
            with open(path, "r+b") as fh:
                fh.seek(-1, os.SEEK_END)
                last = fh.read(1)[0]
                fh.seek(-1, os.SEEK_END)
                fh.write(bytes([last ^ 0xFF]))  # same size, other bytes
        code, out, err = run_cli(capsys, "cache", "verify", "--cache-dir", cache_dir)
        assert code == 1
        assert "mismatch" in err
        assert err.count("payload digest mismatch") == len(records)


class TestBenchHarness:
    @pytest.fixture(scope="class")
    def bench(self):
        """One harness run shared by the tests; each deep-copies before mutating."""
        harness = pytest.importorskip("benchmarks.harness")
        return harness, harness.run_bench(jobs=1, identifiers=["myriad_server"])

    def test_run_bench_and_gate(self, bench):
        harness, data = bench
        assert data["ir_deterministic"] is True
        assert data["phases"]["warm"]["hit_rate"] >= 0.9
        assert data["phases"]["cold"]["builds"] == 1
        assert harness.compare(data, data) == []

    def test_gate_fails_on_regression(self, bench):
        harness, data = bench
        worse = copy.deepcopy(data)
        worse["phases"]["warm"]["norm_wall"] = (
            data["phases"]["warm"]["norm_wall"] * 10.0 + 10.0
        )
        problems = harness.compare(data, worse, max_regress=0.25)
        assert any("regressed" in p for p in problems)

    def test_report_roundtrip(self, bench, tmp_path):
        harness, data = bench
        data = copy.deepcopy(data)
        data["rev"] = "testrev"
        path = harness.write_report(data, str(tmp_path))
        assert path.endswith("BENCH_testrev.json")
        loaded = harness.load_report(path)
        assert loaded == json.loads(json.dumps(data))

    def test_compare_names_a_speedup_gate_it_cannot_run(self, tmp_path, capsys):
        harness = pytest.importorskip("benchmarks.harness")
        from benchmarks.__main__ import main as bench_main

        baseline_path = os.path.join(
            os.path.dirname(harness.__file__), "baseline", "BENCH_baseline.json"
        )
        baseline = harness.load_report(baseline_path)
        cases = [
            (2, 2, "bench gate: skipped: sweep parallel speedup (2 cpus < 4)"),
            (8, 2, "bench gate: skipped: sweep parallel speedup (jobs=2 < 4)"),
            (8, 4, None),
        ]
        for cpus, jobs, line in cases:
            current = copy.deepcopy(baseline)
            current["sweep"].update(cpus=cpus, jobs=jobs, parallel_speedup=3.0)
            path = tmp_path / f"BENCH_{cpus}_{jobs}.json"
            path.write_text(json.dumps(current))
            # A skipped gate is neither a problem nor a failing exit.
            assert harness.compare(baseline, current) == []
            assert bench_main(["compare", baseline_path, str(path)]) == 0
            out = capsys.readouterr().out
            skipped = [x for x in out.splitlines() if "skipped" in x]
            assert skipped == ([line] if line else []), out
            assert out.rstrip().endswith("bench gate: OK")

    def test_committed_baseline_is_loadable(self):
        harness = pytest.importorskip("benchmarks.harness")
        baseline = harness.load_report(
            os.path.join(
                os.path.dirname(harness.__file__),
                "baseline",
                "BENCH_baseline.json",
            )
        )
        assert baseline["phases"]["warm"]["hit_rate"] >= 0.9
        assert baseline["ir_deterministic"] is True
