"""ToolchainSession: stage DAG, cache correctness, invalidation."""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.diagnostics import DiagnosticSink
from repro.modellib import PAPER_SYSTEMS, standard_repository
from repro.obs import Observer, use_observer
from repro.repository import LocalDirStore, MemoryStore, MirrorIndex, ModelRepository
from repro.repository.store import files_under, read_record, write_record
from repro.toolchain import (
    CACHE_SCHEMA_VERSION,
    STAGES,
    PersistentStageCache,
    ToolchainSession,
)

CPU_V1 = (
    "<cpu name='SynthCpu'>"
    "<group prefix='core' quantity='4'>"
    "<core frequency='2' frequency_unit='GHz'/>"
    "</group>"
    "</cpu>"
)
CPU_V2 = CPU_V1.replace("quantity='4'", "quantity='8'")
SYSTEM = (
    "<system id='SynthSys'><node>"
    "<cpu id='PE0' type='SynthCpu'/>"
    "</node></system>"
)


def stage_records(cache: PersistentStageCache, stage: str = "") -> list[str]:
    """Record files of one stage (every stage when ``stage`` is empty)."""
    return files_under(os.path.join(cache.stages_root, stage), ".rec")


def rewrite_headers(cache: PersistentStageCache, **changes) -> None:
    """Rewrite every stage record with ``changes`` in its header."""
    for path in stage_records(cache):
        header, payload = read_record(path, {})
        header.update(changes)
        write_record(path, header, payload)


def make_session(files: dict[str, str]) -> tuple[ToolchainSession, MemoryStore, Observer]:
    store = MemoryStore(dict(files))
    obs = Observer()
    session = ToolchainSession(
        ModelRepository([store]), observer=obs
    )
    return session, store, obs


class TestStageDag:
    def test_stage_names(self):
        assert set(STAGES) == {
            "load",
            "validate",
            "inherit",
            "compose",
            "analyze",
            "emit_ir",
            "bootstrap",
            "doctor",
        }

    def test_dependencies_acyclic_and_known(self):
        for spec in STAGES.values():
            for dep in spec.requires:
                assert dep in STAGES
        # every chain terminates at 'load'
        def roots(name, seen=()):
            spec = STAGES[name]
            if not spec.requires:
                return {name}
            assert name not in seen
            out = set()
            for dep in spec.requires:
                out |= roots(dep, seen + (name,))
            return out

        for name, spec in STAGES.items():
            expected = {"load"} if spec.requires else {name}
            assert roots(name) == expected

    def test_unknown_stage_rejected(self):
        session, _, _ = make_session({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        with pytest.raises(KeyError):
            session.request("optimize", "SynthSys")


class TestCacheCorrectness:
    def test_same_inputs_hit_same_artifact(self):
        session, _, obs = make_session({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        c1 = session.compose("SynthSys")
        c2 = session.compose("SynthSys")
        assert c1 is c2
        assert obs.counters["compose.runs"] == 1
        assert obs.counters["toolchain.cache.hits.compose"] == 1

    def test_emit_ir_reuses_composition(self):
        """compose + emit_ir (the `compose`/`to-json` pair) = ONE composition."""
        session, _, obs = make_session({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        composed = session.compose("SynthSys")
        emitted = session.emit_ir("SynthSys")
        assert emitted.referenced == composed.referenced
        assert obs.counters["compose.runs"] == 1
        assert obs.counters["toolchain.cache.hits.compose"] >= 1

    def test_repeated_emit_ir_identical_bytes(self):
        session, _, obs = make_session({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        b1 = session.emit_ir("SynthSys").ir.to_bytes()
        b2 = session.emit_ir("SynthSys").ir.to_bytes()
        assert b1 == b2
        assert obs.counters["toolchain.cache.hits.emit_ir"] == 1
        assert obs.counters["compose.runs"] == 1

    def test_touching_referenced_source_recomposes(self):
        """Editing a transitively-referenced descriptor misses the cache."""
        session, store, obs = make_session(
            {"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM}
        )
        c1 = session.compose("SynthSys")
        n1 = sum(1 for _ in c1.root.walk())
        store.put("cpu.xpdl", CPU_V2)
        c2 = session.compose("SynthSys")
        n2 = sum(1 for _ in c2.root.walk())
        assert c2 is not c1
        assert n2 > n1  # 8 cores now, not 4
        assert obs.counters["compose.runs"] == 2
        assert obs.counters["toolchain.cache.invalidations"] >= 1

    def test_touching_file_on_disk_recomposes(self, tmp_path):
        """Same, through a LocalDirStore: a real file edit is noticed."""
        (tmp_path / "cpu.xpdl").write_text(CPU_V1)
        (tmp_path / "sys.xpdl").write_text(SYSTEM)
        obs = Observer()
        session = ToolchainSession(
            ModelRepository([LocalDirStore(str(tmp_path))]), observer=obs
        )
        c1 = session.compose("SynthSys")
        assert session.compose("SynthSys") is c1
        (tmp_path / "cpu.xpdl").write_text(CPU_V2)
        c2 = session.compose("SynthSys")
        assert c2 is not c1
        assert obs.counters["compose.runs"] == 2

    def test_changing_option_is_a_distinct_entry(self):
        session, _, obs = make_session({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        session.emit_ir("SynthSys", keep_all=False)
        session.emit_ir("SynthSys", keep_all=True)
        # two distinct emit_ir computations, but still one composition
        assert obs.counters["toolchain.cache.misses.emit_ir"] == 2
        assert obs.counters["compose.runs"] == 1

    def test_composer_bindings_change_key(self):
        session, _, obs = make_session({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        session.compose("SynthSys")
        session.compose("SynthSys", bindings={})
        session.compose("SynthSys", bindings={})
        assert obs.counters["toolchain.cache.misses.compose"] == 2
        assert obs.counters["compose.runs"] == 2

    def test_session_invalidate_clears_everything(self):
        session, _, obs = make_session({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        session.compose("SynthSys")
        session.invalidate()
        session.compose("SynthSys")
        assert obs.counters["compose.runs"] == 2


class TestCorpusProperty:
    """Property-style check over the E2 corpus (the paper's systems)."""

    @pytest.mark.parametrize("system", PAPER_SYSTEMS)
    def test_recompose_is_hit_with_identical_ir(self, system):
        obs = Observer()
        session = ToolchainSession(standard_repository(), observer=obs)
        first = session.emit_ir(system)
        bytes1 = first.ir.to_bytes()
        hits_before = obs.counters.get("toolchain.cache.hits", 0)
        second = session.emit_ir(system)
        assert second is first
        assert second.ir.to_bytes() == bytes1
        assert obs.counters["toolchain.cache.hits"] > hits_before
        assert obs.counters["compose.runs"] == 1


class TestDiagnosticsPlumbing:
    def test_shared_sink_with_stage_provenance(self):
        # pcie3-style placeholder notes, lint warnings etc. all land in the
        # ONE session sink with the emitting stage recorded.
        session, _, _ = make_session(
            {
                "cpu.xpdl": CPU_V1,
                "sys.xpdl": SYSTEM.replace(
                    "<node>", "<node><memory type='DDR3' size='4' unit='GB'/>"
                ),
            }
        )
        session.emit_ir("SynthSys")
        stages = {d.stage for d in session.sink}
        assert stages  # something was emitted
        assert stages <= set(STAGES)  # every diagnostic has stage provenance

    def test_validation_result_counts(self):
        session, _, _ = make_session({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        result = session.validate("SynthCpu")
        assert result.ok()
        assert result.placeholders == 0

    def test_diagnostics_not_duplicated_on_hit(self):
        session, _, _ = make_session(
            {
                "cpu.xpdl": CPU_V1,
                "sys.xpdl": SYSTEM.replace(
                    "<node>", "<node><memory type='DDR3' size='4' unit='GB'/>"
                ),
            }
        )
        session.compose("SynthSys")
        n = len(session.sink)
        session.compose("SynthSys")
        assert len(session.sink) == n


class TestBootstrapStage:
    def test_bootstrap_reuses_composition(self):
        obs = Observer()
        session = ToolchainSession(standard_repository(), observer=obs)
        session.compose("liu_gpu_server")
        result = session.bootstrap("liu_gpu_server", seed=1, repetitions=2)
        assert result.total_runs > 0
        assert obs.counters["compose.runs"] == 1
        assert obs.counters["bench.runs"] == result.total_runs


class TestSharedSinkOption:
    def test_external_sink_is_used(self):
        sink = DiagnosticSink()
        session, _, _ = make_session({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        session2 = ToolchainSession(session.repository, sink=sink)
        session2.compose("SynthSys")
        assert session2.sink is sink


CPU_B = CPU_V1.replace("SynthCpu", "OtherCpu")
SYSTEM_B = SYSTEM.replace("SynthSys", "OtherSys").replace("SynthCpu", "OtherCpu")


class TestPersistentCache:
    """The on-disk stage cache: cross-invocation reuse and invalidation."""

    def _session(self, store, cache_dir) -> tuple[ToolchainSession, Observer]:
        obs = Observer()
        session = ToolchainSession(
            ModelRepository([store]),
            observer=obs,
            disk_cache=PersistentStageCache(str(cache_dir)),
        )
        return session, obs

    def test_new_session_served_from_disk(self, tmp_path):
        """A fresh session (new process, in spirit) never recomposes."""
        store = MemoryStore({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        s1, o1 = self._session(store, tmp_path)
        first = s1.emit_ir("SynthSys")
        assert o1.counters["compose.runs"] == 1
        assert s1.cache_stats()["disk_stores"] >= 3  # compose, analyze, emit_ir

        s2, o2 = self._session(store, tmp_path)
        second = s2.emit_ir("SynthSys")
        assert o2.counters.get("compose.runs", 0) == 0
        assert o2.counters["toolchain.diskcache.hits.emit_ir"] == 1
        assert second.ir.to_bytes() == first.ir.to_bytes()
        assert s2.cache_stats()["disk_hits"] == 1

    def test_touched_source_invalidates_exactly_its_dependents(self, tmp_path):
        """Editing one system's cpu leaves the *other* system's entries warm."""
        store = MemoryStore(
            {
                "cpu_a.xpdl": CPU_V1,
                "sys_a.xpdl": SYSTEM,
                "cpu_b.xpdl": CPU_B,
                "sys_b.xpdl": SYSTEM_B,
            }
        )
        s1, _ = self._session(store, tmp_path)
        s1.emit_ir("SynthSys")
        s1.emit_ir("OtherSys")

        store.put("cpu_a.xpdl", CPU_V2)  # only SynthSys depends on this
        s2, o2 = self._session(store, tmp_path)
        s2.emit_ir("OtherSys")  # untouched closure: still a disk hit
        assert o2.counters.get("compose.runs", 0) == 0
        assert o2.counters["toolchain.diskcache.hits.emit_ir"] == 1
        s2.emit_ir("SynthSys")  # touched closure: stale, recomputed
        assert o2.counters["compose.runs"] == 1
        assert o2.counters["toolchain.diskcache.stale"] >= 1

    def test_version_mismatch_reads_as_empty(self, tmp_path):
        store = MemoryStore({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        s1, _ = self._session(store, tmp_path)
        s1.emit_ir("SynthSys")
        rewrite_headers(
            PersistentStageCache(str(tmp_path)), version=CACHE_SCHEMA_VERSION + 1
        )
        s2, o2 = self._session(store, tmp_path)
        s2.emit_ir("SynthSys")
        assert o2.counters["compose.runs"] == 1
        assert s2.cache_stats()["disk_hits"] == 0
        # The recompute overwrote each foreign record with a current one.
        s3, o3 = self._session(store, tmp_path)
        s3.emit_ir("SynthSys")
        assert o3.counters.get("compose.runs", 0) == 0

    def test_schema4_records_read_as_empty(self, tmp_path):
        """Schema 4 pickled a composition and a node list into each
        ``emit_ir`` record; such a cache is rebuilt, never misread."""
        store = MemoryStore({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        s1, _ = self._session(store, tmp_path)
        want = s1.emit_ir("SynthSys").ir_sha256()
        rewrite_headers(PersistentStageCache(str(tmp_path)), version=4)
        s2, o2 = self._session(store, tmp_path)
        assert s2.emit_ir("SynthSys").ir_sha256() == want
        assert o2.counters["compose.runs"] == 1
        assert s2.cache_stats()["disk_hits"] == 0
        assert not s2.sink.has_errors()

    def test_schema3_directory_reads_as_empty(self, tmp_path):
        """The index layout of schema 3 is never read; ``clear`` drops it
        and keeps the offline mirror."""
        (tmp_path / "index.json").write_text(
            json.dumps({"version": 3, "pickle_protocol": 4, "entries": {}})
        )
        (tmp_path / "objects" / "ab").mkdir(parents=True)
        (tmp_path / "objects" / "ab" / "ab12.bin").write_bytes(b"old blob")
        (tmp_path / ".lock").write_text("")
        mirror = MirrorIndex(str(tmp_path / "mirror"))
        mirror.put("cpu.xpdl", CPU_V1)
        store = MemoryStore({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        session, obs = self._session(store, tmp_path)
        session.emit_ir("SynthSys")
        assert obs.counters["compose.runs"] == 1
        assert not session.sink.has_errors()
        cache = PersistentStageCache(str(tmp_path))
        assert cache.verify() == (4, [])
        assert cache.clear() == 4
        assert os.listdir(tmp_path) == ["mirror"]  # clear keeps the mirror
        assert mirror.get("cpu.xpdl") == CPU_V1

    def test_corrupt_blob_is_a_miss_and_verify_reports_it(self, tmp_path):
        store = MemoryStore({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        s1, _ = self._session(store, tmp_path)
        s1.emit_ir("SynthSys")
        cache = PersistentStageCache(str(tmp_path))
        records = stage_records(cache)
        assert records
        for path in records:
            with open(path, "wb") as fh:
                fh.write(b"not a pickle")

        checked, problems = cache.verify()
        assert checked >= 3 and problems

        s2, o2 = self._session(store, tmp_path)
        result = s2.emit_ir("SynthSys")  # miss + recompute, never a crash
        assert result.ir is not None
        assert o2.counters["cache.corrupt"] >= 1
        assert o2.counters["compose.runs"] == 1

    def test_concurrent_processes_share_one_cache(self, tmp_path):
        """Two processes building into one cache dir: no index corruption."""
        models = tmp_path / "models"
        models.mkdir()
        (models / "cpu.xpdl").write_text(CPU_V1)
        (models / "sys.xpdl").write_text(SYSTEM)
        cache_dir = tmp_path / "cache"
        script = textwrap.dedent(
            f"""
            from repro.repository import LocalDirStore, ModelRepository
            from repro.toolchain import PersistentStageCache, ToolchainSession

            session = ToolchainSession(
                ModelRepository([LocalDirStore({str(models)!r})]),
                disk_cache=PersistentStageCache({str(cache_dir)!r}),
            )
            session.emit_ir("SynthSys")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        procs = [
            subprocess.Popen([sys.executable, "-c", script], env=env)
            for _ in range(2)
        ]
        assert [p.wait(timeout=120) for p in procs] == [0, 0]

        cache = PersistentStageCache(str(cache_dir))
        checked, problems = cache.verify()
        assert problems == []
        # compose, analyze, emit_ir stages + the content-addressed runtime
        # image — each cached once, not twice.
        assert checked == 4

        obs = Observer()
        session = ToolchainSession(
            ModelRepository([LocalDirStore(str(models))]),
            observer=obs,
            disk_cache=cache,
        )
        session.emit_ir("SynthSys")
        assert obs.counters.get("compose.runs", 0) == 0


#: Classes no stage blob may reference: the repository and the session's
#: diagnostics belong to the process that computed an artifact, not to it.
NOT_ARTIFACTS = frozenset(
    {"ModelRepository", "DiagnosticSink", "SourceText", "LoadedModel", "IndexEntry"}
)


class _ArtifactOnlyUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        if name in NOT_ARTIFACTS:
            raise pickle.UnpicklingError(f"stage blob holds {module}.{name}")
        return super().find_class(module, name)


class _ImageOnlyUnpickler(_ArtifactOnlyUnpickler):
    """Refuses what an ``emit_ir`` record held beside the image before
    the image became the one copy of the model."""

    def find_class(self, module, name):
        if name in ("ComposedModel", "IRNode"):
            raise pickle.UnpicklingError(f"emit_ir record holds {module}.{name}")
        return super().find_class(module, name)


class TestBlobsHoldOnlyTheArtifact:
    """Stage blobs are plain data; a disk hit reports to the session that
    loads it, exactly as a fresh compute in that session would."""

    SYSTEM = "liu_gpu_server"

    def _session(self, cache_dir) -> ToolchainSession:
        return ToolchainSession(
            standard_repository(),
            disk_cache=PersistentStageCache(str(cache_dir)),
        )

    def test_blobs_unpickle_without_repository_or_sink(self, tmp_path):
        session = self._session(tmp_path)
        session.emit_ir(self.SYSTEM)
        session.doctor(self.SYSTEM)
        assert session.sink.sources  # what a pickled sink would drag along
        cache = PersistentStageCache(str(tmp_path))
        stages = []
        for path in stage_records(cache):
            header, payload = read_record(path, {})
            _ArtifactOnlyUnpickler(io.BytesIO(payload)).load()
            stages.append(header["stage"])
        assert sorted(stages) == ["analyze", "compose", "doctor", "emit_ir"]

    def test_disk_hit_composition_reports_to_the_session(self, tmp_path):
        self._session(tmp_path).emit_ir(self.SYSTEM)
        session = self._session(tmp_path)
        emitted = session.emit_ir(self.SYSTEM)
        analyzed = session.analyze(self.SYSTEM)
        composed = session.compose(self.SYSTEM)
        assert session.cache_stats()["disk_hits"] == 3
        assert emitted.referenced == composed.referenced
        for hit in (analyzed.composed, composed):
            assert hit.sink is session.sink

    def test_image_key_is_the_ir_digest(self, tmp_path):
        fresh = self._session(tmp_path).emit_ir(self.SYSTEM)
        loaded_from = self._session(tmp_path)
        loaded = loaded_from.emit_ir(self.SYSTEM)
        assert loaded_from.cache_stats()["disk_hits"] == 1
        digest = hashlib.sha256(fresh.ir.to_bytes()).hexdigest()
        # Without a disk cache the emitted IR is an image all the same.
        uncached = ToolchainSession(standard_repository()).emit_ir(self.SYSTEM)
        for result in (fresh, loaded, uncached):
            assert result.ir._image is not None
            assert result.image_key == hashlib.sha256(
                result.ir.to_bytes()
            ).hexdigest()
            assert result.ir_sha256() == result.image_key == digest

    def test_emit_ir_record_holds_one_copy_of_the_model(self, tmp_path):
        """The record pickles the image alone: no composition and no
        node list beside it."""
        emitted = self._session(tmp_path).emit_ir(self.SYSTEM)
        image = emitted.ir.to_bytes()
        (path,) = stage_records(PersistentStageCache(str(tmp_path)), "emit_ir")
        _header, payload = read_record(path, {})
        loaded = _ImageOnlyUnpickler(io.BytesIO(payload)).load()
        assert loaded.ir.to_bytes() == image
        assert loaded.referenced == emitted.referenced
        assert len(image) < len(payload) < len(image) + 4096


class TestInvalidationHooks:
    """Hooks fired when a cached stage entry is dropped (stale fingerprint)."""

    def test_edit_fires_hook_for_stale_stages(self):
        session, store, _ = make_session(
            {"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM}
        )
        events: list[tuple[str, str]] = []
        session.add_invalidation_hook(lambda s, i: events.append((s, i)))
        session.emit_ir("SynthSys")
        assert events == []  # first computation drops nothing
        store.put("cpu.xpdl", CPU_V2)
        session.emit_ir("SynthSys")
        assert ("emit_ir", "SynthSys") in events
        assert ("compose", "SynthSys") in events

    def test_warm_hit_fires_nothing(self):
        session, _, _ = make_session({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        events: list[tuple[str, str]] = []
        session.add_invalidation_hook(lambda s, i: events.append((s, i)))
        session.emit_ir("SynthSys")
        session.emit_ir("SynthSys")
        assert events == []

    def test_session_invalidate_fires_for_every_entry(self):
        session, _, _ = make_session({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        events: list[tuple[str, str]] = []
        session.add_invalidation_hook(lambda s, i: events.append((s, i)))
        session.emit_ir("SynthSys")
        session.invalidate()
        assert ("emit_ir", "SynthSys") in events
        assert len(events) >= 3  # load/compose/analyze/emit_ir all dropped

    def test_multiple_hooks_all_fire(self):
        session, store, _ = make_session(
            {"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM}
        )
        a: list[str] = []
        b: list[str] = []
        session.add_invalidation_hook(lambda s, i: a.append(s))
        session.add_invalidation_hook(lambda s, i: b.append(s))
        session.emit_ir("SynthSys")
        store.put("cpu.xpdl", CPU_V2)
        session.emit_ir("SynthSys")
        assert a and a == b


class TestDiskCacheErrorTyping:
    """Corruption paths are typed and counted, not swallowed bare."""

    KEY = ("emit_ir", "SynthSys")

    def _populated_cache(self, tmp_path) -> tuple[PersistentStageCache, str]:
        store = MemoryStore({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        cache = PersistentStageCache(str(tmp_path))
        session = ToolchainSession(
            ModelRepository([store]), disk_cache=cache
        )
        session.emit_ir("SynthSys")
        fresh = PersistentStageCache(str(tmp_path))
        (path,) = stage_records(fresh, "emit_ir")
        return fresh, path

    def _options(self, path: str) -> str:
        with open(path, "rb") as fh:
            return json.loads(fh.readline())["options"]

    def test_missing_payload_counts_cache_corrupt(self, tmp_path):
        cache, path = self._populated_cache(tmp_path)
        options = self._options(path)
        with open(path, "rb") as fh:
            header_line = fh.readline()
        with open(path, "wb") as fh:
            fh.write(header_line)  # the header survives, the pickle is gone
        obs = Observer()
        with use_observer(obs):
            assert cache.lookup(*self.KEY, options) is None
        assert obs.counters["cache.corrupt"] == 1

    def test_digest_mismatch_counts_cache_corrupt(self, tmp_path):
        cache, path = self._populated_cache(tmp_path)
        options = self._options(path)
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))  # same size, other bytes
        obs = Observer()
        with use_observer(obs):
            assert cache.lookup(*self.KEY, options) is None
        assert obs.counters["cache.corrupt"] == 1

    def test_garbled_pickle_counts_cache_corrupt(self, tmp_path):
        cache, path = self._populated_cache(tmp_path)
        header, _ = read_record(path, {})
        # A whole record (size and digest agree) whose pickle is garbage,
        # so only unpickling can fail.
        write_record(path, header, b"\x80\x04not really a pickle stream")
        obs = Observer()
        with use_observer(obs):
            entry = cache.lookup(*self.KEY, header["options"])
            assert entry is not None
            ok, _ = cache.load(entry)
        assert not ok
        assert obs.counters["cache.corrupt"] == 1

    def test_unpicklable_value_counts_and_returns_false(self, tmp_path):
        cache = PersistentStageCache(str(tmp_path))
        obs = Observer()
        with use_observer(obs):
            stored = cache.store(
                "emit_ir",
                "X",
                "opts",
                "fp",
                ("x.xpdl",),
                lambda: None,  # lambdas cannot be pickled
            )
        assert stored is False
        assert obs.counters["cache.unpicklable"] == 1
        assert cache.stats()["entries"] == 0

    def test_unwritable_directory_counts_and_returns_false(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("a regular file, not a directory")
        cache = PersistentStageCache(str(blocker))
        obs = Observer()
        with use_observer(obs):
            stored = cache.store("emit_ir", "X", "opts", "fp", (), 42)
            assert cache.lookup("emit_ir", "X", "opts") is None
        assert stored is False
        assert isinstance(cache.write_error, OSError)
        assert obs.counters["cache.write_errors"] == 1
        assert "cache.corrupt" not in obs.counters

    def test_overwritten_key_loads_what_was_looked_up(self, tmp_path):
        """Store A, look it up, store B under the same key: loading the
        looked-up entry gives A or a miss, never B."""
        cache = PersistentStageCache(str(tmp_path))
        key = ("compose", "Sys", "()")
        assert cache.store(*key, "fp-a", ("a.xpdl",), {"artifact": "A"})
        entry = cache.lookup(*key)
        assert entry is not None and entry.fingerprint == "fp-a"
        assert cache.store(*key, "fp-b", ("b.xpdl",), {"artifact": "B"})
        ok, value = cache.load(entry)
        assert (ok, value) in ((True, {"artifact": "A"}), (False, None))
        assert cache.stats()["entries"] == 1
        fresh = cache.lookup(*key)
        assert fresh is not None and fresh.fingerprint == "fp-b"

    def test_error_tuples_are_actual_exception_types(self):
        from repro.toolchain.diskcache import PICKLE_ERRORS, UNPICKLE_ERRORS

        for group in (UNPICKLE_ERRORS, PICKLE_ERRORS):
            assert all(
                isinstance(t, type) and issubclass(t, Exception)
                for t in group
            )
        assert Exception not in UNPICKLE_ERRORS
        assert Exception not in PICKLE_ERRORS


#: One stored stage record, damaged by the fuzz below.
FUZZ_KEY = ("compose", "FuzzSys", "(('expand', True),)")
FUZZ_ARTIFACT = {"cores": 4, "sources": ("cpu.xpdl", "sys.xpdl")}


def _stored_record() -> bytes:
    with tempfile.TemporaryDirectory() as root:
        cache = PersistentStageCache(root)
        assert cache.store(*FUZZ_KEY, "f" * 64, ("cpu.xpdl",), FUZZ_ARTIFACT)
        with open(cache.record_path(*FUZZ_KEY), "rb") as fh:
            return fh.read()


STORED_RECORD = _stored_record()


def _read_damaged(data: bytes) -> tuple[bool, object, Observer]:
    obs = Observer()
    with tempfile.TemporaryDirectory() as root, use_observer(obs):
        cache = PersistentStageCache(root)
        path = cache.record_path(*FUZZ_KEY)
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as fh:
            fh.write(data)
        entry = cache.lookup(*FUZZ_KEY)
        ok, value = cache.load(entry) if entry is not None else (False, None)
    return ok, value, obs


class TestStageRecordFuzz:
    """A damaged stage record is a counted miss or the stored artifact:
    the reader never raises and never returns another artifact."""

    def _check(self, data: bytes) -> None:
        ok, value, obs = _read_damaged(data)
        if ok:
            assert value == FUZZ_ARTIFACT
        else:
            assert obs.counters.get("cache.corrupt", 0) == 1

    @settings(max_examples=300, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=len(STORED_RECORD) - 1))
    def test_truncated_record(self, cut):
        self._check(STORED_RECORD[:cut])

    @settings(max_examples=300, deadline=None)
    @given(
        at=st.integers(min_value=0, max_value=len(STORED_RECORD) - 1),
        mask=st.integers(min_value=1, max_value=255),
    )
    def test_flipped_byte(self, at, mask):
        data = bytearray(STORED_RECORD)
        data[at] ^= mask
        self._check(bytes(data))

    def test_intact_record_reads_back(self):
        ok, value, obs = _read_damaged(STORED_RECORD)
        assert ok and value == FUZZ_ARTIFACT
        assert "cache.corrupt" not in obs.counters


class TestDoctorStage:
    """The doctor stage: caching, invalidation, disk persistence."""

    def test_warm_request_is_a_hit(self):
        session, _, obs = make_session({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        r1 = session.doctor()
        assert session.doctor() is r1
        assert obs.counters["toolchain.cache.hits.doctor"] == 1

    def test_system_scope_reuses_cached_compose(self):
        session, _, obs = make_session({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        session.compose("SynthSys")
        session.doctor("SynthSys")
        assert obs.counters["compose.runs"] == 1

    def test_repo_scope_invalidated_by_any_descriptor_edit(self):
        """The repository pass is fingerprinted over the whole index."""
        session, store, obs = make_session(
            {"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM}
        )
        r1 = session.doctor()
        store.put("cpu.xpdl", CPU_V2)
        r2 = session.doctor()
        assert r2 is not r1
        assert obs.counters["toolchain.cache.misses.doctor"] == 2

    def test_suppress_is_part_of_the_cache_key(self):
        session, _, obs = make_session({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        session.doctor()
        session.doctor(suppress=("XPDL0703",))
        assert obs.counters["toolchain.cache.misses.doctor"] == 2

    def test_fresh_session_served_from_disk(self, tmp_path):
        store = MemoryStore({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        cache = PersistentStageCache(str(tmp_path))
        s1 = ToolchainSession(ModelRepository([store]), disk_cache=cache)
        r1 = s1.doctor()

        obs = Observer()
        s2 = ToolchainSession(
            ModelRepository([store]), observer=obs, disk_cache=cache
        )
        r2 = s2.doctor()
        assert obs.counters["toolchain.diskcache.hits.doctor"] == 1
        assert r2.findings == r1.findings
        assert r2.rules_run == r1.rules_run


class TestFingerprintResilience:
    """Transient fetch failures and mirror serves must not poison stage
    fingerprints: identical descriptor bytes mean a cache hit, full stop."""

    def _stacked_session(self, tmp_path, *, mirror: bool):
        from repro.repository import RemoteSimStore, resilient_stack

        backing = MemoryStore({"cpu.xpdl": CPU_V1, "sys.xpdl": SYSTEM})
        remote = RemoteSimStore(backing)
        stack = resilient_stack(
            remote,
            attempts=2,
            mirror_dir=str(tmp_path / "mirror") if mirror else None,
            cache=False,  # every fetch exercises the resilience layers
        )
        obs = Observer()
        session = ToolchainSession(ModelRepository([stack]), observer=obs)
        return session, remote, obs

    def test_mirror_served_text_keeps_cache_hot(self, tmp_path):
        from repro.repository import AlwaysFail, FaultPlan

        session, remote, obs = self._stacked_session(tmp_path, mirror=True)
        session.compose("SynthSys")
        remote.faults = FaultPlan(default=AlwaysFail())  # remote dies
        session.compose("SynthSys")  # mirror serves identical bytes
        assert obs.counters["toolchain.cache.hits.compose"] == 1
        assert obs.counters["compose.runs"] == 1
        assert obs.counters.get("repo.mirror.hits", 0) >= 1

    def test_dead_remote_without_mirror_keeps_cache_hot(self, tmp_path):
        from repro.repository import AlwaysFail, FaultPlan

        session, remote, obs = self._stacked_session(tmp_path, mirror=False)
        session.compose("SynthSys")
        remote.faults = FaultPlan(default=AlwaysFail())
        session.compose("SynthSys")  # falls back to the indexed texts
        assert obs.counters["toolchain.cache.hits.compose"] == 1
        assert obs.counters.get("repo.source_text.degraded", 0) >= 1

    def test_real_edit_still_invalidates_through_the_stack(self, tmp_path):
        session, remote, obs = self._stacked_session(tmp_path, mirror=True)
        session.compose("SynthSys")
        remote.backing.put("cpu.xpdl", CPU_V2)
        session.repository.invalidate()
        session.compose("SynthSys")
        assert obs.counters["compose.runs"] == 2
